#include "net/packet.h"

#include <cmath>

namespace edb::net {

Expected<bool> PacketFormat::validate() const {
  // Written so NaN and ±inf fail too (see RadioParams::validate).
  auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!(std::isfinite(payload_bytes) && payload_bytes >= 0.0 &&
        positive(header_bytes))) {
    return make_error(ErrorCode::kInvalidArgument,
                      "payload must be >= 0 and header > 0 bytes, both finite");
  }
  if (!(positive(ack_bytes) && positive(strobe_bytes) &&
        positive(ctrl_bytes) && positive(sync_bytes))) {
    return make_error(ErrorCode::kInvalidArgument,
                      "control frame sizes must be positive and finite");
  }
  return true;
}

PacketFormat PacketFormat::default_wsn() { return PacketFormat{}; }

}  // namespace edb::net
