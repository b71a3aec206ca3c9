#include "net/radio.h"

#include <cmath>

namespace edb::net {

Expected<bool> RadioParams::validate() const {
  // Written so NaN and ±inf fail too: every field can arrive in a request,
  // and a NaN passes any `x <= 0` test.
  auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  auto non_negative = [](double x) { return std::isfinite(x) && x >= 0.0; };
  if (!(positive(p_tx) && positive(p_rx) && non_negative(p_sleep))) {
    return make_error(ErrorCode::kInvalidArgument,
                      "radio powers must be positive and finite (sleep >= 0)");
  }
  if (p_sleep >= p_rx || p_sleep >= p_tx) {
    return make_error(ErrorCode::kInvalidArgument,
                      "sleep power must be below active powers");
  }
  if (!positive(bitrate)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "bitrate must be positive and finite");
  }
  if (!(non_negative(t_startup) && non_negative(t_turnaround) &&
        non_negative(t_cca))) {
    return make_error(ErrorCode::kInvalidArgument,
                      "timing overheads must be non-negative and finite");
  }
  return true;
}

RadioParams RadioParams::cc2420() {
  RadioParams r;
  r.name = "cc2420";
  // 0 dBm TX: 17.4 mA, RX: 18.8 mA at 3 V.
  r.p_tx = 0.0522;
  r.p_rx = 0.0564;
  r.p_sleep = 3.0e-6;
  r.bitrate = 250e3;
  r.t_startup = 0.5e-3;
  r.t_turnaround = 0.2e-3;
  r.t_cca = 0.3e-3;
  return r;
}

RadioParams RadioParams::cc1000() {
  RadioParams r;
  r.name = "cc1000";
  // 915 MHz, 5 dBm TX: 25.4 mA, RX: 9.6 mA at 3 V; byte-level radio.
  r.p_tx = 0.0762;
  r.p_rx = 0.0288;
  r.p_sleep = 0.6e-6;
  r.bitrate = 19.2e3;
  r.t_startup = 2.0e-3;
  r.t_turnaround = 0.5e-3;
  r.t_cca = 0.45e-3;
  return r;
}

}  // namespace edb::net
