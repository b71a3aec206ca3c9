#include "core/scenario.h"

#include <cmath>

namespace edb::core {

Expected<bool> AppRequirements::validate() const {
  // Written so NaN fails too: requests enter here, and a NaN bound would
  // otherwise pass every `<= 0` test and reach the solver's assertions.
  if (!(std::isfinite(e_budget) && e_budget > 0.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "energy budget must be positive and finite");
  }
  if (!(std::isfinite(l_max) && l_max > 0.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "delay bound must be positive and finite");
  }
  return true;
}

Expected<bool> Scenario::validate() const {
  if (auto r = context.validate(); !r.ok()) return r;
  return requirements.validate();
}

Scenario Scenario::paper_default() {
  Scenario s;
  s.context.radio = net::RadioParams::cc2420();
  s.context.packet = net::PacketFormat::default_wsn();
  s.context.ring = net::RingTopology{.depth = 5, .density = 7};
  s.context.fs = 6.5e-5;
  s.context.energy_epoch = 100.0;
  s.requirements = AppRequirements{.e_budget = 0.06, .l_max = 6.0};
  return s;
}

}  // namespace edb::core
