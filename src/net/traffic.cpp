#include "net/traffic.h"

#include <cmath>

namespace edb::net {

Expected<bool> TrafficModel::validate() const {
  // Written so NaN and ±inf fail too (see RadioParams::validate).
  if (!(std::isfinite(fs) && fs > 0.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "sampling rate must be positive and finite");
  }
  if (!(jitter_frac >= 0.0 && jitter_frac < 1.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "jitter fraction must be in [0, 1)");
  }
  if (!(std::isfinite(burst_factor) && burst_factor >= 1.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "burst factor must be finite and >= 1");
  }
  if (arrivals == ArrivalProcess::kBursty && burst_factor <= 1.0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "bursty arrivals need a burst factor > 1");
  }
  return true;
}

double TrafficModel::interval_second_moment() const {
  const double t = period();
  switch (arrivals) {
    case ArrivalProcess::kPoisson:
      // Exponential: E[I^2] = 2 / fs^2.
      return 2.0 * t * t;
    case ArrivalProcess::kBursty: {
      // Same two-point mixture as next_generation_time: short gap T/B
      // with probability (B-1)/B, long gap T (B^2 - B + 1)/B with
      // probability 1/B.
      const double b = burst_factor;
      return t * t * ((b - 1.0) + (b * b - b + 1.0) * (b * b - b + 1.0)) /
             (b * b * b);
    }
    case ArrivalProcess::kPeriodic:
      break;
  }
  // T + U(-jT, jT): Var = (2jT)^2 / 12 = j^2 T^2 / 3.
  return t * t * (1.0 + jitter_frac * jitter_frac / 3.0);
}

double TrafficModel::initial_phase(Rng& rng) const {
  return rng.uniform(0.0, period());
}

double TrafficModel::next_generation_time(double previous_nominal,
                                          Rng& rng) const {
  switch (arrivals) {
    case ArrivalProcess::kPoisson:
      return previous_nominal + rng.exponential(fs);
    case ArrivalProcess::kBursty: {
      // Two-point mixture preserving the mean: E[interval] =
      // (B-1)/B * T/B + 1/B * T * (B - (B-1)/B) = T.
      const double b = burst_factor;
      const double t = period();
      if (rng.uniform() < (b - 1.0) / b) {
        return previous_nominal + t / b;              // intra-burst gap
      }
      return previous_nominal + t * (b - (b - 1.0) / b);  // inter-burst gap
    }
    case ArrivalProcess::kPeriodic:
      break;
  }
  const double jitter = jitter_frac * period();
  return previous_nominal + period() + rng.uniform(-jitter, jitter);
}

}  // namespace edb::net
