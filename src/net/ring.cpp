#include "net/ring.h"

#include <algorithm>
#include <cmath>

namespace edb::net {

Expected<bool> RingTopology::validate() const {
  if (depth < 1) {
    return make_error(ErrorCode::kInvalidArgument, "ring depth must be >= 1");
  }
  // Written so NaN and ±inf fail too (see RadioParams::validate).
  if (!(std::isfinite(density) && density >= 1.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "density must be finite and >= 1 (tree needs "
                      "connectivity)");
  }
  return true;
}

double RingTopology::nodes_in_ring(int d) const {
  EDB_ASSERT(d >= 1 && d <= depth, "ring index out of range");
  return (density + 1.0) * (2.0 * d - 1.0);
}

double RingTopology::total_nodes() const {
  return (density + 1.0) * static_cast<double>(depth) *
         static_cast<double>(depth);
}

double RingTopology::children(int d) const {
  EDB_ASSERT(d >= 1 && d <= depth, "ring index out of range");
  if (d == depth) return 0.0;
  // Population ratio of the next ring to this one: every ring-(d+1) node has
  // exactly one ring-d parent.
  return (2.0 * d + 1.0) / (2.0 * d - 1.0);
}

RingTraffic::RingTraffic(RingTopology topo, double fs)
    : topo_(topo), fs_(fs) {
  EDB_ASSERT(topo_.validate().ok(), "invalid ring topology");
  EDB_ASSERT(fs_ > 0.0, "sampling rate must be positive");
}

void RingTraffic::check_ring(int d) const {
  EDB_ASSERT(d >= 1 && d <= topo_.depth, "ring index out of range");
}

double RingTraffic::f_out(int d) const {
  check_ring(d);
  const double D = topo_.depth;
  // All sources in rings >= d route through ring d, shared evenly.
  return fs_ * (D * D - (d - 1.0) * (d - 1.0)) / (2.0 * d - 1.0);
}

double RingTraffic::f_in(int d) const {
  check_ring(d);
  return f_out(d) - fs_;
}

double RingTraffic::f_bg(int d) const {
  check_ring(d);
  return std::max(0.0, topo_.density * f_out(d) - f_in(d));
}

double RingTraffic::ring_load(int d) const {
  check_ring(d);
  return topo_.nodes_in_ring(d) * f_out(d);
}

double RingTraffic::sink_load() const { return topo_.total_nodes() * fs_; }

}  // namespace edb::net
