// Process-level helpers shared by perfbench's translation units.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double process_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTime host_time() {
  HostTime t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  unsigned long long v = 0;
  for (int field = 1; field <= 8 && stat >> v; ++field) {
    t.total_s += static_cast<double>(v) / tick;
    if (field == 8) t.steal_s = static_cast<double>(v) / tick;
  }
  return t;
}

double steal_share(const HostTime& a, const HostTime& b) {
  return b.total_s > a.total_s ? (b.steal_s - a.steal_s) / (b.total_s - a.total_s)
                               : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size());
  const std::size_t i = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank - 1e-9);
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
