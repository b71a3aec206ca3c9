// perfbench: the repository benchmark program (see perfbench/NOTES.md).
//
// Declarations shared by perfbench's translation units:
//
//   inputs.cpp  — deterministic workload inputs from the workload seed;
//   daemon.cpp  — tuning_serverd as a child process, costed from /proc;
//   load.cpp    — closed- and open-loop wire load generators;
//   spans.cpp   — in-memory span recorder + Chrome trace export;
//   layers.cpp  — the traced run's per-layer replay;
//   main.cpp    — workloads, output checks and the result line.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/planner.h"

namespace perfbench {

using edb::service::TuningQuery;
using edb::service::TuningResult;

std::uint64_t now_ns();
double now_s();
// User + system CPU seconds of this process (all threads).
double process_cpu_s();
// Peak resident set of this process [MB].
double process_peak_rss_mb();
// Machine-wide CPU time from /proc/stat [s]: all states, and steal.
struct HostTime {
  double total_s = 0;
  double steal_s = 0;
};
HostTime host_time();
// Steal time between two samples as a share of all vCPU time.
double steal_share(const HostTime& a, const HostTime& b);
// Median of `v` (0 for an empty vector); `v` is taken by value.
double median(std::vector<double> v);
// Nearest-rank quantile of `v`, q in [0, 1] (0 for an empty vector).
double quantile(std::vector<double> v, double q);

// ------------------------------------------------------------- inputs --

struct Inputs {
  std::string workload;
  // The timed stream: hit_wire cycles it, miss_wire consumes each query
  // once, atlas_batch serves it whole per pass.
  std::vector<TuningQuery> queries;
  std::vector<std::string> family;  // per query: frontier grouping label
  // Sent before timing (cache warm-up / code fault-in), never timed.
  std::vector<TuningQuery> warm;
  // hit_wire only: noise-free sample for the byte-identity check.
  std::vector<TuningQuery> identity;
  // Index of the open loop's first query; queries before it belong to the
  // closed loop (0 when the stream cycles: hit_wire).
  std::size_t open_first = 0;
  // atlas_batch: queries per pass (one catalog); `queries` holds one
  // catalog per entry of catalog_seeds, back to back.
  std::size_t pass = 0;
  std::vector<std::uint64_t> catalog_seeds;
  std::uint64_t digest = 0;  // FNV-1a over every encoded input frame
};

// Queries per workload are sized so that no timed phase can exhaust them
// on this class of machine; see inputs.cpp.
Inputs make_inputs(const std::string& workload, std::uint64_t seed);

// ------------------------------------------------------------- daemon --

struct ProcSample {
  double cpu_s = 0;          // on-CPU time, all threads
  long long syscr = 0;       // read-class syscalls (/proc/<pid>/io)
  long long syscw = 0;       // write-class syscalls
  long long ctx_switches = 0;  // voluntary + involuntary, all threads
  double vm_hwm_mb = 0;      // peak RSS
};

// The daemon's drain dump (obs::MetricsSnapshot::text): metric name ->
// the row's numeric cells, left to right.  Counters carry their count,
// gauges value and high watermark, histograms count, mean, p50, p95, p99,
// p99.9 and max (seconds).
using Dump = std::map<std::string, std::vector<double>>;
Dump parse_dump(const std::string& text);

// tuning_serverd as a child process.  The destructor kills and reaps a
// daemon that was not stopped, so no path leaves one behind.
class Daemon {
 public:
  explicit Daemon(std::string path) : path_(std::move(path)) {}
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `tuning_serverd --port 0` (default workers/threads) and waits
  // for its "listening on" line.  False with *err set on failure.
  bool start(std::string* err);
  std::uint16_t port() const { return port_; }
  ProcSample sample() const;
  // SIGTERM, collect the drain dump, reap.  Returns everything the daemon
  // printed after its startup line; *clean reports a 0 exit status.
  std::string stop(bool* clean);

 private:
  std::string path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string pending_;  // stdout bytes read past the startup line
};

// --------------------------------------------------------------- spans --

// In-memory spans, written at exit as Chrome complete events.  Disabled
// (the default) a Span costs one relaxed load.  Spans nest per thread:
// a span's parent is the innermost open span of its thread.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Duration so far [ns] (valid whether or not tracing is on).
  std::uint64_t elapsed_ns() const { return now_ns() - start_; }

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_;
};

void spans_enable(bool on);
// Chrome trace-event JSON, one complete event per line (the form
// tools/trace_report parses); false on I/O failure.
bool spans_write_chrome(const std::string& path);
// Per span name: count, total and self time (duration minus the time
// covered by direct children).  Printed as a table by the caller.
struct SpanSummary {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanSummary> spans_summary();

// ---------------------------------------------------------------- load --

// Closed loop: `conns` connections (one thread each), each keeping
// `window` queries in flight.  Query i of the run is queries[i % size];
// the run stops issuing at `seconds` (when > 0) or at index `end`.
// Client calls are wrapped in spans keyed by the request's seq, so they
// show up in the trace whenever spans are enabled.
struct ClosedConfig {
  int conns = 2;
  int window = 8;
  double seconds = 0;
  std::size_t first = 0;  // index of the run's first query
  std::size_t end = 0;    // index to stop at; 0 = the end of `queries`
  bool cycle = false;     // wrap around `queries` (when end == 0)
  std::size_t keep = 0;   // keep the answers of the first `keep` indices
};
struct ClosedResult {
  std::size_t sent = 0;
  std::size_t answered = 0;  // RESULT frames of full quality
  std::size_t failed = 0;    // ERROR frames, degraded answers, unanswered
  double wall_s = 0;
  std::size_t next_index = 0;  // first query index the run did not use
  std::map<std::size_t, TuningResult> kept;
};
ClosedResult closed_loop(std::uint16_t port,
                         const std::vector<TuningQuery>& queries,
                         const ClosedConfig& cfg);

// Open loop: Poisson arrivals at `rate` q/s split over `conns`
// connections (one thread each); latency counts from each request's
// scheduled send time, lateness is actual minus scheduled send time.
struct OpenConfig {
  int conns = 2;
  double rate = 1000;
  double seconds = 0;
  std::size_t first = 0;
  std::size_t end = 0;
  bool cycle = false;
  std::uint64_t seed = 1;  // arrival schedule stream
};
struct OpenResult {
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;
  double client_cpu_s = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
};
OpenResult open_loop(std::uint16_t port,
                     const std::vector<TuningQuery>& queries,
                     const OpenConfig& cfg);

// Sends `queries` pipelined on one connection and returns the raw
// response stream (empty on any transport failure).
std::string wire_stream(std::uint16_t port,
                        const std::vector<TuningQuery>& queries);

// -------------------------------------------------------------- layers --

using Metrics = std::map<std::string, double>;

// Replays a sample of the workload's inputs through each layer's public
// functions, one span per call; fills the per-layer metrics the replay
// can give (wire, key, cache, core, planner, dispatcher, engine, game,
// mac, catalog).  `width` is the workload's engine width.  Returns the
// number of replayed frames that failed to decode (must be 0).
std::size_t replay_layers(const Inputs& in, std::uint64_t seed, int width,
                          Metrics* out);

}  // namespace perfbench
