// In-memory span recorder for the traced run.
//
// Each recording thread appends to its own buffer (registered once under
// a mutex, owned by the global list so it outlives the thread); a span's
// parent is the innermost open span of its thread.  Nothing is written
// until spans_write_chrome() at exit.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace perfbench {

namespace {

struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t id = 0, parent = 0, request = 0;
  std::uint64_t start_ns = 0, dur_ns = 0;
  std::uint32_t tid = 0;
};

// Caps the recorder at ~100 MB; later spans are counted, not kept.
constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::size_t> g_recorded{0};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mutex

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_open = 0;  // innermost open span id

ThreadBuffer& buffer() {
  if (!t_buffer) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->tid = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.back()->spans.reserve(std::size_t{1} << 16);
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

std::vector<SpanRecord> spans_collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SpanRecord> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

}  // namespace

void spans_enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request), start_(now_ns()) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t end = now_ns();
  t_open = parent_;
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) return;
  ThreadBuffer& b = buffer();
  b.spans.push_back(
      SpanRecord{name_, id_, parent_, request_, start_, end - start_, b.tid});
}

bool spans_write_chrome(const std::string& path) {
  const std::vector<SpanRecord> all = spans_collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"req\": %llu}}",
                 i ? "," : "", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, SpanSummary> spans_summary() {
  const std::vector<SpanRecord> all = spans_collect();
  std::map<std::uint64_t, std::uint64_t> child_ns;  // parent id -> covered
  for (const SpanRecord& s : all) {
    if (s.parent) child_ns[s.parent] += s.dur_ns;
  }
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& s : all) {
    SpanSummary& row = out[s.name];
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : it->second;
    row.count++;
    row.total_ms += static_cast<double>(s.dur_ns) * 1e-6;
    row.self_ms +=
        static_cast<double>(s.dur_ns - std::min(covered, s.dur_ns)) * 1e-6;
  }
  return out;
}

}  // namespace perfbench
