#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/core.h"

namespace edb::service {

namespace internal {

struct TicketState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::optional<Expected<TuningResult>> result;
  std::chrono::steady_clock::time_point submitted;
};

}  // namespace internal

namespace {

using TicketPtr = std::shared_ptr<internal::TicketState>;

struct Pending {
  TuningQuery query;
  TicketPtr ticket;
};

void fulfil(const TicketPtr& ticket, Expected<TuningResult> result) {
  std::lock_guard<std::mutex> lock(ticket->mutex);
  ticket->result.emplace(std::move(result));
  ticket->done = true;
  ticket->cv.notify_all();
}

}  // namespace

struct TuningService::Impl {
  explicit Impl(const ServiceOptions& opts)
      : core(CoreOptions{opts.engine, opts.cache_capacity, opts.cache_shards,
                         opts.resilience.degrade}),
        max_batch(std::max<std::size_t>(1, opts.max_batch)),
        resilience(opts.resilience),
        bucket(opts.resilience.rate_limit_qps, opts.resilience.rate_burst),
        tenants(opts.resilience.tenant_limits) {
    dispatcher = std::thread([this] { loop(); });
  }

  ~Impl() { shutdown(/*drain=*/true); }

  void shutdown(bool drain) {
    // One shutdown at a time: concurrent callers serialize here, and the
    // second one finds the dispatcher already joined.
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex);
    std::vector<Pending> dropped;
    {
      std::lock_guard<std::mutex> lock(mutex);
      accepting = false;
      stopping = true;
      if (!drain) {
        // Cooperative cancellation: queued queries are failed below, the
        // in-flight batch sees the flag at its next solver stage boundary.
        core.cancel();
        dropped.reserve(queue.size());
        while (!queue.empty()) {
          dropped.push_back(std::move(queue.front()));
          queue.pop_front();
        }
        EDB_GAUGE_SET("service.queue.depth", 0);
      }
    }
    wake.notify_all();
    for (Pending& p : dropped) {
      count_service_error(ErrorCode::kCancelled);
      fulfil(p.ticket, make_error(ErrorCode::kCancelled,
                                  "service shut down before dispatch"));
    }
    if (!dropped.empty()) {
      std::lock_guard<std::mutex> lock(stats_mutex);
      completed += dropped.size();
    }
    if (dispatcher.joinable()) dispatcher.join();
  }

  void loop() {
    for (;;) {
      std::vector<Pending> batch;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [this] { return stopping || !queue.empty(); });
        if (queue.empty() && stopping) return;
        while (!queue.empty() && batch.size() < max_batch) {
          batch.push_back(std::move(queue.front()));
          queue.pop_front();
        }
      }

      EDB_SPAN("service.batch");
      EDB_GAUGE_ADD("service.queue.depth",
                    -static_cast<std::int64_t>(batch.size()));
      std::vector<TuningQuery> queries;
      queries.reserve(batch.size());
      for (Pending& p : batch) queries.push_back(std::move(p.query));
      auto results = core.serve(queries);

      const auto now = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        planner_snapshot = core.planner_stats();
        for (const Pending& p : batch) {
          const double secs =
              std::chrono::duration<double>(now - p.ticket->submitted)
                  .count();
          latency.record(secs);
          EDB_RECORD("service.latency", secs);
        }
        completed += batch.size();
      }
      EDB_COUNT("service.completed", batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        fulfil(batch[i].ticket, std::move(results[i]));
      }
    }
  }

  // Admission decision for one submission; returns the rejection error,
  // or nullopt when the query was enqueued.  Shed decisions depend on
  // wall-clock load by design (resilience.h): the queue bound and token
  // bucket are backpressure, not part of the deterministic contract.
  std::optional<Error> admit(Pending pending) {
    if (!bucket.try_acquire()) {
      return make_error(ErrorCode::kResourceExhausted,
                        "admission rate limit exceeded");
    }
    if (!tenants.try_acquire(pending.query.tenant)) {
      return make_error(ErrorCode::kResourceExhausted,
                        "per-tenant rate limit exceeded");
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!accepting) {
        return make_error(ErrorCode::kUnavailable, "service shut down");
      }
      if (resilience.max_queue > 0 &&
          queue.size() >= resilience.max_queue) {
        return make_error(ErrorCode::kResourceExhausted,
                          "submit queue full");
      }
      queue.push_back(std::move(pending));
      EDB_GAUGE_SET("service.queue.depth",
                    static_cast<std::int64_t>(queue.size()));
    }
    wake.notify_one();
    return std::nullopt;
  }

  // Fails a ticket at the front door (shed / shut down): completes it
  // immediately and keeps submitted/completed accounting balanced.  Shed
  // errors are attributed to the submitting tenant's counter.
  void reject(const TicketPtr& ticket, Error error,
              std::string_view tenant) {
    const bool shed_error = error.code == ErrorCode::kResourceExhausted;
    count_service_error(error.code);
    if (shed_error) count_shed(tenant);
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      ++completed;
      if (shed_error) ++shed;
    }
    fulfil(ticket, std::move(error));
  }

  ServiceCore core;
  const std::size_t max_batch;
  const ResilienceOptions resilience;
  TokenBucket bucket;
  TenantLimiter tenants;

  std::mutex mutex;
  std::condition_variable wake;
  std::deque<Pending> queue;
  bool stopping = false;
  bool accepting = true;

  std::mutex shutdown_mutex;

  mutable std::mutex stats_mutex;
  PlannerStats planner_snapshot;
  LatencyHistogram latency;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;

  std::thread dispatcher;
};

TuningService::TuningService(ServiceOptions opts)
    : opts_(opts), impl_(std::make_unique<Impl>(opts)) {}

TuningService::~TuningService() = default;

void TuningService::shutdown(bool drain) { impl_->shutdown(drain); }

Ticket TuningService::submit(TuningQuery q) {
  EDB_SPAN("service.admit");
  EDB_COUNT("service.submitted", 1);
  Ticket t;
  t.state_ = std::make_shared<internal::TicketState>();
  t.state_->submitted = std::chrono::steady_clock::now();
  {
    // Count before enqueueing: once the queue lock drops the dispatcher
    // may complete the query, and stats() must never see
    // completed > submitted.
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ++impl_->submitted;
  }
  const std::string tenant = q.tenant;
  if (auto rejected = impl_->admit(Pending{std::move(q), t.state_})) {
    impl_->reject(t.state_, std::move(*rejected), tenant);
  }
  return t;
}

bool TuningService::poll(const Ticket& t) const {
  EDB_ASSERT(t.valid(), "poll on an empty ticket");
  std::lock_guard<std::mutex> lock(t.state_->mutex);
  return t.state_->done;
}

Expected<TuningResult> TuningService::wait(const Ticket& t) const {
  EDB_ASSERT(t.valid(), "wait on an empty ticket");
  std::unique_lock<std::mutex> lock(t.state_->mutex);
  t.state_->cv.wait(lock, [&] { return t.state_->done; });
  return *t.state_->result;
}

Expected<TuningResult> TuningService::query(const TuningQuery& q) {
  return wait(submit(q));
}

std::vector<Expected<TuningResult>> TuningService::query_batch(
    const std::vector<TuningQuery>& qs) {
  EDB_SPAN("service.admit");
  EDB_COUNT("service.submitted", qs.size());
  std::vector<Ticket> tickets;
  tickets.reserve(qs.size());
  const auto now = std::chrono::steady_clock::now();
  {
    // Count before enqueueing (see submit()).
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    impl_->submitted += qs.size();
  }
  struct Rejected {
    TicketPtr state;
    Error error;
    std::string tenant;
  };
  std::vector<Rejected> rejected;
  {
    // One lock for the whole vector: the dispatcher wakes to the full
    // batch, so the planner dedups and groups across it.  Admission is
    // still per query — queries past the bound shed individually, the
    // rest stay one batch.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const TuningQuery& q : qs) {
      Ticket t;
      t.state_ = std::make_shared<internal::TicketState>();
      t.state_->submitted = now;
      if (!impl_->accepting) {
        rejected.push_back({t.state_,
                            make_error(ErrorCode::kUnavailable,
                                       "service shut down"),
                            q.tenant});
      } else if (!impl_->bucket.try_acquire()) {
        rejected.push_back({t.state_,
                            make_error(ErrorCode::kResourceExhausted,
                                       "admission rate limit exceeded"),
                            q.tenant});
      } else if (!impl_->tenants.try_acquire(q.tenant)) {
        rejected.push_back({t.state_,
                            make_error(ErrorCode::kResourceExhausted,
                                       "per-tenant rate limit exceeded"),
                            q.tenant});
      } else if (impl_->resilience.max_queue > 0 &&
                 impl_->queue.size() >= impl_->resilience.max_queue) {
        rejected.push_back({t.state_,
                            make_error(ErrorCode::kResourceExhausted,
                                       "submit queue full"),
                            q.tenant});
      } else {
        impl_->queue.push_back(Pending{q, t.state_});
      }
      tickets.push_back(std::move(t));
    }
    EDB_GAUGE_SET("service.queue.depth",
                  static_cast<std::int64_t>(impl_->queue.size()));
  }
  impl_->wake.notify_one();
  for (auto& r : rejected) {
    impl_->reject(r.state, std::move(r.error), r.tenant);
  }

  std::vector<Expected<TuningResult>> out;
  out.reserve(tickets.size());
  for (const Ticket& t : tickets) out.push_back(wait(t));
  return out;
}

ServiceStats TuningService::stats() const {
  ServiceStats out;
  out.cache = impl_->core.cache_stats();
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  out.planner = impl_->planner_snapshot;
  out.submitted = impl_->submitted;
  out.completed = impl_->completed;
  out.in_flight = impl_->submitted - impl_->completed;
  out.shed = impl_->shed;
  out.latency_samples = impl_->latency.count();
  out.p50_ms = impl_->latency.quantile(0.50) * 1e3;
  out.p95_ms = impl_->latency.quantile(0.95) * 1e3;
  out.p99_ms = impl_->latency.quantile(0.99) * 1e3;
  out.p999_ms = impl_->latency.quantile(0.999) * 1e3;
  return out;
}

std::string TuningService::metrics_text() {
  return obs::Registry::global().snapshot().text();
}

std::string TuningService::metrics_json() {
  return obs::Registry::global().snapshot().json();
}

}  // namespace edb::service
