// Wire load generators: closed loop through server::WireClient, open loop
// on the client's socket with its own frame parser (a blocking client
// cannot wait for "next send time or next response, whichever first").
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cerrno>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "server/wire.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using edb::server::WireClient;

constexpr double kGraceS = 20.0;  // wait for stragglers after the last send

std::size_t run_limit(std::size_t end, bool cycle, std::size_t size) {
  if (end) return end;
  return cycle ? std::numeric_limits<std::size_t>::max() : size;
}

struct Tally {
  std::mutex mutex;
  std::size_t sent = 0, answered = 0, failed = 0;
  void add(std::size_t s, std::size_t a, std::size_t f) {
    std::lock_guard<std::mutex> lock(mutex);
    sent += s;
    answered += a;
    failed += f;
  }
};

// A RESULT counts as answered only at full quality: a degraded (stale or
// coarse) answer is the service failing to answer the question asked.
bool full_answer(const WireClient::Response& r) {
  return !r.error && r.result &&
         r.result->quality == edb::service::ResultQuality::kFull;
}

}  // namespace

// ---------------------------------------------------------- closed loop --

ClosedResult closed_loop(std::uint16_t port,
                         const std::vector<TuningQuery>& queries,
                         const ClosedConfig& cfg) {
  ClosedResult out;
  Tally tally;
  std::mutex kept_mutex;
  std::atomic<std::size_t> next{cfg.first};
  const std::size_t limit =
      run_limit(cfg.end, cfg.cycle, queries.size());
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline =
      cfg.seconds > 0 ? t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9)
                      : std::numeric_limits<std::uint64_t>::max();

  const auto connection = [&] {
    WireClient client;
    if (!client.connect("127.0.0.1", port).ok()) {
      tally.add(1, 0, 1);  // a refused connection is one failed query
      return;
    }
    std::size_t sent = 0, answered = 0, failed = 0;
    std::deque<std::size_t> inflight;
    const auto issue = [&]() -> bool {
      if (now_ns() >= deadline) return false;
      const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= limit) return false;
      {
        Span s("client.queue_query", idx);
        client.queue_query(queries[idx % queries.size()], idx);
      }
      ++sent;
      inflight.push_back(idx);
      Span s("client.flush", idx);
      return client.flush().ok();
    };
    bool alive = true;
    for (int w = 0; w < cfg.window && alive; ++w) {
      if (!issue()) break;
    }
    while (!inflight.empty()) {
      const std::size_t idx = inflight.front();
      auto resp = [&] {
        Span s("client.next_response", idx);
        return client.next_response();
      }();
      if (!resp.ok() || resp->seq != idx) {
        alive = false;
        break;
      }
      inflight.pop_front();
      if (full_answer(*resp)) {
        ++answered;
        if (idx < cfg.keep) {
          std::lock_guard<std::mutex> lock(kept_mutex);
          out.kept.emplace(idx, std::move(*resp->result));
        }
      } else {
        ++failed;
      }
      if (!client.connected()) alive = false;
      if (alive) issue();
    }
    failed += inflight.size();  // unanswered when the connection died
    tally.add(sent, answered, failed);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.conns; ++c) threads.emplace_back(connection);
  for (auto& t : threads) t.join();
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.next_index = std::min(next.load(), limit);
  out.sent = tally.sent;
  out.answered = tally.answered;
  out.failed = tally.failed;
  return out;
}

// ------------------------------------------------------------ open loop --

OpenResult open_loop(std::uint16_t port,
                     const std::vector<TuningQuery>& queries,
                     const OpenConfig& cfg) {
  OpenResult out;
  Tally tally;
  std::mutex samples_mutex;
  std::atomic<std::size_t> next{cfg.first};
  const std::size_t limit =
      run_limit(cfg.end, cfg.cycle, queries.size());
  const double conn_rate = cfg.rate / std::max(1, cfg.conns);
  // One shared schedule origin, a little ahead so every thread is parked
  // in ppoll before its first arrival is due.
  const std::uint64_t t0 = now_ns() + 20'000'000;
  const std::uint64_t deadline =
      cfg.seconds > 0 ? t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9)
                      : std::numeric_limits<std::uint64_t>::max();
  const double cpu0 = process_cpu_s();

  const auto connection = [&](int c) {
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on schedule, not 50 µs late
    WireClient client;
    if (!client.connect("127.0.0.1", port).ok()) {
      tally.add(1, 0, 1);
      return;
    }
    const int fd = client.fd();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    edb::Rng rng(edb::splitmix64(cfg.seed) + static_cast<std::uint64_t>(c));
    const auto gap_ns = [&] {
      return static_cast<std::uint64_t>(rng.exponential(conn_rate) * 1e9);
    };
    std::uint64_t due = t0 + gap_ns();
    bool sending = true;
    std::deque<std::pair<std::size_t, std::uint64_t>> inflight;  // idx, due
    std::vector<double> latency_ms, late_ms;
    std::size_t sent = 0, answered = 0, failed = 0;
    edb::ByteRing in(1u << 16);
    std::string frame;
    std::uint64_t give_up = std::numeric_limits<std::uint64_t>::max();
    bool alive = true;

    while (alive && (sending || !inflight.empty())) {
      std::uint64_t now = now_ns();
      while (sending && now >= due) {
        const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
        if (due >= deadline || idx >= limit) {
          sending = false;
          give_up = now + static_cast<std::uint64_t>(kGraceS * 1e9);
          break;
        }
        late_ms.push_back(static_cast<double>(now - due) * 1e-6);
        frame = edb::server::encode_query(queries[idx % queries.size()], idx);
        std::size_t off = 0;
        while (alive && off < frame.size()) {
          const ssize_t r = ::send(fd, frame.data() + off, frame.size() - off,
                                   MSG_NOSIGNAL);
          if (r > 0) {
            off += static_cast<std::size_t>(r);
          } else if (r < 0 && (errno == EAGAIN || errno == EINTR)) {
            pollfd p{fd, POLLOUT, 0};
            ::poll(&p, 1, 100);
          } else {
            alive = false;
          }
        }
        now = now_ns();
        inflight.emplace_back(idx, due);
        ++sent;
        due += gap_ns();
      }
      if (!alive || (!sending && inflight.empty())) break;
      if (!sending && now >= give_up) break;

      const std::uint64_t wake = sending ? due : give_up;
      const std::uint64_t wait = wake > now ? wake - now : 0;
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      pollfd p{fd, POLLIN, 0};
      if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
      for (;;) {
        if (in.free_space() == 0 &&
            !in.reserve(in.capacity() * 2, 2 * (4 + edb::server::kMaxFrame))) {
          alive = false;
          break;
        }
        iovec iov[2];
        const int cnt = in.fill_iovecs(iov);
        const ssize_t r = ::readv(fd, iov, cnt);
        if (r > 0) {
          in.commit_fill(static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EINTR)) break;
        alive = false;  // EOF or hard error
        break;
      }
      const std::uint64_t arrived = now_ns();
      edb::server::FrameView fv;
      while (edb::server::next_frame(in, edb::server::kMaxFrame, &fv) ==
             edb::server::FrameStatus::kFrame) {
        if (inflight.empty() || fv.seq != inflight.front().first) {
          alive = false;
          break;
        }
        latency_ms.push_back(
            static_cast<double>(arrived - inflight.front().second) * 1e-6);
        inflight.pop_front();
        bool ok = false;
        if (fv.type == edb::server::MsgType::kResult) {
          auto r = edb::server::decode_result(fv.body);
          ok = r.ok() && r->quality == edb::service::ResultQuality::kFull;
        }
        ok ? ++answered : ++failed;
      }
    }
    failed += inflight.size();
    tally.add(sent, answered, failed);
    std::lock_guard<std::mutex> lock(samples_mutex);
    out.latency_ms.insert(out.latency_ms.end(), latency_ms.begin(),
                          latency_ms.end());
    out.late_ms.insert(out.late_ms.end(), late_ms.begin(), late_ms.end());
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.conns; ++c) threads.emplace_back(connection, c);
  for (auto& t : threads) t.join();
  out.client_cpu_s = process_cpu_s() - cpu0;
  out.sent = tally.sent;
  out.answered = tally.answered;
  out.failed = tally.failed;
  return out;
}

// -------------------------------------------------------------- stream --

std::string wire_stream(std::uint16_t port,
                        const std::vector<TuningQuery>& queries) {
  WireClient client;
  if (!client.connect("127.0.0.1", port).ok()) return {};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    client.queue_query(queries[i], i);
  }
  if (!client.flush().ok()) return {};
  std::string stream;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.next_response();
    if (!resp.ok()) return {};
    stream += resp->raw;
  }
  return stream;
}

}  // namespace perfbench
