// The traced run's per-layer replay: a sample of the workload's own inputs
// through each layer's public functions, one span per call (its parent
// the enclosing layer span), so self time and per-call cost come out of
// the same trace the client spans land in.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "catalog/atlas.h"
#include "catalog/catalog.h"
#include "core/engine.h"
#include "core/game_framework.h"
#include "mac/registry.h"
#include "server/wire.h"
#include "service/cache.h"
#include "service/core.h"
#include "service/key.h"
#include "service/service.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using edb::service::ProtocolOutcome;
using edb::service::QueryKey;

constexpr std::size_t kSample = 256;      // queries replayed per layer
constexpr std::size_t kServeBatch = 64;   // ServiceCore::serve batch size
constexpr std::size_t kCacheCapacity = 4096;  // the daemon's default
constexpr std::size_t kCacheProbes = 1024;
constexpr std::size_t kSolveSample = 8;   // scenarios per protocol solve
constexpr std::size_t kCatalogSolves = 32;
constexpr std::size_t kModelBuilds = 64;
constexpr std::size_t kBlock = 512;       // evaluate_batch block
constexpr int kBlocks = 64;
constexpr int kDispatchReps = 3;
const char* const kPaper[] = {"X-MAC", "DMAC", "LMAC"};
const char* const kPaperTag[] = {"xmac", "dmac", "lmac"};

double per(double total, std::size_t n) {
  return n ? total / static_cast<double>(n) : 0;
}

edb::core::EngineOptions engine_options(int width) {
  edb::core::EngineOptions e;
  e.threads = width;
  e.parallel = width > 1;
  return e;
}

// -------------------------------------------------------- core/planner --

std::vector<edb::Expected<TuningResult>> replay_core(
    const std::vector<TuningQuery>& sample, int width, Metrics* m) {
  Span layer("layer.core");
  edb::service::CoreOptions opts;
  opts.engine = engine_options(width);
  std::vector<edb::Expected<TuningResult>> results;
  double miss_ns = 0, hit_ns = 0;
  std::size_t solved = 0, coalesced = 0, jobs = 0;
  for (std::size_t at = 0; at < sample.size(); at += kServeBatch) {
    const std::vector<TuningQuery> batch(
        sample.begin() + static_cast<std::ptrdiff_t>(at),
        sample.begin() + static_cast<std::ptrdiff_t>(
                             std::min(sample.size(), at + kServeBatch)));
    edb::service::ServiceCore core(opts);  // cold: every batch misses
    {
      Span s("core.serve_miss");
      auto r = core.serve(batch);
      miss_ns += static_cast<double>(s.elapsed_ns());
      results.insert(results.end(), r.begin(), r.end());
    }
    const auto& ps = core.planner_stats();
    solved += ps.solved;
    coalesced += ps.coalesced;
    jobs += ps.sweep_jobs;
    Span s("core.serve_hit");
    core.serve(batch);
    hit_ns += static_cast<double>(s.elapsed_ns());
  }
  (*m)["core.serve_miss_ms_per_q"] = per(miss_ns, sample.size()) * 1e-6;
  (*m)["core.serve_hit_us_per_q"] = per(hit_ns, sample.size()) * 1e-3;
  (*m)["planner.solved_per_q"] = per(solved, sample.size());
  (*m)["planner.coalesced_per_q"] = per(coalesced, sample.size());
  (*m)["planner.cells_per_chain"] = per(solved, jobs);
  return results;
}

// ---------------------------------------------------------------- wire --

// Returns how many frames failed to decode (an output-check failure).
std::size_t replay_wire(const std::vector<TuningQuery>& sample,
                        const std::vector<edb::Expected<TuningResult>>& results,
                        Metrics* m) {
  Span layer("layer.wire");
  double enc_q = 0, dec_q = 0, enc_r = 0, dec_r = 0;
  std::size_t q_bytes = 0, r_bytes = 0, bad = 0;
  edb::ByteRing ring(1u << 12);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    std::string frame;
    {
      Span s("wire.encode_query");
      frame = edb::server::encode_query(sample[i], i);
      enc_q += static_cast<double>(s.elapsed_ns());
    }
    q_bytes += frame.size();
    ring.append(frame.data(), frame.size(), 1u << 22);
    Span s("wire.decode_query");
    edb::server::FrameView fv;
    const bool ok = edb::server::next_frame(ring, edb::server::kMaxFrame,
                                            &fv) ==
                        edb::server::FrameStatus::kFrame &&
                    edb::server::decode_query(fv.body).ok();
    dec_q += static_cast<double>(s.elapsed_ns());
    bad += !ok;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string frame;
    {
      Span s("wire.encode_result");
      frame = edb::server::encode_response(results[i], i);
      enc_r += static_cast<double>(s.elapsed_ns());
    }
    r_bytes += frame.size();
    Span s("wire.decode_result");
    // Frame header: len u32, type u8, seq u64.
    bad += !edb::server::decode_result(std::string_view(frame).substr(13)).ok();
    dec_r += static_cast<double>(s.elapsed_ns());
  }
  (*m)["wire.encode_query_ns"] = per(enc_q, sample.size());
  (*m)["wire.decode_query_ns"] = per(dec_q, sample.size());
  (*m)["wire.encode_result_ns"] = per(enc_r, results.size());
  (*m)["wire.decode_result_ns"] = per(dec_r, results.size());
  (*m)["wire.query_bytes"] = per(q_bytes, sample.size());
  (*m)["wire.result_bytes"] = per(r_bytes, results.size());
  return bad;
}

// ----------------------------------------------------------------- key --

void replay_key(const std::vector<TuningQuery>& sample, Metrics* m) {
  Span layer("layer.key");
  double q_ns = 0, p_ns = 0;
  std::size_t bytes = 0, protocol_keys = 0;
  for (const TuningQuery& q : sample) {
    const auto protocols =
        edb::service::canonical_protocol_set(q.protocols).value();
    {
      Span s("key.query_key");
      bytes += edb::service::query_key(q.scenario, protocols, q.options)
                   .canonical.size();
      q_ns += static_cast<double>(s.elapsed_ns());
    }
    for (const auto& p : protocols) {
      Span s("key.protocol_key");
      edb::service::protocol_key(q.scenario, p, q.options);
      p_ns += static_cast<double>(s.elapsed_ns());
      ++protocol_keys;
    }
  }
  (*m)["key.query_key_ns"] = per(q_ns, sample.size());
  (*m)["key.protocol_key_ns"] = per(p_ns, protocol_keys);
  (*m)["key.canonical_bytes"] = per(bytes, sample.size());
}

// --------------------------------------------------------------- cache --

void replay_cache(const std::vector<TuningQuery>& sample,
                  const std::vector<edb::Expected<TuningResult>>& results,
                  Metrics* m) {
  Span layer("layer.cache");
  // Distinct keys from the sample: each pass over it nudges the delay
  // bound by one more part in 1e6 (far above the key quantum).
  std::vector<QueryKey> keys;
  for (std::size_t k = 0; keys.size() < kCacheCapacity + kCacheProbes; ++k) {
    edb::core::Scenario sc = sample[k % sample.size()].scenario;
    sc.requirements.l_max *= 1.0 + 1e-6 * static_cast<double>(k + 1);
    keys.push_back(edb::service::protocol_key(sc, "X-MAC", {}));
  }
  ProtocolOutcome value;
  for (const auto& r : results) {
    if (r.ok() && !r->per_protocol.empty()) {
      value = r->per_protocol.front();
      break;
    }
  }
  edb::service::ShardedResultCache cache(kCacheCapacity);
  for (std::size_t i = 0; i < kCacheCapacity; ++i) cache.put(keys[i], value);
  // Probe the most recently filled keys, then as many never-filled ones; a
  // probe whose shard evicted its key during the fill is timed as a miss.
  double hit_ns = 0, miss_ns = 0, put_ns = 0;
  std::size_t hits = 0, misses = 0;
  for (std::size_t i = kCacheCapacity - kCacheProbes; i < keys.size(); ++i) {
    Span s("cache.get");
    const bool hit = cache.get(keys[i]).has_value();
    (hit ? hit_ns : miss_ns) += static_cast<double>(s.elapsed_ns());
    ++(hit ? hits : misses);
  }
  for (std::size_t i = kCacheCapacity; i < keys.size(); ++i) {
    Span s("cache.put");
    cache.put(keys[i], value);
    put_ns += static_cast<double>(s.elapsed_ns());
  }
  (*m)["cache.get_hit_ns"] = per(hit_ns, hits);
  (*m)["cache.get_miss_ns"] = per(miss_ns, misses);
  (*m)["cache.put_ns"] = per(put_ns, keys.size() - kCacheCapacity);
}

// ---------------------------------------------------------- dispatcher --

void replay_dispatch(const Inputs& in, const std::vector<TuningQuery>& sample,
                     int width, Metrics* m) {
  Span layer("layer.service");
  edb::service::CoreOptions core_opts;
  core_opts.engine = engine_options(width);
  edb::service::ServiceOptions svc_opts;
  svc_opts.engine = core_opts.engine;
  svc_opts.max_batch = std::max<std::size_t>(sample.size(), 1);
  std::vector<double> overhead_ms;
  std::vector<edb::Expected<TuningResult>> results;
  for (int rep = 0; rep < kDispatchReps; ++rep) {
    edb::service::ServiceCore core(core_opts);
    edb::service::TuningService svc(svc_opts);
    double core_ns = 0, svc_ns = 0;
    {
      Span s("core.serve_batch");
      core.serve(sample);
      core_ns = static_cast<double>(s.elapsed_ns());
    }
    {
      Span s("service.query_batch");
      results = svc.query_batch(sample);
      svc_ns = static_cast<double>(s.elapsed_ns());
    }
    overhead_ms.push_back((svc_ns - core_ns) * 1e-6);
  }
  (*m)["service.dispatch_overhead_ms"] = median(overhead_ms);

  // The atlas assembly over those answers, one record per family label.
  std::map<std::string, std::vector<edb::catalog::AtlasPoint>> by_family;
  for (std::size_t i = 0; i < results.size(); ++i) {
    edb::catalog::AtlasPoint p;
    p.index = i;
    const auto& r = results[i];
    if (r.ok() && r->recommended >= 0) {
      const auto& best =
          r->per_protocol[static_cast<std::size_t>(r->recommended)];
      p.feasible = true;
      p.protocol = best.protocol;
      p.energy = best.outcome->nbs.energy;
      p.latency = best.outcome->nbs.latency;
    }
    by_family[in.family[i]].push_back(p);
  }
  Span s("catalog.frontier");
  for (const auto& [family, points] : by_family) {
    edb::catalog::family_frontier(family, points);
  }
  (*m)["catalog.frontier_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
}

// -------------------------------------------------------------- engine --

void replay_engine(const std::vector<TuningQuery>& sample, Metrics* m) {
  Span layer("layer.engine");
  // One model per (deployment, protocol), shared by every query on it, so
  // the planner can chain queries that differ only in their delay bound.
  std::map<std::string, std::unique_ptr<edb::mac::AnalyticMacModel>> models;
  std::vector<edb::core::PointQuery> points;
  for (const TuningQuery& q : sample) {
    const std::string ctx =
        edb::service::context_key(q.scenario.context).canonical;
    const auto protocols =
        edb::service::canonical_protocol_set(q.protocols).value();
    for (const auto& p : protocols) {
      auto& model = models[ctx + "|" + p];
      if (!model) model = edb::mac::make_model(p, q.scenario.context).take();
      edb::core::PointQuery pq;
      pq.model = model.get();
      pq.req = q.scenario.requirements;
      pq.alpha = q.options.alpha;
      points.push_back(pq);
    }
  }
  edb::core::SweepPlan plan;
  {
    Span s("engine.plan_point_queries");
    plan = edb::core::plan_point_queries(points);
    (*m)["engine.plan_us"] = static_cast<double>(s.elapsed_ns()) * 1e-3;
  }
  double w1 = 0, w4 = 0;
  {
    edb::core::ScenarioEngine engine(engine_options(1));
    Span s("engine.run_sweeps_w1");
    engine.run_sweeps(plan.jobs);
    w1 = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }
  {
    edb::core::ScenarioEngine engine(engine_options(4));
    Span s("engine.run_sweeps_w4");
    engine.run_sweeps(plan.jobs);
    w4 = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }
  (*m)["engine.run_sweeps_w1_ms"] = w1;
  (*m)["engine.run_sweeps_w4_ms"] = w4;
  (*m)["engine.parallel_eff"] = w4 > 0 ? w1 / (4 * w4) : 0;
}

// ---------------------------------------------------------------- game --

struct SolveTally {
  double ns = 0, oracle_ns = 0;
  long long evals = 0;
  std::size_t solves = 0, feasible = 0;
};

void solve_one(const char* protocol, const edb::core::Scenario& sc,
               SolveTally* t) {
  auto model = edb::mac::make_model(protocol, sc.context).take();
  const edb::core::EnergyDelayGame game(*model, sc.requirements);
  Span s("game.solve");
  const auto r = game.solve();
  t->ns += static_cast<double>(s.elapsed_ns());
  ++t->solves;
  if (r.ok()) {
    ++t->feasible;
    t->evals += r->stats.evaluations;
    t->oracle_ns += r->stats.oracle_ns;
  }
}

void replay_game(const std::vector<TuningQuery>& sample,
                 const std::vector<edb::catalog::CatalogScenario>& catalog,
                 Metrics* m) {
  Span layer("layer.game");
  for (int p = 0; p < 3; ++p) {
    SolveTally t;
    for (std::size_t i = 0; i < std::min(kSolveSample, sample.size()); ++i) {
      solve_one(kPaper[p], sample[i].scenario, &t);
    }
    const std::string tag = std::string("solve.") + kPaperTag[p];
    (*m)[tag + ".us"] = per(t.ns, t.solves) * 1e-3;
    (*m)[tag + ".evals"] = per(static_cast<double>(t.evals), t.feasible);
    (*m)[tag + ".oracle_share"] = t.ns > 0 ? t.oracle_ns / t.ns : 0;
  }
  SolveTally t;
  const std::size_t stride = std::max<std::size_t>(1, catalog.size() / kCatalogSolves);
  for (std::size_t i = 0; i < catalog.size(); i += stride) {
    for (const char* p : kPaper) solve_one(p, catalog[i].scenario, &t);
  }
  (*m)["solve.catalog.us"] = per(t.ns, t.solves) * 1e-3;
  (*m)["solve.catalog.evals"] = per(static_cast<double>(t.evals), t.feasible);
}

// ----------------------------------------------------------------- mac --

void replay_mac(const std::vector<TuningQuery>& sample,
                const std::vector<edb::catalog::CatalogScenario>& catalog,
                std::uint64_t seed, Metrics* m) {
  Span layer("layer.mac");
  double build_ns = 0;
  std::size_t builds = 0;
  for (std::size_t i = 0; i < std::min(kModelBuilds, catalog.size()); ++i) {
    for (const char* p : kPaper) {
      Span s("mac.make_model");
      edb::mac::make_model(p, catalog[i].scenario.context);
      build_ns += static_cast<double>(s.elapsed_ns());
      ++builds;
    }
  }
  (*m)["mac.make_model_us"] = per(build_ns, builds) * 1e-3;

  edb::Rng rng(edb::splitmix64(seed ^ 0x6d6163ULL));
  for (int p = 0; p < 3; ++p) {
    auto model =
        edb::mac::make_model(kPaper[p], sample.front().scenario.context).take();
    const auto& space = model->params();
    const std::size_t dim = space.dim();
    std::vector<double> xs(kBlock * dim), e(kBlock), l(kBlock), g(kBlock);
    double ns = 0;
    for (int b = 0; b < kBlocks; ++b) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        for (std::size_t d = 0; d < dim; ++d) {
          xs[i * dim + d] = rng.uniform(space.info(d).lo, space.info(d).hi);
        }
      }
      Span s("mac.evaluate_batch");
      model->evaluate_batch(xs.data(), kBlock, e.data(), l.data(), g.data());
      ns += static_cast<double>(s.elapsed_ns());
    }
    (*m)[std::string("mac.") + kPaperTag[p] + ".batch_ns_per_point"] =
        ns / (kBlocks * kBlock);
  }
}

}  // namespace

std::size_t replay_layers(const Inputs& in, std::uint64_t seed, int width,
                          Metrics* out) {
  // atlas_batch replays its first catalog whole; the wire workloads a
  // prefix of their stream.
  const std::size_t n = in.pass ? in.pass : std::min(kSample, in.queries.size());
  const std::vector<TuningQuery> sample(
      in.queries.begin(), in.queries.begin() + static_cast<std::ptrdiff_t>(n));

  std::vector<edb::catalog::CatalogScenario> catalog;
  {
    Span s("catalog.expand_all");
    catalog = edb::catalog::Catalog::builtin().expand_all(
        in.catalog_seeds.empty() ? seed : in.catalog_seeds.front());
    (*out)["catalog.expand_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }
  const auto results = replay_core(sample, width, out);
  const std::size_t bad_frames = replay_wire(sample, results, out);
  replay_key(sample, out);
  replay_cache(sample, results, out);
  replay_dispatch(in, sample, width, out);
  replay_engine(sample, out);
  replay_game(sample, catalog, out);
  replay_mac(sample, catalog, seed, out);

  // Cost of one enabled, empty span: the floor under every per-call
  // figure above.
  constexpr int kEmpty = 4096;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kEmpty; ++i) Span s("trace.empty");
  (*out)["trace.span_ns"] = static_cast<double>(now_ns() - t0) / kEmpty;
  return bad_frames;
}

}  // namespace perfbench
