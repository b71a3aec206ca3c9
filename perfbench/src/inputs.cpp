// Workload inputs: pure functions of (workload, seed).
//
//   hit_wire    — bench/workload.h's Zipf(1.2) mix over its 32-scenario
//                 pool (X-MAC + DMAC, sub-quantum delay-bound noise); the
//                 noise-free pool is the warm-up, so every timed query hits.
//   miss_wire   — catalog expansions at indices no other query uses, with
//                 both requirements jittered far above the key layer's
//                 10-digit quantum: every query is a new question.
//   atlas_batch — the whole built-in catalog, expanded at kAtlasCatalogs
//                 expansion seeds derived from the workload seed.  Pass
//                 costs are heavy-tailed in a handful of scenarios (a few
//                 take 40-60 ms against a ~1 ms median), so one catalog
//                 per run would make the run's figures mostly a function
//                 of which heavy scenarios its seed drew; cycling through
//                 several averages that out.
//
// miss_wire's closed loop draws from the first kMissClosed queries and its
// open loop from the rest, so neither phase ever re-asks a question.  At
// ~350 q/s closed (4-CPU x86 box) a 60 s run uses under a third of the
// closed range; a closed loop that still runs out stops early and reports
// the rate it measured.
#include <string>

#include "bench.h"
#include "catalog/catalog.h"
#include "server/wire.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kHitPool = 32;
constexpr int kHitMix = 50000;
constexpr int kHitIdentity = 256;
constexpr std::size_t kMissClosed = 30000;
constexpr std::size_t kMissQueries = 40000;
constexpr int kMissWarm = 8;
// Relative requirement jitter: 1e-6 is 10^4 key quanta, and far below any
// physically meaningful change of a deployment's requirements.
constexpr double kMissJitter = 1e-6;
constexpr std::uint64_t kAtlasCatalogs = 8;

void digest_into(std::uint64_t* h, const std::vector<TuningQuery>& qs) {
  for (std::size_t i = 0; i < qs.size(); ++i) {
    for (const unsigned char c : edb::server::encode_query(qs[i], i)) {
      *h = (*h ^ c) * 0x100000001b3ULL;
    }
  }
}

TuningQuery catalog_query(const edb::catalog::CatalogScenario& sc) {
  TuningQuery q;
  q.scenario = sc.scenario;
  q.protocols = {"X-MAC", "DMAC", "LMAC"};
  return q;
}

}  // namespace

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  if (workload == "hit_wire") {
    const std::vector<std::string> protocols = {"X-MAC", "DMAC"};
    const auto pool = edb::bench::scenario_pool(kHitPool);
    in.queries = edb::bench::zipf_mix(pool, kHitMix, seed, protocols);
    in.family.assign(in.queries.size(), "pool");
    for (const auto& s : pool) {
      TuningQuery q;
      q.scenario = s;
      q.protocols = protocols;
      in.warm.push_back(std::move(q));
    }
    in.identity = edb::bench::zipf_mix(pool, kHitIdentity, seed, protocols,
                                       1.2, /*noise=*/0.0);
  } else if (workload == "miss_wire") {
    const auto cat = edb::catalog::Catalog::builtin();
    const std::size_t families = cat.families().size();
    edb::Rng jitter(edb::splitmix64(seed ^ 0x6d6973735f776972ULL));
    const auto expand = [&](std::size_t i) {
      const auto& fam = *cat.families()[i % families];
      TuningQuery q = catalog_query(fam.expand(i / families, seed));
      auto& req = q.scenario.requirements;
      req.l_max *= 1.0 + kMissJitter * jitter.uniform(-1.0, 1.0);
      req.e_budget *= 1.0 + kMissJitter * jitter.uniform(-1.0, 1.0);
      return std::make_pair(std::move(q), fam.name());
    };
    in.queries.reserve(kMissQueries);
    in.family.reserve(kMissQueries);
    for (std::size_t i = 0; i < kMissQueries; ++i) {
      auto [q, fam] = expand(i);
      in.queries.push_back(std::move(q));
      in.family.push_back(fam);
    }
    // The warm-up only faults code and allocator in, so it is the same
    // cheap, seed-independent set for every run: timing a seed's own heavy
    // scenarios here would make set-up time a function of the seed.
    for (const auto& s : edb::bench::scenario_pool(kMissWarm)) {
      TuningQuery q;
      q.scenario = s;
      q.protocols = {"X-MAC", "DMAC", "LMAC"};
      in.warm.push_back(std::move(q));
    }
    in.open_first = kMissClosed;
  } else if (workload == "atlas_batch") {
    const auto cat = edb::catalog::Catalog::builtin();
    for (std::uint64_t k = 0; k < kAtlasCatalogs; ++k) {
      in.catalog_seeds.push_back(edb::splitmix64(seed) + k);
      for (const auto& sc : cat.expand_all(in.catalog_seeds.back())) {
        TuningQuery q;
        q.scenario = sc.scenario;  // protocols empty: the paper's three
        in.queries.push_back(std::move(q));
        in.family.push_back(sc.family);
      }
    }
    in.pass = in.queries.size() / kAtlasCatalogs;
  }
  in.digest = 0xcbf29ce484222325ULL;
  digest_into(&in.digest, in.queries);
  digest_into(&in.digest, in.warm);
  digest_into(&in.digest, in.identity);
  return in;
}

}  // namespace perfbench
