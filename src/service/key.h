// Canonical query keys for the tuning service.
//
// The cache (service/cache.h) can only pay off if two queries that mean
// the same thing produce the same key.  Canonicalization rules
// (DESIGN.md §4):
//
//   - every double is quantized to 10 significant digits
//     (std::to_chars scientific, precision 9 — the same bytes "%.9e"
//     prints), so float noise from parsing or arithmetic (~1e-12
//     relative) collides while any value-affecting difference (the
//     paper's grids step by whole percents) survives;
//   - protocol names resolve through the registry's spelling rules
//     ("xmac" == "X-MAC") and protocol *sets* are sorted and deduped, so
//     order and spelling cannot split the cache;
//   - only value-affecting fields participate: the radio preset's display
//     name does not (two radios with identical constants are the same
//     deployment), its power/timing constants do.
//
// A QueryKey carries the full canonical field=value string plus a 64-bit
// FNV-1a hash of it.  The hash spreads keys across cache shards and hash
// tables; the string discriminates exact equality, so a 64-bit collision
// can never alias two different queries to one cached result.
//
// Every key of a query shares one prefix: the deployment fields (which
// alone form the context key), then requirements and alpha.  ScenarioKeys
// formats and hashes that prefix once; the whole-query key and each
// per-protocol key append their last field and continue the prefix's
// FNV-1a state.  The free functions below are thin wrappers over the
// same builder, so there is exactly one way a key's bytes are produced.
//
// Guarantees: canonicalization is total and deterministic — the same
// scenario/options/protocol inputs produce the same key on every
// platform, run, thread and locale (FNV-1a and to_chars quantization are
// exact integer/decimal procedures with no libm or locale dependence), so
// keys may be logged, persisted and compared across processes.  Two keys
// are equal iff their canonical strings are equal; the hash is derived
// and never trusted alone.
//
// Thread-safety: every function here is a pure function of its
// arguments — no shared or global state — and safe to call concurrently
// from any thread, and so are ScenarioKeys' const members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "util/error.h"

namespace edb::service {

// Value-affecting solve options.  alpha is the energy player's bargaining
// power (core/game_framework.h solve_weighted); 0.5 is the paper's
// symmetric solve.
struct QueryOptions {
  double alpha = 0.5;
  // Per-query oracle-eval budget (core::SolveControl semantics); 0 =
  // unlimited.  Deliberately NOT part of the canonical key: the budget
  // shapes how hard a miss may work, not which question is being asked —
  // a budget-bound query may be served from an unbudgeted query's cached
  // answer (and the golden key pins must not move).
  long long eval_budget = 0;
};

// A non-owning view of a key for hash-table indexes: buckets by the
// precomputed hash (no pass over the canonical bytes), and compares the
// canonical bytes for equality.  The viewed string must outlive it.
struct KeyRef {
  std::uint64_t hash = 0;
  std::string_view canonical;

  bool operator==(const KeyRef& o) const {
    return hash == o.hash && canonical == o.canonical;
  }
  struct Hash {
    std::size_t operator()(const KeyRef& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };
};

struct QueryKey {
  std::uint64_t hash = 0;
  std::string canonical;

  bool operator==(const QueryKey& o) const {
    return hash == o.hash && canonical == o.canonical;
  }
  bool operator!=(const QueryKey& o) const { return !(*this == o); }
  KeyRef ref() const { return KeyRef{hash, canonical}; }
};

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

// FNV-1a over the canonical form — stable across platforms and runs (keys
// may be logged or persisted).  `h` continues an earlier hash: the hash
// of a + b is fnv1a64(b, fnv1a64(a)).
std::uint64_t fnv1a64(std::string_view s, std::uint64_t h = kFnv1aOffset);

// The quantization rule, exposed for tests: to_chars scientific with
// precision 9 (byte-equal to "%.9e") after folding -0 into +0.
std::string quantize_token(double v);

// Resolves each name through the registry's spelling rules to its
// registered display name, sorts and dedupes.  Empty input means the
// paper's three protocols.  kNotFound on an unknown protocol.
Expected<std::vector<std::string>> canonical_protocol_set(
    const std::vector<std::string>& protocols);

// Every key of one query, from one formatting pass over its scenario
// prefix.  protocol_key and query_key below build one of these and take a
// single key from it; context_key runs the same builder over the
// deployment fields alone.
class ScenarioKeys {
 public:
  ScenarioKeys(const core::Scenario& scenario, const QueryOptions& opts);

  // The deployment fields alone: context_key's canonical string.
  std::string_view context() const {
    return std::string_view(prefix_).substr(0, context_size_);
  }
  // `protocol` must already be a registered display name.
  QueryKey protocol_key(std::string_view protocol) const;
  QueryKey query_key(
      const std::vector<std::string>& canonical_protocols) const;

 private:
  QueryKey finish(std::string_view name, std::string_view token) const;

  std::string prefix_;  // deployment, then requirements and alpha
  std::size_t context_size_ = 0;
  std::uint64_t prefix_hash_ = kFnv1aOffset;
};

// Key over the deployment only (radio, packet, ring, rates) — what a MAC
// model is built from.  The planner uses it to share one model across
// queries that differ only in requirements.
QueryKey context_key(const mac::ModelContext& ctx);

// Key of one protocol's cache entry: deployment + requirements + options
// + protocol.  `protocol` must already be a registered display name.
QueryKey protocol_key(const core::Scenario& scenario,
                      std::string_view protocol, const QueryOptions& opts);

// Key of a whole query: deployment + requirements + options + the
// canonical protocol set.
QueryKey query_key(const core::Scenario& scenario,
                   const std::vector<std::string>& canonical_protocols,
                   const QueryOptions& opts);

}  // namespace edb::service
