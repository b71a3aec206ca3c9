#include "service/key.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "catalog/catalog.h"
#include "core/scenario.h"

namespace edb::service {
namespace {

core::Scenario base() { return core::Scenario::paper_default(); }

TEST(QuantizeTest, FloatNoiseCollides) {
  EXPECT_EQ(quantize_token(0.06), quantize_token(0.06 * (1.0 + 1e-13)));
  EXPECT_EQ(quantize_token(6.0), quantize_token(6.0 - 6e-13));
  EXPECT_EQ(quantize_token(0.0), quantize_token(-0.0));
}

TEST(QuantizeTest, ValueDifferencesSurvive) {
  EXPECT_NE(quantize_token(0.06), quantize_token(0.05));
  EXPECT_NE(quantize_token(6.0), quantize_token(6.0001));
  EXPECT_NE(quantize_token(1.0), quantize_token(-1.0));
}

TEST(Fnv1aTest, StableAndDiscriminating) {
  // Pinned value: keys may be logged/persisted, so the hash must not
  // drift across platforms or refactors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("req.l_max=6;"), fnv1a64("req.l_max=6;"));
}

TEST(ProtocolSetTest, SpellingAndOrderInsensitive) {
  auto a = canonical_protocol_set({"xmac", "DMAC"});
  auto b = canonical_protocol_set({"D-MAC", "X-MAC"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ((*a)[0], "DMAC");
  EXPECT_EQ((*a)[1], "X-MAC");
}

TEST(ProtocolSetTest, DedupesAndDefaults) {
  auto dup = canonical_protocol_set({"X-MAC", "xmac", "x mac"});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->size(), 1u);

  auto def = canonical_protocol_set({});
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->size(), 3u);  // the paper's three
  // The default set is canonical too: any spelling of the same three
  // protocols lands on the identical (sorted) order.
  EXPECT_EQ(*def, *canonical_protocol_set({"xmac", "dmac", "lmac"}));
}

TEST(ProtocolSetTest, UnknownProtocolIsAnError) {
  auto r = canonical_protocol_set({"T-MAC"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
}

TEST(QueryKeyTest, NoiseEquivalentScenariosCollide) {
  core::Scenario a = base();
  core::Scenario b = base();
  b.requirements.l_max *= 1.0 + 1e-13;
  b.context.fs *= 1.0 - 1e-14;
  EXPECT_EQ(protocol_key(a, "X-MAC", {}), protocol_key(b, "X-MAC", {}));
}

TEST(QueryKeyTest, ValueAffectingFieldsSplit) {
  core::Scenario a = base();

  core::Scenario req = base();
  req.requirements.l_max = 5.0;
  EXPECT_NE(protocol_key(a, "X-MAC", {}), protocol_key(req, "X-MAC", {}));

  core::Scenario radio = base();
  radio.context.radio.p_rx *= 1.01;
  EXPECT_NE(protocol_key(a, "X-MAC", {}), protocol_key(radio, "X-MAC", {}));

  core::Scenario ring = base();
  ring.context.ring.depth = 6;
  EXPECT_NE(protocol_key(a, "X-MAC", {}), protocol_key(ring, "X-MAC", {}));

  EXPECT_NE(protocol_key(a, "X-MAC", {}), protocol_key(a, "DMAC", {}));
  EXPECT_NE(protocol_key(a, "X-MAC", QueryOptions{0.5}),
            protocol_key(a, "X-MAC", QueryOptions{0.7}));
}

TEST(QueryKeyTest, RadioDisplayNameDoesNotParticipate) {
  core::Scenario a = base();
  core::Scenario b = base();
  b.context.radio.name = "same constants, different label";
  EXPECT_EQ(protocol_key(a, "X-MAC", {}), protocol_key(b, "X-MAC", {}));
}

TEST(QueryKeyTest, WholeQueryKeyCoversProtocolSet) {
  core::Scenario s = base();
  const auto one = canonical_protocol_set({"X-MAC"}).value();
  const auto two = canonical_protocol_set({"X-MAC", "DMAC"}).value();
  EXPECT_NE(query_key(s, one, {}), query_key(s, two, {}));
  EXPECT_EQ(query_key(s, two, {}),
            query_key(s, canonical_protocol_set({"dmac", "xmac"}).value(),
                      {}));
}

TEST(QueryKeyTest, CanonicalFormIsReadable) {
  const auto key = protocol_key(base(), "X-MAC", {});
  EXPECT_NE(key.canonical.find("req.l_max="), std::string::npos);
  EXPECT_NE(key.canonical.find("protocol=X-MAC;"), std::string::npos);
  EXPECT_EQ(key.hash, fnv1a64(key.canonical));
}

TEST(QueryKeyTest, ContextKeyIgnoresRequirements) {
  core::Scenario a = base();
  core::Scenario b = base();
  b.requirements.l_max = 2.0;
  EXPECT_EQ(context_key(a.context), context_key(b.context));
  core::Scenario c = base();
  c.context.fs *= 2.0;
  EXPECT_NE(context_key(a.context), context_key(c.context));
}

// ------------------------------------------------------ byte identity --
//
// Keys are persisted, logged and echoed on the wire, so their bytes are a
// contract.  The oracle below is the original "%.9e" formulation, kept
// test-local: the library's quantizer must reproduce it exactly.

std::string oracle_token(double v) {
  if (v == 0.0) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9e", v);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(KeyIdentityTest, QuantizeMatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(0x6b6579ULL);
  std::size_t checked = 0;
  while (checked < 1'000'000) {
    const double v = from_bits(rng());
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(quantize_token(v), oracle_token(v)) << std::hexfloat << v;
    ++checked;
  }
}

TEST(KeyIdentityTest, QuantizeMatchesPrintfNearDecimals) {
  // k/100 and its neighbouring doubles: the values where a 10th-digit
  // rounding disagreement would show first.
  for (int k = -200000; k <= 200000; ++k) {
    const double v = k / 100.0;
    for (const double x : {std::nextafter(v, -INFINITY), v,
                           std::nextafter(v, INFINITY)}) {
      ASSERT_EQ(quantize_token(x), oracle_token(x)) << std::hexfloat << x;
    }
  }
  // Exact decimal ties at the 10th significant digit and the extremes.
  for (const double x : {12345678905.0, 12345678915.0, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308,
                         -0.0, 0.0}) {
    EXPECT_EQ(quantize_token(x), oracle_token(x)) << std::hexfloat << x;
  }
}

TEST(KeyIdentityTest, QuantizeMatchesPrintfAcrossDecadesAndNearTies) {
  // Deployment-sized magnitudes, plus values within an ulp of a
  // 10th-digit tie and of a decade boundary, where rounding disagreements
  // would show first.
  std::mt19937_64 rng(0x7469ULL);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  for (int i = 0; i < 100'000; ++i) {
    const int exp10 = static_cast<int>(rng() % 40) - 15;
    const double scale = std::pow(10.0, exp10);
    const double tie =
        (1e9 + static_cast<double>(rng() % 9'000'000'000ULL) + 0.5) * 1e-9;
    for (const double m : {mantissa(rng), tie, 9.9999999995, 9.999999999,
                           0.9999999995}) {
      const double v = m * scale;
      for (const double x : {v, std::nextafter(v, 0.0),
                             std::nextafter(v, INFINITY), -v}) {
        ASSERT_EQ(quantize_token(x), oracle_token(x)) << std::hexfloat << x;
      }
    }
  }
}

TEST(KeyIdentityTest, GoldenProtocolKey) {
  const auto key = protocol_key(base(), "X-MAC", {});
  EXPECT_EQ(key.canonical,
            "radio.p_tx=5.220000000e-02;radio.p_rx=5.640000000e-02;"
            "radio.p_sleep=3.000000000e-06;radio.bitrate=2.500000000e+05;"
            "radio.t_startup=5.000000000e-04;"
            "radio.t_turnaround=2.000000000e-04;"
            "radio.t_cca=3.000000000e-04;packet.payload=3.200000000e+01;"
            "packet.header=1.600000000e+01;packet.ack=1.000000000e+01;"
            "packet.strobe=1.000000000e+01;packet.ctrl=1.200000000e+01;"
            "packet.sync=1.600000000e+01;ring.depth=5;"
            "ring.density=7.000000000e+00;fs=6.500000000e-05;"
            "energy_epoch=1.000000000e+02;arrivals=0;"
            "jitter_frac=1.000000000e-01;burst_factor=1.000000000e+00;"
            "model_version=0;req.e_budget=6.000000000e-02;"
            "req.l_max=6.000000000e+00;opts.alpha=5.000000000e-01;"
            "protocol=X-MAC;");
  EXPECT_EQ(key.hash, 0x0f20324c177ea1bbULL);
}

// The canonical string spelled out field by field with the oracle token.
class OracleKey {
 public:
  OracleKey& field(const char* name, double v) {
    return field(name, oracle_token(v));
  }
  OracleKey& field(const char* name, int v) {
    return field(name, std::to_string(v));
  }
  OracleKey& field(const char* name, const std::string& token) {
    s += name;
    s += '=';
    s += token;
    s += ';';
    return *this;
  }
  std::string s;
};

std::string oracle_context(const mac::ModelContext& c) {
  OracleKey k;
  k.field("radio.p_tx", c.radio.p_tx)
      .field("radio.p_rx", c.radio.p_rx)
      .field("radio.p_sleep", c.radio.p_sleep)
      .field("radio.bitrate", c.radio.bitrate)
      .field("radio.t_startup", c.radio.t_startup)
      .field("radio.t_turnaround", c.radio.t_turnaround)
      .field("radio.t_cca", c.radio.t_cca)
      .field("packet.payload", c.packet.payload_bytes)
      .field("packet.header", c.packet.header_bytes)
      .field("packet.ack", c.packet.ack_bytes)
      .field("packet.strobe", c.packet.strobe_bytes)
      .field("packet.ctrl", c.packet.ctrl_bytes)
      .field("packet.sync", c.packet.sync_bytes)
      .field("ring.depth", c.ring.depth)
      .field("ring.density", c.ring.density)
      .field("fs", c.fs)
      .field("energy_epoch", c.energy_epoch)
      .field("arrivals", static_cast<int>(c.arrivals))
      .field("jitter_frac", c.jitter_frac)
      .field("burst_factor", c.burst_factor)
      .field("model_version", static_cast<int>(c.model_version));
  return k.s;
}

std::string oracle_prefix(const core::Scenario& s, const QueryOptions& o) {
  OracleKey k;
  k.s = oracle_context(s.context);
  k.field("req.e_budget", s.requirements.e_budget)
      .field("req.l_max", s.requirements.l_max)
      .field("opts.alpha", o.alpha);
  return k.s;
}

void expect_key(const QueryKey& key, const std::string& canonical) {
  EXPECT_EQ(key.canonical, canonical);
  EXPECT_EQ(key.hash, fnv1a64(canonical));
}

TEST(KeyIdentityTest, PrefixBuiltKeysMatchOracleOnEveryCatalogScenario) {
  const auto all =
      catalog::Catalog::builtin().expand_all(catalog::kDefaultSeed);
  ASSERT_GT(all.size(), 200u);
  const auto paper = canonical_protocol_set({}).value();
  const QueryOptions opts{0.35};
  for (const auto& entry : all) {
    SCOPED_TRACE(entry.id());
    const core::Scenario& s = entry.scenario;
    const ScenarioKeys keys(s, opts);
    const std::string ctx = oracle_context(s.context);
    const std::string prefix = oracle_prefix(s, opts);

    EXPECT_EQ(keys.context(), ctx);
    expect_key(context_key(s.context), ctx);

    const std::string whole = prefix + "protocols=DMAC,LMAC,X-MAC;";
    expect_key(keys.query_key(paper), whole);
    expect_key(query_key(s, paper, opts), whole);

    for (const auto& p : paper) {
      const std::string one = prefix + "protocol=" + p + ";";
      expect_key(keys.protocol_key(p), one);
      expect_key(protocol_key(s, p, opts), one);
    }
  }
}

}  // namespace
}  // namespace edb::service
