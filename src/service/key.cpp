#include "service/key.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "mac/registry.h"

namespace edb::service {
namespace {

// A quantized token is at most "-d.ddddddddde-ddd".
constexpr std::size_t kMaxToken = 24;

// The quantized token of `v` into `out` (room for kMaxToken); returns its
// end.  to_chars is locale-independent and prints exactly what "%.9e"
// does.
char* quantize(double v, char* out) {
  if (v == 0.0) v = 0.0;  // fold -0 into +0
  return std::to_chars(out, out + kMaxToken, v,
                       std::chars_format::scientific, 9)
      .ptr;
}

// Accumulates the "name=token;" pairs of a scenario prefix in a fixed
// buffer.  The one place key bytes are written.
class KeyBuilder {
 public:
  KeyBuilder& field(std::string_view name, double v) {
    begin(name);
    end_ = quantize(v, end_);
    *end_++ = ';';
    return *this;
  }
  KeyBuilder& field(std::string_view name, int v) {
    begin(name);
    end_ = std::to_chars(end_, end_ + kMaxToken, v).ptr;
    *end_++ = ';';
    return *this;
  }

  std::string_view view() const {
    return std::string_view(buf_, static_cast<std::size_t>(end_ - buf_));
  }

 private:
  void begin(std::string_view name) {
    // The prefix's fields are a fixed set of ~25 short names (~650 bytes
    // of key), so this bound only trips if that set grows past the buffer.
    EDB_ASSERT(name.size() + kMaxToken + 2 <=
                   static_cast<std::size_t>(buf_ + sizeof buf_ - end_),
               "scenario key prefix overflows its buffer");
    std::memcpy(end_, name.data(), name.size());
    end_ += name.size();
    *end_++ = '=';
  }

  char buf_[1024];
  char* end_ = buf_;
};

void append_context(KeyBuilder& b, const mac::ModelContext& ctx) {
  const net::RadioParams& r = ctx.radio;
  b.field("radio.p_tx", r.p_tx)
      .field("radio.p_rx", r.p_rx)
      .field("radio.p_sleep", r.p_sleep)
      .field("radio.bitrate", r.bitrate)
      .field("radio.t_startup", r.t_startup)
      .field("radio.t_turnaround", r.t_turnaround)
      .field("radio.t_cca", r.t_cca);
  const net::PacketFormat& p = ctx.packet;
  b.field("packet.payload", p.payload_bytes)
      .field("packet.header", p.header_bytes)
      .field("packet.ack", p.ack_bytes)
      .field("packet.strobe", p.strobe_bytes)
      .field("packet.ctrl", p.ctrl_bytes)
      .field("packet.sync", p.sync_bytes);
  b.field("ring.depth", ctx.ring.depth)
      .field("ring.density", ctx.ring.density)
      .field("fs", ctx.fs)
      .field("energy_epoch", ctx.energy_epoch);
  // Arrival shape and model version are value-affecting under
  // kV2Queueing; they participate unconditionally so a kV1 and a
  // kV2Queueing query over the same deployment can never share a cache
  // entry (tests/model_version_test.cpp pins the no-cross-version-hit
  // guarantee).
  b.field("arrivals", static_cast<int>(ctx.arrivals))
      .field("jitter_frac", ctx.jitter_frac)
      .field("burst_factor", ctx.burst_factor)
      .field("model_version", static_cast<int>(ctx.model_version));
}

}  // namespace

std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string quantize_token(double v) {
  char buf[kMaxToken];
  return std::string(buf, quantize(v, buf));
}

Expected<std::vector<std::string>> canonical_protocol_set(
    const std::vector<std::string>& protocols) {
  std::vector<std::string> out;
  if (protocols.empty()) {
    // The default set goes through the same sort as explicit lists, so
    // "no protocols" and any spelling of the paper's three produce one
    // canonical order (and therefore one key).
    out = mac::paper_protocols();
  } else {
    for (const auto& name : protocols) {
      // The registry's own spelling rule, so a name accepted here is a
      // name make_model accepts.
      auto resolved = mac::resolve_protocol(name);
      if (!resolved.ok()) return resolved.error();
      out.push_back(std::move(resolved).take());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ScenarioKeys::ScenarioKeys(const core::Scenario& scenario,
                           const QueryOptions& opts) {
  KeyBuilder b;
  append_context(b, scenario.context);
  context_size_ = b.view().size();
  b.field("req.e_budget", scenario.requirements.e_budget)
      .field("req.l_max", scenario.requirements.l_max)
      .field("opts.alpha", opts.alpha);
  prefix_ = b.view();
  prefix_hash_ = fnv1a64(prefix_);
}

QueryKey ScenarioKeys::finish(std::string_view name,
                              std::string_view token) const {
  QueryKey key;
  // Exact fit: cache entries keep this string for their lifetime.
  key.canonical.reserve(prefix_.size() + name.size() + token.size() + 2);
  key.canonical.append(prefix_).append(name).append(1, '=').append(token)
      .append(1, ';');
  key.hash = fnv1a64(std::string_view(key.canonical).substr(prefix_.size()),
                     prefix_hash_);
  return key;
}

QueryKey ScenarioKeys::protocol_key(std::string_view protocol) const {
  return finish("protocol", protocol);
}

QueryKey ScenarioKeys::query_key(
    const std::vector<std::string>& canonical_protocols) const {
  std::string set;
  for (const auto& p : canonical_protocols) {
    if (!set.empty()) set.push_back(',');
    set.append(p);
  }
  return finish("protocols", set);
}

QueryKey context_key(const mac::ModelContext& ctx) {
  KeyBuilder b;
  append_context(b, ctx);
  QueryKey key;
  key.canonical = b.view();
  key.hash = fnv1a64(key.canonical);
  return key;
}

QueryKey protocol_key(const core::Scenario& scenario,
                      std::string_view protocol, const QueryOptions& opts) {
  return ScenarioKeys(scenario, opts).protocol_key(protocol);
}

QueryKey query_key(const core::Scenario& scenario,
                   const std::vector<std::string>& canonical_protocols,
                   const QueryOptions& opts) {
  return ScenarioKeys(scenario, opts).query_key(canonical_protocols);
}

}  // namespace edb::service
