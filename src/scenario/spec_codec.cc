#include "scenario/spec_codec.h"

#include <bitset>
#include <map>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/parse.h"
#include "common/require.h"

namespace bbrmodel::scenario {

namespace {

void encode_bool(std::string& out, bool v) { out += v ? '1' : '0'; }

bool decode_bool(std::string_view text) {
  BBRM_REQUIRE_MSG(text == "0" || text == "1",
                   "spec codec: bool fields are 0 or 1, got '" +
                       std::string(text) + "'");
  return text == "1";
}

/// Every number field reads through parse_number: exactly the bytes the
/// encoder writes, so a sign, blank, hex or out-of-range spelling throws
/// instead of aliasing another spec.
template <typename T>
T decode_number(std::string_view text) {
  const auto v = parse_number<T>(text);
  BBRM_REQUIRE_MSG(v.has_value(),
                   "spec codec: bad number '" + std::string(text) + "'");
  return *v;
}

CcaKind decode_cca(std::string_view name) {
  for (const CcaKind kind : {CcaKind::kReno, CcaKind::kCubic,
                             CcaKind::kBbrv1, CcaKind::kBbrv2}) {
    if (name == to_string(kind)) return kind;
  }
  BBRM_REQUIRE_MSG(false,
                   "spec codec: unknown CCA '" + std::string(name) + "'");
  return CcaKind::kReno;
}

void encode_flows(std::string& out, const std::vector<CcaKind>& flows) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (i != 0) out += ',';
    out += to_string(flows[i]);
  }
}

std::vector<CcaKind> decode_flows(std::string_view text) {
  std::vector<CcaKind> flows;
  if (text.empty()) return flows;
  while (true) {
    const auto comma = text.find(',');
    flows.push_back(decode_cca(text.substr(0, comma)));
    if (comma == std::string_view::npos) return flows;
    text.remove_prefix(comma + 1);
  }
}

std::vector<double> decode_doubles(std::string_view text) {
  auto values = parse_number_list(text);
  BBRM_REQUIRE_MSG(values.has_value(), "spec codec: bad number list '" +
                                           std::string(text) + "'");
  return std::move(*values);
}

const char* encode_discipline(net::Discipline d) {
  return d == net::Discipline::kRed ? "red" : "droptail";
}

net::Discipline decode_discipline(std::string_view text) {
  if (text == "droptail") return net::Discipline::kDropTail;
  if (text == "red") return net::Discipline::kRed;
  BBRM_REQUIRE_MSG(false, "spec codec: unknown discipline '" +
                              std::string(text) + "'");
  return net::Discipline::kDropTail;
}

/// One serialized field: canonical key, encoder (appends the value) and
/// decoder.
struct FieldCodec {
  const char* key;
  void (*put)(const ExperimentSpec&, std::string&);
  void (*set)(ExperimentSpec&, std::string_view);
};

#define BBRM_DOUBLE_FIELD(name, expr)                                     \
  FieldCodec {                                                            \
    name,                                                                 \
        [](const ExperimentSpec& s, std::string& out) {                   \
          append_exact_number(out, s.expr);                               \
        },                                                                \
        [](ExperimentSpec& s, std::string_view v) {                       \
          s.expr = decode_number<double>(v);                              \
        }                                                                 \
  }
#define BBRM_BOOL_FIELD(name, expr)                                       \
  FieldCodec {                                                            \
    name,                                                                 \
        [](const ExperimentSpec& s, std::string& out) {                   \
          encode_bool(out, s.expr);                                       \
        },                                                                \
        [](ExperimentSpec& s, std::string_view v) {                       \
          s.expr = decode_bool(v);                                        \
        }                                                                 \
  }

/// Every simulation-relevant field, in canonical emission order. A new
/// ExperimentSpec/FluidConfig field MUST be added here (the round-trip
/// test in tests/cache_test.cc exists to catch forgetting).
const std::vector<FieldCodec>& field_codecs() {
  static const std::vector<FieldCodec> kFields = {
      {"mix.label",
       [](const ExperimentSpec& s, std::string& out) { out += s.mix.label; },
       [](ExperimentSpec& s, std::string_view v) { s.mix.label = v; }},
      {"mix.flows",
       [](const ExperimentSpec& s, std::string& out) {
         encode_flows(out, s.mix.flows);
       },
       [](ExperimentSpec& s, std::string_view v) {
         s.mix.flows = decode_flows(v);
       }},
      BBRM_DOUBLE_FIELD("capacity_pps", capacity_pps),
      BBRM_DOUBLE_FIELD("bottleneck_delay_s", bottleneck_delay_s),
      BBRM_DOUBLE_FIELD("min_rtt_s", min_rtt_s),
      BBRM_DOUBLE_FIELD("max_rtt_s", max_rtt_s),
      {"flow_rtts_s",
       [](const ExperimentSpec& s, std::string& out) {
         append_exact_numbers(out, s.flow_rtts_s);
       },
       [](ExperimentSpec& s, std::string_view v) {
         s.flow_rtts_s = decode_doubles(v);
       }},
      BBRM_DOUBLE_FIELD("buffer_bdp", buffer_bdp),
      {"discipline",
       [](const ExperimentSpec& s, std::string& out) {
         out += encode_discipline(s.discipline);
       },
       [](ExperimentSpec& s, std::string_view v) {
         s.discipline = decode_discipline(v);
       }},
      BBRM_DOUBLE_FIELD("duration_s", duration_s),
      {"seed",
       [](const ExperimentSpec& s, std::string& out) {
         out += std::to_string(s.seed);
       },
       [](ExperimentSpec& s, std::string_view v) {
         s.seed = decode_number<std::uint64_t>(v);
       }},
      BBRM_DOUBLE_FIELD("fluid.step_s", fluid.step_s),
      BBRM_DOUBLE_FIELD("fluid.record_interval_s", fluid.record_interval_s),
      BBRM_DOUBLE_FIELD("fluid.k_time", fluid.k_time),
      BBRM_DOUBLE_FIELD("fluid.k_rate", fluid.k_rate),
      BBRM_DOUBLE_FIELD("fluid.k_vol", fluid.k_vol),
      BBRM_DOUBLE_FIELD("fluid.k_prob", fluid.k_prob),
      BBRM_DOUBLE_FIELD("fluid.droptail_exponent", fluid.droptail_exponent),
      BBRM_DOUBLE_FIELD("fluid.loss_indicator_eps", fluid.loss_indicator_eps),
      BBRM_BOOL_FIELD("fluid.literal_eq18", fluid.literal_eq18),
      BBRM_BOOL_FIELD("fluid.loss_based_slow_start",
                      fluid.loss_based_slow_start),
      BBRM_BOOL_FIELD("fluid.per_rtt_loss_events", fluid.per_rtt_loss_events),
      BBRM_BOOL_FIELD("fluid.literal_eq19", fluid.literal_eq19),
      BBRM_DOUBLE_FIELD("fluid.probe_rtt_interval_s",
                        fluid.probe_rtt_interval_s),
      BBRM_DOUBLE_FIELD("fluid.probe_rtt_duration_s",
                        fluid.probe_rtt_duration_s),
      BBRM_DOUBLE_FIELD("fluid.bbr2_loss_thresh", fluid.bbr2_loss_thresh),
      BBRM_DOUBLE_FIELD("fluid.bbr2_beta", fluid.bbr2_beta),
      BBRM_DOUBLE_FIELD("fluid.bbr2_headroom", fluid.bbr2_headroom),
      BBRM_DOUBLE_FIELD("fluid.inflight_hi_growth_pps",
                        fluid.inflight_hi_growth_pps),
      BBRM_DOUBLE_FIELD("fluid.mss_bytes", fluid.mss_bytes),
      BBRM_DOUBLE_FIELD("fluid.max_rate_factor", fluid.max_rate_factor),
      BBRM_BOOL_FIELD("fluid.model_startup", fluid.model_startup),
      BBRM_DOUBLE_FIELD("fluid.startup_gain", fluid.startup_gain),
      BBRM_DOUBLE_FIELD("fluid.startup_initial_window_pkts",
                        fluid.startup_initial_window_pkts),
      {"fluid.startup_full_bw_rounds",
       [](const ExperimentSpec& s, std::string& out) {
         out += std::to_string(s.fluid.startup_full_bw_rounds);
       },
       [](ExperimentSpec& s, std::string_view v) {
         s.fluid.startup_full_bw_rounds = decode_number<int>(v);
       }},
  };
  return kFields;
}

#undef BBRM_DOUBLE_FIELD
#undef BBRM_BOOL_FIELD

constexpr const char* kVersionLine = "bbrm-spec=1";
/// Width of parse_canonical_spec's seen-field set.
constexpr std::size_t kMaxFields = 64;

}  // namespace

bool spec_cacheable(const ExperimentSpec& spec) {
  return !static_cast<bool>(spec.bbr_init);
}

std::string canonical_spec_string(const ExperimentSpec& spec) {
  BBRM_REQUIRE_MSG(spec_cacheable(spec),
                   "specs with a custom bbr_init have no canonical bytes");
  BBRM_REQUIRE_MSG(spec.mix.label.find('\n') == std::string::npos,
                   "mix labels must be single-line");
  std::string out = kVersionLine;
  out += '\n';
  for (const auto& field : field_codecs()) {
    out += field.key;
    out += '=';
    field.put(spec, out);
    out += '\n';
  }
  return out;
}

std::string canonical_spec_hash(const ExperimentSpec& spec) {
  return hex64(fnv1a64(canonical_spec_string(spec)));
}

ExperimentSpec parse_canonical_spec(std::string_view bytes) {
  const auto& fields = field_codecs();
  // Built once: a plan load parses one spec per cell.
  static const std::map<std::string_view, std::size_t> kByKey = [&fields] {
    std::map<std::string_view, std::size_t> by_key;
    for (std::size_t i = 0; i < fields.size(); ++i) by_key[fields[i].key] = i;
    return by_key;
  }();
  BBRM_REQUIRE(fields.size() <= kMaxFields);

  ExperimentSpec spec;
  std::bitset<kMaxFields> seen;
  bool version_seen = false;
  while (!bytes.empty()) {
    const auto newline = bytes.find('\n');
    const std::string_view line = bytes.substr(0, newline);
    bytes.remove_prefix(newline == std::string_view::npos ? bytes.size()
                                                          : newline + 1);
    if (line.empty()) continue;
    if (!version_seen) {
      BBRM_REQUIRE_MSG(line == kVersionLine,
                       "spec codec: expected '" + std::string(kVersionLine) +
                           "', got '" + std::string(line) + "'");
      version_seen = true;
      continue;
    }
    const auto eq = line.find('=');
    BBRM_REQUIRE_MSG(eq != std::string_view::npos,
                     "spec codec: malformed line '" + std::string(line) +
                         "'");
    const std::string_view key = line.substr(0, eq);
    const auto it = kByKey.find(key);
    BBRM_REQUIRE_MSG(it != kByKey.end(), "spec codec: unknown field '" +
                                             std::string(key) + "'");
    BBRM_REQUIRE_MSG(!seen.test(it->second),
                     "spec codec: duplicate field '" + std::string(key) +
                         "'");
    seen.set(it->second);
    fields[it->second].set(spec, line.substr(eq + 1));
  }
  BBRM_REQUIRE_MSG(version_seen, "spec codec: missing version line");
  BBRM_REQUIRE_MSG(seen.count() == fields.size(),
                   "spec codec: missing fields (got " +
                       std::to_string(seen.count()) + " of " +
                       std::to_string(fields.size()) + ")");
  return spec;
}

}  // namespace bbrmodel::scenario
