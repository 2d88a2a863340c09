#include "net/protocol.hpp"

#include <array>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <cstring>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace spinn::net {

namespace {

using server::parse_run_ms;

std::vector<std::string> split_lines(const std::string& text) {
  // Interior blank lines are KEPT (they execute as no-ops): `err @<n>`
  // indices must match the client's own line numbering even when a batch
  // uses blank separators.  Trailing blanks are trimmed so a terminating
  // newline doesn't turn a single command into a "batch".
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    std::string line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

// Hand-rolled splitter: tokenize runs once per command on the serving hot
// path, where istringstream costs more than the whole framing layer.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line, start, i - start);
  }
  return tokens;
}

/// `text` cut at every `sep`: n separators give n + 1 fields, empty ones
/// included (`a,,b` is three fields, `a,` two).
std::vector<std::string> split_fields(const std::string& text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = text.find(sep, start);
    fields.push_back(text.substr(
        start, (at == std::string::npos ? text.size() : at) - start));
    if (at == std::string::npos) break;
    start = at + 1;
  }
  return fields;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

// ---- net-grammar scalar helpers --------------------------------------------

/// Strict whole-token double parse; finite only.  from_chars, not strtod:
/// the wire grammar must not bend to the host's LC_NUMERIC.
bool parse_f64_tok(const std::string& text, double* out) {
  if (text.empty()) return false;
  double v = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// `v` or `lo:hi`.
bool parse_dist_tok(const std::string& text, neural::ValueDist* out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    double v = 0.0;
    if (!parse_f64_tok(text, &v)) return false;
    *out = neural::ValueDist::fixed(v);
    return true;
  }
  double lo = 0.0;
  double hi = 0.0;
  if (!parse_f64_tok(text.substr(0, colon), &lo) ||
      !parse_f64_tok(text.substr(colon + 1), &hi)) {
    return false;
  }
  *out = neural::ValueDist::uniform(lo, hi);
  return true;
}

/// `t,t,...;t;...` — one `;`-separated group per neuron, ticks `,`-joined.
bool parse_schedule_tok(const std::string& text,
                        std::vector<std::vector<std::uint32_t>>* out,
                        std::string* why) {
  out->clear();
  for (const std::string& group : split_fields(text, ';')) {
    std::vector<std::uint32_t> train;
    if (!group.empty()) {
      for (const std::string& tok : split_fields(group, ',')) {
        std::uint64_t tick = 0;
        if (!server::parse_u64_strict(tok, neural::kMaxScheduleTick, &tick)) {
          *why = "bad schedule tick '" + tok + "'";
          return false;
        }
        train.push_back(static_cast<std::uint32_t>(tick));
      }
    }
    out->push_back(std::move(train));
  }
  return true;
}

/// Shortest decimal that round-trips the exact double — what keeps the
/// wire form lossless (and the fuzz round-trip byte-stable).
std::string dbl(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, static_cast<std::size_t>(ptr - buf));
}

std::string dist(const neural::ValueDist& v) {
  return v.lo == v.hi ? dbl(v.lo) : dbl(v.lo) + ":" + dbl(v.hi);
}

const char* model_token(neural::NeuronModel m) {
  switch (m) {
    case neural::NeuronModel::Lif: return "lif";
    case neural::NeuronModel::Izhikevich: return "izh";
    case neural::NeuronModel::PoissonSource: return "poisson";
    case neural::NeuronModel::SpikeSourceArray: return "spike_source";
  }
  return "?";
}

bool connector_default_self(neural::ConnectorKind kind) {
  return kind == neural::ConnectorKind::OneToOne;
}

std::string format_status(const server::SessionStatus& st) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "id=%" PRIu64 " state=%s evicted=%d t=%" PRId64
                " target=%" PRId64 " spikes=%zu drained=%zu chips=%zu "
                "load_ok=%d",
                st.id, server::to_string(st.state), st.evicted ? 1 : 0,
                st.bio_now, st.bio_target, st.spikes_recorded,
                st.spikes_drained, st.chips_alive, st.load_ok ? 1 : 0);
  std::string out(buf);
  // Fault aggregates only when the session has a chaos schedule, so the
  // fault-free status line (which tests and clients pin) is unchanged.
  if (st.faults_scheduled > 0) {
    out += " faults=" + u64(st.faults_scheduled) +
           " executed=" + u64(st.faults_executed) +
           " migrations=" + u64(st.migrations) +
           " routers=" + u64(st.routers_rewritten) +
           " recovery_ns=" + u64(static_cast<std::uint64_t>(st.recovery_ns)) +
           " spikes_lost=" + u64(st.spikes_lost);
  }
  if (!st.error.empty()) out += " error=" + st.error;
  return out;
}

// ---- the `fault` verb grammar ----------------------------------------------

/// The six wire direction tokens, matching to_string(LinkDir).
bool parse_dir_tok(const std::string& text, LinkDir* out) {
  if (text == "E") *out = LinkDir::East;
  else if (text == "NE") *out = LinkDir::NorthEast;
  else if (text == "N") *out = LinkDir::North;
  else if (text == "W") *out = LinkDir::West;
  else if (text == "SW") *out = LinkDir::SouthWest;
  else if (text == "S") *out = LinkDir::South;
  else return false;
  return true;
}

/// `x,y` (chip=) or `x,y,<tail>` with the tail handed back for the caller
/// to interpret (core index or link direction).
bool parse_chip_tok(const std::string& text, std::size_t want_fields,
                    ChipCoord* chip, std::string* tail) {
  const std::vector<std::string> fields = split_fields(text, ',');
  if (fields.size() != want_fields) return false;
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  if (!server::parse_u64_strict(fields[0], 65535, &x) ||
      !server::parse_u64_strict(fields[1], 65535, &y)) {
    return false;
  }
  chip->x = static_cast<std::uint16_t>(x);
  chip->y = static_cast<std::uint16_t>(y);
  if (want_fields == 3) *tail = fields[2];
  return true;
}

std::string format_stats(const server::ServerStats& st) {
  return "sessions opened=" + u64(st.opened) + " closed=" + u64(st.closed) +
         " evicted=" + u64(st.evicted) + " rejected=" + u64(st.rejected) +
         " rejected_cost=" + u64(st.rejected_cost) +
         " resident=" + std::to_string(st.resident) +
         " cost=" + u64(st.cost_resident) + "/" + u64(st.cost_budget) +
         " engines created=" + u64(st.engines.created) +
         " reused=" + u64(st.engines.reused) +
         " idle=" + std::to_string(st.engines.idle);
}

}  // namespace

// ---- the `net` block grammar -----------------------------------------------

NetParser::Status NetParser::fail(const std::string& why) {
  error_ = why;
  return Status::Error;
}

NetParser::Status NetParser::feed(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) return Status::More;
  if (tokens[0] == "pop") return parse_pop(tokens);
  if (tokens[0] == "proj") return parse_proj(tokens);
  if (tokens[0] == "end") {
    if (tokens.size() != 1) return fail("'end' takes no arguments");
    // Every pop/proj line was validated as it arrived (with errors
    // attributed to its line); only the whole-description checks are left.
    if (desc_.populations.empty()) return fail("no populations described");
    std::string why;
    if (!neural::check_synapse_cap(desc_, names_, &why)) return fail(why);
    return Status::Done;
  }
  if (tokens[0] == "net") return fail("nested 'net' inside a net block");
  return fail("expected pop, proj or end inside a net block, got '" +
              tokens[0] + "'");
}

std::shared_ptr<const neural::NetworkDescription> NetParser::take() {
  return std::make_shared<const neural::NetworkDescription>(
      std::move(desc_));
}

std::shared_ptr<const neural::NameMap> NetParser::take_names() {
  return std::make_shared<const neural::NameMap>(std::move(names_));
}

NetParser::Status NetParser::parse_pop(
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 4) {
    return fail(
        "usage: pop <name> <lif|izh|poisson|spike_source> <size> "
        "[key=value ...]");
  }
  const std::string& model = tokens[2];
  neural::NeuronModel kind;
  if (model == "lif") {
    kind = neural::NeuronModel::Lif;
  } else if (model == "izh") {
    kind = neural::NeuronModel::Izhikevich;
  } else if (model == "poisson") {
    kind = neural::NeuronModel::PoissonSource;
  } else if (model == "spike_source") {
    kind = neural::NeuronModel::SpikeSourceArray;
  } else {
    return fail("unknown neuron model '" + model + "'");
  }
  std::uint64_t size = 0;
  if (!server::parse_u64_strict(tokens[3], neural::kMaxPopulationSize, &size) ||
      size == 0) {
    return fail("population size must be an integer in [1, " +
                u64(neural::kMaxPopulationSize) + "], got '" + tokens[3] +
                "'");
  }
  neural::PopulationDesc pd = neural::make_population(
      tokens[1], kind, static_cast<std::uint32_t>(size));
  if (pd.model == neural::NeuronModel::SpikeSourceArray) {
    pd.schedule.assign(pd.size, {});  // default: silent trains
  }
  for (std::size_t i = 4; i < tokens.size(); ++i) {
    std::string key;
    std::string value;
    std::string why;
    if (!server::split_kv(tokens[i], &key, &value, &why)) return fail(why);
    const auto bad_number = [&]() {
      return fail("'" + key + "' expects a number, got '" + value + "'");
    };
    // Keys are gated per model: a rate on a LIF population is a typo the
    // client should hear about, not a silently-ignored field.
    const bool is_lif = pd.model == neural::NeuronModel::Lif;
    const bool is_izh = pd.model == neural::NeuronModel::Izhikevich;
    if (key == "record") {
      if (!server::parse_bool(value, &pd.record)) {
        return fail("'record' expects a boolean, got '" + value + "'");
      }
    } else if (is_lif && key == "v_rest") {
      if (!parse_f64_tok(value, &pd.v_rest)) return bad_number();
    } else if (is_lif && key == "v_reset") {
      if (!parse_f64_tok(value, &pd.v_reset)) return bad_number();
    } else if (is_lif && key == "v_thresh") {
      if (!parse_f64_tok(value, &pd.v_thresh)) return bad_number();
    } else if (is_lif && key == "decay") {
      if (!parse_f64_tok(value, &pd.decay)) return bad_number();
    } else if (is_lif && key == "r_scale") {
      if (!parse_f64_tok(value, &pd.r_scale)) return bad_number();
    } else if (is_lif && key == "refractory") {
      std::uint64_t ticks = 0;
      if (!server::parse_u64_strict(value, 255, &ticks)) {
        return fail("'refractory' expects an integer <= 255, got '" + value +
                    "'");
      }
      pd.refractory = static_cast<std::uint32_t>(ticks);
    } else if (is_izh && key == "a") {
      if (!parse_f64_tok(value, &pd.a)) return bad_number();
    } else if (is_izh && key == "b") {
      if (!parse_f64_tok(value, &pd.b)) return bad_number();
    } else if (is_izh && key == "c") {
      if (!parse_f64_tok(value, &pd.c)) return bad_number();
    } else if (is_izh && key == "d") {
      if (!parse_f64_tok(value, &pd.d)) return bad_number();
    } else if (pd.model == neural::NeuronModel::PoissonSource &&
               key == "rate") {
      if (!parse_f64_tok(value, &pd.rate_hz)) return bad_number();
    } else if (pd.model == neural::NeuronModel::SpikeSourceArray &&
               key == "sched") {
      if (!parse_schedule_tok(value, &pd.schedule, &why)) return fail(why);
      if (pd.schedule.size() != pd.size) {
        return fail("sched defines " + u64(pd.schedule.size()) +
                    " spike trains for size " + u64(pd.size));
      }
    } else {
      return fail("unknown key '" + key + "' for model '" + model + "'");
    }
  }
  if (desc_.populations.size() >= neural::kMaxPopulations) {
    return fail("too many populations (cap " +
                u64(neural::kMaxPopulations) + ")");
  }
  std::string why;
  if (!neural::validate_population(pd, &why)) return fail(why);
  if (!names_
           .emplace(pd.name,
                    static_cast<neural::PopulationId>(
                        desc_.populations.size()))
           .second) {
    return fail("duplicate population name '" + pd.name + "'");
  }
  desc_.populations.push_back(std::move(pd));
  return Status::More;
}

NetParser::Status NetParser::parse_proj(
    const std::vector<std::string>& tokens) {
  if (tokens.size() < 4) {
    return fail("usage: proj <pre> <post> <all|one|prob=<p>> [key=value ...]");
  }
  neural::ProjectionDesc proj;
  proj.pre = tokens[1];
  proj.post = tokens[2];
  // Declare-before-use (the canonical encoding always satisfies it): the
  // reference error then names this line, not the closing `end`.
  if (names_.find(proj.pre) == names_.end()) {
    return fail("projection references unknown population '" + proj.pre +
                "'");
  }
  if (names_.find(proj.post) == names_.end()) {
    return fail("projection references unknown population '" + proj.post +
                "'");
  }
  const std::string& conn = tokens[3];
  if (conn == "all") {
    proj.connector = neural::Connector::all_to_all();
  } else if (conn == "one") {
    proj.connector = neural::Connector::one_to_one();
  } else if (conn.rfind("prob=", 0) == 0) {
    double p = 0.0;
    if (!parse_f64_tok(conn.substr(5), &p)) {
      return fail("'prob' expects a number, got '" + conn.substr(5) + "'");
    }
    proj.connector = neural::Connector::fixed_probability(p);
  } else {
    return fail("unknown connector '" + conn + "' (all, one or prob=<p>)");
  }
  for (std::size_t i = 4; i < tokens.size(); ++i) {
    std::string key;
    std::string value;
    std::string why;
    if (!server::split_kv(tokens[i], &key, &value, &why)) return fail(why);
    if (key == "w") {
      if (!parse_dist_tok(value, &proj.weight)) {
        return fail("'w' expects <v> or <lo>:<hi>, got '" + value + "'");
      }
    } else if (key == "d") {
      if (!parse_dist_tok(value, &proj.delay_ms)) {
        return fail("'d' expects <v> or <lo>:<hi>, got '" + value + "'");
      }
    } else if (key == "inh") {
      if (!server::parse_bool(value, &proj.inhibitory)) {
        return fail("'inh' expects a boolean, got '" + value + "'");
      }
    } else if (key == "self") {
      if (proj.connector.kind == neural::ConnectorKind::OneToOne) {
        // Elaboration always wires the diagonal for one-to-one; accepting
        // the key would silently mean nothing.
        return fail("'self' does not apply to the one connector");
      }
      if (!server::parse_bool(value, &proj.connector.allow_self)) {
        return fail("'self' expects a boolean, got '" + value + "'");
      }
    } else if (key == "stdp") {
      // a_plus,a_minus,window_ticks,w_max — presence enables plasticity.
      const std::vector<std::string> fields = split_fields(value, ',');
      std::uint64_t window = 0;
      if (fields.size() != 4 ||
          !parse_f64_tok(fields[0], &proj.stdp.a_plus) ||
          !parse_f64_tok(fields[1], &proj.stdp.a_minus) ||
          !server::parse_u64_strict(fields[2], neural::kMaxStdpWindowTicks,
                                    &window) ||
          !parse_f64_tok(fields[3], &proj.stdp.w_max)) {
        return fail(
            "'stdp' expects <a_plus>,<a_minus>,<window_ticks>,<w_max>, "
            "got '" + value + "'");
      }
      proj.stdp.window_ticks = static_cast<std::uint32_t>(window);
      proj.stdp.enabled = true;
    } else {
      return fail("unknown key '" + key + "' for proj");
    }
  }
  if (desc_.projections.size() >= neural::kMaxProjections) {
    return fail("too many projections (cap " +
                u64(neural::kMaxProjections) + ")");
  }
  std::string why;
  if (!neural::validate_projection(proj, names_, &why)) return fail(why);
  desc_.projections.push_back(std::move(proj));
  return Status::More;
}

std::vector<std::string> encode_net(
    const neural::NetworkDescription& desc) {
  std::vector<std::string> lines;
  lines.reserve(desc.populations.size() + desc.projections.size() + 2);
  lines.emplace_back("net");
  // Omitted keys mean "the default": compare against a default-constructed
  // desc, not restated literals, so a drifted default in network.hpp can
  // never silently break the lossless round-trip.
  static const neural::PopulationDesc dp;
  for (const neural::PopulationDesc& p : desc.populations) {
    std::string line = "pop " + p.name + " " + model_token(p.model) + " " +
                       u64(p.size);
    switch (p.model) {
      case neural::NeuronModel::Lif:
        if (p.v_rest != dp.v_rest) line += " v_rest=" + dbl(p.v_rest);
        if (p.v_reset != dp.v_reset) line += " v_reset=" + dbl(p.v_reset);
        if (p.v_thresh != dp.v_thresh) {
          line += " v_thresh=" + dbl(p.v_thresh);
        }
        if (p.decay != dp.decay) line += " decay=" + dbl(p.decay);
        if (p.r_scale != dp.r_scale) line += " r_scale=" + dbl(p.r_scale);
        if (p.refractory != dp.refractory) {
          line += " refractory=" + u64(p.refractory);
        }
        break;
      case neural::NeuronModel::Izhikevich:
        if (p.a != dp.a) line += " a=" + dbl(p.a);
        if (p.b != dp.b) line += " b=" + dbl(p.b);
        if (p.c != dp.c) line += " c=" + dbl(p.c);
        if (p.d != dp.d) line += " d=" + dbl(p.d);
        break;
      case neural::NeuronModel::PoissonSource:
        if (p.rate_hz != dp.rate_hz) line += " rate=" + dbl(p.rate_hz);
        break;
      case neural::NeuronModel::SpikeSourceArray: {
        bool any = false;
        for (const auto& train : p.schedule) any = any || !train.empty();
        if (any) {
          line += " sched=";
          for (std::size_t n = 0; n < p.schedule.size(); ++n) {
            if (n > 0) line += ';';
            for (std::size_t t = 0; t < p.schedule[n].size(); ++t) {
              if (t > 0) line += ',';
              line += u64(p.schedule[n][t]);
            }
          }
        }
        break;
      }
    }
    if (p.record != neural::default_record(p.model)) {
      line += std::string(" record=") + (p.record ? "1" : "0");
    }
    lines.push_back(std::move(line));
  }
  static const neural::ProjectionDesc dj;
  for (const neural::ProjectionDesc& proj : desc.projections) {
    std::string line = "proj " + proj.pre + " " + proj.post + " ";
    switch (proj.connector.kind) {
      case neural::ConnectorKind::AllToAll: line += "all"; break;
      case neural::ConnectorKind::OneToOne: line += "one"; break;
      case neural::ConnectorKind::FixedProbability:
        line += "prob=" + dbl(proj.connector.probability);
        break;
    }
    if (proj.connector.allow_self !=
        connector_default_self(proj.connector.kind)) {
      line += std::string(" self=") + (proj.connector.allow_self ? "1" : "0");
    }
    if (proj.weight.lo != dj.weight.lo || proj.weight.hi != dj.weight.hi) {
      line += " w=" + dist(proj.weight);
    }
    if (proj.delay_ms.lo != dj.delay_ms.lo ||
        proj.delay_ms.hi != dj.delay_ms.hi) {
      line += " d=" + dist(proj.delay_ms);
    }
    if (proj.inhibitory) line += " inh=1";
    if (proj.stdp.enabled) {
      line += " stdp=" + dbl(proj.stdp.a_plus) + "," +
              dbl(proj.stdp.a_minus) + "," + u64(proj.stdp.window_ticks) +
              "," + dbl(proj.stdp.w_max);
    }
    lines.push_back(std::move(line));
  }
  lines.emplace_back("end");
  return lines;
}

std::string format_spikes(
    const std::vector<neural::SpikeRecorder::Event>& events) {
  std::string out = "spikes " + std::to_string(events.size());
  char line[64];
  for (const auto& e : events) {
    std::snprintf(line, sizeof line, "\ns %" PRId64 " %" PRIu32, e.time,
                  static_cast<std::uint32_t>(e.key));
    out += line;
  }
  return out;
}

bool parse_spikes(const std::string& block,
                  std::vector<neural::SpikeRecorder::Event>* events) {
  // strtoll walk rather than istringstream: clients parse one of these per
  // drain, with one line per spike.  Response-side parse of the client's
  // own server's output, not request-side input — a malformed block fails
  // the structural checks below rather than needing range hardening.
  // lint:allow(raw-int-parse)
  const char* p = block.c_str();
  if (std::strncmp(p, "spikes ", 7) != 0) return false;
  p += 7;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(p, &end, 10);
  if (end == p) return false;
  p = end;
  // Bound the reservation by what the block could possibly hold (every
  // spike line is >= 6 bytes): a corrupt count must fail the parse, not
  // throw length_error out of reserve().
  if (n > block.size() / 6 + 1) return false;
  events->clear();
  events->reserve(n);
  for (unsigned long long i = 0; i < n; ++i) {
    if (p[0] != '\n' || p[1] != 's' || p[2] != ' ') return false;
    p += 3;
    neural::SpikeRecorder::Event e;
    e.time = static_cast<TimeNs>(std::strtoll(p, &end, 10));
    if (end == p || *end != ' ') return false;
    p = end + 1;
    e.key = static_cast<RoutingKey>(std::strtoull(p, &end, 10));
    if (end == p) return false;
    p = end;
    events->push_back(e);
  }
  return *p == '\0';
}

bool parse_open_id(const std::string& response, server::SessionId* id) {
  constexpr const char* kPrefix = "ok id=";
  if (response.rfind(kPrefix, 0) != 0) return false;
  // Response-side: ids were minted by the server this client opened
  // against.  lint:allow(raw-int-parse)
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(response.c_str() + std::string(kPrefix).size(), &end, 10);
  if (end == nullptr || (*end != '\0' && *end != '\n')) return false;
  *id = static_cast<server::SessionId>(v);
  return true;
}

Request::Request(server::SessionServer& srv, const std::string& frame)
    : srv_(srv), lines_(split_lines(frame)) {}

void Request::respond(const std::string& block) {
  if (!response_.empty()) response_ += '\n';
  response_ += block;
}

void Request::fail_at(std::size_t line, const std::string& reason) {
  // In a batch, name the failing line (1-based): a 12-line submission that
  // answers `err @7 ...` is debuggable, one that answers `err ...` is not.
  if (lines_.size() > 1) {
    respond("err @" + std::to_string(line + 1) + " " + reason);
  } else {
    respond("err " + reason);
  }
}

void Request::exec_net_line(const std::string& line) {
  const std::size_t here = next_line_;
  ++next_line_;
  if (net_failed_) {
    // The block already answered its one error; swallow its remaining
    // lines so commands after `end` still execute.
    const std::vector<std::string> tokens = tokenize(line);
    if (!tokens.empty() && tokens[0] == "end") net_failed_ = false;
    return;
  }
  const NetParser::Status status = net_parser_->feed(line);
  if (status == NetParser::Status::More) return;
  if (status == NetParser::Status::Error) {
    fail_at(here, "net: " + net_parser_->error());
    batch_net_.reset();  // a failed block unbinds `@`
    batch_names_.reset();
    net_parser_.reset();
    const std::vector<std::string> tokens = tokenize(line);
    net_failed_ = tokens.empty() || tokens[0] != "end";
    return;
  }
  batch_net_ = net_parser_->take();
  batch_names_ = net_parser_->take_names();
  net_parser_.reset();
  std::uint64_t neurons = 0;
  for (const auto& p : batch_net_->populations) neurons += p.size;
  respond("ok net pops=" + u64(batch_net_->populations.size()) +
          " projs=" + u64(batch_net_->projections.size()) +
          " neurons=" + u64(neurons) + " synapses~" +
          u64(neural::estimated_synapses(*batch_net_, *batch_names_)));
}

bool Request::resolve_id(const std::string& token,
                         server::SessionId* id) const {
  if (token == "$") {
    if (batch_id_ == server::kInvalidSession) return false;
    *id = batch_id_;
    return true;
  }
  // Hardened parse, like every other wire-side integer: strtoull would
  // saturate an overflowing token to ULLONG_MAX and "succeed", silently
  // aliasing an out-of-range id onto a (potential) real session.
  std::uint64_t v = 0;
  if (!server::parse_u64_strict(
          token, std::numeric_limits<std::uint64_t>::max(), &v)) {
    return false;
  }
  *id = static_cast<server::SessionId>(v);
  return true;
}

void Request::exec_open(const std::vector<std::string>& tokens) {
  server::SessionSpec spec;
  std::string error;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    // `app=@` opens the batch's own described network (the `net ... end`
    // block that preceded this open) instead of a built-in app.
    if (tokens[i] == "app=@") {
      if (!batch_net_) {
        batch_id_ = server::kInvalidSession;
        fail("no network description bound: 'net ... end' must precede "
             "open app=@");
        ++next_line_;
        return;
      }
      spec.net = batch_net_;
      spec.net_names = batch_names_;
      continue;
    }
    std::string key;
    std::string value;
    if (!server::split_kv(tokens[i], &key, &value, &error) ||
        !server::apply_kv(spec, key, value, &error)) {
      batch_id_ = server::kInvalidSession;
      fail(error);
      ++next_line_;
      return;
    }
  }
  // Batch peephole: `open ...` immediately followed by `run $ <ms>`
  // executes as open_and_run — admission, build and the first run in one
  // scheduler submission (and the run feeds the admission cost).
  TimeNs first_run = 0;
  bool fused = false;
  if (next_line_ + 1 < lines_.size()) {
    const auto next = tokenize(lines_[next_line_ + 1]);
    if (next.size() == 3 && next[0] == "run" && next[1] == "$" &&
        parse_run_ms(next[2], &first_run)) {
      fused = true;
    }
  }
  const server::SessionId id =
      fused ? srv_.open_and_run(spec, first_run, &error)
            : srv_.open(spec, &error);
  if (id == server::kInvalidSession) {
    // A failed open leaves `$` unbound — even if an earlier open in this
    // batch succeeded, later `$` commands must not silently fall through
    // to the wrong session.
    batch_id_ = server::kInvalidSession;
    fail(error);
    ++next_line_;  // a fused run still reports against the failed open
    return;
  }
  batch_id_ = id;
  respond("ok id=" + u64(id));
  ++next_line_;
  if (fused) {
    respond("ok");
    ++next_line_;
  }
}

void Request::exec_fault(server::SessionId id,
                         const std::vector<std::string>& tokens) {
  // fault <id|$> kill core=<x>,<y>,<c> [at=<ms>]
  // fault <id|$> kill chip=<x>,<y> [at=<ms>]
  // fault <id|$> glitch link=<x>,<y>,<dir> [rate=<hz>] [symbols=<n>]
  //                                        [conv=<0|1>] [at=<ms>]
  // fault <id|$> heal link=<x>,<y>,<dir> [at=<ms>]
  static const char* kUsage =
      "usage: fault <id|$> kill core=<x>,<y>,<c>|chip=<x>,<y> | "
      "glitch|heal link=<x>,<y>,<E|NE|N|W|SW|S> "
      "[at=<ms>] [rate=<hz>] [symbols=<n>] [conv=<0|1>]";
  if (tokens.size() < 4) {
    fail(kUsage);
    ++next_line_;
    return;
  }
  FaultAction action;
  const std::string& verb = tokens[2];
  const std::string& target = tokens[3];
  const bool is_kill = verb == "kill";
  const bool is_glitch = verb == "glitch";
  const bool is_heal = verb == "heal";
  std::string tail;
  bool target_ok = false;
  if (is_kill && target.rfind("core=", 0) == 0) {
    action.kind = FaultAction::Kind::KillCore;
    std::uint64_t core = 0;
    target_ok = parse_chip_tok(target.substr(5), 3, &action.chip, &tail) &&
                server::parse_u64_strict(tail, 255, &core);
    action.core = static_cast<CoreIndex>(core);
  } else if (is_kill && target.rfind("chip=", 0) == 0) {
    action.kind = FaultAction::Kind::KillChip;
    target_ok = parse_chip_tok(target.substr(5), 2, &action.chip, &tail);
  } else if ((is_glitch || is_heal) && target.rfind("link=", 0) == 0) {
    action.kind = is_glitch ? FaultAction::Kind::GlitchLink
                            : FaultAction::Kind::HealLink;
    target_ok = parse_chip_tok(target.substr(5), 3, &action.chip, &tail) &&
                parse_dir_tok(tail, &action.dir);
  } else {
    fail(kUsage);
    ++next_line_;
    return;
  }
  if (!target_ok) {
    fail("bad fault target '" + target + "' (" + kUsage + ")");
    ++next_line_;
    return;
  }
  for (std::size_t i = 4; i < tokens.size(); ++i) {
    std::string key;
    std::string value;
    std::string why;
    if (!server::split_kv(tokens[i], &key, &value, &why)) {
      fail(why);
      ++next_line_;
      return;
    }
    if (key == "at") {
      // `at=0` means "at the start of the run phase" (parse_run_ms itself
      // excludes zero, which is right for run durations but not here).
      if (value == "0") {
        action.at = 0;
      } else if (!parse_run_ms(value, &action.at)) {
        fail("'at' expects bio ms in [0, 1e9], got '" + value + "'");
        ++next_line_;
        return;
      }
    } else if (is_glitch && key == "rate") {
      if (!parse_f64_tok(value, &action.glitch_rate_hz) ||
          !(action.glitch_rate_hz > 0.0)) {
        fail("'rate' expects a positive glitch rate in Hz, got '" + value +
             "'");
        ++next_line_;
        return;
      }
    } else if (is_glitch && key == "symbols") {
      if (!server::parse_u64_strict(value, 1u << 20, &action.glitch_symbols) ||
          action.glitch_symbols == 0) {
        fail("'symbols' expects an integer in [1, 1048576], got '" + value +
             "'");
        ++next_line_;
        return;
      }
    } else if (is_glitch && key == "conv") {
      if (!server::parse_bool(value, &action.conventional)) {
        fail("'conv' expects a boolean, got '" + value + "'");
        ++next_line_;
        return;
      }
    } else {
      fail("unknown key '" + key + "' for fault " + verb);
      ++next_line_;
      return;
    }
  }
  std::string error;
  if (!srv_.fault(id, action, &error)) {
    fail(error);
    ++next_line_;
    return;
  }
  ++faults_scheduled_;
  respond("ok");
  ++next_line_;
}

bool Request::advance() {
  waiting_ = server::kInvalidSession;
  while (next_line_ < lines_.size()) {
    if (net_parser_ != nullptr || net_failed_) {
      exec_net_line(lines_[next_line_]);
      continue;
    }
    const std::vector<std::string> tokens = tokenize(lines_[next_line_]);
    if (tokens.empty()) {
      ++next_line_;
      continue;
    }
    const std::string& cmd = tokens[0];
    if (cmd == "net") {
      if (tokens.size() != 1) {
        fail("usage: net (alone on its line, then pop/proj lines, then "
             "end)");
      } else {
        net_parser_ = std::make_unique<NetParser>();
        net_line_ = next_line_;
      }
      ++next_line_;
      continue;
    }
    if (cmd == "pop" || cmd == "proj" || cmd == "end") {
      fail("'" + cmd + "' is only valid inside a net block");
      ++next_line_;
      continue;
    }
    if (cmd == "open") {
      exec_open(tokens);
      continue;
    }
    if (cmd == "ping") {
      respond("ok");
      ++next_line_;
      continue;
    }
    if (cmd == "apps") {
      std::string block = "apps";
      for (const auto& name : server::app_names()) block += " " + name;
      respond(block);
      ++next_line_;
      continue;
    }
    if (cmd == "stats") {
      respond(format_stats(srv_.stats()));
      ++next_line_;
      continue;
    }
    // Everything below addresses a session: <cmd> <id|$> [...].
    server::SessionId id = server::kInvalidSession;
    if (tokens.size() < 2 || !resolve_id(tokens[1], &id)) {
      if (tokens.size() >= 2 && tokens[1] == "$") {
        fail("no successful open in this batch");
      } else {
        fail("usage: " + cmd + " <id|$> ...");
      }
      ++next_line_;
      continue;
    }
    if (cmd == "run") {
      TimeNs duration = 0;
      if (tokens.size() < 3 || !parse_run_ms(tokens[2], &duration)) {
        fail("usage: run <id|$> <bio ms in (0, 1e9]>");
      } else if (srv_.run(id, duration)) {
        respond("ok");
      } else {
        fail("unknown or closed session");
      }
      ++next_line_;
    } else if (cmd == "wait") {
      const server::SessionStatus st = srv_.status(id);
      if (st.id == server::kInvalidSession) {
        fail("unknown session");
        ++next_line_;
        continue;
      }
      if (srv_.busy(id)) {
        // Park: the transport resumes advance() once the session idles.
        // The line is not consumed — re-execution re-checks busy().
        waiting_ = id;
        return false;
      }
      respond("ok t=" + std::to_string(srv_.status(id).bio_now));
      ++next_line_;
    } else if (cmd == "drain") {
      respond(format_spikes(srv_.drain(id)));
      ++next_line_;
    } else if (cmd == "status") {
      const server::SessionStatus st = srv_.status(id);
      if (st.id == server::kInvalidSession) {
        fail("unknown session");
      } else {
        respond(format_status(st));
      }
      ++next_line_;
    } else if (cmd == "fault") {
      exec_fault(id, tokens);
    } else if (cmd == "close") {
      if (srv_.close(id)) {
        respond("ok");
      } else {
        fail("unknown or already closed");
      }
      ++next_line_;
    } else {
      fail("unknown command '" + cmd + "'");
      ++next_line_;
    }
  }
  // A frame that ended inside a net block answers the truncation against
  // the opening `net` line — also after a mid-block error, where the
  // recovery skip swallowed the rest of the frame looking for `end`
  // (possibly real commands): the client must hear they never ran.
  if (net_parser_ != nullptr || net_failed_) {
    fail_at(net_line_, "net description truncated: missing 'end'");
    net_parser_.reset();
    batch_net_.reset();
    batch_names_.reset();
    net_failed_ = false;
  }
  if (response_.empty()) respond("err empty request");
  done_ = true;
  return true;
}

namespace {

using Row = std::pair<std::string_view, std::uint64_t>;

/// The `net.*` rows in pinned order: `metrics` prints them as they are,
/// `netstats` without the `net.` prefix.
std::array<Row, 12> net_rows(const NetStats& net) {
  return {{
      {"net.accepted", net.accepted},
      {"net.refused", net.refused},
      {"net.shed_slow", net.shed_slow},
      {"net.shed_flood", net.shed_flood},
      {"net.frames_in", net.frames_in},
      {"net.frames_out", net.frames_out},
      {"net.batches", net.batches},
      {"net.faults", net.faults},
      {"net.bytes_in", net.bytes_in},
      {"net.bytes_out", net.bytes_out},
      {"net.connections", net.connections},
      {"net.reactors", net.reactors},
  }};
}

void append_u64(std::string& out, std::uint64_t v) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, v);
  (void)ec;  // u64 always fits 20 digits
  out.append(digits, end);
}

}  // namespace

std::string format_metrics(const NetStats& net,
                           const server::ServerStats& srv) {
  // Two sections, one stability contract each: the derived `net.*` /
  // `server.*` fields are pinned in this order (append-only, like
  // `netstats`); the registry rows after them are sorted by name, so a new
  // metric inserts without reordering what a client already parses.
  // Scrapes arrive continuously (1 Hz pollers and worse), so the builder
  // is deliberately allocation-light: string_view literals for the pinned
  // rows, one reserve for the whole response, no per-row temporaries.
  const auto net_pinned = net_rows(net);
  const Row server_pinned[] = {
      {"server.opened", srv.opened},
      {"server.rejected", srv.rejected},
      {"server.rejected_cost", srv.rejected_cost},
      {"server.closed", srv.closed},
      {"server.evicted", srv.evicted},
      {"server.resident", srv.resident},
      {"server.cost_resident", srv.cost_resident},
      {"server.cost_budget", srv.cost_budget},
      {"server.queue_depth", srv.queue_depth},
      {"server.engines.created", srv.engines.created},
      {"server.engines.reused", srv.engines.reused},
      {"server.engines.idle", srv.engines.idle},
  };
  const auto registry_rows = obs::Registry::global().rows();
  const std::size_t total =
      net_pinned.size() + std::size(server_pinned) + registry_rows.size();
  std::string out;
  out.reserve(16 + 40 * total);
  out += "metrics ";
  append_u64(out, total);
  const auto append_row = [&out](std::string_view name, std::uint64_t value) {
    out += '\n';
    out += name;
    out += ' ';
    append_u64(out, value);
  };
  for (const auto& [name, value] : net_pinned) append_row(name, value);
  for (const auto& [name, value] : server_pinned) append_row(name, value);
  for (const auto& [name, value] : registry_rows) append_row(name, value);
  return out;
}

TransportVerb transport_verb(const std::string& frame, std::string* line) {
  // Most frames cost a look at their first word; only a transport verb's
  // frame is cut by Request's own rule (split_lines, then tokenize).
  const std::size_t begin = frame.find_first_not_of(" \t");
  if (begin == std::string::npos) return TransportVerb::kNone;
  const std::string_view word = std::string_view(frame).substr(
      begin, frame.find_first_of(" \t\r\n", begin) - begin);
  if (word != "netstats" && word != "metrics" && word != "trace") {
    return TransportVerb::kNone;
  }
  std::vector<std::string> lines = split_lines(frame);
  if (lines.size() != 1) return TransportVerb::kNone;  // a batch
  const std::vector<std::string> tokens = tokenize(lines[0]);
  *line = std::move(lines[0]);
  if (tokens[0] == "trace") return TransportVerb::kTrace;
  if (tokens.size() != 1) return TransportVerb::kNone;  // takes no argument
  if (tokens[0] == "netstats") return TransportVerb::kNetstats;
  if (tokens[0] == "metrics") return TransportVerb::kMetrics;
  return TransportVerb::kNone;
}

std::string handle_trace(const std::string& line, bool allow_trace) {
  if (!allow_trace) return "err trace disabled";
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.size() == 2 && tokens[1] == "start") {
    obs::Tracer::global().set_enabled(true);
    return "ok trace on";
  }
  if (tokens.size() == 2 && tokens[1] == "stop") {
    obs::Tracer::global().set_enabled(false);
    return "ok trace off";
  }
  if (tokens.size() == 2 && tokens[1] == "dump") {
    return obs::Tracer::global().dump_json();
  }
  return "err usage: trace start|stop|dump";
}

std::string format_netstats(const NetStats& s) {
  std::string out = "net";
  for (const auto& [name, value] : net_rows(s)) {
    out += ' ';
    out += name.substr(4);  // less "net."
    out += '=';
    append_u64(out, value);
  }
  return out;
}

}  // namespace spinn::net
