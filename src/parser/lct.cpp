#include "parser/lct.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>

#include "base/strings.h"
#include "parser/scan.h"

namespace mintc::parser {

namespace {

Error parse_error(int line, const std::string& what) {
  return make_error(ErrorKind::kInvalidArgument,
                    "line " + std::to_string(line) + ": " + what);
}

// Timing parameters must be finite: strtod happily accepts "nan" and "inf",
// and a single NaN poisons every downstream max/min fixpoint.
bool parse_finite(std::string_view s, double& out) {
  return parse_double(s, out) && std::isfinite(out);
}

// Undo the writer's quoting of `v`, which starts with a quote, into `out`:
// `"a\"b"` -> `a"b`. False on a malformed quoted value.
bool unquote(std::string_view v, std::string& out) {
  if (v.size() < 2 || v.back() != '"') return false;
  out.clear();
  for (size_t i = 1; i + 1 < v.size(); ++i) {
    if (v[i] == '\\') {
      if (i + 2 >= v.size()) return false;
      ++i;
      if (v[i] != '"' && v[i] != '\\') return false;
    }
    out.push_back(v[i]);
  }
  return true;
}

// Each line kind's keys, in byte order. Slot 0 of an element is Δ_DQ,
// spelled `cq` on a flip-flop.
constexpr std::array<std::string_view, 6> kLatchKeys = {"dq",    "dqmin", "hold",
                                                        "phase", "setup", "skew"};
constexpr std::array<std::string_view, 6> kFlipFlopKeys = {"cq",    "dqmin", "hold",
                                                           "phase", "setup", "skew"};
constexpr size_t kPhaseSlot = 3;
constexpr size_t kSkewSlot = 5;
constexpr std::array<std::string_view, 3> kPathKeys = {"delay", "label", "min"};
constexpr size_t kLabelSlot = 1;

// One line's key=value attributes, resolved as a map from key to value
// would resolve them: a repeated key keeps its last value, and keys are
// checked in byte order, so the error reported is the smallest key's. A
// key the line kind does not know is an error whatever its value, so only
// the smallest such key is kept. Reused from line to line.
struct Attrs {
  std::array<std::optional<std::string_view>, 6> value;  // by slot of `keys`
  std::optional<std::string_view> unknown;
  std::array<std::string, 6> unquoted;  // what a quoted value points into
  std::string scratch;                  // an unknown key's quoted value

  // False on a malformed attribute: no '=', nothing before it, or a quoted
  // value that does not unquote. Every token is checked before any value.
  bool read(std::span<const std::string_view> tokens, std::span<const std::string_view> keys) {
    value.fill(std::nullopt);
    unknown.reset();
    for (const std::string_view token : tokens) {
      const size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0) return false;
      const std::string_view key = token.substr(0, eq);
      std::string_view v = token.substr(eq + 1);
      const size_t slot =
          static_cast<size_t>(std::find(keys.begin(), keys.end(), key) - keys.begin());
      if (!v.empty() && v.front() == '"') {
        std::string& out = slot < keys.size() ? unquoted[slot] : scratch;
        if (!unquote(v, out)) return false;
        v = out;
      }
      if (slot < keys.size()) {
        value[slot] = v;
      } else if (!unknown || key < *unknown) {
        unknown = key;
      }
    }
    return true;
  }

  // An unknown key sorts before `key`, so it is the error to report first.
  bool unknown_before(std::string_view key) const { return unknown && *unknown < key; }
};

// Quote an attribute value when emitting it bare would not survive the
// reader: whitespace splits tokens, '#' starts a comment, '=' before the
// real separator shifts the key, and quote/backslash collide with the
// escape syntax.
std::string quote_value(const std::string& v) {
  if (!v.empty() && v.find_first_of(" \t#\"\\=") == std::string::npos) return v;
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Expected<Circuit> parse_circuit(std::string_view text) {
  std::string name = "unnamed";
  int phases = -1;
  std::optional<Circuit> circuit;

  // Accumulated element declarations, applied once `phases` is known.
  const auto require_circuit = [&]() -> Circuit& {
    if (!circuit) circuit.emplace(name, phases);
    return *circuit;
  };

  LineScanner lines(text, /*quoted=*/true);
  Attrs attrs;
  // Paths join the circuit at the end, all at once, so each fan list is
  // sized once. Elements may follow paths, so this changes no index.
  std::vector<CombPath> paths;
  while (lines.next()) {
    const int line_no = lines.line_number();
    if (lines.open_quote()) return parse_error(line_no, "unterminated quote");
    const std::span<const std::string_view> tok = lines.tokens();
    const std::string_view kw = tok[0];

    if (kw == "circuit") {
      if (tok.size() != 2) return parse_error(line_no, "usage: circuit <name>");
      if (circuit) return parse_error(line_no, "'circuit' must precede all elements");
      name = std::string(tok[1]);
    } else if (kw == "phases") {
      if (tok.size() != 2 || !parse_int(tok[1], phases) || phases < 1) {
        return parse_error(line_no, "usage: phases <k>, k >= 1");
      }
      if (circuit) return parse_error(line_no, "'phases' must precede all elements");
    } else if (kw == "latch" || kw == "flipflop") {
      if (phases < 1) return parse_error(line_no, "'phases' must come before elements");
      if (tok.size() < 2) return parse_error(line_no, "missing element name");
      const bool latch = kw == "latch";
      const std::span<const std::string_view> keys = latch ? kLatchKeys : kFlipFlopKeys;
      if (!attrs.read(tok.subspan(2), keys)) {
        return parse_error(line_no, "malformed key=value attribute");
      }
      Element e;
      e.name = std::string(tok[1]);
      e.kind = latch ? ElementKind::kLatch : ElementKind::kFlipFlop;
      double* const fields[] = {&e.dq, &e.dq_min, &e.hold, nullptr, &e.setup, &e.skew};
      for (size_t k = 0; k < keys.size() && !attrs.unknown_before(keys[k]); ++k) {
        if (!attrs.value[k]) continue;
        const std::string_view v = *attrs.value[k];
        if (k == kPhaseSlot) {
          if (!parse_int(v, e.phase)) return parse_error(line_no, "bad phase");
        } else if (k == kSkewSlot) {
          if (!parse_finite(v, e.skew) || e.skew < 0.0) {
            return parse_error(line_no, "bad skew (must be finite and nonnegative)");
          }
        } else if (!parse_finite(v, *fields[k])) {
          return parse_error(line_no, "bad " + std::string(keys[k]));
        }
      }
      if (attrs.unknown) {
        return parse_error(line_no, "unknown attribute '" + std::string(*attrs.unknown) + "'");
      }
      Circuit& c = require_circuit();
      if (c.find_element(e.name)) {
        return parse_error(line_no, "duplicate element '" + e.name + "'");
      }
      if (e.phase < 1 || e.phase > phases) {
        return parse_error(line_no, "element '" + e.name + "' phase out of range");
      }
      c.add_element(std::move(e));
    } else if (kw == "path") {
      if (!circuit) return parse_error(line_no, "'path' before any element");
      if (tok.size() < 3) return parse_error(line_no, "usage: path <from> <to> delay=<d> ...");
      if (!attrs.read(tok.subspan(3), kPathKeys)) {
        return parse_error(line_no, "malformed key=value attribute");
      }
      const auto from = circuit->find_element(tok[1]);
      const auto to = circuit->find_element(tok[2]);
      if (!from) return parse_error(line_no, "unknown element '" + std::string(tok[1]) + "'");
      if (!to) return parse_error(line_no, "unknown element '" + std::string(tok[2]) + "'");
      double delay = -1.0;
      double min_delay = 0.0;
      std::string_view label;
      for (size_t k = 0; k < kPathKeys.size() && !attrs.unknown_before(kPathKeys[k]); ++k) {
        if (!attrs.value[k]) continue;
        if (k == kLabelSlot) {
          label = *attrs.value[k];
        } else if (!parse_finite(*attrs.value[k], k == 0 ? delay : min_delay)) {
          return parse_error(line_no, "bad " + std::string(kPathKeys[k]));
        }
      }
      if (attrs.unknown) {
        return parse_error(line_no, "unknown attribute '" + std::string(*attrs.unknown) + "'");
      }
      if (delay < 0.0) return parse_error(line_no, "path requires delay=<nonnegative>");
      if (min_delay > delay) {
        return parse_error(line_no, "path min=" + fmt_time(min_delay, 6) +
                                        " exceeds delay=" + fmt_time(delay, 6));
      }
      paths.push_back(CombPath{*from, *to, delay, min_delay, std::string(label)});
    } else {
      return parse_error(line_no, "unknown keyword '" + std::string(kw) + "'");
    }
  }

  if (phases < 1) {
    return make_error(ErrorKind::kInvalidArgument, "file declares no 'phases' line");
  }
  Circuit& c = require_circuit();
  c.add_paths(std::move(paths));
  c.shrink_to_fit();
  return std::move(c);
}

Expected<Circuit> load_circuit(const std::string& path) {
  Expected<std::string> text = read_file(path);
  if (!text) return text.error();
  return parse_circuit(*text);
}

std::string write_circuit(const Circuit& circuit) {
  std::ostringstream out;
  out << "circuit " << circuit.name() << "\n";
  out << "phases " << circuit.num_phases() << "\n";
  for (const Element& e : circuit.elements()) {
    out << (e.is_latch() ? "latch " : "flipflop ") << e.name << " phase=" << e.phase
        << " setup=" << fmt_time(e.setup, 6) << (e.is_latch() ? " dq=" : " cq=")
        << fmt_time(e.dq, 6);
    if (e.hold != 0.0) out << " hold=" << fmt_time(e.hold, 6);
    if (e.dq_min >= 0.0) out << " dqmin=" << fmt_time(e.dq_min, 6);
    if (e.skew != 0.0) out << " skew=" << fmt_time(e.skew, 6);
    out << "\n";
  }
  for (const CombPath& p : circuit.paths()) {
    out << "path " << circuit.element(p.from).name << " " << circuit.element(p.to).name
        << " delay=" << fmt_time(p.delay, 6);
    if (p.min_delay != 0.0) out << " min=" << fmt_time(p.min_delay, 6);
    if (!p.label.empty()) out << " label=" << quote_value(p.label);
    out << "\n";
  }
  return out.str();
}

Expected<bool> save_circuit(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) return make_error(ErrorKind::kIo, "cannot write '" + path + "'");
  out << write_circuit(circuit);
  return true;
}

}  // namespace mintc::parser
