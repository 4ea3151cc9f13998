#include "parser/verilog.h"

#include <cctype>
#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "base/strings.h"
#include "parser/scan.h"

namespace mintc::parser {

namespace {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kEnd } kind = Kind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Expected<std::vector<Token>> run() {
    std::vector<Token> out;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        const int start_line = line_;
        pos_ += 2;
        while (pos_ + 1 < src_.size() && !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') ++line_;
          ++pos_;
        }
        if (pos_ + 1 >= src_.size()) {
          return make_error(ErrorKind::kInvalidArgument,
                            "line " + std::to_string(start_line) + ": unterminated comment");
        }
        pos_ += 2;
      } else if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '\\') {
        size_t j = pos_;
        if (c == '\\') ++j;  // escaped identifier: read to whitespace
        while (j < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[j])) != 0 || src_[j] == '_' ||
                src_[j] == '$')) {
          ++j;
        }
        out.push_back({Token::Kind::kIdent, std::string(src_.substr(pos_, j - pos_)), line_});
        pos_ = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
        // Numbers (possibly forming part of ".name(" — disambiguate: a '.'
        // followed by a letter is a named-pin introducer).
        if (c == '.' && pos_ + 1 < src_.size() &&
            std::isalpha(static_cast<unsigned char>(src_[pos_ + 1])) != 0) {
          out.push_back({Token::Kind::kPunct, ".", line_});
          ++pos_;
          continue;
        }
        size_t j = pos_;
        while (j < src_.size() &&
               (std::isdigit(static_cast<unsigned char>(src_[j])) != 0 || src_[j] == '.' ||
                src_[j] == 'e' || src_[j] == 'E' ||
                ((src_[j] == '+' || src_[j] == '-') && j > pos_ &&
                 (src_[j - 1] == 'e' || src_[j - 1] == 'E')))) {
          ++j;
        }
        out.push_back({Token::Kind::kNumber, std::string(src_.substr(pos_, j - pos_)), line_});
        pos_ = j;
      } else {
        out.push_back({Token::Kind::kPunct, std::string(1, c), line_});
        ++pos_;
      }
    }
    out.push_back({Token::Kind::kEnd, "", line_});
    return out;
  }

 private:
  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
};

const std::map<std::string, netlist::GateType>& primitive_table() {
  static const std::map<std::string, netlist::GateType> table = {
      {"and", netlist::GateType::kAnd},   {"or", netlist::GateType::kOr},
      {"nand", netlist::GateType::kNand}, {"nor", netlist::GateType::kNor},
      {"xor", netlist::GateType::kXor},   {"xnor", netlist::GateType::kXnor},
      {"buf", netlist::GateType::kBuf},   {"not", netlist::GateType::kInv},
      // Extension cells matching the netlist library (not Verilog built-ins).
      {"mux2", netlist::GateType::kMux2}, {"aoi21", netlist::GateType::kAoi21},
  };
  return table;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Expected<netlist::Netlist> run() {
    // module <name> ( ... ) ;
    if (auto e = expect_ident("module")) return *e;
    const Token name = cur();
    if (name.kind != Token::Kind::kIdent) return err("expected module name");
    advance();
    module_name_ = name.text;
    if (cur().text == "(") {
      // Skip the port list.
      int depth = 0;
      while (cur().kind != Token::Kind::kEnd) {
        if (cur().text == "(") ++depth;
        if (cur().text == ")" && --depth == 0) {
          advance();
          break;
        }
        advance();
      }
    }
    if (auto e = expect_punct(";")) return *e;

    while (cur().kind != Token::Kind::kEnd && cur().text != "endmodule") {
      if (auto e = statement()) return *e;
    }
    if (cur().text != "endmodule") return err("missing endmodule");

    // Assemble the netlist now that the highest phase is known.
    netlist::Netlist nl(module_name_, std::max(1, max_phase_));
    std::map<std::string, int> nets;
    const auto net_of = [&](const std::string& n) {
      const auto it = nets.find(n);
      if (it != nets.end()) return it->second;
      const int id = nl.add_net(n);
      nets.emplace(n, id);
      return id;
    };
    for (const Gate& g : gates_) {
      std::vector<int> ins;
      ins.reserve(g.inputs.size());
      for (const std::string& n : g.inputs) ins.push_back(net_of(n));
      nl.add_gate(g.name, g.type, std::move(ins), net_of(g.output));
    }
    for (const Storage& s : storages_) {
      if (s.is_latch) {
        const int id = nl.add_latch(s.name, s.phase, net_of(s.d), net_of(s.q), s.setup, s.dq);
        nl.storage(id).hold = s.hold;
        nl.storage(id).dq_min = s.dq_min;
        nl.storage(id).skew = s.skew;
      } else {
        const int id =
            nl.add_flipflop(s.name, s.phase, net_of(s.d), net_of(s.q), s.setup, s.dq);
        nl.storage(id).hold = s.hold;
        nl.storage(id).skew = s.skew;
      }
    }
    return nl;
  }

 private:
  struct Gate {
    std::string name;
    netlist::GateType type;
    std::string output;
    std::vector<std::string> inputs;
  };
  struct Storage {
    std::string name;
    bool is_latch = true;
    int phase = 1;
    double setup = 0.0, dq = 0.0, hold = 0.0, dq_min = -1.0, skew = 0.0;
    std::string d, q;
  };

  const Token& cur() const { return tokens_[idx_]; }
  void advance() {
    if (idx_ + 1 < tokens_.size()) ++idx_;
  }

  Error err(const std::string& what) const {
    return make_error(ErrorKind::kInvalidArgument,
                      "line " + std::to_string(cur().line) + ": " + what +
                          (cur().text.empty() ? "" : " (at '" + cur().text + "')"));
  }
  std::optional<Error> expect_punct(const std::string& p) {
    if (cur().text != p) return err("expected '" + p + "'");
    advance();
    return std::nullopt;
  }
  std::optional<Error> expect_ident(const std::string& kw) {
    if (cur().kind != Token::Kind::kIdent || cur().text != kw) {
      return err("expected '" + kw + "'");
    }
    advance();
    return std::nullopt;
  }

  std::optional<Error> statement() {
    if (cur().kind != Token::Kind::kIdent) return err("expected statement");
    const std::string kw = cur().text;
    if (kw == "wire" || kw == "input" || kw == "output" || kw == "inout") {
      // Declarations: skip identifiers/commas to ';'.
      advance();
      while (cur().text != ";" && cur().kind != Token::Kind::kEnd) advance();
      return expect_punct(";");
    }
    if (primitive_table().count(kw) != 0) return gate_stmt(primitive_table().at(kw));
    if (kw == "latch" || kw == "dff") return storage_stmt(kw == "latch");
    return err("unknown statement '" + kw + "'");
  }

  std::optional<Error> gate_stmt(netlist::GateType type) {
    advance();  // primitive keyword
    if (cur().kind != Token::Kind::kIdent) return err("expected instance name");
    Gate g;
    g.type = type;
    g.name = cur().text;
    advance();
    if (auto e = expect_punct("(")) return e;
    // Output first, then inputs (Verilog primitive pin order).
    std::vector<std::string> pins;
    while (true) {
      if (cur().kind != Token::Kind::kIdent) return err("expected net name");
      pins.push_back(cur().text);
      advance();
      if (cur().text == ",") {
        advance();
        continue;
      }
      break;
    }
    if (auto e = expect_punct(")")) return e;
    if (auto e = expect_punct(";")) return e;
    if (pins.size() < 2) return err("primitive needs an output and at least one input");
    g.output = pins.front();
    g.inputs.assign(pins.begin() + 1, pins.end());
    gates_.push_back(std::move(g));
    return std::nullopt;
  }

  std::optional<Error> storage_stmt(bool is_latch) {
    advance();  // latch/dff
    Storage s;
    s.is_latch = is_latch;
    // Parameter block: #(.key(value), ...).
    if (cur().text == "#") {
      advance();
      if (auto e = expect_punct("(")) return e;
      while (true) {
        if (auto e = expect_punct(".")) return e;
        if (cur().kind != Token::Kind::kIdent) return err("expected parameter name");
        const std::string key = cur().text;
        advance();
        if (auto e = expect_punct("(")) return e;
        // Accept a sign so negative values reach the per-parameter
        // diagnostics below instead of a generic token error.
        double sign = 1.0;
        if (cur().kind == Token::Kind::kPunct && cur().text == "-") {
          sign = -1.0;
          advance();
        }
        if (cur().kind != Token::Kind::kNumber) return err("expected numeric parameter");
        double value = 0.0;
        if (!parse_double(cur().text, value)) return err("bad number");
        value *= sign;
        advance();
        if (auto e = expect_punct(")")) return e;
        if (value < 0.0 && key != "dqmin" && key != "skew") {
          return err("parameter '" + key + "' must be nonnegative");
        }
        if (key == "phase") {
          s.phase = static_cast<int>(value);
        } else if (key == "setup") {
          s.setup = value;
        } else if (key == "dq" || key == "cq") {
          s.dq = value;
        } else if (key == "hold") {
          s.hold = value;
        } else if (key == "dqmin") {
          s.dq_min = value;
        } else if (key == "skew") {
          if (!std::isfinite(value) || value < 0.0) {
            return err("skew must be finite and nonnegative");
          }
          s.skew = value;
        } else {
          return err("unknown parameter '" + key + "'");
        }
        if (cur().text == ",") {
          advance();
          continue;
        }
        break;
      }
      if (auto e = expect_punct(")")) return e;
    }
    if (cur().kind != Token::Kind::kIdent) return err("expected instance name");
    s.name = cur().text;
    advance();
    if (auto e = expect_punct("(")) return e;
    // Named pins .d(net), .q(net).
    while (true) {
      if (auto e = expect_punct(".")) return e;
      if (cur().kind != Token::Kind::kIdent) return err("expected pin name");
      const std::string pin = cur().text;
      advance();
      if (auto e = expect_punct("(")) return e;
      if (cur().kind != Token::Kind::kIdent) return err("expected net name");
      const std::string net = cur().text;
      advance();
      if (auto e = expect_punct(")")) return e;
      if (pin == "d") {
        s.d = net;
      } else if (pin == "q") {
        s.q = net;
      } else {
        return err("unknown pin '" + pin + "' (expected d or q)");
      }
      if (cur().text == ",") {
        advance();
        continue;
      }
      break;
    }
    if (auto e = expect_punct(")")) return e;
    if (auto e = expect_punct(";")) return e;
    if (s.d.empty() || s.q.empty()) return err("storage needs both .d and .q pins");
    if (s.phase < 1) return err("storage needs phase >= 1");
    max_phase_ = std::max(max_phase_, s.phase);
    storages_.push_back(std::move(s));
    return std::nullopt;
  }

  std::vector<Token> tokens_;
  size_t idx_ = 0;
  std::string module_name_;
  int max_phase_ = 0;
  std::vector<Gate> gates_;
  std::vector<Storage> storages_;
};

}  // namespace

Expected<netlist::Netlist> parse_verilog(std::string_view text) {
  Lexer lexer(text);
  auto tokens = lexer.run();
  if (!tokens) return tokens.error();
  Parser parser(std::move(tokens.value()));
  return parser.run();
}

Expected<netlist::Netlist> load_verilog(const std::string& path) {
  Expected<std::string> text = read_file(path);
  if (!text) return text.error();
  return parse_verilog(*text);
}

}  // namespace mintc::parser
