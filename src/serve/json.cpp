#include "serve/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>

#include "obs/export.h"

namespace mintc::serve {

namespace {

const Json kNullJson;

/// Longest %.17g rendering of a double ("-2.2250738585072014e-308" is 24).
constexpr size_t kDoubleChars = 32;

/// Write json_double(v) into `buf` and return its end: the first of %.15g,
/// %.16g and %.17g that reads back as v.
///
/// One to_chars decides it for a normal double that is not a power of two.
/// Take the shortest round-trip form S (to_chars' n digits: of the forms
/// with n digits, the one nearest v) and P = max(n, 15). No form shorter
/// than n digits reads back, so the probe stops at %.Pg at the earliest, and
/// %.Pg prints R_P, v correctly rounded to P digits. S is itself a P-digit
/// decimal, so R_P is no farther from v than S. Away from a power of two
/// the interval of values that round to v is symmetric about v, so R_P lies
/// in it as S does, and reads back. And R_P is S: for P = 15 because
/// 15-digit decimals are more than 4.5 ulp apart (2^52 / 10^15 > 4.5) and
/// the interval is one ulp wide, for P = n because the shortest form is the
/// nearest candidate (an exact tie goes to even in both). So the text is
/// S's digits written as %.Pg writes them.
///
/// Below a power of two the interval is half as wide, and %.16g can round
/// down out of it while S lies above v (2^-1017 is one such). Powers of two,
/// zero and subnormals (too few significant bits for the spacing argument)
/// go through the probe: %.15g, %.16g and %.17g in turn, keeping the first
/// that from_chars reads back as v.
char* format_double(char* buf, double v) {
  if (!std::isfinite(v)) {
    const std::string_view clamped = v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    return std::copy(clamped.begin(), clamped.end(), buf);
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof v);
  const bool power_of_two = (bits & ((std::uint64_t{1} << 52) - 1)) == 0;
  if (!std::isnormal(v) || power_of_two) {
    char* end = buf;
    for (const int prec : {15, 16, 17}) {
      end = std::to_chars(buf, buf + kDoubleChars, v, std::chars_format::general, prec).ptr;
      double back = 0.0;
      std::from_chars(buf, end, back);
      if (back == v) break;
    }
    return end;
  }
  // S as [-]d[.ddd]e(+|-)XX. Outside %g's fixed range this is already the
  // %.Pg text: the same digits, point and exponent, no trailing zeros.
  char* const sci_end =
      std::to_chars(buf, buf + kDoubleChars, v, std::chars_format::scientific).ptr;
  char digits[17];
  size_t n = 0;
  const char* p = buf + (v < 0 ? 1 : 0);
  for (; *p != 'e'; ++p) {
    if (*p != '.') digits[n++] = *p;
  }
  int exp = 0;
  std::from_chars(p + 2, sci_end, exp);
  if (p[1] == '-') exp = -exp;
  if (exp < -4 || exp >= std::max(static_cast<int>(n), 15)) return sci_end;
  // %g's fixed form: the integer digits (zero-padded), then any others.
  char* out = buf + (v < 0 ? 1 : 0);
  if (exp < 0) {
    *out++ = '0';
    *out++ = '.';
    out = std::fill_n(out, -exp - 1, '0');
    return std::copy(digits, digits + n, out);
  }
  const size_t whole = static_cast<size_t>(exp) + 1;
  for (size_t i = 0; i < whole; ++i) *out++ = i < n ? digits[i] : '0';
  if (n <= whole) return out;
  *out++ = '.';
  return std::copy(digits + whole, digits + n, out);
}

// A string this long is measured before it is escaped into the output, so
// the output grows once instead of by doubling and the escape writes in one
// pass; shorter ones are cheaper to regrow than to measure.
constexpr size_t kLongString = 4096;

// Room left after a sized string or fragment for what usually follows it
// (the closing braces, an answer's fingerprint, the envelope's trace and
// cost echoes, the frame's newline), so the output is not regrown for them.
constexpr size_t kRoomAfter = 256;

}  // namespace

bool Json::has(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

const Json& Json::get(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  return kNullJson;
}

Json& Json::set(std::string key, Json v) {
  kind_ = Kind::kObject;
  for (auto& [k, old] : fields_) {
    if (k == key) {
      old = std::move(v);
      return old;
    }
  }
  fields_.emplace_back(std::move(key), std::move(v));
  return fields_.back().second;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kNumber:
      // Bit comparison, not ==: the protocol's identity notion is
      // bit-identity (and NaN never parses, so no NaN != NaN surprises).
      return std::memcmp(&num_, &other.num_, sizeof num_) == 0;
    case Kind::kString: return str_ == other.str_;
    case Kind::kRaw: return *raw_ == *other.raw_;
    case Kind::kArray: return items_ == other.items_;
    case Kind::kObject: return fields_ == other.fields_;
  }
  return false;
}

void json_double_to(std::string& out, double v) {
  char buf[kDoubleChars];
  out.append(buf, format_double(buf, v));
}

std::string json_double(double v) {
  char buf[kDoubleChars];
  return std::string(buf, format_double(buf, v));
}

void Json::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      json_double_to(out, num_);
      return;
    case Kind::kString:
      out += '"';
      if (str_.size() >= kLongString) {
        obs::json_escape_long_to(out, str_, kRoomAfter);
      } else {
        obs::json_escape_to(out, str_);
      }
      out += '"';
      return;
    case Kind::kRaw:
      out.reserve(out.size() + raw_->size() + kRoomAfter);
      out += *raw_;
      return;
    case Kind::kArray:
      out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        items_[i].dump_to(out);
      }
      out += ']';
      return;
    case Kind::kObject:
      out += '{';
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ',';
        out += '"';
        obs::json_escape_to(out, fields_[i].first);
        out += "\":";
        fields_[i].second.dump_to(out);
      }
      out += '}';
      return;
  }
}

std::string Json::dump() const {
  std::string out;
  out.reserve(64);
  dump_to(out);
  return out;
}

// ---------------------------------------------------------------- parser --

namespace {

class Parser {
 public:
  Parser(std::string_view text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  Expected<Json> run() {
    skip_ws();
    Json value;
    if (Error* e = parse_value(value, 0)) return std::move(*e);
    skip_ws();
    if (pos_ != text_.size()) return std::move(*fail("trailing data after JSON value"));
    return value;
  }

 private:
  // Errors are returned through an owned slot so the recursive descent can
  // use plain pointers as "failed?" without std::optional ceremony.
  Error* fail(const std::string& what) {
    error_ = make_error(ErrorKind::kInvalidArgument,
                        "JSON parse error at byte " + std::to_string(pos_) + ": " + what);
    return &error_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool eat_word(const char* w) {
    const size_t n = std::strlen(w);
    if (text_.substr(pos_, n) == w) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Error* parse_value(Json& out, size_t depth) {
    if (depth > options_.max_depth) return fail("nesting deeper than the limit");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        std::string s;
        if (Error* e = parse_string(s)) return e;
        out = Json(std::move(s));
        return nullptr;
      }
      case 't':
        if (eat_word("true")) {
          out = Json(true);
          return nullptr;
        }
        return fail("expected 'true'");
      case 'f':
        if (eat_word("false")) {
          out = Json(false);
          return nullptr;
        }
        return fail("expected 'false'");
      case 'n':
        if (eat_word("null")) {
          out = Json();
          return nullptr;
        }
        return fail("expected 'null'");
      default:
        return parse_number(out);
    }
  }

  Error* parse_object(Json& out, size_t depth) {
    ++pos_;  // '{'
    out = Json::object();
    skip_ws();
    if (eat('}')) return nullptr;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (Error* e = parse_string(key)) return e;
      skip_ws();
      if (!eat(':')) return fail("expected ':' after object key");
      skip_ws();
      Json value;
      if (Error* e = parse_value(value, depth + 1)) return e;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return nullptr;
      return fail("expected ',' or '}' in object");
    }
  }

  Error* parse_array(Json& out, size_t depth) {
    ++pos_;  // '['
    out = Json::array();
    skip_ws();
    if (eat(']')) return nullptr;
    for (;;) {
      skip_ws();
      Json value;
      if (Error* e = parse_value(value, depth + 1)) return e;
      out.push(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return nullptr;
      return fail("expected ',' or ']' in array");
    }
  }

  Error* parse_string(std::string& out) {
    ++pos_;  // opening '"'
    out.clear();
    while (pos_ < text_.size()) {
      // Append the run up to the next quote, escape or control byte at once.
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return nullptr;
      if (c != '\\') return fail("raw control character in string");
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (Error* e = parse_hex4(cp)) return e;
          if (cp >= 0xD800 && cp < 0xDC00) {
            // Surrogate pair: require the low half.
            if (!eat('\\') || !eat('u')) return fail("lone high surrogate");
            unsigned lo = 0;
            if (Error* e = parse_hex4(lo)) return e;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape sequence");
      }
    }
    return fail("unterminated string");
  }

  Error* parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid \\u escape digit");
    }
    return nullptr;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Error* parse_number(Json& out) {
    const size_t start = pos_;
    const bool negative = eat('-');
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      return fail("expected a JSON value");
    }
    // JSON int grammar: a single 0, or 1-9 followed by digits — "01" is
    // malformed (from_chars would accept it, so reject it here).
    const size_t int_start = pos_;
    skip_digits();
    const size_t int_digits = pos_ - int_start;
    if (text_[int_start] == '0' && int_digits > 1) {
      pos_ = int_start;
      return fail("leading zeros are not allowed");
    }
    size_t frac_start = pos_;
    if (eat('.')) {
      frac_start = pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("digit required after decimal point");
      }
      skip_digits();
    }
    size_t exp_start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      exp_start = pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("digit required in exponent");
      }
      skip_digits();
    }
    // The slice is a valid JSON number by construction, so from_chars can
    // only fail with result_out_of_range, and it says so for an underflow
    // as well as an overflow. An underflow reads as a signed zero, as the C
    // library's conversion reads it; an overflow is rejected to keep the
    // no-non-finite invariant.
    double v = 0.0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, v).ec != std::errc()) {
      if (decimal_exponent(int_start, int_digits, frac_start, exp_start) > 0) {
        return fail("number out of double range");
      }
      v = negative ? -0.0 : 0.0;
    }
    out = Json(v);
    return nullptr;
  }

  void skip_digits() {
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  /// The power of ten of the first nonzero digit of a number scanned by
  /// parse_number, which ends at pos_ (its exponent starts at `exp_start`,
  /// or equals pos_ when absent). Only its sign matters: a number out of
  /// double range has it at least 308 (overflow) or at most -324
  /// (underflow). The exponent saturates, so any digit string is safe.
  long decimal_exponent(size_t int_start, size_t int_digits, size_t frac_start,
                        size_t exp_start) const {
    long lead = static_cast<long>(int_digits) - 1;
    if (text_[int_start] == '0') {  // 0.000ddd: count the zeros after the point
      size_t p = frac_start;
      while (p < text_.size() && text_[p] == '0') ++p;
      lead = -static_cast<long>(p - frac_start) - 1;
    }
    long exponent = 0;
    size_t p = exp_start;
    const bool negative_exponent = p < pos_ && text_[p] == '-';
    if (p < pos_ && (text_[p] == '-' || text_[p] == '+')) ++p;
    for (; p < pos_; ++p) exponent = std::min(exponent * 10 + (text_[p] - '0'), 1000000L);
    return lead + (negative_exponent ? -exponent : exponent);
  }

  std::string_view text_;
  JsonParseOptions options_;
  size_t pos_ = 0;
  Error error_;
};

}  // namespace

Expected<Json> parse_json(std::string_view text, const JsonParseOptions& options) {
  return Parser(text, options).run();
}

}  // namespace mintc::serve
