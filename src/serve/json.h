// Minimal JSON value + parser for the serve protocol.
//
// The rest of the tree only ever WRITES JSON (obs/report exporters build
// strings directly); the service also has to READ it — requests arrive as
// one JSON object per line. This is a small, strict, dependency-free
// implementation tuned for that job:
//
//   * strict parsing: one complete value, UTF-8 text, no trailing garbage,
//     no comments, no NaN/Inf literals, a recursion-depth cap (malformed or
//     adversarial frames are user input — every failure is an Error value
//     with an offset, never an assert);
//   * exact number round-trip: dump() renders a double as the first of
//     %.15g, %.16g and %.17g that re-parses to the same bit pattern, which
//     is what lets the soak test compare served departures BIT-identically
//     against direct check_schedule results. It is read off the shortest
//     round-trip digits in one pass (json_double_to), not found by
//     formatting and re-parsing each precision in turn;
//   * objects preserve insertion order (stable rendering for golden tests)
//     and lookup is linear — protocol objects have a handful of keys;
//   * a raw fragment (Json::raw) holds text that is already rendered JSON,
//     shared rather than copied, and dump() splices it in verbatim: the
//     service renders a read's answer once and hands the same bytes to its
//     cache and to the frame; a hit wraps the stored bytes in the envelope
//     with no re-parse, no re-render and no copy but the frame's. A detail
//     analyze writes its whole answer, rows included, into one fragment
//     instead of a node per value;
//   * dump() sizes a large string or fragment before appending it, so a
//     megabyte answer is written into one allocation, not regrown by
//     doubling.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/error.h"

namespace mintc::serve {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                    // NOLINT
  Json(double v) : kind_(Kind::kNumber), num_(v) {}                 // NOLINT
  Json(int v) : kind_(Kind::kNumber), num_(v) {}                    // NOLINT
  Json(long v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}  // NOLINT
  Json(std::uint64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), str_(s) {}             // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  /// A write-only fragment: dump() appends `text` as it is. The caller
  /// vouches that `text` is one well-formed JSON value (the service wraps
  /// only text it wrote: a dump() output, or a detail analyze's answer). It
  /// reads as no JSON type: every accessor sees it as absent, so only the
  /// writer and raw_text() look inside. The bytes are shared, never copied,
  /// by copies of the value.
  static Json raw(std::shared_ptr<const std::string> text) {
    Json j;
    j.kind_ = Kind::kRaw;
    j.raw_ = std::move(text);
    return j;
  }
  static Json raw(std::string text) {
    return raw(std::make_shared<const std::string>(std::move(text)));
  }

  /// The bytes of a raw fragment, shared; null for every other kind.
  const std::shared_ptr<const std::string>& raw_text() const { return raw_; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  double as_number(double fallback = 0.0) const { return is_number() ? num_ : fallback; }
  long as_long(long fallback = 0) const { return is_number() ? saturate_long(num_) : fallback; }
  const std::string& as_string() const {
    static const std::string empty;
    return is_string() ? str_ : empty;
  }

  // -- Array ----------------------------------------------------------------
  size_t size() const {
    return is_array() ? items_.size() : (is_object() ? fields_.size() : 0);
  }
  const Json& at(size_t i) const {
    static const Json null;
    return is_array() && i < items_.size() ? items_[i] : null;
  }
  const std::vector<Json>& items() const { return items_; }
  Json& push(Json v) {
    items_.push_back(std::move(v));
    return items_.back();
  }

  // -- Object (insertion-ordered; linear lookup) ----------------------------
  const std::vector<std::pair<std::string, Json>>& fields() const { return fields_; }
  bool has(std::string_view key) const;
  /// Field by key; a shared null value when absent (or not an object).
  const Json& get(std::string_view key) const;
  /// Set (or overwrite) a field, keeping insertion order on first set.
  Json& set(std::string key, Json v);

  // Typed field helpers with defaults — the protocol handlers' bread and
  // butter. `*_or` never fails; required-field validation happens in the
  // request decoders (protocol.cpp) where a useful error can be produced.
  bool bool_or(std::string_view key, bool fallback) const {
    const Json& v = get(key);
    return v.is_bool() ? v.bool_ : fallback;
  }
  double num_or(std::string_view key, double fallback) const {
    const Json& v = get(key);
    return v.is_number() ? v.num_ : fallback;
  }
  long long_or(std::string_view key, long fallback) const { return get(key).as_long(fallback); }
  std::string str_or(std::string_view key, std::string fallback = "") const {
    const Json& v = get(key);
    return v.is_string() ? v.str_ : fallback;
  }

  /// Render as compact JSON (no whitespace). Numbers round-trip exactly.
  std::string dump() const;

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  /// `v` truncated toward zero, clamped to long's range: casting a double
  /// outside it is undefined, and request numbers like 1e300 are client input.
  static long saturate_long(double v) {
    // The bounds as doubles: -2^63 exactly, and LONG_MAX rounded up to 2^63.
    constexpr double kMin = static_cast<double>(std::numeric_limits<long>::min());
    constexpr double kMax = static_cast<double>(std::numeric_limits<long>::max());
    if (v >= kMax) return std::numeric_limits<long>::max();
    if (v <= kMin) return std::numeric_limits<long>::min();
    return std::isnan(v) ? 0 : static_cast<long>(v);
  }

  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;                                    // kString
  std::shared_ptr<const std::string> raw_;             // kRaw
  std::vector<Json> items_;                            // kArray
  std::vector<std::pair<std::string, Json>> fields_;   // kObject
};

struct JsonParseOptions {
  size_t max_depth = 64;  // nesting cap: arrays/objects deeper than this fail
};

/// Parse exactly one JSON value spanning the whole input (leading/trailing
/// whitespace allowed, anything else after the value is an error). Errors
/// are kInvalidArgument and carry a byte offset plus what was expected.
/// Numbers are read as strtod reads them: one that underflows parses as a
/// signed zero, one that overflows is an error.
Expected<Json> parse_json(std::string_view text, const JsonParseOptions& options = {});

/// Render a double as the first of %.15g, %.16g and %.17g that re-parses
/// to the same IEEE-754 bit pattern (non-finite values are clamped like
/// obs::json_number — JSON has no Inf/NaN). One std::to_chars for the
/// shortest digits decides it, except for zero, subnormals and powers of
/// two (json.cpp says why). json_double_to appends the text to `out`, as
/// obs::json_escape_to does, so a writer renders numbers without
/// allocating.
void json_double_to(std::string& out, double v);
std::string json_double(double v);

}  // namespace mintc::serve
