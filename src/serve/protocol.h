// Wire protocol: line-delimited JSON frames.
//
// One request per line, one response per line, UTF-8, LF-terminated:
//
//   -> {"id": 7, "verb": "analyze", "circuit": "cpu0"}
//   <- {"id": 7, "ok": true, "cached": false, "result": {...}}
//   <- {"id": 8, "ok": false, "error": {"kind": "not_loaded", "message": "..."}}
//
// Framing rules (all tested in serve protocol/robustness suites):
//   * `id` is optional and echoed verbatim (number or string); pipelining
//     clients use it to match out-of-order responses — the server may
//     reorder responses freely across a connection's in-flight requests.
//   * A frame longer than max_frame_bytes without a newline is fatal for
//     the connection: the reader reports overflow, the server sends a final
//     `frame_too_large` error and closes (there is no way to resync).
//   * A complete line that fails to parse (malformed JSON, not an object,
//     missing verb) gets an error RESPONSE but keeps the connection: line
//     framing self-resynchronizes at the next newline.
//   * Responses never contain raw newlines (obs::json_escape escapes them),
//     so a response is always exactly one line.
//
// Error kinds mirror mintc::ErrorKind spellings plus the protocol-level
// "not_loaded", "unknown_verb" and "frame_too_large".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/error.h"
#include "serve/json.h"

namespace mintc::serve {

/// Default per-frame size cap; generous enough for a million-path .lct
/// payload while bounding a hostile client's buffer growth.
inline constexpr size_t kDefaultMaxFrameBytes = 32u << 20;

/// Incremental line extractor with an overflow cap. feed() appends raw
/// bytes; next_line() yields complete lines (without the '\n', a trailing
/// '\r' is stripped). Once the buffered partial line exceeds `max_bytes`
/// overflowed() latches and the stream must be abandoned.
class FrameReader {
 public:
  explicit FrameReader(size_t max_bytes = kDefaultMaxFrameBytes) : max_bytes_(max_bytes) {}

  void feed(const char* data, size_t n);
  std::optional<std::string> next_line();
  bool overflowed() const { return overflowed_; }
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  size_t max_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix already handed out
  bool overflowed_ = false;
};

/// Decode one request line: must parse as a JSON object with a string
/// "verb". The (optional) id is available on the returned object.
Expected<Json> parse_request(std::string_view line, size_t max_bytes = kDefaultMaxFrameBytes);

/// The optional request "trace" field, decoded. Two spellings:
///
///   "trace": "1f00ba3c9d2e4455"                      — sampled, id in hex
///   "trace": {"id": "1f00ba3c", "sampled": false}    — explicit flag
///
/// The id is 1-16 lower/upper hex digits (a 64-bit trace id), nonzero.
/// Absent field -> {present=false}. Malformed, zero, or oversized ids ->
/// kInvalidArgument (the request is rejected rather than silently
/// untraced, so a client's sampling config can't rot unnoticed). A sampled
/// request's id is echoed on its response, and the service keeps its
/// record for the `trace` verb.
struct TraceField {
  bool present = false;
  std::uint64_t id = 0;
  bool sampled = false;
};

Expected<TraceField> parse_trace_field(const Json& request);

/// 16-char lower-case hex rendering of a trace id (the wire spelling).
std::string trace_id_hex(std::uint64_t trace_id);

/// Response envelopes. `id` is the request's id field (null when absent).
Json ok_response(const Json& id, Json result, bool cached);
Json error_response(const Json& id, std::string_view kind, std::string message);
Json error_response(const Json& id, const Error& error);

/// Envelope -> one wire frame (a single line INCLUDING the trailing '\n').
std::string encode_frame(const Json& response);

}  // namespace mintc::serve
