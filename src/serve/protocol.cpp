#include "serve/protocol.h"

#include <utility>

namespace mintc::serve {

void FrameReader::feed(const char* data, size_t n) {
  if (overflowed_) return;  // stream abandoned; drop everything
  // Compact lazily: only when the consumed prefix dominates the buffer.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
  // Overflow = a PARTIAL line longer than the cap. Complete lines of any
  // buffered backlog are fine — parse_request re-checks their size.
  if (buffer_.size() - consumed_ > max_bytes_ &&
      buffer_.find('\n', consumed_) == std::string::npos) {
    overflowed_ = true;
    buffer_.clear();
    consumed_ = 0;
  }
}

std::optional<std::string> FrameReader::next_line() {
  if (overflowed_) return std::nullopt;
  const size_t nl = buffer_.find('\n', consumed_);
  if (nl == std::string::npos) return std::nullopt;
  size_t end = nl;
  if (end > consumed_ && buffer_[end - 1] == '\r') --end;
  std::string line = buffer_.substr(consumed_, end - consumed_);
  consumed_ = nl + 1;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  if (line.size() > max_bytes_) {
    overflowed_ = true;
    return std::nullopt;
  }
  return line;
}

Expected<Json> parse_request(std::string_view line, size_t max_bytes) {
  if (line.size() > max_bytes) {
    return make_error(ErrorKind::kInvalidArgument,
                      "request frame of " + std::to_string(line.size()) +
                          " bytes exceeds the " + std::to_string(max_bytes) + "-byte cap");
  }
  Expected<Json> parsed = parse_json(line);
  if (!parsed) return parsed;
  if (!parsed->is_object()) {
    return make_error(ErrorKind::kInvalidArgument, "request must be a JSON object");
  }
  if (!parsed->get("verb").is_string() || parsed->get("verb").as_string().empty()) {
    return make_error(ErrorKind::kInvalidArgument,
                      "request needs a non-empty string \"verb\"");
  }
  return parsed;
}

namespace {

// Decode a 1-16 hex-digit trace id; 0 on failure (0 is also an invalid id,
// so callers need no separate error channel).
std::uint64_t parse_trace_id(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  std::uint64_t id = 0;
  for (const char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return 0;
    id = (id << 4) | static_cast<std::uint64_t>(digit);
  }
  return id;
}

}  // namespace

Expected<TraceField> parse_trace_field(const Json& request) {
  TraceField field;
  if (!request.has("trace")) return field;
  const Json& trace = request.get("trace");
  field.present = true;
  std::string hex;
  if (trace.is_string()) {
    hex = trace.as_string();
    field.sampled = true;
  } else if (trace.is_object()) {
    if (!trace.get("id").is_string()) {
      return make_error(ErrorKind::kInvalidArgument,
                        "trace object needs a string \"id\" (1-16 hex digits)");
    }
    hex = trace.get("id").as_string();
    field.sampled = trace.bool_or("sampled", true);
  } else {
    return make_error(ErrorKind::kInvalidArgument,
                      "trace must be a hex-id string or {\"id\", \"sampled\"} object");
  }
  field.id = parse_trace_id(hex);
  if (field.id == 0) {
    return make_error(ErrorKind::kInvalidArgument,
                      "trace id '" + hex + "' is not 1-16 hex digits (nonzero)");
  }
  return field;
}

std::string trace_id_hex(std::uint64_t trace_id) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[trace_id & 0xf];
    trace_id >>= 4;
  }
  return out;
}

Json ok_response(const Json& id, Json result, bool cached) {
  Json resp = Json::object();
  resp.set("id", id);
  resp.set("ok", Json(true));
  resp.set("cached", Json(cached));
  resp.set("result", std::move(result));
  return resp;
}

Json error_response(const Json& id, std::string_view kind, std::string message) {
  Json err = Json::object();
  err.set("kind", Json(std::string(kind)));
  err.set("message", Json(std::move(message)));
  Json resp = Json::object();
  resp.set("id", id);
  resp.set("ok", Json(false));
  resp.set("error", std::move(err));
  return resp;
}

Json error_response(const Json& id, const Error& error) {
  return error_response(id, to_string(error.kind), error.message);
}

std::string encode_frame(const Json& response) {
  std::string out = response.dump();
  out += '\n';
  return out;
}

}  // namespace mintc::serve
