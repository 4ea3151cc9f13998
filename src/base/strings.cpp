#include "base/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mintc {

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc{} && ptr == s.data() + s.size() && !std::isnan(v)) {
    out = v;
    return true;
  }
  // strtod decides what from_chars does not take whole: a leading '+', hex
  // floats, overflow and underflow (±inf and ±0 to strtod), a NaN (whose
  // payload from_chars drops), and garbage, which both reject.
  const std::string buf(s);
  char* end = nullptr;
  v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  out = v;
  return true;
}

bool parse_int(std::string_view s, int& out) {
  s = trim(s);
  if (s.empty()) return false;
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  out = v;
  return true;
}

void append_fixed(std::string& out, double v, int decimals) {
  char buf[352];  // "%.*f" of -DBL_MAX with 17 decimals is 328 characters
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, decimals);
  if (ec == std::errc{}) {
    out.append(buf, end);
    return;
  }
  // More decimals than the buffer holds: printf sizes the text.
  const int n = std::snprintf(nullptr, 0, "%.*f", decimals, v);
  const size_t at = out.size();
  out.resize(at + static_cast<size_t>(n) + 1);
  std::snprintf(out.data() + at, static_cast<size_t>(n) + 1, "%.*f", decimals, v);
  out.resize(at + static_cast<size_t>(n));
}

void fmt_time_to(std::string& out, double v, int max_decimals) {
  const size_t at = out.size();
  append_fixed(out, v, max_decimals);
  if (out.find('.', at) != std::string::npos) {
    while (out.back() == '0') out.pop_back();
    if (out.back() == '.') out.pop_back();
  }
  if (std::string_view(out).substr(at) == "-0") out.erase(at, 1);
}

std::string fmt_time(double v, int max_decimals) {
  std::string s;
  fmt_time_to(s, v, max_decimals);
  return s;
}

}  // namespace mintc
