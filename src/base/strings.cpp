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

std::string fmt_time(double v, int max_decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", max_decimals, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

}  // namespace mintc
