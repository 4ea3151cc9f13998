#include "parser/scan.h"

#include <array>
#include <cstring>
#include <fstream>

namespace mintc::parser {

namespace {

// The "C" locale's isspace without '\n', which ends the line instead.
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// The bytes that can end a run of token characters: blanks, '\n', '#' and
// '"'. A backslash only matters inside quotes.
constexpr std::array<bool, 256> kSpecial = [] {
  std::array<bool, 256> t{};
  for (const unsigned char c : {' ', '\t', '\r', '\v', '\f', '\n', '#', '"'}) t[c] = true;
  return t;
}();

}  // namespace

bool LineScanner::next() {
  tokens_.clear();
  open_quote_ = false;
  const char* const s = text_.data();
  const size_t n = text_.size();
  // Every '\n' ends a line and the text's end ends the last, so a text
  // ending in '\n' has an empty last line; pos_ == n + 1 means done.
  while (pos_ <= n) {
    ++line_;
    size_t i = pos_;
    while (!open_quote_) {
      while (i < n && is_blank(s[i])) ++i;
      if (i == n || s[i] == '\n') break;
      if (s[i] == '#') {
        const void* eol = std::memchr(s + i, '\n', n - i);
        i = eol != nullptr ? static_cast<size_t>(static_cast<const char*>(eol) - s) : n;
        break;
      }
      const size_t start = i;
      for (;;) {
        while (i < n && !kSpecial[static_cast<unsigned char>(s[i])]) ++i;
        if (i == n || s[i] != '"') break;
        ++i;
        if (!quoted_) continue;
        // A quoted span: to the next unescaped '"', never past the line.
        while (i < n && s[i] != '"' && s[i] != '\n') {
          if (s[i] == '\\' && i + 1 < n && s[i + 1] != '\n') ++i;
          ++i;
        }
        if (i == n || s[i] == '\n') {
          open_quote_ = true;
          break;
        }
        ++i;  // the closing '"'
      }
      tokens_.push_back(text_.substr(start, i - start));
    }
    pos_ = i + 1;  // past the '\n', or to n + 1 at the end of the text
    if (!tokens_.empty()) return true;
  }
  return false;
}

Expected<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error(ErrorKind::kIo, "cannot open '" + path + "'");
  std::string text;
  char buf[64 * 1024];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    text.append(buf, static_cast<size_t>(in.gcount()));
  }
  return text;
}

}  // namespace mintc::parser
