// The line scanner under the `.lct` and `.lcs` readers: one pass over the
// text, tokens as views into it, and one token buffer reused by every line.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.h"

namespace mintc::parser {

/// Walks `text` one line at a time and splits each line into tokens. A
/// '\n' ends a line; ' ', '\t', '\r', '\v' and '\f' separate tokens; a '#'
/// starts a comment that runs to the end of the line.
///
/// With `quoted` set (.lct), a '"' anywhere in a token opens a span that
/// the next unescaped '"' closes. Inside it whitespace and '#' are literal
/// and a backslash escapes the character after it. The quotes and escapes
/// stay in the token; the reader unquotes the values it needs. Without
/// `quoted` (.lcs), '"' is an ordinary character.
class LineScanner {
 public:
  LineScanner(std::string_view text, bool quoted) : text_(text), quoted_(quoted) {}

  /// Moves to the next line that holds a token, skipping blank and
  /// comment-only lines. False at the end of the text.
  bool next();

  /// 1-based number of the current line.
  int line_number() const { return line_; }
  /// The current line's tokens, valid until the next call to next().
  const std::vector<std::string_view>& tokens() const { return tokens_; }
  /// The current line ended inside a quoted span; its last token runs to
  /// the end of the line.
  bool open_quote() const { return open_quote_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;  // start of the next line; past the end once done
  int line_ = 0;
  bool quoted_;
  bool open_quote_ = false;
  std::vector<std::string_view> tokens_;
};

/// The whole contents of the file at `path`, read in one go. kIo when it
/// cannot be opened.
Expected<std::string> read_file(const std::string& path);

}  // namespace mintc::parser
