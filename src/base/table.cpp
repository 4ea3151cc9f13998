#include "base/table.h"

#include <algorithm>
#include <cassert>
#include <string_view>

namespace mintc {

TextTable::TextTable(std::vector<std::string> headers) : cols_(headers.size()) {
  assert(cols_ > 0 && "a table needs a column");
  add_row(headers);
}

void TextTable::add_row(const std::vector<std::string>& cells) {
  assert(cells.size() == cols_ && "row arity must match header");
  for (size_t c = 0; c < cols_; ++c) {
    if (c < cells.size()) text_ += cells[c];
    end_cell();
  }
}

std::string TextTable::to_string() const {
  assert(ends_.size() % cols_ == 0 && "every row needs a cell per column");
  const auto cell = [&](size_t i) {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(text_).substr(begin, ends_[i] - begin);
  };
  std::vector<size_t> width(cols_, 0);
  for (size_t i = 0; i < ends_.size(); ++i) {
    width[i % cols_] = std::max(width[i % cols_], cell(i).size());
  }

  std::string out;
  const auto emit_row = [&](size_t row) {
    for (size_t c = 0; c < cols_; ++c) {
      const std::string_view text = cell(row * cols_ + c);
      out += text;
      if (c + 1 < cols_) out.append(width[c] - text.size() + 2, ' ');
    }
    out += '\n';
  };
  emit_row(0);
  size_t total = 0;
  for (size_t c = 0; c < cols_; ++c) total += width[c] + (c + 1 < cols_ ? 2 : 0);
  out.append(total, '-');
  out += '\n';
  for (size_t row = 1; row < ends_.size() / cols_; ++row) emit_row(row);
  return out;
}

}  // namespace mintc
