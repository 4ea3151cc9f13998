// Column-aligned text tables.
//
// The figure/table benches print the paper's rows through this so their
// output is uniform and easy to diff against EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace mintc {

/// A simple monospace table: set headers, add rows, render. Every cell's
/// text lives in one buffer.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Add a row; it must have the same arity as the header.
  void add_row(const std::vector<std::string>& cells);

  /// Or write a row cell by cell: append a cell's text to cell_text(), then
  /// call end_cell(). A row ends after as many cells as the header has.
  std::string& cell_text() { return text_; }
  void end_cell() { ends_.push_back(text_.size()); }

  /// Render with column alignment, a header underline, and two-space gutters.
  std::string to_string() const;

  size_t num_rows() const { return ends_.size() / cols_ - 1; }

 private:
  size_t cols_;
  std::string text_;          // every cell, header first, row-major
  std::vector<size_t> ends_;  // where each cell's text ends in text_
};

}  // namespace mintc
