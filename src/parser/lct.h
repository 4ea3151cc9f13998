// Reader/writer for the `.lct` (latch-controlled timing) circuit format —
// the library's equivalent of the paper's "simple parser".
//
// Line-oriented, '#' comments, keyword lines:
//
//   circuit <name>
//   phases <k>
//   latch <name> phase=<p> setup=<ns> dq=<ns> [hold=<ns>] [dqmin=<ns>]
//   flipflop <name> phase=<p> setup=<ns> cq=<ns> [hold=<ns>]
//   path <from> <to> delay=<ns> [min=<ns>] [label=<str>]
//
// Attribute values may be double-quoted: `label="ALU stage"`. Inside
// quotes, whitespace, '#' and '=' are literal, and '"' / '\' are written
// as '\"' / '\\'. The writer quotes automatically whenever a bare value
// would not re-parse. `min` must not exceed `delay` (rejected at parse
// time with the offending line number). A repeated key keeps its last
// value; of two bad attributes on one line, the error names the one whose
// key sorts first.
//
// `circuit` and `phases` must precede any element; elements must precede
// the paths that reference them. Unknown keywords are errors (this is a
// timing sign-off input; silently ignoring lines would be dangerous).
#pragma once

#include <string>
#include <string_view>

#include "base/error.h"
#include "model/circuit.h"

namespace mintc::parser {

/// Parse a circuit from text. Errors carry the offending line number.
Expected<Circuit> parse_circuit(std::string_view text);

/// Load from a file.
Expected<Circuit> load_circuit(const std::string& path);

/// Serialize to .lct text (round-trips through parse_circuit).
std::string write_circuit(const Circuit& circuit);

/// Save to a file.
Expected<bool> save_circuit(const Circuit& circuit, const std::string& path);

}  // namespace mintc::parser
