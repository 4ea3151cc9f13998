// Small string utilities used by the parser and report printers.
#pragma once

#include <string>
#include <string_view>

namespace mintc {

/// Remove leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// True if s starts with the given prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse a double as strtod reads it, surrounding whitespace allowed;
/// returns false on any trailing garbage and leaves `out` alone.
bool parse_double(std::string_view s, double& out);

/// Parse a non-negative integer; returns false on any trailing garbage.
bool parse_int(std::string_view s, int& out);

/// Append printf's "%.*f" of `v` (std::to_chars, which the standard defines
/// as that conversion), whatever its length.
void append_fixed(std::string& out, double v, int decimals);

/// printf-style "%.*f" with trailing zeros trimmed ("12.50" -> "12.5",
/// "12.00" -> "12") and "-0" read as "0". Used everywhere numbers are
/// printed in reports so the output matches the paper's style;
/// fmt_time_to appends the text to `out`.
void fmt_time_to(std::string& out, double v, int max_decimals = 3);
std::string fmt_time(double v, int max_decimals = 3);

}  // namespace mintc
