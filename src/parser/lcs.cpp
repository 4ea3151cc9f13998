#include "parser/lcs.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "base/strings.h"
#include "parser/scan.h"

namespace mintc::parser {

namespace {
Error parse_error(int line, const std::string& what) {
  return make_error(ErrorKind::kInvalidArgument,
                    "line " + std::to_string(line) + ": " + what);
}

// Reject "nan"/"inf": strtod accepts them, but a non-finite cycle or edge
// position makes every shift S_ij non-finite.
bool parse_finite(std::string_view s, double& out) {
  return parse_double(s, out) && std::isfinite(out);
}
}  // namespace

Expected<ClockSchedule> parse_schedule(std::string_view text) {
  ClockSchedule sch;
  bool have_cycle = false;
  LineScanner lines(text, /*quoted=*/false);
  while (lines.next()) {
    const int line_no = lines.line_number();
    const std::vector<std::string_view>& tok = lines.tokens();

    if (tok[0] == "cycle") {
      if (tok.size() != 2 || !parse_finite(tok[1], sch.cycle)) {
        return parse_error(line_no, "usage: cycle <Tc>");
      }
      have_cycle = true;
    } else if (tok[0] == "phase") {
      int idx = 0;
      if (tok.size() != 4 || !parse_int(tok[1], idx)) {
        return parse_error(line_no, "usage: phase <i> start=<s> width=<T>");
      }
      if (idx != static_cast<int>(sch.start.size()) + 1) {
        return parse_error(line_no, "phases must be declared 1..k in order");
      }
      double s = 0.0;
      double w = 0.0;
      bool got_s = false;
      bool got_w = false;
      for (size_t i = 2; i < tok.size(); ++i) {
        const auto eq = tok[i].find('=');
        if (eq == std::string_view::npos) return parse_error(line_no, "expected key=value");
        const std::string_view key = tok[i].substr(0, eq);
        const std::string_view value = tok[i].substr(eq + 1);
        if (key == "start" && parse_finite(value, s)) {
          got_s = true;
        } else if (key == "width" && parse_finite(value, w)) {
          got_w = true;
        } else {
          return parse_error(line_no, "unknown/bad attribute '" + std::string(key) + "'");
        }
      }
      if (!got_s || !got_w) return parse_error(line_no, "phase needs start= and width=");
      sch.start.push_back(s);
      sch.width.push_back(w);
    } else {
      return parse_error(line_no, "unknown keyword '" + std::string(tok[0]) + "'");
    }
  }
  if (!have_cycle) return make_error(ErrorKind::kInvalidArgument, "missing 'cycle' line");
  if (sch.start.empty()) return make_error(ErrorKind::kInvalidArgument, "no phases declared");
  return sch;
}

Expected<ClockSchedule> load_schedule(const std::string& path) {
  Expected<std::string> text = read_file(path);
  if (!text) return text.error();
  return parse_schedule(*text);
}

std::string write_schedule(const ClockSchedule& schedule) {
  std::ostringstream out;
  out << "cycle " << fmt_time(schedule.cycle, 6) << "\n";
  for (int p = 1; p <= schedule.num_phases(); ++p) {
    out << "phase " << p << " start=" << fmt_time(schedule.s(p), 6)
        << " width=" << fmt_time(schedule.T(p), 6) << "\n";
  }
  return out.str();
}

Expected<bool> save_schedule(const ClockSchedule& schedule, const std::string& path) {
  std::ofstream out(path);
  if (!out) return make_error(ErrorKind::kIo, "cannot write '" + path + "'");
  out << write_schedule(schedule);
  return true;
}

}  // namespace mintc::parser
