#include "sim/vcd.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace mintc::sim {

namespace {

// The VCD timescale unit, and picoseconds per circuit time unit (ns).
constexpr int kTimescalePs = 1;
constexpr double kUnitPs = 1000.0;

// VCD identifier codes over printable ASCII, excluding '#' so that
// timestamp lines are the only lines containing it.
std::string code_of(int index) {
  static const std::string alphabet = [] {
    std::string a;
    for (char c = '!'; c <= '~'; ++c) {
      if (c != '#') a.push_back(c);
    }
    return a;
  }();
  const int base = static_cast<int>(alphabet.size());
  std::string code;
  int v = index;
  do {
    code.push_back(alphabet[static_cast<size_t>(v % base)]);
    v /= base;
  } while (v > 0);
  return code;
}

}  // namespace

std::string write_vcd(const Circuit& circuit, const ClockSchedule& schedule,
                      const std::vector<double>& departure, const VcdOptions& options) {
  std::ostringstream out;
  out << "$date mintc $end\n";
  out << "$version mintc timing reproduction $end\n";
  out << "$timescale " << kTimescalePs << "ps $end\n";
  out << "$scope module " << circuit.name() << " $end\n";

  const int k = schedule.num_phases();
  std::vector<std::string> phase_code(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    phase_code[static_cast<size_t>(p)] = code_of(p);
    out << "$var wire 1 " << phase_code[static_cast<size_t>(p)] << " phi" << (p + 1)
        << " $end\n";
  }
  std::vector<std::string> elem_code(static_cast<size_t>(circuit.num_elements()));
  for (int i = 0; i < circuit.num_elements(); ++i) {
    elem_code[static_cast<size_t>(i)] = code_of(k + i);
    out << "$var wire 1 " << elem_code[static_cast<size_t>(i)] << " "
        << circuit.element(i).name << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";

  // Collect (time_ps, code, value) changes.
  std::multimap<long, std::pair<std::string, char>> changes;
  const auto ps = [&](double t) {
    return static_cast<long>(std::llround(t * kUnitPs / kTimescalePs));
  };
  for (int cyc = 0; cyc < options.cycles; ++cyc) {
    const double base = cyc * schedule.cycle;
    for (int p = 1; p <= k; ++p) {
      changes.insert({ps(base + schedule.s(p)), {phase_code[static_cast<size_t>(p - 1)], '1'}});
      changes.insert(
          {ps(base + schedule.phase_end(p)), {phase_code[static_cast<size_t>(p - 1)], '0'}});
    }
    for (int i = 0; i < circuit.num_elements(); ++i) {
      const Element& e = circuit.element(i);
      const double out_valid =
          base + schedule.s(e.phase) + departure[static_cast<size_t>(i)] + e.dq;
      changes.insert(
          {ps(out_valid), {elem_code[static_cast<size_t>(i)], cyc % 2 == 0 ? '1' : '0'}});
    }
  }

  // Initial values.
  out << "$dumpvars\n";
  for (const std::string& c : phase_code) out << "0" << c << "\n";
  for (const std::string& c : elem_code) out << "0" << c << "\n";
  out << "$end\n";

  long last_time = -1;
  for (const auto& [t, change] : changes) {
    if (t != last_time) {
      out << "#" << t << "\n";
      last_time = t;
    }
    out << change.second << change.first << "\n";
  }
  return out.str();
}

}  // namespace mintc::sim
