#include "check/shrink.h"

#include <cassert>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "sta/session.h"

namespace mintc::check {

namespace {

// Full passes over all edit kinds, and the grid delays are rounded onto.
constexpr int kMaxRounds = 12;
constexpr double kDelayGrid = 1.0;

}  // namespace

Circuit without_path(const Circuit& circuit, int skip) {
  Circuit out(circuit.name(), circuit.num_phases());
  for (const Element& e : circuit.elements()) out.add_element(e);
  for (int p = 0; p < circuit.num_paths(); ++p) {
    if (p == skip) continue;
    const CombPath& cp = circuit.path(p);
    out.add_path(cp.from, cp.to, cp.delay, cp.min_delay, cp.label);
  }
  return out;
}

Circuit without_element(const Circuit& circuit, int skip) {
  Circuit out(circuit.name(), circuit.num_phases());
  std::vector<int> remap(static_cast<size_t>(circuit.num_elements()), -1);
  for (int i = 0; i < circuit.num_elements(); ++i) {
    if (i == skip) continue;
    remap[static_cast<size_t>(i)] = out.add_element(circuit.element(i));
  }
  for (const CombPath& p : circuit.paths()) {
    if (p.from == skip || p.to == skip) continue;
    out.add_path(remap[static_cast<size_t>(p.from)], remap[static_cast<size_t>(p.to)], p.delay,
                 p.min_delay, p.label);
  }
  return out;
}

ShrinkResult shrink_circuit(const Circuit& failing, const FailurePredicate& still_fails) {
  assert(still_fails(failing));
  ShrinkResult res{failing, 0, 0};

  // One mutate/undo session replaces the per-candidate full Circuit copy +
  // rebuild that used to dominate shrink wall time: each candidate is an
  // in-place edit, rolled back via the undo log when the predicate stops
  // failing.
  sta::AnalysisSession session(failing);
  const auto try_edit = [&](const std::function<void()>& edit) {
    const size_t mark = session.mark();
    edit();
    ++res.attempts;
    if (still_fails(session.circuit())) {
      ++res.accepted;
      return true;
    }
    session.undo_to(mark);
    return false;
  };

  for (int round = 0; round < kMaxRounds; ++round) {
    bool progress = false;

    // Drop paths, highest index first so lower indices survive an accepted
    // drop unchanged.
    for (int p = session.circuit().num_paths() - 1; p >= 0; --p) {
      progress |= try_edit([&] { session.remove_path(p); });
    }

    // Drop elements (with their incident paths).
    for (int e = session.circuit().num_elements() - 1; e >= 0; --e) {
      progress |= try_edit([&] { session.remove_element(e); });
    }

    // Round delays onto a coarse grid so the repro prints cleanly.
    for (int p = 0; p < session.circuit().num_paths(); ++p) {
      const CombPath& path = session.circuit().path(p);
      double rounded = std::round(path.delay / kDelayGrid) * kDelayGrid;
      rounded = std::max({rounded, path.min_delay, 0.0});
      if (std::fabs(rounded - path.delay) < 1e-12) continue;
      progress |= try_edit([&] { session.set_path_delay(p, rounded); });
    }

    // Labels are pure annotation; drop them all at once if possible.
    bool any_label = false;
    for (const CombPath& p : session.circuit().paths()) any_label |= !p.label.empty();
    if (any_label) {
      progress |= try_edit([&] {
        for (int p = 0; p < session.circuit().num_paths(); ++p) session.set_path_label(p, "");
      });
    }

    if (!progress) break;
  }
  res.circuit = session.circuit();
  return res;
}

}  // namespace mintc::check
