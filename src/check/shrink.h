// Greedy test-case minimization for failing differential checks.
//
// Given a circuit on which some property holds (typically "check_circuit
// reports a failure of kind K"), shrink_circuit() repeatedly tries
// structure-reducing edits — dropping a path, dropping an element with its
// incident paths, rounding a delay to a coarse grid, clearing labels — and
// keeps an edit whenever the property still holds. The result is a locally
// minimal repro suitable for writing out as a `.lct` file
// (parser::write_circuit) and pasting into a regression test.
#pragma once

#include <functional>

#include "model/circuit.h"

namespace mintc::check {

/// Returns true when the candidate circuit still exhibits the failure being
/// minimized. Must be deterministic; it is called O(rounds * (paths +
/// elements)) times.
using FailurePredicate = std::function<bool(const Circuit&)>;

struct ShrinkResult {
  Circuit circuit;    // the minimized failing circuit
  int attempts = 0;   // candidate edits tried
  int accepted = 0;   // edits that preserved the failure
};

/// Greedily minimize `failing` while `still_fails` keeps returning true:
/// at most 12 full passes over all edit kinds, delays rounded to whole
/// units where possible. `still_fails(failing)` itself must be true on
/// entry (asserted).
ShrinkResult shrink_circuit(const Circuit& failing, const FailurePredicate& still_fails);

/// Rebuild the circuit without path `p` (exposed for the shrinker tests).
Circuit without_path(const Circuit& circuit, int p);

/// Rebuild the circuit without element `e` and every path touching it.
Circuit without_element(const Circuit& circuit, int e);

}  // namespace mintc::check
