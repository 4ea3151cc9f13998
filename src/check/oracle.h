// The paper's departure update as printed, kept as an independent oracle.
//
// Algorithm MLP's steps 3-5 iterate eq. (17) Jacobi-style: every D_i of a
// sweep is computed from the previous sweep's vector. This oracle does
// exactly that, straight from the Circuit (no TimingView, no SCC plan), so
// the fuzzer can check the production engine (sta::FixpointEngine,
// sta/fixpoint.h) against code it shares nothing with beyond the model.
// Each edge term is added in the view's order, (D_j + (Δ_DQj + Δ_ji)) +
// S_{pj,pi}, so where both reach an exact fixpoint they agree bit for bit.
#pragma once

#include <vector>

#include "model/circuit.h"
#include "sta/fixpoint.h"

namespace mintc::check {

/// Jacobi iteration of eq. (17) from `initial` with the engine's stopping
/// rule (a sweep that moves nothing by more than options.eps), sweep budget
/// and divergence bound, all evaluated from the Circuit. `residual` is
/// always filled: max_i |F(D)_i - D_i| at exit.
sta::FixpointResult jacobi_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                      std::vector<double> initial,
                                      const sta::FixpointOptions& options = {});

}  // namespace mintc::check
