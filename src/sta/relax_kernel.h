// Vectorized inner loop of the eq. (17) relaxation.
//
// The fixpoint engine spends essentially all its time computing, for one
// destination latch i, the maximum over its contiguous fan-in CSR run of
//
//     departure[src[e]] + max_const[e] + shift_data[shift_index[e]]
//
// (max_const fuses Δ_DQ(src) + Δ_edge at view-build time, shift_index is the
// pre-flattened (p_src-1)*k + (p_dst-1) lookup). This header exposes that
// run-max as a kernel trait with two interchangeable implementations:
//
//   * kScalar — the portable loop, bit-for-bit the historical behavior;
//   * kAvx2   — 4-wide AVX2 gathers, compiled with a per-function target
//               attribute so the rest of the binary stays baseline-ISA, and
//               selected at runtime only when the CPU reports AVX2.
//
// Bit-identity contract: the AVX2 kernel keeps the scalar add order
// (d + c) + s within each lane (no FMA — there is no multiply), and `max` is
// exact in IEEE double, so the only reassociation is of the max reduction
// itself, which is associative and commutative for the finite values this
// kernel sees. Every kernel therefore returns the identical bit pattern, and
// the cross-kernel determinism suite (tests/sta/parallel_determinism_test)
// asserts exact == on the resulting departure vectors.
#pragma once

#include "model/timing_view.h"

namespace mintc::sta {

enum class RelaxKernelKind {
  kAuto,    // pick the fastest kernel this CPU supports at runtime
  kScalar,  // portable reference loop
  kAvx2,    // 4-wide gather kernel; falls back to kScalar off-AVX2 hosts
};

const char* to_string(RelaxKernelKind kind);

/// Run-max function: reduce edges [begin, end) of the CSR arrays into
/// max(seed, max_e departure[src[e]] + max_const[e] + shift_data[shift_index[e]]).
/// Callers seed with 0.0 to get eq. (17)'s outer max with zero for free.
using RelaxRunFn = double (*)(const double* departure, const int* src,
                              const double* max_const, const int* shift_index,
                              const double* shift_data, EdgeIndex begin,
                              EdgeIndex end, double seed);

/// The portable reference implementation (always available).
double relax_run_scalar(const double* departure, const int* src,
                        const double* max_const, const int* shift_index,
                        const double* shift_data, EdgeIndex begin, EdgeIndex end,
                        double seed);

/// Resolve kAuto to a concrete kernel for this host (kAvx2 when the CPU and
/// compiler support it, else kScalar). Returns `kind` unchanged otherwise,
/// except kAvx2 on a host without AVX2, which degrades to kScalar.
RelaxKernelKind resolve_relax_kernel(RelaxKernelKind kind);

/// Fetch the run-max function for a concrete kernel kind (resolves kAuto).
RelaxRunFn relax_run_fn(RelaxKernelKind kind);

/// Convenience: one eq. (17) update for element `i` through a chosen kernel.
/// Matches mintc::departure_update(view, shifts, departure, i) bit-for-bit.
inline double relax_element(RelaxRunFn fn, const TimingView& view,
                            const ShiftTable& shifts,
                            const std::vector<double>& departure, int i) {
  if (!view.is_latch(i)) return 0.0;
  return fn(departure.data(), view.edge_src_data(), view.edge_max_const_data(),
            view.edge_shift_data(), shifts.shift_data(), view.fanin_begin(i),
            view.fanin_end(i), 0.0);
}

}  // namespace mintc::sta
