// VCD (Value Change Dump) writer for simulated schedules.
//
// Emits a waveform any VCD viewer (GTKWave etc.) can open: one wire per
// clock phase and one per synchronizing element. Element wires toggle each
// time a new data token leaves the element (at departure + Δ_DQ), so the
// waveform visualizes exactly the strips of the paper's Fig. 6 against the
// clock phases.
#pragma once

#include <string>
#include <vector>

#include "model/circuit.h"

namespace mintc::sim {

struct VcdOptions {
  int cycles = 4;  // clock cycles to dump
};

/// Render a VCD document for the circuit under `schedule` with steady-state
/// departures `departure` (e.g. MlpResult::departure or SimResult::departure).
/// Circuit times are read as nanoseconds and dumped at a 1 ps timescale.
std::string write_vcd(const Circuit& circuit, const ClockSchedule& schedule,
                      const std::vector<double>& departure, const VcdOptions& options = {});

}  // namespace mintc::sim
