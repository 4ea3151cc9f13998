// Process corners.
//
// The paper's GaAs flow refined delays "from additional circuit simulations
// as well as actual measurements on prototype chips" and re-ran MLP
// "throughout the design process". Real sign-off additionally requires the
// schedule to survive process/voltage/temperature spread. This extension
// models a corner as a uniform derating of all delays (combinational and
// latch) and setup times: slow corners stress setup (long paths), fast
// corners stress hold (short paths). report::build_signoff checks a fixed
// schedule at every corner on one AnalysisSession (apply_derating);
// derate() is the copy-based reference that session is held to.
#pragma once

#include <string>
#include <vector>

#include "model/circuit.h"

namespace mintc::sta {

struct Corner {
  std::string name;
  double delay_scale = 1.0;  // applied to all max delays, Δ_DQ, setup
  double min_scale = 1.0;    // applied to all min delays and min Δ_DQ
};

/// The classic slow/typical/fast triple around a +-spread fraction.
std::vector<Corner> standard_corners(double spread = 0.1);

/// Apply a corner's derating to a copy of the circuit.
Circuit derate(const Circuit& circuit, const Corner& corner);

}  // namespace mintc::sta
