// Sample statistics for the bench reports.
#pragma once

#include <vector>

namespace spinn::sim {

/// Exact sample percentile with linear interpolation between order
/// statistics (the R-7 / NumPy "linear" rule): p in [0, 1] maps onto
/// position p * (n - 1) in the sorted samples.  Returns 0 for empty input
/// and the sample itself for single-sample input.  This is the one
/// percentile used by every bench harness; histogram-based estimates come
/// from obs::Histogram::percentile instead.
double percentile(std::vector<double> samples, double p);

}  // namespace spinn::sim
