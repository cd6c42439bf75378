// reference.hpp — a fixed host workload that shares no code with the
// simulator: the same-run yardstick for how fast the machine is.
#pragma once

#include <cstdint>
#include <vector>

namespace harmless::suite {

/// The reference chunks' total time on the machine these benchmarks
/// were sized on (a 4-vCPU Intel Xeon VM) at its usual speed. Host-time
/// metrics are scaled to it: a run that saw the reference take r ms
/// reports host time × 60 / r.
constexpr double kNominalReferenceMs = 60.0;

/// Host ns of each of a fixed number of equal reference chunks.
std::vector<std::int64_t> reference_chunks();

}  // namespace harmless::suite
