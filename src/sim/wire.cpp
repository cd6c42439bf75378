#include "sim/wire.hpp"

#include <algorithm>

namespace harmless::sim {

std::optional<SimNanos> MessageWire::depart(Lane& lane, const Tally& tally) {
  ++tally.sent;
  if (!up_) {
    ++tally.dropped_down;
    return std::nullopt;
  }
  const Impairment& in_force =
      impairment_.loss > 0.0 || impairment_.jitter_ns > 0 ? impairment_ : configured_;
  if (in_force.loss > 0.0 && rng_.chance(in_force.loss)) {
    ++tally.dropped_loss;
    return std::nullopt;
  }
  // Serialization point: min_gap spaces departures, so a burst of N
  // messages takes N * gap to drain (the control channel's resync-time
  // model). With a gap of 0 this is depart-now.
  const SimNanos departs = std::max(engine_.now(), lane.next_free);
  lane.next_free = departs + min_gap_ns_;
  SimNanos arrives = departs + lane.latency_ns;
  if (in_force.jitter_ns > 0) {
    // Jitter can reorder deliveries relative to FIFO — deliberate: an
    // impaired network gives no ordering guarantees either.
    arrives += static_cast<SimNanos>(
        rng_.below(static_cast<std::uint64_t>(in_force.jitter_ns) + 1));
  }
  return arrives;
}

}  // namespace harmless::sim
