// sim/wire.hpp — the one failable message wire.
//
// The control session (openflow::ControlChannel), the HA sync stream
// (softswitch::ReplicationChannel) and each witness client's line
// (sim::WitnessLink) send every message through a MessageWire, the one
// place that decides its fate, in this order: count it sent; drop it
// (dropped_down) if the wire is down; roll loss, only when non-zero,
// and drop it (dropped_loss) on a hit; pace its departure to the lane's
// next free slot, which only a surviving message moves min_gap later;
// schedule its arrival at departure + latency + a uniform jitter draw,
// drawn only when non-zero; at arrival drop it (dropped_down) if the
// wire went down meanwhile; otherwise run the owner's delivery closure.
// That is one engine event per message.
//
// Owners keep their own stats: a Tally names the counters a message
// kind is charged to, and the delivery closure counts "delivered". One
// seeded util::Rng serves every lane, so a wire without loss or jitter
// never draws and replays byte-identically. A non-zero impair() replaces
// the configured loss/jitter pair while it is set; impair(0, 0)
// restores the configured pair.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "sim/event.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace harmless::sim {

class MessageWire {
 public:
  /// One direction of the wire: its one-way latency and the pacing
  /// cursor its departures are spaced on.
  struct Lane {
    SimNanos latency_ns = 0;
    SimNanos next_free = 0;  // earliest departure of the next message
  };

  /// The owner's counters one message kind is charged to.
  struct Tally {
    std::uint64_t& sent;
    std::uint64_t& dropped_down;  // down at send or at arrival
    std::uint64_t& dropped_loss;  // random loss
  };

  MessageWire(Engine& engine, std::uint64_t seed, double loss = 0.0, SimNanos jitter_ns = 0)
      : engine_(engine), rng_(seed), configured_{loss, jitter_ns} {}
  // In-flight arrivals hold `this`.
  MessageWire(const MessageWire&) = delete;
  MessageWire& operator=(const MessageWire&) = delete;

  /// Carry one message along `lane`; `deliver` runs at arrival only if
  /// the message survived.
  template <typename Deliver>
  void send(Lane& lane, Tally tally, Deliver&& deliver) {
    const std::optional<SimNanos> arrive = depart(lane, tally);
    if (!arrive) return;
    engine_.schedule_at(*arrive, [this, down = &tally.dropped_down,
                                  deliver = std::forward<Deliver>(deliver)]() mutable {
      if (!up_) {
        ++*down;
        return;
      }
      deliver();
    });
  }

  /// Partition / heal: both lanes, at send and in flight.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }

  /// Transient loss + jitter over the configured pair; (0, 0) clears it.
  void impair(double loss, SimNanos jitter_ns) { impairment_ = Impairment{loss, jitter_ns}; }

  /// Minimum spacing between departures on each lane (0 = depart now).
  void set_min_gap(SimNanos gap_ns) { min_gap_ns_ = gap_ns; }
  [[nodiscard]] SimNanos min_gap() const { return min_gap_ns_; }

 private:
  struct Impairment {
    double loss = 0.0;
    SimNanos jitter_ns = 0;
  };

  /// Everything up to scheduling: the arrival time, or nullopt if the
  /// message died.
  std::optional<SimNanos> depart(Lane& lane, const Tally& tally);

  Engine& engine_;
  util::Rng rng_;
  Impairment configured_;
  Impairment impairment_;
  SimNanos min_gap_ns_ = 0;
  bool up_ = true;
};

}  // namespace harmless::sim
