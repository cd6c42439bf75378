// sim/link.hpp — unidirectional wire model.
//
// A Channel models one direction of a cable: a drop-tail output queue
// in front of a transmitter that serializes at the line rate, followed
// by a fixed propagation delay. `Network::connect` pairs two Channels
// into a duplex link.
//
// Timing model for a packet handed to transmit() at time t:
//   start  = max(t, transmitter_free)
//   departs = start + serialization(size)
//   arrives = departs + propagation_delay
// Packets whose queue (packets accepted but not yet departed) exceeds
// the capacity are dropped and counted. A queue slot frees when the
// engine passes the packet's departure key: transmit() claims that key
// (sim/event.hpp) rather than scheduling a release event, so a packet
// costs one event (its arrival) while admission at a shared timestamp
// still decides exactly as a release event at `departs` would have.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/event.hpp"
#include "sim/faults.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace harmless::sim {

struct LinkSpec {
  Rate rate = Rate::gbps(1);
  SimNanos propagation_delay = 500_ns;  // ~100 m of fibre
  std::size_t queue_capacity_packets = 256;

  static LinkSpec gbps(double gigabits, SimNanos delay = 500_ns) {
    return LinkSpec{Rate::gbps(gigabits), delay, 256};
  }
};

class Channel : public FaultPoint {
 public:
  Channel(Engine& engine, LinkSpec spec, std::string label);

  /// Where delivered packets go (the far-side port).
  void set_sink(std::function<void(net::Packet&&)> sink) { sink_ = std::move(sink); }

  /// Passive observer invoked at delivery time, before the sink (pcap
  /// taps, test probes). At most one per channel.
  void set_tap(std::function<void(SimNanos, const net::Packet&)> tap) {
    tap_ = std::move(tap);
  }

  /// Enqueue a packet for transmission; may drop if the queue is full.
  void transmit(net::Packet&& packet);

  /// Failure injection: a downed channel drops everything handed to it
  /// — and everything already in flight at delivery time — counted in
  /// drops_down(). State transitions notify the observer (how endpoint
  /// nodes see their link die: MAC flushes, port-status).
  void set_up(bool up) {
    if (up_ == up) return;
    up_ = up;
    if (state_observer_) state_observer_(up);
  }
  [[nodiscard]] bool is_up() const { return up_; }
  /// sim::FaultPoint: a plan's down/up events cut and restore the cable.
  void fault_set_up(bool up) override { set_up(up); }

  /// Observe up/down transitions (at most one observer; Network wires
  /// it to both endpoint nodes' on_port_link).
  void set_state_observer(std::function<void(bool)> observer) {
    state_observer_ = std::move(observer);
  }

  [[nodiscard]] const util::RateCounter& delivered() const { return delivered_; }
  /// All drops (downed-link + queue-overflow) — the historical counter.
  [[nodiscard]] std::uint64_t drops() const { return drops_down_ + drops_overflow_; }
  /// Frames lost because the link was down (at admission or in flight).
  [[nodiscard]] std::uint64_t drops_down() const { return drops_down_; }
  /// Frames tail-dropped by the bounded transmit queue.
  [[nodiscard]] std::uint64_t drops_overflow() const { return drops_overflow_; }
  /// Packets accepted but not yet departed.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const LinkSpec& spec() const { return spec_; }

  /// Total time the transmitter has spent serializing; divide by the
  /// observation window for utilization.
  [[nodiscard]] SimNanos busy_ns() const { return busy_ns_; }

 private:
  Engine& engine_;
  LinkSpec spec_;
  std::string label_;
  std::function<void(net::Packet&&)> sink_;
  std::function<void(SimNanos, const net::Packet&)> tap_;
  std::function<void(bool)> state_observer_;
  bool up_ = true;
  SimNanos transmitter_free_ = 0;
  /// One-entry memo for rate.serialization_ns(size): streams repeat one
  /// frame size, and the divide + ceil shows up at per-packet rates.
  std::size_t memo_size_ = static_cast<std::size_t>(-1);
  SimNanos memo_serialization_ = 0;
  /// Ring of the departure keys of accepted packets, oldest first, one
  /// slot per queue place. Departures are in key order, so the passed
  /// keys are always a prefix; transmit() pops them before admission.
  std::vector<Engine::Key> departures_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;  // keys in the ring, passed or not
  std::uint64_t drops_down_ = 0;
  std::uint64_t drops_overflow_ = 0;
  SimNanos busy_ns_ = 0;
  util::RateCounter delivered_;
};

}  // namespace harmless::sim
