// openflow/channel.hpp — the control channel between a datapath and
// its controller.
//
// In the paper SS_2 connects to the SDN controller over TCP; here the
// transport is the event engine with a configurable one-way latency
// (management networks are not free) and strictly FIFO delivery per
// direction — which is what the barrier semantics rely on.
//
// The channel is failable (PR 7): both directions cross one
// sim::MessageWire (sim/wire.hpp), which applies partitions, loss,
// jitter and the min_gap that models TCP + controller serialization
// (what makes a 10^3-flow resync take wall time). Drops are attributed
// per direction: partition, random loss, and arrival with no handler
// registered (a crashed controller's receive window).
#pragma once

#include <cstdint>
#include <functional>

#include "openflow/messages.hpp"
#include "sim/event.hpp"
#include "sim/faults.hpp"
#include "sim/wire.hpp"

namespace harmless::openflow {

class ControlChannel : public sim::FaultPoint {
 public:
  ControlChannel(sim::Engine& engine, sim::SimNanos one_way_latency = 50'000 /*50 us*/,
                 std::uint64_t seed = 0xc0a7'0150'0fULL)
      : wire_(engine, seed), to_controller_(one_way_latency), to_switch_(one_way_latency) {}

  // ---- datapath side ----
  void send_to_controller(Message message) { send(to_controller_, std::move(message)); }
  void set_controller_handler(std::function<void(Message&&)> handler) {
    to_controller_.handler = std::move(handler);
  }

  // ---- controller side ----
  void send_to_switch(Message message) { send(to_switch_, std::move(message)); }
  void set_switch_handler(std::function<void(Message&&)> handler) {
    to_switch_.handler = std::move(handler);
  }

  // ---- failure semantics ----
  /// Partition / heal the channel (both directions — one TCP session).
  /// Downing loses in-flight messages at their delivery time too.
  void set_up(bool up) { wire_.set_up(up); }
  [[nodiscard]] bool is_up() const { return wire_.is_up(); }

  /// Minimum spacing between message *deliveries* per direction — the
  /// serialization + processing budget of the management network and
  /// controller I/O loop. 0 (default) = the historical instantaneous
  /// pipe. This is what makes full-state resync time scale with the
  /// number of re-installed flows.
  void set_min_gap(sim::SimNanos gap_ns) { wire_.set_min_gap(gap_ns); }
  [[nodiscard]] sim::SimNanos min_gap() const { return wire_.min_gap(); }

  // sim::FaultPoint: partitions, and loss + jitter on both directions
  // ((0, 0) clears it).
  void fault_set_up(bool up) override { set_up(up); }
  void fault_impair(double loss_probability, sim::SimNanos extra_latency_ns) override {
    wire_.impair(loss_probability, extra_latency_ns);
  }

  /// Per-direction delivery accounting. sent == delivered + dropped_down
  /// + dropped_loss + dropped_no_handler + (messages still in flight).
  struct DirectionStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_down = 0;        // channel down at send or delivery
    std::uint64_t dropped_loss = 0;        // random impairment loss
    std::uint64_t dropped_no_handler = 0;  // arrived with no handler registered
  };
  [[nodiscard]] const DirectionStats& to_controller() const { return to_controller_.stats; }
  [[nodiscard]] const DirectionStats& to_switch() const { return to_switch_.stats; }

  [[nodiscard]] sim::SimNanos latency() const { return to_switch_.lane.latency_ns; }

 private:
  struct Direction {
    explicit Direction(sim::SimNanos latency) : lane{latency} {}
    sim::MessageWire::Lane lane;
    DirectionStats stats;
    std::function<void(Message&&)> handler;
  };

  void send(Direction& direction, Message&& message);

  sim::MessageWire wire_;
  Direction to_controller_;
  Direction to_switch_;
};

}  // namespace harmless::openflow
