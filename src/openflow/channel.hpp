// openflow/channel.hpp — the control channel between a datapath and
// its controller.
//
// In the paper SS_2 connects to the SDN controller over TCP; here the
// transport is the event engine with a configurable one-way latency
// (management networks are not free) and strictly FIFO delivery per
// direction — which is what the barrier semantics rely on.
//
// The channel is failable (PR 7): it has up/down state (a management-
// network partition loses everything handed over *and* everything in
// flight), per-direction message loss probability and latency jitter
// drawn from a seeded util::Rng, and an optional per-message minimum
// gap modelling TCP + controller serialization (what makes a 10^3-flow
// resync take wall time instead of arriving as one instantaneous
// blob). Every loss is attributed: downed-channel drops, random loss,
// and messages that arrived while no handler was registered (a crashed
// controller's receive window) are counted separately per direction —
// nothing is silently lost. With the channel up and no impairment
// configured the Rng is never consulted and delivery is byte-identical
// to the infallible PR-6 channel.
#pragma once

#include <cstdint>
#include <functional>

#include "openflow/messages.hpp"
#include "sim/event.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {

/// One direction's impairment: per-message loss probability plus up to
/// `jitter_ns` of uniform extra latency per message.
struct ChannelImpairment {
  double loss = 0.0;
  sim::SimNanos jitter_ns = 0;

  [[nodiscard]] bool active() const { return loss > 0.0 || jitter_ns > 0; }
};

class ControlChannel : public sim::FaultPoint {
 public:
  ControlChannel(sim::Engine& engine, sim::SimNanos one_way_latency = 50'000 /*50 us*/,
                 std::uint64_t seed = 0xc0a7'0150'0fULL)
      : engine_(engine), latency_(one_way_latency), rng_(seed) {}

  // ---- datapath side ----
  void send_to_controller(Message message);
  void set_controller_handler(std::function<void(Message&&)> handler) {
    controller_handler_ = std::move(handler);
  }
  [[nodiscard]] bool has_controller_handler() const {
    return static_cast<bool>(controller_handler_);
  }

  // ---- controller side ----
  void send_to_switch(Message message);
  void set_switch_handler(std::function<void(Message&&)> handler) {
    switch_handler_ = std::move(handler);
  }

  // ---- failure semantics ----
  /// Partition / heal the channel (both directions — one TCP session).
  /// Downing loses in-flight messages at their delivery time too.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }

  /// Per-direction loss + jitter. (default-constructed = pristine).
  void set_impairment(ChannelImpairment to_controller, ChannelImpairment to_switch) {
    to_controller_impairment_ = to_controller;
    to_switch_impairment_ = to_switch;
  }

  /// Minimum spacing between message *deliveries* per direction — the
  /// serialization + processing budget of the management network and
  /// controller I/O loop. 0 (default) = the historical instantaneous
  /// pipe. This is what makes full-state resync time scale with the
  /// number of re-installed flows.
  void set_min_gap(sim::SimNanos gap_ns) { min_gap_ns_ = gap_ns; }
  [[nodiscard]] sim::SimNanos min_gap() const { return min_gap_ns_; }

  // sim::FaultPoint: partitions and impairments via the injector.
  void fault_set_up(bool up) override { set_up(up); }
  void fault_impair(double loss_probability, sim::SimNanos extra_latency_ns) override {
    set_impairment(ChannelImpairment{loss_probability, extra_latency_ns},
                   ChannelImpairment{loss_probability, extra_latency_ns});
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
  [[nodiscard]] const DirectionStats& to_controller() const { return to_controller_stats_; }
  [[nodiscard]] const DirectionStats& to_switch() const { return to_switch_stats_; }

  [[nodiscard]] sim::SimNanos latency() const { return latency_; }

 private:
  void send(Message&& message, DirectionStats& stats, const ChannelImpairment& impairment,
            sim::SimNanos& next_free, std::function<void(Message&&)>& handler);

  sim::Engine& engine_;
  sim::SimNanos latency_;
  sim::SimNanos min_gap_ns_ = 0;
  bool up_ = true;
  util::Rng rng_;
  ChannelImpairment to_controller_impairment_;
  ChannelImpairment to_switch_impairment_;
  sim::SimNanos to_controller_free_ = 0;
  sim::SimNanos to_switch_free_ = 0;
  std::function<void(Message&&)> controller_handler_;
  std::function<void(Message&&)> switch_handler_;
  DirectionStats to_controller_stats_;
  DirectionStats to_switch_stats_;
};

}  // namespace harmless::openflow
