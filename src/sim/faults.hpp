// sim/faults.hpp — the deterministic fault-injection layer.
//
// A FaultPlan is a declarative schedule of failures — link flaps,
// control-channel partitions, loss/latency impairments, controller or
// switch crash+restart windows — and the FaultInjector compiles it
// into ordinary engine events against *registered* targets. Nothing
// here knows about OpenFlow or soft switches: anything that can fail
// implements the FaultPoint seam below and registers under a name —
// data links (sim::Channel), the message wires (ControlChannel,
// ReplicationChannel, WitnessLink, each carried by a sim::MessageWire,
// sim/wire.hpp, which applies partitions and impairments), switches,
// controllers and the witness.
//
// Determinism is the whole point: a plan's random helpers draw from a
// util::Rng seeded by FaultPlan::seed at *build* time, the compiled
// events ride the engine's (at, seq) total order like any other event,
// and no wall-clock or global randomness exists anywhere — the same
// plan against the same fabric replays bit-identically, which is what
// the chaos property suite (tests/property/fault_equivalence_test.cpp)
// asserts. An empty plan arms nothing and perturbs nothing: a fabric
// with a registered injector and no events is byte-identical to one
// without the injector.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace harmless::sim {

/// The seam a failable component exposes to the injector. Default
/// implementations ignore verbs that make no sense for the component
/// (a wire cannot "crash"; a switch cannot "lose 10% of messages").
class FaultPoint {
 public:
  virtual ~FaultPoint() = default;
  /// Partition / restore (links, control channels). Down means every
  /// message or frame handed over — or in flight — is lost.
  virtual void fault_set_up(bool up) { (void)up; }
  /// Transient impairment: per-message loss probability plus up to
  /// `extra_latency_ns` of uniform added latency. (0, 0) clears it.
  virtual void fault_impair(double loss_probability, SimNanos extra_latency_ns) {
    (void)loss_probability;
    (void)extra_latency_ns;
  }
  /// Hard crash: the component loses its volatile state and stops
  /// responding until fault_restart().
  virtual void fault_crash() {}
  /// Restart complete: the component boots back up (and, for OpenFlow
  /// components, re-handshakes / resyncs on its own).
  virtual void fault_restart() {}
};

/// One compiled fault action at an absolute simulated time.
struct FaultEvent {
  enum class Kind : std::uint8_t { kDown, kUp, kImpair, kCrash, kRestart };
  SimNanos at = 0;
  Kind kind = Kind::kDown;
  std::string target;
  double loss = 0.0;             // kImpair
  SimNanos extra_latency = 0;    // kImpair
};

/// A declarative failure schedule. Build it with the fluent helpers
/// (each returns *this) or push FaultEvents directly; the random
/// helpers expand deterministically from `seed` at call time.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Take `target` down at `at`; with duration > 0 bring it back up at
  /// `at + duration` automatically.
  FaultPlan& down(const std::string& target, SimNanos at, SimNanos duration = 0);
  FaultPlan& up(const std::string& target, SimNanos at);

  /// Impair `target` (loss probability + latency jitter) from `at`;
  /// with duration > 0 the impairment clears at `at + duration`.
  FaultPlan& impair(const std::string& target, SimNanos at, double loss,
                    SimNanos extra_latency, SimNanos duration = 0);

  /// Crash `target` at `at`; with duration > 0 it restarts at
  /// `at + duration` (0 = stays dead).
  FaultPlan& crash(const std::string& target, SimNanos at, SimNanos duration = 0);
  FaultPlan& restart(const std::string& target, SimNanos at);

  /// `count` random outages of `target` inside [window_begin,
  /// window_end): start times uniform in the window, durations
  /// exponential with mean `mean_duration` (clamped to at least 1 ns
  /// and to the window end). Deterministic from `seed` and the number
  /// of random events already planned.
  FaultPlan& random_outages(const std::string& target, std::size_t count,
                            SimNanos window_begin, SimNanos window_end,
                            SimNanos mean_duration);

  /// Like random_outages but crash+restart windows (controller or
  /// switch restarts) instead of partitions.
  FaultPlan& random_crashes(const std::string& target, std::size_t count,
                            SimNanos window_begin, SimNanos window_end,
                            SimNanos mean_duration);

 private:
  std::uint64_t random_draws_ = 0;  // offsets the seed stream per helper call
};

/// Compiles FaultPlans into engine events against registered targets.
/// Registering is cheap and armless; only arm() schedules anything.
class FaultInjector {
 public:
  explicit FaultInjector(Engine& engine) : engine_(engine) {}

  /// Register any FaultPoint (data link, message channel, switch,
  /// controller) under `name`. Call repeatedly to group several
  /// *distinct* points (both directions of a duplex link, every leg of
  /// a bonded trunk) under one target name — a plan event hits them
  /// all, in registration order. Re-registering the same point under
  /// the same name throws util::ConfigError — a silently doubled target
  /// would make a chaos schedule lie.
  void register_point(const std::string& name, FaultPoint& point);

  [[nodiscard]] bool has_target(const std::string& name) const {
    return points_.count(name) != 0;
  }

  /// Every registered target name, in deterministic sorted order.
  /// Chaos schedules over auto-registered topologies draw from this
  /// instead of hard-coding names.
  [[nodiscard]] std::vector<std::string> target_names() const {
    std::vector<std::string> names;
    names.reserve(points_.size());
    for (const auto& [name, points] : points_) names.push_back(name);
    return names;
  }

  /// Compile `plan` into engine events (scheduled at their absolute
  /// times, clamped to now like every event). Unknown targets throw
  /// util::ConfigError — a chaos schedule that silently does nothing
  /// is worse than a crash.
  void arm(const FaultPlan& plan);

  struct Stats {
    std::uint64_t armed = 0;  // events compiled and scheduled
    std::uint64_t fired = 0;  // events whose time has come
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void apply(const FaultEvent& event);

  Engine& engine_;
  std::map<std::string, std::vector<FaultPoint*>> points_;
  Stats stats_;
};

}  // namespace harmless::sim
