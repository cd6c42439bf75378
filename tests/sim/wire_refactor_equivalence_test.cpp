// MessageWire refactor equivalence: the control channel, the
// replication channel and the witness link, each sending through one
// sim::MessageWire, must behave exactly like the channels they
// replaced, which each decided a message's fate in their own code.
//
// The replaced ControlChannel, ReplicationChannel and WitnessLink are
// kept below verbatim (in namespace `before`; they share every value
// type with the live ones). Old and new run side by side on their own
// engines under the same seeded random schedules: control sends both
// ways, delta publishes, heartbeats, snapshots and sync requests, lease
// requests on two witness links, set_up flips (also while messages are
// in flight), fault_impair on and off, set_min_gap, handler attach and
// detach, and witness crash/restart. The test compares every delivery
// (time, order, payload) and every stats field.
//
// One behaviour changed on purpose and is kept out of the draws:
// clearing a replication impairment used to erase the configured
// ReplicationSpec loss and jitter (failover_test's
// ClearingAnImpairmentRestoresTheConfiguredLoss pins the fix). A
// schedule therefore either configures replication loss and jitter or
// impairs the channel, never both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "openflow/channel.hpp"
#include "sim/witness.hpp"
#include "softswitch/replication.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace before {

using openflow::Message;
using sim::Engine;
using sim::FaultPoint;
using sim::SimNanos;
using sim::Witness;
using sim::WitnessSpec;
using softswitch::ReplicationRecord;
using softswitch::ReplicationSpec;

// ---- openflow::ControlChannel, verbatim ---------------------------------

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

void ControlChannel::send(Message&& message, DirectionStats& stats,
                          const ChannelImpairment& impairment, sim::SimNanos& next_free,
                          std::function<void(Message&&)>& handler) {
  ++stats.sent;
  if (!up_) {
    ++stats.dropped_down;
    return;
  }
  if (impairment.loss > 0.0 && rng_.chance(impairment.loss)) {
    ++stats.dropped_loss;
    return;
  }
  // Serialization point: min_gap_ns_ spaces departures, so a burst of N
  // flow-mods takes N * gap to drain — the resync-time model. With the
  // default gap of 0 this collapses to depart-now, the historical
  // instantaneous pipe.
  const sim::SimNanos depart = std::max(engine_.now(), next_free);
  next_free = depart + min_gap_ns_;
  sim::SimNanos arrive = depart + latency_;
  if (impairment.jitter_ns > 0) {
    // Jitter can reorder deliveries relative to FIFO — deliberate: an
    // impaired management network gives no ordering guarantees either.
    arrive += static_cast<sim::SimNanos>(
        rng_.below(static_cast<std::uint64_t>(impairment.jitter_ns) + 1));
  }
  engine_.schedule_at(arrive, [this, &stats, &handler, msg = std::move(message)]() mutable {
    if (!up_) {
      ++stats.dropped_down;  // in flight when the partition hit
      return;
    }
    if (!handler) {
      ++stats.dropped_no_handler;  // receiver crashed / not attached
      return;
    }
    ++stats.delivered;
    handler(std::move(msg));
  });
}

void ControlChannel::send_to_controller(Message message) {
  send(std::move(message), to_controller_stats_, to_controller_impairment_, to_controller_free_,
       controller_handler_);
}

void ControlChannel::send_to_switch(Message message) {
  send(std::move(message), to_switch_stats_, to_switch_impairment_, to_switch_free_,
       switch_handler_);
}

// ---- softswitch::ReplicationChannel, verbatim --------------------------

class ReplicationChannel : public sim::FaultPoint {
 public:
  ReplicationChannel(sim::Engine& engine, ReplicationSpec spec = {})
      : engine_(engine), spec_(spec), rng_(spec.seed) {}

  // ---- active side ----
  /// Queue one delta; it departs with the current batch (after at most
  /// batch_interval_ns) and arrives latency + jitter later.
  void publish(std::size_t shard, const openflow::CtDelta& delta);
  /// Liveness beacon: sent immediately (never batched behind deltas —
  /// a sync backlog must not read as a dead active), same loss/lag.
  /// Carries the sender's fencing epoch so a peer holding a newer lease
  /// is recognizable from the beacon alone (0 = witness-less PR 9 HA).
  void publish_heartbeat(std::uint64_t epoch = 0);
  /// Warm-failback state stream: one shard's full snapshot, stamped
  /// with the sender's epoch. Unbatched (it is already a batch) but
  /// rides the same loss/lag/partition gates as a delta batch; its
  /// drops are attributed to the batch counters (it is state-stream
  /// traffic, unlike heartbeats).
  void publish_snapshot(std::size_t shard, openflow::CtSnapshot snapshot, std::uint64_t epoch);
  /// Resync beg from a demoted ex-active: asks the peer to stream its
  /// snapshots back. Same fate-sharing as a delta batch.
  void publish_sync_request();

  // ---- standby side ----
  void set_delta_handler(std::function<void(const ReplicationRecord&)> handler) {
    delta_handler_ = std::move(handler);
  }
  void set_heartbeat_handler(std::function<void(std::uint64_t epoch)> handler) {
    heartbeat_handler_ = std::move(handler);
  }
  void set_snapshot_handler(
      std::function<void(std::size_t shard, const openflow::CtSnapshot&, std::uint64_t epoch)>
          handler) {
    snapshot_handler_ = std::move(handler);
  }
  void set_sync_request_handler(std::function<void()> handler) {
    sync_request_handler_ = std::move(handler);
  }

  // ---- failure semantics ----
  /// Partition / heal the sync session. Downing loses queued and
  /// in-flight batches at their delivery time, like the control channel.
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }
  void set_loss(double loss) { spec_.loss = loss; }
  void set_lag(sim::SimNanos latency_ns, sim::SimNanos jitter_ns) {
    spec_.latency_ns = latency_ns;
    spec_.jitter_ns = jitter_ns;
  }

  // sim::FaultPoint: partition and impairment via the injector.
  void fault_set_up(bool up) override { set_up(up); }
  void fault_impair(double loss_probability, sim::SimNanos extra_latency_ns) override {
    spec_.loss = loss_probability;
    spec_.jitter_ns = extra_latency_ns;
  }

  struct Stats {
    std::uint64_t deltas_published = 0;
    std::uint64_t deltas_delivered = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t batches_delivered = 0;
    std::uint64_t batches_dropped_down = 0;  // partitioned at send or delivery
    std::uint64_t batches_dropped_loss = 0;  // random impairment loss
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_delivered = 0;
    // Heartbeat drops attributed separately from delta-batch drops: a
    // lossy-heartbeat-only impairment must be distinguishable from
    // state loss in Table 10/11 forensics.
    std::uint64_t heartbeats_dropped_down = 0;
    std::uint64_t heartbeats_dropped_loss = 0;
    // Warm-failback stream accounting.
    std::uint64_t sync_requests_sent = 0;
    std::uint64_t sync_requests_delivered = 0;
    std::uint64_t snapshots_sent = 0;
    std::uint64_t snapshots_delivered = 0;
    std::uint64_t snapshot_bytes = 0;  // wire bytes of delivered snapshots
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ReplicationSpec& spec() const { return spec_; }

 private:
  void flush();
  /// Departure-side gate shared by batches and heartbeats: false means
  /// the message died (down / loss) and was accounted to `down`/`loss`.
  bool depart(std::uint64_t& down, std::uint64_t& loss);
  [[nodiscard]] sim::SimNanos arrival_delay();

  sim::Engine& engine_;
  ReplicationSpec spec_;
  util::Rng rng_;
  bool up_ = true;
  bool flush_scheduled_ = false;
  std::vector<ReplicationRecord> pending_;
  std::function<void(const ReplicationRecord&)> delta_handler_;
  std::function<void(std::uint64_t)> heartbeat_handler_;
  std::function<void(std::size_t, const openflow::CtSnapshot&, std::uint64_t)> snapshot_handler_;
  std::function<void()> sync_request_handler_;
  Stats stats_;
};

bool ReplicationChannel::depart(std::uint64_t& down, std::uint64_t& loss) {
  if (!up_) {
    ++down;
    return false;
  }
  if (spec_.loss > 0.0 && rng_.chance(spec_.loss)) {
    ++loss;
    return false;
  }
  return true;
}

sim::SimNanos ReplicationChannel::arrival_delay() {
  sim::SimNanos delay = spec_.latency_ns;
  if (spec_.jitter_ns > 0) {
    delay += static_cast<sim::SimNanos>(
        rng_.below(static_cast<std::uint64_t>(spec_.jitter_ns) + 1));
  }
  return delay;
}

void ReplicationChannel::publish(std::size_t shard, const openflow::CtDelta& delta) {
  ++stats_.deltas_published;
  pending_.push_back(ReplicationRecord{shard, delta});
  if (spec_.batch_interval_ns == 0) {
    flush();
    return;
  }
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    engine_.schedule_after(spec_.batch_interval_ns, [this] {
      flush_scheduled_ = false;
      flush();
    });
  }
}

void ReplicationChannel::flush() {
  if (pending_.empty()) return;
  std::vector<ReplicationRecord> batch;
  batch.swap(pending_);
  ++stats_.batches_sent;
  if (!depart(stats_.batches_dropped_down, stats_.batches_dropped_loss)) return;
  engine_.schedule_after(arrival_delay(), [this, batch = std::move(batch)] {
    if (!up_) {
      ++stats_.batches_dropped_down;  // in flight when the partition hit
      return;
    }
    ++stats_.batches_delivered;
    if (!delta_handler_) return;
    for (const ReplicationRecord& record : batch) {
      ++stats_.deltas_delivered;
      delta_handler_(record);
    }
  });
}

void ReplicationChannel::publish_heartbeat(std::uint64_t epoch) {
  ++stats_.heartbeats_sent;
  if (!depart(stats_.heartbeats_dropped_down, stats_.heartbeats_dropped_loss)) return;
  engine_.schedule_after(arrival_delay(), [this, epoch] {
    if (!up_) {
      ++stats_.heartbeats_dropped_down;  // in flight when the partition hit
      return;
    }
    ++stats_.heartbeats_delivered;
    if (heartbeat_handler_) heartbeat_handler_(epoch);
  });
}

void ReplicationChannel::publish_snapshot(std::size_t shard, openflow::CtSnapshot snapshot,
                                          std::uint64_t epoch) {
  ++stats_.snapshots_sent;
  // State-stream traffic: drops share the batch buckets, unlike
  // heartbeats — a lost snapshot *is* lost state.
  if (!depart(stats_.batches_dropped_down, stats_.batches_dropped_loss)) return;
  engine_.schedule_after(arrival_delay(),
                         [this, shard, epoch, snapshot = std::move(snapshot)] {
                           if (!up_) {
                             ++stats_.batches_dropped_down;
                             return;
                           }
                           ++stats_.snapshots_delivered;
                           stats_.snapshot_bytes += snapshot.wire_bytes();
                           if (snapshot_handler_) snapshot_handler_(shard, snapshot, epoch);
                         });
}

void ReplicationChannel::publish_sync_request() {
  ++stats_.sync_requests_sent;
  if (!depart(stats_.batches_dropped_down, stats_.batches_dropped_loss)) return;
  engine_.schedule_after(arrival_delay(), [this] {
    if (!up_) {
      ++stats_.batches_dropped_down;
      return;
    }
    ++stats_.sync_requests_delivered;
    if (sync_request_handler_) sync_request_handler_();
  });
}

// ---- sim::WitnessLink, verbatim ------------------------------------------

/// One client's wire to the witness: request/response with rtt, failable
/// independently per client (partition just the active's view, or just
/// the standby's). Requests and responses in flight across a down
/// transition are lost, like every other channel here.
class WitnessLink : public FaultPoint {
 public:
  using GrantHandler = std::function<void(bool granted, std::uint64_t epoch,
                                          SimNanos expires_at)>;

  WitnessLink(Engine& engine, Witness& witness, std::uint64_t client_id)
      : engine_(engine), witness_(witness), client_id_(client_id) {}

  /// Fire a lease request; `handler` runs one rtt later with the
  /// witness's decision (or never, if either direction drops or the
  /// witness is down at arrival time).
  void request_lease(GrantHandler handler);

  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }
  void fault_set_up(bool up) override { up_ = up; }

  [[nodiscard]] Witness& witness() { return witness_; }
  [[nodiscard]] const WitnessSpec& spec() const { return witness_.spec(); }
  [[nodiscard]] std::uint64_t client_id() const { return client_id_; }

  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t requests_dropped = 0;   // link down at send or arrival
    std::uint64_t responses_dropped = 0;  // link down on the way back
    std::uint64_t granted = 0;
    std::uint64_t denied = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Engine& engine_;
  Witness& witness_;
  std::uint64_t client_id_;
  bool up_ = true;
  Stats stats_;
};

void WitnessLink::request_lease(GrantHandler handler) {
  ++stats_.requests_sent;
  if (!up_) {
    ++stats_.requests_dropped;
    return;
  }
  const SimNanos fwd = std::max<SimNanos>(witness_.spec().rtt_ns / 2, 1);
  // Response leg is never zero: a grant decision made at t can only be
  // *known* to the client strictly after t, which is what keeps an
  // expiry-fence at t and a new grant learned after t from overlapping.
  const SimNanos back = std::max<SimNanos>(witness_.spec().rtt_ns - fwd, 1);
  engine_.schedule_after(fwd, [this, handler = std::move(handler), back]() mutable {
    if (!up_ || witness_.crashed()) {
      ++stats_.requests_dropped;
      return;
    }
    const Witness::Decision decision = witness_.decide(client_id_, engine_.now());
    engine_.schedule_after(back, [this, handler = std::move(handler), decision] {
      if (!up_) {
        ++stats_.responses_dropped;
        return;
      }
      if (decision.granted)
        ++stats_.granted;
      else
        ++stats_.denied;
      handler(decision.granted, decision.epoch, decision.expires_at);
    });
  });
}

}  // namespace before

namespace {

using openflow::Message;
using sim::SimNanos;

/// What both sides are built from.
struct SideConfig {
  std::uint64_t seed = 1;  // the control channel's
  SimNanos control_latency = 50'000;
  softswitch::ReplicationSpec replication;
  sim::WitnessSpec witness;
};

/// One side of the comparison: a control channel, a replication
/// channel and two clients' witness links on their own engine, with
/// every delivery logged.
template <typename Control, typename Replication, typename Link>
struct Side {
  explicit Side(const SideConfig& config)
      : control(engine, config.control_latency, config.seed),
        repl(engine, config.replication),
        witness(config.witness),
        link_a(engine, witness, 1),
        link_b(engine, witness, 2) {}

  void log_event(const std::string& what) {
    log.push_back(std::to_string(engine.now()) + " " + what);
  }

  std::function<void(Message&&)> control_logger(const std::string& direction) {
    return [this, direction](Message&& message) {
      const auto* barrier = std::get_if<openflow::BarrierRequestMsg>(&message);
      log_event(direction + " xid=" + std::to_string(barrier != nullptr ? barrier->xid : 0));
    };
  }

  void attach(int handler, bool on) {
    switch (handler) {
      case 0:
        control.set_switch_handler(on ? control_logger("to_switch") : nullptr);
        break;
      case 1:
        control.set_controller_handler(on ? control_logger("to_controller") : nullptr);
        break;
      case 2:
        if (on)
          repl.set_delta_handler([this](const softswitch::ReplicationRecord& record) {
            log_event("delta shard=" + std::to_string(record.shard) +
                      " id=" + std::to_string(record.delta.epoch));
          });
        else
          repl.set_delta_handler(nullptr);
        break;
      case 3:
        if (on)
          repl.set_heartbeat_handler(
              [this](std::uint64_t epoch) { log_event("heartbeat " + std::to_string(epoch)); });
        else
          repl.set_heartbeat_handler(nullptr);
        break;
      case 4:
        if (on)
          repl.set_snapshot_handler([this](std::size_t shard, const openflow::CtSnapshot& snapshot,
                                           std::uint64_t epoch) {
            log_event("snapshot shard=" + std::to_string(shard) +
                      " id=" + std::to_string(snapshot.taken_at) +
                      " entries=" + std::to_string(snapshot.entries.size()) +
                      " epoch=" + std::to_string(epoch));
          });
        else
          repl.set_snapshot_handler(nullptr);
        break;
      default:
        if (on)
          repl.set_sync_request_handler([this] { log_event("sync_request"); });
        else
          repl.set_sync_request_handler(nullptr);
        break;
    }
  }

  void request(Link& link, const std::string& name) {
    link.request_lease([this, name](bool granted, std::uint64_t epoch, SimNanos expires_at) {
      log_event(name + (granted ? " granted" : " denied") + " epoch=" + std::to_string(epoch) +
                " expires=" + std::to_string(expires_at));
    });
  }

  sim::Engine engine;
  Control control;
  Replication repl;
  sim::Witness witness;
  Link link_a;
  Link link_b;
  std::vector<std::string> log;
};

using OldSide = Side<before::ControlChannel, before::ReplicationChannel, before::WitnessLink>;
using NewSide = Side<openflow::ControlChannel, softswitch::ReplicationChannel, sim::WitnessLink>;

/// One scheduled action; `apply` runs it on either side.
struct Action {
  SimNanos at = 0;
  int kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double loss = 0.0;
  SimNanos jitter = 0;

  template <typename S>
  void apply(S& side) const {
    switch (kind) {
      case 0:
        side.control.send_to_switch(openflow::BarrierRequestMsg{static_cast<std::uint32_t>(a)});
        break;
      case 1:
        side.control.send_to_controller(
            openflow::BarrierRequestMsg{static_cast<std::uint32_t>(a)});
        break;
      case 2:
        side.control.set_up(a != 0);
        break;
      case 3:
        side.control.fault_impair(loss, jitter);
        break;
      case 4:
        side.control.set_min_gap(static_cast<SimNanos>(a));
        break;
      case 5:
        side.attach(static_cast<int>(a), b != 0);
        break;
      case 6: {
        openflow::CtDelta delta;
        delta.epoch = a;  // the delta's identity in the log
        side.repl.publish(static_cast<std::size_t>(b), delta);
        break;
      }
      case 7:
        side.repl.publish_heartbeat(a);
        break;
      case 8: {
        openflow::CtSnapshot snapshot;
        snapshot.taken_at = static_cast<SimNanos>(a);
        snapshot.entries.resize(b % 5);
        side.repl.publish_snapshot(static_cast<std::size_t>(b), std::move(snapshot), a + 1);
        break;
      }
      case 9:
        side.repl.publish_sync_request();
        break;
      case 10:
        side.repl.set_up(a != 0);
        break;
      case 11:
        side.repl.fault_impair(loss, jitter);
        break;
      case 12:
        side.request(a == 0 ? side.link_a : side.link_b, a == 0 ? "lease_a" : "lease_b");
        break;
      case 13:
        (a == 0 ? side.link_a : side.link_b).set_up(b != 0);
        break;
      default:
        if (a != 0)
          side.witness.fault_crash();
        else
          side.witness.fault_restart();
        break;
    }
  }
};

struct Schedule {
  SideConfig config;
  std::vector<Action> actions;
};

/// A random schedule over 20 ms. Sends dominate; every fault verb shows
/// up often enough that partitions catch messages in flight, loss and
/// jitter overlap, and pacing spaces bursts.
Schedule random_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  Schedule schedule;
  schedule.config.seed = 0xabc0 + seed;
  schedule.config.control_latency = 10'000 + static_cast<SimNanos>(rng.below(90'000));
  softswitch::ReplicationSpec& spec = schedule.config.replication;
  spec.seed = 0x5e00 + seed;
  spec.latency_ns = 5'000 + static_cast<SimNanos>(rng.below(100'000));
  spec.batch_interval_ns = seed % 2 == 0 ? 0 : 50'000;
  // Configured replication loss/jitter or impairments, never both.
  const bool configured_loss = seed % 4 < 2;
  if (configured_loss) {
    spec.loss = 0.2;
    spec.jitter_ns = 40'000;
  }
  schedule.config.witness.rtt_ns =
      seed % 3 == 0 ? 1 : 50'000 + static_cast<SimNanos>(rng.below(100'000));
  schedule.config.witness.lease_validity_ns = 1'000'000;

  constexpr SimNanos kHorizon = 20'000'000;
  std::uint64_t next_id = 1;
  for (int i = 0; i < 1'500; ++i) {
    Action action;
    action.at = static_cast<SimNanos>(rng.below(kHorizon));
    const std::uint64_t roll = rng.below(100);
    if (roll < 18) {
      action.kind = 0;
      action.a = next_id++;
    } else if (roll < 30) {
      action.kind = 1;
      action.a = next_id++;
    } else if (roll < 34) {
      action.kind = 2;
      action.a = rng.below(3) != 0;  // mostly up
    } else if (roll < 37) {
      action.kind = 3;
      if (rng.below(2) != 0) {
        action.loss = rng.uniform() * 0.6;
        action.jitter = static_cast<SimNanos>(rng.below(3) == 0 ? 0 : rng.below(80'000));
      }
    } else if (roll < 39) {
      action.kind = 4;
      action.a = rng.below(3) == 0 ? 0 : rng.below(20'000);
    } else if (roll < 43) {
      action.kind = 5;
      action.a = rng.below(6);
      action.b = rng.below(4) != 0;  // mostly attach
    } else if (roll < 58) {
      action.kind = 6;
      action.a = next_id++;
      action.b = rng.below(4);
    } else if (roll < 66) {
      action.kind = 7;
      action.a = next_id++;
    } else if (roll < 70) {
      action.kind = 8;
      action.a = next_id++;
      action.b = rng.below(8);
    } else if (roll < 73) {
      action.kind = 9;
    } else if (roll < 77) {
      action.kind = 10;
      action.a = rng.below(3) != 0;
    } else if (roll < 80) {
      action.kind = configured_loss ? 9 : 11;
      if (rng.below(2) != 0) {
        action.loss = rng.uniform() * 0.6;
        action.jitter = static_cast<SimNanos>(rng.below(3) == 0 ? 0 : rng.below(80'000));
      }
    } else if (roll < 92) {
      action.kind = 12;
      action.a = rng.below(2);
    } else if (roll < 97) {
      action.kind = 13;
      action.a = rng.below(2);
      action.b = rng.below(3) != 0;
    } else {
      action.kind = 14;
      action.a = rng.below(2);
    }
    schedule.actions.push_back(action);
  }
  return schedule;
}

template <typename S>
void run(S& side, const Schedule& schedule) {
  for (int handler = 0; handler < 6; ++handler) side.attach(handler, true);
  for (const Action& action : schedule.actions)
    side.engine.schedule_at(action.at, [&side, action] { action.apply(side); });
  side.engine.run();
}

void expect_same_control(const before::ControlChannel::DirectionStats& old_stats,
                         const openflow::ControlChannel::DirectionStats& new_stats,
                         const std::string& direction) {
  SCOPED_TRACE(direction);
  EXPECT_EQ(old_stats.sent, new_stats.sent);
  EXPECT_EQ(old_stats.delivered, new_stats.delivered);
  EXPECT_EQ(old_stats.dropped_down, new_stats.dropped_down);
  EXPECT_EQ(old_stats.dropped_loss, new_stats.dropped_loss);
  EXPECT_EQ(old_stats.dropped_no_handler, new_stats.dropped_no_handler);
  // Drained: every message has one recorded fate.
  EXPECT_EQ(new_stats.sent, new_stats.delivered + new_stats.dropped_down +
                                new_stats.dropped_loss + new_stats.dropped_no_handler);
}

class WireRefactorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRefactorEquivalence, SameDeliveriesAndStatsUnderRandomSchedules) {
  const Schedule schedule = random_schedule(GetParam());
  OldSide old_side(schedule.config);
  NewSide new_side(schedule.config);
  run(old_side, schedule);
  run(new_side, schedule);

  // Deliveries: time, order and payload.
  ASSERT_EQ(old_side.log.size(), new_side.log.size());
  for (std::size_t i = 0; i < old_side.log.size(); ++i)
    ASSERT_EQ(old_side.log[i], new_side.log[i]) << "delivery " << i;
  EXPECT_EQ(old_side.engine.now(), new_side.engine.now());
  EXPECT_EQ(old_side.engine.events_dispatched(), new_side.engine.events_dispatched());

  expect_same_control(old_side.control.to_switch(), new_side.control.to_switch(), "to_switch");
  expect_same_control(old_side.control.to_controller(), new_side.control.to_controller(),
                      "to_controller");
  EXPECT_EQ(old_side.control.is_up(), new_side.control.is_up());
  EXPECT_EQ(old_side.control.min_gap(), new_side.control.min_gap());

  const auto& o = old_side.repl.stats();
  const auto& n = new_side.repl.stats();
  EXPECT_EQ(o.deltas_published, n.deltas_published);
  EXPECT_EQ(o.deltas_delivered, n.deltas_delivered);
  EXPECT_EQ(o.batches_sent, n.batches_sent);
  EXPECT_EQ(o.batches_delivered, n.batches_delivered);
  EXPECT_EQ(o.batches_dropped_down, n.batches_dropped_down);
  EXPECT_EQ(o.batches_dropped_loss, n.batches_dropped_loss);
  EXPECT_EQ(o.heartbeats_sent, n.heartbeats_sent);
  EXPECT_EQ(o.heartbeats_delivered, n.heartbeats_delivered);
  EXPECT_EQ(o.heartbeats_dropped_down, n.heartbeats_dropped_down);
  EXPECT_EQ(o.heartbeats_dropped_loss, n.heartbeats_dropped_loss);
  EXPECT_EQ(o.sync_requests_sent, n.sync_requests_sent);
  EXPECT_EQ(o.sync_requests_delivered, n.sync_requests_delivered);
  EXPECT_EQ(o.snapshots_sent, n.snapshots_sent);
  EXPECT_EQ(o.snapshots_delivered, n.snapshots_delivered);
  EXPECT_EQ(o.snapshot_bytes, n.snapshot_bytes);
  EXPECT_EQ(old_side.repl.is_up(), new_side.repl.is_up());
  // Drained: the state stream and the heartbeats each conserve.
  EXPECT_EQ(n.batches_sent + n.snapshots_sent + n.sync_requests_sent,
            n.batches_delivered + n.snapshots_delivered + n.sync_requests_delivered +
                n.batches_dropped_down + n.batches_dropped_loss);
  EXPECT_EQ(n.heartbeats_sent,
            n.heartbeats_delivered + n.heartbeats_dropped_down + n.heartbeats_dropped_loss);

  const std::pair<const before::WitnessLink*, const sim::WitnessLink*> links[] = {
      {&old_side.link_a, &new_side.link_a}, {&old_side.link_b, &new_side.link_b}};
  for (const auto& [old_link, new_link] : links) {
    const auto& ol = old_link->stats();
    const auto& nl = new_link->stats();
    EXPECT_EQ(ol.requests_sent, nl.requests_sent);
    EXPECT_EQ(ol.requests_dropped, nl.requests_dropped);
    EXPECT_EQ(ol.responses_dropped, nl.responses_dropped);
    EXPECT_EQ(ol.granted, nl.granted);
    EXPECT_EQ(ol.denied, nl.denied);
    EXPECT_EQ(old_link->is_up(), new_link->is_up());
    EXPECT_EQ(nl.requests_sent, nl.responses_sent + nl.requests_dropped);
    EXPECT_EQ(nl.responses_sent, nl.granted + nl.denied + nl.responses_dropped);
  }
  const sim::Witness::Stats& ow = old_side.witness.stats();
  const sim::Witness::Stats& nw = new_side.witness.stats();
  EXPECT_EQ(ow.grants, nw.grants);
  EXPECT_EQ(ow.renewals, nw.renewals);
  EXPECT_EQ(ow.denials, nw.denials);
  EXPECT_EQ(ow.epoch_bumps, nw.epoch_bumps);
  EXPECT_EQ(ow.crashes, nw.crashes);

  // The schedule reached every fate it is meant to exercise.
  const auto& ts = new_side.control.to_switch();
  EXPECT_GT(ts.delivered, 0u);
  EXPECT_GT(ts.dropped_down, 0u);
  EXPECT_GT(ts.dropped_loss, 0u);
  EXPECT_GT(n.batches_dropped_down, 0u);
  EXPECT_GT(n.batches_dropped_loss, 0u);
  EXPECT_GT(n.deltas_delivered, 0u);
  EXPECT_GT(new_side.link_a.stats().granted + new_side.link_b.stats().granted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRefactorEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace harmless
