// softswitch/replication.hpp — the active→standby conntrack sync
// stream (the stateful-HA transport).
//
// An active SoftSwitch publishes every conntrack state *advance*
// (commit / established / closing / close — see CtDelta) into a
// ReplicationChannel; the standby peer applies them to its own shards
// so an established connection survives a takeover with its NAT
// binding intact. Each message crosses a sim::MessageWire
// (sim/wire.hpp) like the control channel's, and the channel is a
// sim::FaultPoint, so a FaultPlan can partition or impair replication
// independently of the data and control planes. Deltas coalesce for
// batch_interval_ns and depart as one message.
//
// Liveness rides the same pipe: the active publishes heartbeats every
// kHeartbeatIntervalNs (paused while it is crashed), and the standby's
// monitor trips a takeover after `takeover_miss_threshold` silent
// intervals. The channel only transports; the takeover decision lives
// in each switch's HaAgent (ha_agent.hpp: enable_standby / takeover).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "openflow/conntrack.hpp"
#include "sim/event.hpp"
#include "sim/faults.hpp"
#include "sim/wire.hpp"

namespace harmless::softswitch {

/// The active's liveness beacon cadence; the standby's monitor checks
/// for silence at the same cadence.
constexpr sim::SimNanos kHeartbeatIntervalNs = 500'000;

/// Replication tunables (EXPERIMENTS.md "Stateful HA knobs").
struct ReplicationSpec {
  sim::SimNanos latency_ns = 50'000;         // one-way sync latency (lag)
  sim::SimNanos batch_interval_ns = 100'000; // delta coalescing window; 0 = send-now
  double loss = 0.0;                         // per-batch loss probability
  sim::SimNanos jitter_ns = 0;               // uniform extra latency per batch
  std::uint64_t seed = 0x5ec0'17da'7aULL;
  std::uint32_t takeover_miss_threshold = 3;  // silent heartbeats before takeover
};

/// One replicated event, tagged with the conntrack shard it belongs to
/// (active and standby must agree on shard count — same RSS policy).
struct ReplicationRecord {
  std::size_t shard = 0;
  openflow::CtDelta delta;
};

class ReplicationChannel : public sim::FaultPoint {
 public:
  ReplicationChannel(sim::Engine& engine, ReplicationSpec spec = {})
      : engine_(engine),
        spec_(spec),
        wire_(engine, spec.seed, spec.loss, spec.jitter_ns),
        lane_{spec.latency_ns} {}

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
  void set_up(bool up) { wire_.set_up(up); }
  [[nodiscard]] bool is_up() const { return wire_.is_up(); }

  // sim::FaultPoint: partition and impairment via the injector. A
  // non-zero impairment replaces spec().loss / jitter_ns while it is
  // set; (0, 0) restores them.
  void fault_set_up(bool up) override { set_up(up); }
  void fault_impair(double loss_probability, sim::SimNanos extra_latency_ns) override {
    wire_.impair(loss_probability, extra_latency_ns);
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
  /// State-stream traffic (delta batches, snapshots, sync requests)
  /// shares the batch drop buckets; `sent` is the kind's own counter.
  sim::MessageWire::Tally state_tally(std::uint64_t& sent) {
    return {sent, stats_.batches_dropped_down, stats_.batches_dropped_loss};
  }

  sim::Engine& engine_;
  ReplicationSpec spec_;
  sim::MessageWire wire_;
  sim::MessageWire::Lane lane_;
  bool flush_scheduled_ = false;
  std::vector<ReplicationRecord> pending_;
  std::function<void(const ReplicationRecord&)> delta_handler_;
  std::function<void(std::uint64_t)> heartbeat_handler_;
  std::function<void(std::size_t, const openflow::CtSnapshot&, std::uint64_t)> snapshot_handler_;
  std::function<void()> sync_request_handler_;
  Stats stats_;
};

}  // namespace harmless::softswitch
