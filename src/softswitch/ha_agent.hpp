// softswitch/ha_agent.hpp — the connection-state machinery beside one
// soft switch's datapath: the conntrack expiry sweep, checkpoints, and
// the active–standby HA pairing (replication, witness leases, fencing,
// warm failback).
//
// The agent sees only the switch's Pipeline, the FailoverSpec and
// FailoverStats the switch shares with it, and the switch's read-only
// crash flag; it never calls back into the switch, so it runs (and is
// tested) over a bare Pipeline. A pair is two agents with the same
// shard count and rules over one ReplicationChannel; the HA roles arm
// perpetual timers, so drive the engine with run_until().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "openflow/pipeline.hpp"
#include "sim/event.hpp"
#include "sim/witness.hpp"
#include "softswitch/replication.hpp"

namespace harmless::softswitch {

/// Reconnect backoff while the controller is lost: the first attempt
/// waits kReconnectBackoffInitialNs, each next one twice as long up to
/// kReconnectBackoffCapNs, each plus a uniform jitter of up to
/// kReconnectBackoffJitter * delay drawn from a seeded Rng
/// (deterministic; decorrelates fleets).
constexpr sim::SimNanos kReconnectBackoffInitialNs = 1'000'000;  // 1 ms
constexpr sim::SimNanos kReconnectBackoffCapNs = 8'000'000;      // 8 ms
constexpr double kReconnectBackoffJitter = 0.25;

/// Controller-loss behaviour (OF1.3 §6.4). Disabled by default
/// (echo_interval_ns == 0): no probes, no degraded modes, no backoff —
/// the plain datapath exactly. NOTE: enabling liveness probing makes the
/// echo timer self-perpetuating, so drive the engine with run_until(),
/// not run().
struct FailoverSpec {
  enum class Mode {
    kFailSecure,      // drop packet-ins; installed flows keep working
    kFailStandalone,  // fall back to MAC learning (OFPP_NORMAL)
  };
  Mode mode = Mode::kFailSecure;
  /// Liveness probe cadence; 0 disables the whole failover machinery.
  sim::SimNanos echo_interval_ns = 0;
  /// Consecutive unanswered probes before the controller is declared
  /// lost (so detection takes ~threshold * interval).
  int echo_miss_threshold = 3;
  /// Seeds the reconnect backoff jitter (kReconnectBackoffJitter).
  std::uint64_t seed = 0xfa11'0f3aULL;
  /// Post-resync warm-up: for `warmup_ns` after the resync barrier, at
  /// most `warmup_packet_in_budget` packet-ins are admitted (a governor
  /// protecting the just-restarted controller from the thundering herd
  /// of cold flows). 0 disables the window.
  sim::SimNanos warmup_ns = 0;
  std::uint64_t warmup_packet_in_budget = 32;
  /// Conntrack checkpoint cadence: every interval the switch snapshots
  /// all connection shards into an off-box image that fault_restart
  /// restores (see ConnTracker::capture/restore). 0 (default) = no
  /// checkpointing — a crash loses every connection. Independent of echo_interval_ns: a switch with
  /// no controller-liveness probing can still checkpoint. The timer is
  /// self-disarming (it stops once the connection table empties), so
  /// run() engines still drain.
  sim::SimNanos checkpoint_interval_ns = 0;
  /// Incremental checkpoints: each cadence serializes only the shards
  /// mutated since their last capture (ConnTracker dirty tracking);
  /// clean shards keep their previous image, and the host patches only
  /// the rows of a dirty shard's changed connections. Off (default) =
  /// every cadence re-serializes (rebuilds) every shard. The held image stays exact
  /// either way — any commit/refresh/kill dirties its shard — modulo
  /// entries that lazily expired unswept (they are filtered again at
  /// restore, so the slack is cosmetic).
  bool incremental_checkpoints = false;

  [[nodiscard]] bool enabled() const { return echo_interval_ns > 0; }
  [[nodiscard]] bool checkpointing() const { return checkpoint_interval_ns > 0; }
};

/// Everything the failover machinery observed, for tests and Table 8.
struct FailoverStats {
  std::uint64_t disconnects = 0;        // controller declared lost
  std::uint64_t reconnects = 0;         // sessions re-established
  std::uint64_t resyncs = 0;            // resync barriers observed
  std::uint64_t echo_sent = 0;
  std::uint64_t echo_replies = 0;
  std::uint64_t echo_misses = 0;        // probe intervals that elapsed unanswered
  std::uint64_t reconnect_attempts = 0; // backoff Hellos sent
  std::uint64_t packet_ins_dropped = 0; // suppressed while degraded (fail-secure)
  std::uint64_t warmup_packet_ins_dropped = 0;  // over-budget during warm-up
  std::uint64_t standalone_packets = 0; // served by the MAC-learning fallback
  std::uint64_t standalone_floods = 0;
  std::uint64_t flows_expired_degraded = 0;  // expiries while disconnected
  std::uint64_t flows_reinstalled = 0;  // adds between reconnect and resync barrier
  std::uint64_t crashes = 0;            // switch-level crash faults
  std::uint64_t restarts = 0;
  std::uint64_t dropped_restarting = 0; // ingress dropped while rebooting
  // Stateful HA (checkpoints, replication, takeover):
  std::uint64_t checkpoints = 0;        // whole-switch conntrack snapshots taken
  std::uint64_t ct_restored = 0;        // connections rebuilt by fault_restart
  std::uint64_t ct_restore_dropped = 0; // snapshot entries restore refused
  std::uint64_t takeovers = 0;          // standby promotions (HaAgent::takeover)
  std::uint64_t warm_resyncs = 0;       // resyncs completed with restored ct state
  // Split-brain-safe HA (witness leases, fencing, failback):
  std::uint64_t ha_fences = 0;             // fencing engaged (lease lost/lapsed)
  std::uint64_t ha_unfences = 0;           // fencing lifted (lease regained)
  std::uint64_t ha_lease_grants = 0;       // witness grants/renewals received
  std::uint64_t ha_lease_denials = 0;      // witness denials received
  std::uint64_t ha_promotions_denied = 0;  // standby takeovers blocked by the witness
  std::uint64_t ha_demotions = 0;          // active stepped down (newer epoch seen)
  std::uint64_t ha_failbacks = 0;          // warm resync streams completed
  std::uint64_t ha_failback_entries = 0;   // connections upserted by failback resync
  std::uint64_t ha_deltas_rejected_epoch = 0;  // stale-epoch deltas refused
  std::uint64_t checkpoint_entries = 0;    // entries serialized across cadences
  std::uint64_t checkpoint_bytes = 0;      // wire bytes serialized across cadences
  std::uint64_t checkpoint_shards_skipped = 0;  // clean shards reusing their image
  sim::SimNanos checkpoint_ns_billed = 0;  // serialization cost (reported, not injected)
  sim::SimNanos degraded_ns = 0;        // cumulative disconnected time
  sim::SimNanos last_disconnect_at = -1;
  sim::SimNanos last_reconnect_at = -1;
  sim::SimNanos last_resync_at = -1;    // Table 8 recovery = this - heal time
};

class HaAgent {
 public:
  enum class Role : std::uint8_t { kNone, kActive, kStandby };

  /// `owner` names the switch in errors; `crashed` is its reboot flag (a
  /// crashed box sends, checkpoints and applies nothing);
  /// `checkpoint_entry_ns` is DatapathCosts::checkpoint_entry_ns. Every
  /// reference must outlive the agent.
  HaAgent(sim::Engine& engine, std::string owner, openflow::Pipeline& pipeline,
          const FailoverSpec& spec, FailoverStats& stats, const bool& crashed,
          sim::SimNanos checkpoint_entry_ns)
      : engine_(engine),
        owner_(std::move(owner)),
        pipeline_(pipeline),
        spec_(spec),
        stats_(stats),
        crashed_(crashed),
        checkpoint_entry_ns_(checkpoint_entry_ns) {}
  // Timers, channels and conntrack sinks hold `this`.
  HaAgent(const HaAgent&) = delete;
  HaAgent& operator=(const HaAgent&) = delete;

  /// Arm the expiry sweep, then the checkpoint timer (each a no-op when
  /// already armed, disabled, or nothing is live) — the datapath calls
  /// this after traffic touched the connection table.
  void arm_ct_timers() {
    schedule_ct_sweep();
    schedule_ct_checkpoint();
  }
  /// Rebuild the connection table from the held checkpoint image (a
  /// restarting switch, before its control plane notices). Returns true
  /// when any connection was restored — the next resync is warm.
  bool restore_checkpoint();

  /// Attach this box's wire to the lease witness. Call before (or
  /// after) enable_active/standby; engages fail-closed fencing
  /// immediately, and from then on an active that cannot renew its
  /// lease fences itself (stops minting conntrack/NAT state) at lease
  /// expiry. The link must outlive the agent. Requires conntrack (the
  /// fence is a conntrack latch).
  void set_witness(sim::WitnessLink& link);

  /// Become the active of an HA pair: every conntrack shard's delta
  /// stream is published into `channel` (stamped with the fencing
  /// epoch), and a heartbeat fires every kHeartbeatIntervalNs (silent
  /// while crashed or fenced). `reverse` (standby→active direction),
  /// when given, is listened on for failback sync requests and the
  /// peer's snapshots/heartbeats after a role swap. Requires conntrack.
  void enable_active(ReplicationChannel& channel, ReplicationChannel* reverse = nullptr);

  /// Become the standby of an HA pair: apply replicated deltas into the
  /// local conntrack shards and monitor the active's heartbeats; after
  /// ReplicationSpec::takeover_miss_threshold silent intervals the
  /// standby promotes itself (with a witness attached, only after a
  /// lease grant). `reverse` is the standby→active channel this box
  /// publishes on once promoted (and begs for failback on when
  /// demoted). Requires conntrack.
  void enable_standby(ReplicationChannel& channel, ReplicationChannel* reverse = nullptr);

  /// Promote this box: demote every replicated connection to the
  /// transient timeout (ConnTracker::demote_all — flows that died
  /// while replication lagged must not linger as ESTABLISHED), become
  /// the publishing active, count the takeover, and fire the takeover
  /// handler. Idempotent; requires conntrack. NOTE: bypasses the
  /// witness — callers gating promotion on a lease go through the
  /// monitor path instead.
  void takeover();

  /// Observer the harness uses to re-steer traffic after a promotion.
  void set_takeover_handler(std::function<void()> handler) {
    takeover_handler_ = std::move(handler);
  }

  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] bool promoted() const { return promoted_; }
  [[nodiscard]] bool fenced() const { return fenced_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// The split-brain invariant's probe: true iff this box would mint
  /// new conntrack/NAT state right now. The chaos suite asserts at
  /// most one box of a pair satisfies this at any simulated time.
  [[nodiscard]] bool unfenced_active() const {
    return role_ == Role::kActive && !fenced_ && !crashed_;
  }

 private:
  void require_conntrack(const char* what) const;
  void schedule_ct_sweep();
  void schedule_ct_checkpoint();
  void schedule_heartbeat();
  void schedule_monitor();
  /// Install delta/heartbeat/snapshot/sync-request receivers on the
  /// channel this box listens on (standby: the forward channel;
  /// active: the reverse channel, when wired).
  void install_receivers(ReplicationChannel& channel);
  /// Install the epoch-stamping conntrack delta sinks onto repl_out_.
  void install_delta_sinks();
  /// Propagate the fencing latch to every conntrack shard (no
  /// accounting); set_fenced is the counted idempotent wrapper.
  void apply_fence(bool fenced);
  void set_fenced(bool fenced);
  /// Ask the witness for the lease in the current role: an active
  /// renews it, a standby whose monitor tripped asks to be promoted.
  void request_lease();
  /// The witness's answer to a request sent while in role `sent_as`.
  void on_lease_reply(Role sent_as, bool granted, std::uint64_t epoch,
                      sim::SimNanos expires_at);
  void schedule_lease_renew();
  /// Arm the self-fencing deadline: at `expires_at`, fence unless the
  /// lease was renewed past it in the meantime.
  void arm_fence_check(sim::SimNanos expires_at);
  /// Active that learned of a newer epoch: step down to standby,
  /// keep the fence up, and beg the new active for a warm resync.
  void demote(std::uint64_t epoch);
  /// A heartbeat, delta, snapshot or lease denial proved a newer epoch:
  /// adopt it, stepping down first if this box is the active.
  void adopt_epoch(std::uint64_t epoch);
  void on_heartbeat(std::uint64_t epoch);
  void on_delta(const ReplicationRecord& record);
  void on_snapshot(std::size_t shard, const openflow::CtSnapshot& snapshot,
                   std::uint64_t epoch);
  void on_sync_request();

  sim::Engine& engine_;
  std::string owner_;
  openflow::Pipeline& pipeline_;
  const FailoverSpec& spec_;
  FailoverStats& stats_;
  const bool& crashed_;
  const sim::SimNanos checkpoint_entry_ns_;

  bool ct_sweep_scheduled_ = false;
  // The checkpoint image lives *outside* the datapath state a crash
  // wipes — it models a snapshot persisted off-box (disk / peer),
  // which is the entire point of checkpointing. One per shard, patched
  // by each capture.
  std::vector<openflow::CtImage> checkpoint_;
  bool checkpoint_scheduled_ = false;

  ReplicationChannel* repl_out_ = nullptr;  // publish direction (this -> peer)
  ReplicationChannel* repl_in_ = nullptr;   // listen direction (peer -> this)
  bool heartbeat_armed_ = false;
  bool monitor_armed_ = false;
  bool promoted_ = false;
  bool heartbeat_seen_ = false;  // monitor only trips after first contact
  sim::SimNanos last_heartbeat_ = 0;
  std::function<void()> takeover_handler_;
  // Witness-arbitrated fencing + failback. All inert without
  // set_witness / a reverse channel — the witness-less pair exactly.
  sim::WitnessLink* witness_ = nullptr;
  Role role_ = Role::kNone;
  bool fenced_ = false;
  std::uint64_t epoch_ = 0;
  sim::SimNanos lease_expires_ = 0;
  bool renew_armed_ = false;
  bool failback_pending_ = false;  // demoted, waiting for the peer's stream
};

}  // namespace harmless::softswitch
