// softswitch/soft_switch.hpp — the x86 software switch datapath.
//
// One SoftSwitch is one software-switch instance of the paper (SS_1 or
// SS_2): an OF1.3 pipeline bound to ports. OpenFlow port n corresponds
// to sim port index n-1. A port is either
//   * wired  — attached to a sim Channel (a NIC + cable), or
//   * patch  — bound to a port of another SoftSwitch in the same box
//     (the SS_1<->SS_2 interconnect of Fig. 1): delivery is a queue
//     hand-off that costs kPatchNs of compute instead of wire time.
//
// The datapath is two-tier cached (openflow/flow_cache.hpp): every
// packet consults the microflow/megaflow cache first and only falls
// back to the full multi-table traversal on a miss, which then installs
// the learned megaflow. Flow-mods, group mods, entry expiry and port
// state changes invalidate cached entries through a shared epoch.
//
// The datapath is burst-oriented (OVS/DPDK style) with one ingress
// path, service_burst(): the service loop drains up to `burst_size`
// packets per gulp (default 32) and runs them through
// Pipeline::run_burst — probe the cache for the whole burst, replay
// hits grouped by megaflow (one replay setup per group), slow-path only
// the residue. A budget-1 burst (burst_size 1, or an adaptive budget at
// light load) is the per-packet datapath, the batching ablation
// baseline: it runs Pipeline::run_burst_sequential and pays no poll
// sweep and no replay setup.
//
// The datapath is multi-core capable (IngressSpec::cores): each worker
// core owns a subset of the per-port RX queues (RSS-hash steered, pin
// map override), its own BurstScheduler instance, and its own
// flow-cache *shard* (Pipeline cache shard = core index) — microflow
// map, classifier subtables, rank order and CLOCK hand are all
// per-core, so a shard's probe order tracks exactly the skew its own
// queues carry and no cross-core cache state exists beyond the one
// read-mostly invalidation epoch. Every service step each backlogged
// core drains one burst; per-core busy nanoseconds accrue separately
// and simulated time advances by the step makespan (see sim/node.hpp).
// Steering bills DatapathCosts::rss_hash_ns per packet (multi-core
// only); cores=1 is bit-exact with the single-core datapath.
//
// The datapath charges simulated nanoseconds accordingly, all through
// DatapathCosts::bill_ns: per burst, a fixed rx/tx overhead plus a
// smaller per-packet marginal (batching amortizes the fixed part — the
// super-linear gain real switches see), a replay setup per distinct
// megaflow group, and per packet either the flat cache-hit cost plus
// replayed actions or the full parse/lookup/action bill the pipeline
// reports plus the megaflow-insert cost (only when a megaflow was
// actually installed). Defaults model an ESwitch/DPDK-class switch
// (~10 Mpps/core simple pipelines, per-packet); the legacy ASIC in
// legacy_switch.hpp is faster per packet but dumb — that contrast is
// exactly the trade HARMLESS exploits. All knobs are documented in
// EXPERIMENTS.md.
//
// The control side implements the OF session: hello/features, flow and
// group mods with error replies, packet-in/out, barriers, flow stats,
// flow-removed on expiry, port-status on failure injection.
//
// The control side is failable (PR 7). With a FailoverSpec enabled the
// switch probes controller liveness with echo requests; after
// `echo_miss_threshold` consecutive unanswered probes it declares the
// controller lost and enters one of the two OF1.3 §6.4 degraded modes:
//   * fail-secure     — packet-ins are dropped; installed flows keep
//                       forwarding and keep expiring.
//   * fail-standalone — the datapath falls back to legacy MAC
//                       learning/flooding (the OFPP_NORMAL function,
//                       reusing legacy::MacTable), bypassing the
//                       OpenFlow pipeline entirely.
// While lost it retries the session with capped exponential backoff
// (deterministic seeded jitter). The controller answers a reconnect
// Hello with a features handshake; the switch then bumps the flow-
// cache epoch, flushes standalone MACs, and counts re-installed flows
// until the controller's resync barrier arrives — after which an
// optional warm-up window rate-limits packet-ins while the control
// plane refills its own state. All of it is opt-in: the default
// FailoverSpec is disabled and the datapath is bit-exact with PR 6.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "legacy/mac_table.hpp"
#include "openflow/channel.hpp"
#include "openflow/messages.hpp"
#include "openflow/pipeline.hpp"
#include "sim/faults.hpp"
#include "sim/node.hpp"
#include "sim/witness.hpp"
#include "softswitch/replication.hpp"
#include "util/rng.hpp"

namespace harmless::softswitch {

struct DatapathCosts {
  /// NIC rx/tx: one poll-mode rx burst + tx burst costs a fixed setup
  /// plus a small marginal per packet. A per-packet (budget-1) burst
  /// pays both — 55 ns of rx/tx with the defaults — and nothing else
  /// burst-level: no poll sweep, no replay setup.
  sim::SimNanos rx_tx_burst_ns = 40;  // fixed per rx/tx burst call
  sim::SimNanos rx_tx_pkt_ns = 15;    // marginal per packet within a burst
  /// Poll-mode rx sweep: every batched service burst polls every
  /// per-port RX queue the serving core owns once, empty or not — port
  /// density costs cycles even when the ports are silent (charged per
  /// queue per burst; a per-packet burst sweeps nothing).
  sim::SimNanos rx_poll_ns = 2;
  /// RSS steering: one hash per packet deciding which worker core's
  /// queue it lands in (what a NIC's RSS indirection table computes
  /// per received frame). Charged per packet only on a multi-core
  /// datapath — with one core there is no steering decision to make,
  /// which keeps cores=1 bit-exact with the single-core bill.
  sim::SimNanos rss_hash_ns = 3;
  sim::SimNanos patch_ns = 20;   // patch-port hand-off (one enqueue)
  sim::SimNanos clone_ns = 15;   // per extra copy on flood/group ALL
  /// Flow-cache fast path: one microflow hash probe + key validation,
  /// charged *instead of* the pipeline's parse + lookup bill.
  sim::SimNanos cache_hit_ns = 10;
  /// Each megaflow candidate the tier-2 wildcard scan examines (a
  /// masked compare, cheaper than a full rule comparison) — only
  /// charged when the linear-scan ablation is on; microflow hits scan
  /// nothing.
  sim::SimNanos cache_scan_ns = 2;
  /// Each hashed subtable probe of the dpcls-style tier-2 classifier
  /// (one masked-key hash + one bucket lookup — costlier than a single
  /// masked compare, but paid per *distinct mask*, not per entry).
  sim::SimNanos cache_subtable_ns = 4;
  /// Megaflow learning on a slow-path miss that actually installed an
  /// entry (build + install); punting misses decline to install and
  /// are not charged (PipelineResult::cache_installed).
  sim::SimNanos cache_insert_ns = 30;
  /// Fetching one cached action program + setting up its replay
  /// context. The batched datapath pays this once per distinct
  /// megaflow group in a burst — the amortization elephants buy (and
  /// what polling for a single packet costs: a budget-32 burst of one
  /// still pays it, a per-packet burst does not).
  sim::SimNanos replay_setup_ns = 12;
  /// Fail-standalone MAC-learning datapath, per packet (learn + FDB
  /// lookup in software): cheaper than a pipeline slow-path miss but
  /// costlier than a cache hit — the legacy function without legacy
  /// silicon. Only charged while degraded in standalone mode.
  sim::SimNanos standalone_ns = 45;
  /// Conntrack prelude classification: one hash probe of the per-core
  /// connection table per IPv4 TCP/UDP packet while conntrack is
  /// enabled (cache hit or miss alike — the ct_state stamp happens
  /// before any cache probe). Zero-billed when conntrack is off.
  sim::SimNanos ct_lookup_ns = 8;
  /// One `ct` action traversal: create/refresh the connection entry,
  /// advance TCP state, resolve the NAT rewrite. Paid on slow path and
  /// megaflow replay alike — connection state always advances.
  sim::SimNanos ct_commit_ns = 25;
  /// Serializing one connection entry into a checkpoint image. Billed
  /// into FailoverStats::checkpoint_ns_billed as reported overhead
  /// (not injected into the datapath event timeline — checkpointing
  /// perturbs the staleness-vs-overhead ledger, not packet order), so
  /// the bench_faults cadence sweep prices full vs incremental
  /// checkpoints honestly.
  sim::SimNanos checkpoint_entry_ns = 40;

  /// What one service burst did beyond its packets' own work, in the
  /// units bill_ns charges.
  struct BurstWork {
    std::size_t queues_polled = 0;  // RX queues the poll sweep visited (0 per-packet)
    std::size_t replay_groups = 0;  // megaflow groups replayed (0 per-packet)
    bool steered = false;           // multi-core: one RSS hash per packet
  };

  /// The one bill. A burst pays its fixed terms once — the rx/tx burst
  /// setup, one poll per queue swept, one replay setup per megaflow
  /// group — plus, per packet, the rx/tx marginal and (multi-core) one
  /// steering hash, plus `marginal_ns`: the packets' own work
  /// (marginal_cost_ns, or standalone_ns while degraded). `packets` is
  /// how many packets the bill covers and `sharers` how many split the
  /// fixed terms: a burst costs bill_ns(work, rx_packets, 1, Σ marginal),
  /// and each of its n served packets is charged bill_ns(work, 1, n, 0)
  /// plus its own marginal as latency metadata.
  [[nodiscard]] sim::SimNanos bill_ns(const BurstWork& work, std::size_t packets,
                                      std::size_t sharers, sim::SimNanos marginal_ns) const {
    const sim::SimNanos fixed = rx_tx_burst_ns +
                                static_cast<sim::SimNanos>(work.queues_polled) * rx_poll_ns +
                                static_cast<sim::SimNanos>(work.replay_groups) * replay_setup_ns;
    const sim::SimNanos per_packet = rx_tx_pkt_ns + (work.steered ? rss_hash_ns : 0);
    return fixed / static_cast<sim::SimNanos>(sharers) +
           static_cast<sim::SimNanos>(packets) * per_packet + marginal_ns;
  }

  /// One packet's own work for one pipeline result: the pipeline's
  /// bill plus the conntrack and cache accounting.
  [[nodiscard]] sim::SimNanos marginal_cost_ns(const openflow::PipelineResult& result,
                                               bool cache_enabled) const {
    sim::SimNanos cost = result.cost_ns +
                         static_cast<sim::SimNanos>(result.ct_lookups) * ct_lookup_ns +
                         static_cast<sim::SimNanos>(result.ct_commits) * ct_commit_ns;
    if (cache_enabled) {
      cost += static_cast<sim::SimNanos>(result.cache_scanned) *
              (result.cache_linear ? cache_scan_ns : cache_subtable_ns);
      if (result.cache_hit)
        cost += cache_hit_ns;
      else if (result.cache_installed)
        cost += cache_insert_ns;
    }
    return cost;
  }

  /// The whole bill of one packet on the single-core per-packet
  /// datapath: bill_ns's one-packet case (the capacity benches,
  /// bench_throughput Tables 3 and 6, bill with this).
  [[nodiscard]] sim::SimNanos packet_cost_ns(const openflow::PipelineResult& result,
                                             bool cache_enabled) const {
    return bill_ns(BurstWork{}, 1, 1, marginal_cost_ns(result, cache_enabled));
  }
};

/// Controller-loss behaviour (OF1.3 §6.4). Disabled by default
/// (echo_interval_ns == 0): no probes, no degraded modes, no backoff —
/// the PR-6 datapath exactly. NOTE: enabling liveness probing makes the
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
  /// Reconnect backoff: initial delay, doubling per attempt up to the
  /// cap, plus a uniform jitter of up to `backoff_jitter` * delay drawn
  /// from a seeded Rng (deterministic; decorrelates fleets).
  sim::SimNanos backoff_initial_ns = 1'000'000;  // 1 ms
  sim::SimNanos backoff_cap_ns = 8'000'000;      // 8 ms
  double backoff_jitter = 0.25;
  std::uint64_t seed = 0xfa11'0f3aULL;
  /// Post-resync warm-up: for `warmup_ns` after the resync barrier, at
  /// most `warmup_packet_in_budget` packet-ins are admitted (a governor
  /// protecting the just-restarted controller from the thundering herd
  /// of cold flows). 0 disables the window.
  sim::SimNanos warmup_ns = 0;
  std::uint64_t warmup_packet_in_budget = 32;
  /// Conntrack checkpoint cadence: every interval the switch snapshots
  /// all connection shards into an off-box image that fault_restart
  /// restores (see ConnTracker::checkpoint/restore). 0 (default) = no
  /// checkpointing — a crash loses every connection, the PR-8
  /// behaviour exactly. Independent of echo_interval_ns: a switch with
  /// no controller-liveness probing can still checkpoint. The timer is
  /// self-disarming (it stops once the connection table empties), so
  /// run() engines still drain.
  sim::SimNanos checkpoint_interval_ns = 0;
  /// Incremental checkpoints: each cadence serializes only the shards
  /// mutated since their last capture (ConnTracker dirty tracking);
  /// clean shards keep their previous image. Off (default) = every
  /// cadence re-serializes every shard, the PR-9 behaviour. The held
  /// image stays exact either way — any commit/refresh/kill dirties
  /// its shard — modulo entries that lazily expired unswept (they are
  /// filtered again at restore, so the slack is cosmetic).
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
  // Stateful HA (PR 9):
  std::uint64_t checkpoints = 0;        // whole-switch conntrack snapshots taken
  std::uint64_t ct_restored = 0;        // connections rebuilt by fault_restart
  std::uint64_t ct_restore_dropped = 0; // snapshot entries restore refused
  std::uint64_t takeovers = 0;          // standby promotions (ha_takeover)
  std::uint64_t warm_resyncs = 0;       // resyncs completed with restored ct state
  // Split-brain-safe HA (PR 10):
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

class SoftSwitch : public sim::ServicedNode, public sim::FaultPoint {
 public:
  SoftSwitch(sim::Engine& engine, std::string name, std::uint64_t datapath_id,
             std::size_t of_port_count, std::size_t table_count = 2, bool specialized = true,
             bool flow_cache = true, std::size_t burst_size = 32,
             const sim::IngressSpec& ingress = {});

  [[nodiscard]] std::uint64_t datapath_id() const { return datapath_id_; }
  [[nodiscard]] std::size_t of_port_count() const { return of_port_count_; }
  [[nodiscard]] openflow::Pipeline& pipeline() { return pipeline_; }
  [[nodiscard]] const openflow::Pipeline& pipeline() const { return pipeline_; }

  /// Bind OF port `of_port` to `peer`'s OF port `peer_of_port` as a
  /// patch pair (both directions are bound; call once per pair).
  void bind_patch(std::uint32_t of_port, SoftSwitch& peer, std::uint32_t peer_of_port);

  /// Attach the controller channel (datapath side). The switch answers
  /// hello/features/echo/barrier and routes packet-ins there.
  void attach_channel(openflow::ControlChannel& channel);

  /// Administratively set an OF port up/down. Down ports drop egress
  /// and ingress; a PortStatus message is sent to the controller.
  void set_port_state(std::uint32_t of_port, bool up);
  [[nodiscard]] bool port_up(std::uint32_t of_port) const;

  /// Direct rule installation, bypassing the channel — the HARMLESS
  /// Manager uses this for SS_1, which is *not* controller-managed.
  [[nodiscard]] util::Status install(const openflow::FlowModMsg& mod);
  [[nodiscard]] util::Status install_group(const openflow::GroupModMsg& mod);

  struct Counters {
    std::uint64_t pipeline_runs = 0;    // packets the ingress path took in
    std::uint64_t packets_out = 0;      // data-plane outputs emitted
    std::uint64_t packet_ins = 0;       // punts to controller
    std::uint64_t drops_no_match = 0;   // pipeline produced nothing
    std::uint64_t drops_port_down = 0;
    std::uint64_t flow_mods = 0;
    std::uint64_t errors = 0;
    // Flow-cache fast path (zero when the cache is disabled):
    std::uint64_t cache_hits = 0;          // packets served by replay
    std::uint64_t cache_misses = 0;        // packets that took the slow path
    std::uint64_t cache_invalidations = 0; // epoch bumps observed (flow/group mods,
                                           // expiry, port state changes)
    std::uint64_t cache_evictions = 0;     // megaflows displaced by CLOCK at capacity
    std::uint64_t cache_subtables = 0;     // live per-mask subtables (distinct signatures)
    std::uint64_t cache_subtable_probes = 0;  // cumulative hashed tier-2 probes; divide by
                                              // tier-2 lookups for probes-per-lookup
    // Batched bursts only (zero while every burst is per-packet, e.g.
    // burst_size 1):
    std::uint64_t service_bursts = 0;      // batched bursts served
    std::uint64_t replay_groups = 0;       // replay setups billed across bursts
    std::uint64_t rx_queue_polls = 0;      // per-port RX queues polled across bursts
    // Multi-core datapath (zero with one core):
    std::uint64_t rss_steered = 0;         // per-packet steering hashes billed
    // Conntrack tier (zero while conntrack is disabled); aggregated
    // across the per-core shards at read time, like the cache fields:
    std::uint64_t ct_lookups = 0;       // prelude classifications
    std::uint64_t ct_hits = 0;          // classifications that found an entry
    std::uint64_t ct_created = 0;       // connections committed
    std::uint64_t ct_expired = 0;       // idle-timeout kills
    std::uint64_t ct_evicted = 0;       // LRU reclaims at capacity
    std::uint64_t ct_invalid = 0;       // unclassifiable (mid-stream TCP, NAT failures)
    std::uint64_t ct_nat_allocated = 0;
    std::uint64_t ct_nat_failures = 0;
    std::size_t ct_connections = 0;     // live entries across shards
  };
  /// Datapath counters. The cache eviction/classifier fields are
  /// aggregated across the per-core shards at read time (they are
  /// monotone per-shard totals; summing them per packet would put
  /// O(cores) work on the hot path for numbers only reports consume).
  [[nodiscard]] const Counters& counters() const;

  /// One worker core's slice of the datapath: its service-loop bill
  /// (from ServicedNode's per-core accounting) joined with its own
  /// flow-cache shard's stats — the per-core numbers the core-scaling
  /// bench table and the sharding tests read.
  struct CoreStats {
    sim::SimNanos busy_ns = 0;
    std::uint64_t bursts = 0;
    std::uint64_t packets = 0;          // packets this core served
    std::uint64_t rx_queue_polls = 0;
    std::size_t rx_queues = 0;          // queues steered to this core
    std::uint64_t cache_hits = 0;       // this shard's lookup hits
    std::uint64_t cache_misses = 0;     // this shard's lookup misses
    std::uint64_t cache_evictions = 0;  // CLOCK evictions in this shard
    std::size_t cache_megaflows = 0;    // resident megaflows in this shard
    std::size_t cache_subtables = 0;    // live subtables in this shard
    std::size_t ct_connections = 0;     // live conntrack entries in this shard
    std::uint64_t ct_created = 0;       // connections committed on this shard
    std::uint64_t ct_lookups = 0;       // prelude classifications on this shard
  };
  [[nodiscard]] CoreStats core_stats(std::size_t core) const;

  /// Per-OF-port ingress queue stats (of_port is 1-based, like every
  /// OF-facing API here). Depth is the live backlog; drops and peak
  /// depth are cumulative — the per-port numbers the bench tables and
  /// the DRR isolation tests assert on. Under the symmetric RSS grid a
  /// port fronts one queue per core; these aggregate the whole group.
  [[nodiscard]] std::size_t rx_queue_depth(std::uint32_t of_port) const {
    return of_port >= 1 ? port_queue_depth(of_port - 1) : 0;
  }
  [[nodiscard]] std::uint64_t rx_queue_drops(std::uint32_t of_port) const {
    return of_port >= 1 ? port_queue_drops(of_port - 1) : 0;
  }
  [[nodiscard]] std::size_t rx_queue_peak_depth(std::uint32_t of_port) const {
    return of_port >= 1 ? port_queue_peak_depth(of_port - 1) : 0;
  }

  void set_costs(const DatapathCosts& costs) { costs_ = costs; }
  [[nodiscard]] const DatapathCosts& costs() const { return costs_; }

  /// Enable the stateful conntrack tier (one connection-table shard per
  /// worker core; see openflow/conntrack.hpp). Call before traffic,
  /// like the other datapath shape knobs. Idle connections expire off a
  /// self-disarming sweep timer (CtConfig::sweep_interval cadence).
  void enable_conntrack(const openflow::CtConfig& config) {
    pipeline_.enable_conntrack(config);
  }

  /// Enable (or reconfigure) controller-loss handling. With the probe
  /// timer armed the engine's queue never drains — use run_until().
  void set_failover(const FailoverSpec& spec);
  [[nodiscard]] const FailoverSpec& failover() const { return failover_; }
  [[nodiscard]] const FailoverStats& failover_stats() const { return failover_stats_; }

  // ---- stateful HA: active–standby pairing (PR 9/10) ----
  // Wire two switches (same shard count, same rules, conntrack enabled
  // on both) through one ReplicationChannel: the active publishes its
  // conntrack deltas and heartbeats into it, the standby applies the
  // deltas and promotes itself when the heartbeats go silent. Both
  // calls are opt-in and arm perpetual timers — drive the engine with
  // run_until(). A takeover does not rewire traffic by itself; the
  // harness observes it through set_ha_takeover_handler and re-steers.
  //
  // PR 10 adds witness arbitration: attach a WitnessLink to both boxes
  // and promotion requires a lease quorum (heartbeat silence AND a
  // witness grant), while an active that cannot renew fences itself —
  // stops minting conntrack/NAT state — at lease expiry. Fencing is
  // fail-closed: a box with a witness attached is fenced until its
  // first grant. With no witness, behaviour is the PR-9 machinery
  // exactly. Pass the reverse channel to enable warm failback: a
  // demoted ex-active asks over it and the new active streams its
  // shard snapshots back.

  enum class HaRole : std::uint8_t { kNone, kActive, kStandby };

  /// Attach this box's wire to the lease witness. Call before (or
  /// after) enable_ha_active/standby; engages fail-closed fencing
  /// immediately on an active. The link must outlive the switch.
  void set_ha_witness(sim::WitnessLink& link);

  /// Become the active of an HA pair: every conntrack shard's delta
  /// stream is published into `channel` (stamped with the fencing
  /// epoch), and a heartbeat fires every heartbeat_interval_ns (silent
  /// while crashed or fenced). `reverse` (standby→active direction),
  /// when given, is listened on for failback sync requests and the
  /// peer's snapshots/heartbeats after a role swap. Requires conntrack
  /// to be enabled first.
  void enable_ha_active(ReplicationChannel& channel, ReplicationChannel* reverse = nullptr);

  /// Become the standby of an HA pair: apply replicated deltas into the
  /// local conntrack shards and monitor the active's heartbeats; after
  /// ReplicationSpec::takeover_miss_threshold silent intervals the
  /// standby promotes itself (with a witness attached, only after a
  /// lease grant). `reverse` is the standby→active channel this box
  /// publishes on once promoted (and begs for failback on when
  /// demoted). Requires conntrack enabled.
  void enable_ha_standby(ReplicationChannel& channel, ReplicationChannel* reverse = nullptr);

  /// Promote this switch: demote every replicated connection to the
  /// transient timeout (ConnTracker::demote_all — flows that died
  /// while replication lagged must not linger as ESTABLISHED), become
  /// the publishing active, count the takeover, and fire the takeover
  /// handler. Idempotent. NOTE: bypasses the witness — callers gating
  /// promotion on a lease go through the monitor path instead.
  void ha_takeover();

  /// Observer the harness uses to re-steer traffic after a promotion.
  void set_ha_takeover_handler(std::function<void()> handler) {
    ha_takeover_handler_ = std::move(handler);
  }

  [[nodiscard]] bool ha_promoted() const { return ha_promoted_; }
  [[nodiscard]] HaRole ha_role() const { return ha_role_; }
  [[nodiscard]] bool ha_fenced() const { return ha_fenced_; }
  [[nodiscard]] std::uint64_t ha_epoch() const { return ha_epoch_; }
  /// The split-brain invariant's probe: true iff this box would mint
  /// new conntrack/NAT state right now. The chaos suite asserts at
  /// most one box of a pair satisfies this at any simulated time.
  [[nodiscard]] bool ha_unfenced_active() const {
    return ha_role_ == HaRole::kActive && !ha_fenced_ && !restarting_;
  }
  /// Control-session view: true when the switch believes its controller
  /// is reachable (always true with failover disabled).
  [[nodiscard]] bool control_connected() const { return connected_; }
  [[nodiscard]] bool restarting() const { return restarting_; }
  /// The standalone fallback's learned stations (fail-standalone only).
  [[nodiscard]] const legacy::MacTable& standalone_macs() const { return standalone_macs_; }

  // sim::FaultPoint: a switch-level fault is a reboot. fault_crash
  // wipes all datapath state (tables, groups, caches, learned MACs) and
  // drops ingress until fault_restart, which re-enters the reconnect
  // path so the controller reprograms the empty tables.
  void fault_crash() override;
  void fault_restart() override;
  void fault_set_up(bool up) override {
    if (up) fault_restart();
    else fault_crash();
  }

 protected:
  sim::SimNanos service_burst(sim::ServicedNode::Burst&& burst) override;
  void transmit(std::size_t out_port, net::Packet&& packet) override;

 private:
  struct PatchBinding {
    SoftSwitch* peer = nullptr;
    std::uint32_t peer_of_port = 0;
  };

  void handle_controller_message(openflow::Message&& message);
  void send_port_status(std::uint32_t of_port, bool up);
  /// Resolve a (possibly reserved) OF output port into concrete ports.
  void resolve_output(std::uint32_t of_port, std::uint32_t in_of_port, net::Packet&& packet);
  void schedule_expiry_sweep();
  /// Arm the conntrack expiry sweep (no-op when already armed or no
  /// connections are live). Mirrors schedule_expiry_sweep: re-arms
  /// itself only while entries remain, so idle engines still drain.
  void schedule_ct_sweep();
  /// Arm the conntrack checkpoint timer (no-op when checkpointing is
  /// off or already armed). Self-disarming like schedule_ct_sweep: a
  /// firing re-arms only while connections remain — but it always
  /// overwrites the held image first, so an emptied table checkpoints
  /// as empty rather than leaving a stale snapshot behind.
  void schedule_ct_checkpoint();
  /// Snapshot every conntrack shard into ct_checkpoint_ (the off-box
  /// image fault_restart restores from).
  void take_ct_checkpoint();
  void schedule_ha_heartbeat();
  void schedule_ha_monitor();

  // ---- witness-arbitrated fencing + warm failback (PR 10) ----
  /// Install delta/heartbeat/snapshot/sync-request receivers on the
  /// channel this box listens on (standby: the forward channel;
  /// active: the reverse channel, when wired).
  void install_ha_receivers(ReplicationChannel& channel);
  /// Install the epoch-stamping conntrack delta sinks onto repl_out_.
  void install_ha_delta_sinks();
  /// Propagate the fencing latch to every conntrack shard (no
  /// accounting); ha_set_fenced is the counted idempotent wrapper.
  void ha_apply_fence(bool fenced);
  void ha_set_fenced(bool fenced);
  /// Active: ask the witness to (re)grant the lease; a denial fences
  /// and, when it reveals a newer epoch, demotes.
  void ha_renew_lease();
  void schedule_ha_lease_renew();
  /// Arm the self-fencing deadline: at `expires_at`, fence unless the
  /// lease was renewed past it in the meantime.
  void ha_arm_fence_check(sim::SimNanos expires_at);
  /// Standby monitor tripped: promote directly (no witness) or request
  /// the lease and promote only on a grant.
  void ha_request_promotion();
  /// Active that learned of a newer epoch: step down to standby,
  /// keep the fence up, and beg the new active for a warm resync.
  void ha_demote(std::uint64_t epoch);
  void on_ha_heartbeat(std::uint64_t epoch);
  void on_ha_delta(const ReplicationRecord& record);
  void on_ha_snapshot(std::size_t shard, const openflow::CtSnapshot& snapshot,
                      std::uint64_t epoch);
  void on_ha_sync_request();

  // ---- failover machinery (all inert while failover_.enabled() is
  // false — the default) ----
  [[nodiscard]] bool standalone_active() const {
    return failover_.enabled() && !connected_ &&
           failover_.mode == FailoverSpec::Mode::kFailStandalone;
  }
  /// Gate one packet-in: false while degraded (fail-secure drop) or
  /// over the warm-up budget; counts what it suppresses.
  bool admit_packet_in();
  void arm_liveness();
  void schedule_echo();
  void on_control_lost();
  void schedule_reconnect_attempt();
  void on_control_reconnected();
  void complete_resync();
  /// MAC-learn + forward one packet on the standalone fallback path,
  /// charging `charge_ns` onto it (the caller bills standalone_ns per
  /// packet forwarded here).
  void standalone_forward(std::uint32_t in_of_port, net::Packet&& packet,
                          sim::SimNanos charge_ns);

  std::uint64_t datapath_id_;
  std::size_t of_port_count_;
  openflow::Pipeline pipeline_;
  DatapathCosts costs_;
  /// mutable: counters() aggregates the per-shard cache totals into
  /// the cache_* fields at read time (see its comment).
  mutable Counters counters_;
  openflow::ControlChannel* channel_ = nullptr;
  /// Fold any epoch advance since the last observation into the
  /// cache_invalidations counter (each table/group mutation bumps the
  /// epoch exactly once), and mirror the cache's eviction count.
  void observe_cache_epoch();
  /// Route one pipeline result's outputs and packet-ins out of the
  /// datapath, charging `packet_cost` across the outputs.
  void dispatch_result(openflow::PipelineResult& result, std::uint32_t in_of_port,
                       sim::SimNanos packet_cost);

  std::unordered_map<std::uint32_t, PatchBinding> patches_;
  std::vector<bool> port_up_;
  bool sweep_scheduled_ = false;
  bool ct_sweep_scheduled_ = false;
  // Failover state. connected_ means "the switch believes its control
  // session is alive"; it starts true (attaching a channel is the
  // session) and only ever changes when failover is enabled.
  FailoverSpec failover_;
  FailoverStats failover_stats_;
  util::Rng failover_rng_;
  bool connected_ = true;
  bool restarting_ = false;
  bool liveness_armed_ = false;
  bool resync_window_ = false;  // between reconnect and the resync barrier
  int echo_outstanding_ = 0;
  std::uint64_t echo_seq_ = 0;
  sim::SimNanos backoff_ns_ = 0;
  sim::SimNanos degraded_since_ = 0;
  sim::SimNanos warmup_until_ = 0;
  std::uint64_t warmup_budget_ = 0;
  // Stateful HA. The checkpoint image lives *outside* the datapath
  // state fault_crash wipes — it models a snapshot persisted off-box
  // (disk / peer), which is the entire point of checkpointing.
  std::vector<openflow::CtSnapshot> ct_checkpoint_;
  bool ct_checkpoint_scheduled_ = false;
  bool ct_state_restored_ = false;  // restore happened; next resync is warm
  ReplicationChannel* repl_out_ = nullptr;  // publish direction (this -> peer)
  ReplicationChannel* repl_in_ = nullptr;   // listen direction (peer -> this)
  bool ha_heartbeat_armed_ = false;
  bool ha_monitor_armed_ = false;
  bool ha_promoted_ = false;
  bool ha_heartbeat_seen_ = false;  // monitor only trips after first contact
  sim::SimNanos last_ha_heartbeat_ = 0;
  std::function<void()> ha_takeover_handler_;
  // Witness-arbitrated fencing + failback (PR 10). All inert without
  // set_ha_witness / a reverse channel — the PR-9 pair exactly.
  sim::WitnessLink* ha_witness_ = nullptr;
  HaRole ha_role_ = HaRole::kNone;
  bool ha_fenced_ = false;
  std::uint64_t ha_epoch_ = 0;
  sim::SimNanos ha_lease_expires_ = 0;
  bool ha_renew_armed_ = false;
  bool ha_failback_pending_ = false;  // demoted, waiting for the peer's stream
  legacy::MacTable standalone_macs_;
  std::uint64_t seen_cache_epoch_ = 0;
  /// service_burst staging + result scratch, recycled across bursts
  /// (one switch's service loop never re-enters itself).
  std::vector<openflow::BurstPacket> burst_items_;
  openflow::BurstResult burst_result_;
};

}  // namespace harmless::softswitch
