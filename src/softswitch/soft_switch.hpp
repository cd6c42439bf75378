// softswitch/soft_switch.hpp — the x86 software switch datapath.
//
// One SoftSwitch is one software-switch instance of the paper (SS_1 or
// SS_2): an OF1.3 pipeline bound to ports. Everything that shapes it —
// tables, matcher, cache, burst size, ingress queues and cores, the
// price list, conntrack and failover — is one SwitchSpec, fixed and
// validated (SwitchSpec::validate) at construction; SS_1 and SS_2
// differ only in theirs. OpenFlow port n corresponds to sim port index
// n-1. A port is either
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
// the hits in arrival order (one replay setup per distinct megaflow),
// slow-path only the residue. burst_size 1 is the per-packet datapath,
// the batching ablation baseline: every burst is one packet, runs
// Pipeline::run_burst_sequential and pays no poll sweep and no replay
// setup.
//
// The datapath is multi-core capable (IngressSpec::cores): each worker
// core owns a subset of the per-port RX queues (RSS-hash, stride or
// symmetric per-flow steered), its own BurstScheduler instance, and its own
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
// replayed actions or the full parse/lookup/action bill plus the
// megaflow-insert cost (only when a megaflow was actually installed).
// The pipeline only counts that work (openflow::PipelineWork);
// DatapathCosts holds every rate and prices it. Defaults model an
// ESwitch/DPDK-class switch (~10 Mpps/core simple pipelines,
// per-packet); the legacy ASIC in legacy_switch.hpp is faster per
// packet but dumb — that contrast is exactly the trade HARMLESS
// exploits. Every SwitchSpec field is documented in EXPERIMENTS.md.
//
// The control side implements the OF session: hello/features, flow and
// group mods with error replies, packet-in/out, barriers, flow stats,
// flow-removed on expiry, port-status on failure injection.
//
// The control side is failable. With SwitchSpec::failover enabled the
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
// (kReconnectBackoff*: 1 ms doubling to 8 ms, deterministic seeded
// jitter). The controller answers a reconnect
// Hello with a features handshake; the switch then bumps the flow-
// cache epoch, flushes standalone MACs, and counts re-installed flows
// until the controller's resync barrier arrives — after which an
// optional warm-up window rate-limits packet-ins while the control
// plane refills its own state. All of it is opt-in: the default
// FailoverSpec is disabled and the datapath is bit-exact with PR 6.
//
// Connection state beyond one packet lives in the switch's HaAgent
// (ha_agent.hpp, reached through ha()): the conntrack expiry sweep,
// checkpoint/restore and the active–standby HA pairing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "legacy/mac_table.hpp"
#include "openflow/channel.hpp"
#include "openflow/messages.hpp"
#include "openflow/pipeline.hpp"
#include "sim/faults.hpp"
#include "sim/node.hpp"
#include "softswitch/ha_agent.hpp"
#include "util/rng.hpp"

namespace harmless::softswitch {

struct DatapathCosts {
  /// Pipeline slow path, priced per unit of openflow::PipelineWork.
  sim::SimNanos parse_ns = 25;       // header parse + FieldView build
  sim::SimNanos hash_probe_ns = 12;  // one exact-match table probe
  sim::SimNanos entry_scan_ns = 4;   // one linear entry comparison
  sim::SimNanos action_ns = 6;       // one action application (slow path or replay)
  sim::SimNanos group_ns = 10;       // group indirection overhead
  sim::SimNanos miss_ns = 8;         // table miss bookkeeping
  /// NIC rx/tx: one poll-mode rx burst + tx burst costs a fixed setup
  /// plus a small marginal per packet. A per-packet (burst_size 1) burst
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

  /// One packet's own work for one pipeline result: the one function
  /// that prices the pipeline's counts. Every term is count x rate, so
  /// with the cache off (no cache counts or flags) it prices the slow
  /// path alone.
  [[nodiscard]] sim::SimNanos marginal_cost_ns(const openflow::PipelineResult& result) const {
    const openflow::PipelineWork& work = result.work;
    const auto n = [](std::uint32_t count) { return static_cast<sim::SimNanos>(count); };
    return n(work.parses) * parse_ns + n(work.lookup.hash_probes) * hash_probe_ns +
           n(work.lookup.entries_scanned) * entry_scan_ns + n(work.misses) * miss_ns +
           n(work.actions) * action_ns + n(work.groups) * group_ns +
           n(work.subtable_probes) * cache_subtable_ns +
           n(work.linear_compares) * cache_scan_ns + n(work.ct_lookups) * ct_lookup_ns +
           n(work.ct_commits) * ct_commit_ns + (result.cache_hit ? cache_hit_ns : 0) +
           (result.cache_installed ? cache_insert_ns : 0);
  }

  /// The whole bill of one packet on the single-core per-packet
  /// datapath: bill_ns's one-packet case (the capacity benches,
  /// bench_throughput Tables 3 and 6, bill with this).
  [[nodiscard]] sim::SimNanos packet_cost_ns(const openflow::PipelineResult& result) const {
    return bill_ns(BurstWork{}, 1, 1, marginal_cost_ns(result));
  }
};

/// Everything that shapes one soft switch, fixed at construction. SS_1
/// and SS_2 of the paper are two SwitchSpecs; a bench rig or a fabric
/// embeds one as `sw`. Build it with designated initializers — every
/// member has a default, so `SwitchSpec{.burst_size = 1}` names only
/// what differs.
struct SwitchSpec {
  std::size_t tables = 2;       // OF tables in the pipeline
  bool specialized = true;      // specialized matchers (false = the linear matcher)
  bool flow_cache = true;       // two-tier flow cache (ablation knob)
  std::size_t burst_size = 32;  // service burst; 1 = the per-packet datapath
  /// Per-port RX queue bounds, the burst scheduler and the worker-core
  /// layout (one scheduler, cache shard and conntrack shard per core).
  sim::IngressSpec ingress{};
  DatapathCosts costs{};  // the price list of every simulated nanosecond
  /// The stateful conntrack tier (openflow/conntrack.hpp), off when
  /// empty: one connection-table shard per worker core; idle
  /// connections expire off a self-disarming sweep timer
  /// (CtConfig::sweep_interval).
  std::optional<openflow::CtConfig> conntrack{};
  /// Controller-loss handling and checkpoints; disabled by default. The
  /// echo timer arms at attach_channel.
  FailoverSpec failover{};

  /// Throws util::ConfigError, naming switch `name`, for every illegal
  /// combination: conntrack on more than one core needs
  /// RssPolicy::kSymmetric, so both directions of a connection reach the
  /// shard that committed it.
  void validate(const std::string& name) const;
};

class SoftSwitch : public sim::ServicedNode, public sim::FaultPoint {
 public:
  /// `spec` is validated here (SwitchSpec::validate).
  SoftSwitch(sim::Engine& engine, std::string name, std::uint64_t datapath_id,
             std::size_t of_port_count, const SwitchSpec& spec = {});
  /// The positional form bench_suite builds with; forwards to the spec.
  SoftSwitch(sim::Engine& engine, std::string name, std::uint64_t datapath_id,
             std::size_t of_port_count, std::size_t table_count, bool specialized = true,
             bool flow_cache = true, std::size_t burst_size = 32,
             const sim::IngressSpec& ingress = {})
      : SoftSwitch(engine, std::move(name), datapath_id, of_port_count,
                   SwitchSpec{.tables = table_count, .specialized = specialized,
                              .flow_cache = flow_cache, .burst_size = burst_size,
                              .ingress = ingress}) {}

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
    // Batched bursts only (zero with burst_size 1, the per-packet
    // datapath):
    std::uint64_t service_bursts = 0;      // batched bursts served
    std::uint64_t replay_groups = 0;       // replay setups billed across bursts
    std::uint64_t rx_queue_polls = 0;      // per-port RX queues polled across bursts
    // Multi-core datapath (zero with one core):
    std::uint64_t rss_steered = 0;         // per-packet steering hashes billed
  };
  /// Datapath counters. Per-shard cache and conntrack totals are read
  /// from pipeline().cache(shard) and pipeline().ct_stats().
  [[nodiscard]] const Counters& counters() const { return counters_; }

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

  [[nodiscard]] const DatapathCosts& costs() const { return costs_; }

  /// SwitchSpec::conntrack after construction, for bench_suite; throws
  /// through the same SwitchSpec::validate. Call before traffic.
  void enable_conntrack(const openflow::CtConfig& config);

  /// SwitchSpec::failover after construction, for bench_suite; arms the
  /// echo timer if a channel is attached. With the probe timer armed
  /// the engine's queue never drains — use run_until().
  void set_failover(const FailoverSpec& spec);
  [[nodiscard]] const FailoverStats& failover_stats() const { return failover_stats_; }

  /// The conntrack expiry, checkpoint and HA machinery (ha_agent.hpp);
  /// the ha_* calls below forward to it.
  [[nodiscard]] HaAgent& ha() { return ha_; }
  [[nodiscard]] const HaAgent& ha() const { return ha_; }
  void set_ha_witness(sim::WitnessLink& link) { ha_.set_witness(link); }
  void enable_ha_active(ReplicationChannel& channel, ReplicationChannel* reverse = nullptr) {
    ha_.enable_active(channel, reverse);
  }
  void enable_ha_standby(ReplicationChannel& channel, ReplicationChannel* reverse = nullptr) {
    ha_.enable_standby(channel, reverse);
  }
  void set_ha_takeover_handler(std::function<void()> handler) {
    ha_.set_takeover_handler(std::move(handler));
  }
  [[nodiscard]] bool ha_promoted() const { return ha_.promoted(); }
  [[nodiscard]] bool ha_unfenced_active() const { return ha_.unfenced_active(); }

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
    SoftSwitch* peer = nullptr;  // null: the port is not patched
    std::uint32_t peer_of_port = 0;
  };

  void handle_controller_message(openflow::Message&& message);
  void send_port_status(std::uint32_t of_port, bool up);
  /// Resolve a (possibly reserved) OF output port into concrete ports.
  void resolve_output(std::uint32_t of_port, std::uint32_t in_of_port, net::Packet&& packet);
  void schedule_expiry_sweep();

  // ---- failover machinery (all inert while failover_.enabled() is
  // false — the default) ----
  [[nodiscard]] bool standalone_active() const {
    return failover_.enabled() && !connected_ &&
           failover_.mode == FailoverSpec::Mode::kFailStandalone;
  }
  /// Gate one packet-in: false while degraded (fail-secure drop) or
  /// over the warm-up budget; counts what it suppresses.
  bool admit_packet_in();
  /// Send one packet-in to the controller if there is a channel and
  /// admit_packet_in() lets it through.
  void punt(std::uint32_t in_port, std::uint8_t table_id, openflow::PacketInReason reason,
            net::Packet&& packet);
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
  const DatapathCosts costs_;
  Counters counters_;
  openflow::ControlChannel* channel_ = nullptr;
  /// Fold any epoch advance since the last observation into the
  /// cache_invalidations counter (each table/group mutation bumps the
  /// epoch exactly once).
  void observe_cache_epoch();
  /// Route one pipeline result's outputs and packet-ins out of the
  /// datapath, charging `packet_cost` across the outputs.
  void dispatch_result(openflow::PipelineResult& result, std::uint32_t in_of_port,
                       sim::SimNanos packet_cost);

  std::vector<PatchBinding> patches_;  // by OF port - 1
  std::vector<bool> port_up_;
  bool sweep_scheduled_ = false;
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
  sim::SimNanos backoff_ns_ = kReconnectBackoffInitialNs;
  sim::SimNanos degraded_since_ = 0;
  sim::SimNanos warmup_until_ = 0;
  std::uint64_t warmup_budget_ = 0;
  bool warm_resync_pending_ = false;  // ct state was restored; next resync is warm
  legacy::MacTable standalone_macs_;
  std::uint64_t seen_cache_epoch_ = 0;
  /// service_burst staging + result scratch, recycled across bursts
  /// (one switch's service loop never re-enters itself).
  std::vector<openflow::BurstPacket> burst_items_;
  openflow::BurstResult burst_result_;
  /// Declared last: it holds references to pipeline_, failover_,
  /// failover_stats_ and restarting_.
  HaAgent ha_;
};

}  // namespace harmless::softswitch
