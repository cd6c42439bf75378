// openflow/pipeline.hpp — the multi-table OF1.3 pipeline.
//
// Execution model (the subset of OF1.3 §5 the system needs, faithfully):
//   * packet enters table 0 with an empty action set
//   * on match: apply-actions run immediately (header rewrites take
//     effect for later tables), clear/write edit the action set,
//     goto-table continues at a strictly higher table
//   * when the pipeline stops (no goto), the action set executes in
//     spec order: pop_vlan, push_vlan, set_field*, group, output
//   * on miss: the packet is dropped (install a priority-0 wildcard
//     entry — the table-miss entry — to get controller punts)
//
// The multi-table traversal above is the *slow path*. By default every
// pipeline fronts it with a two-tier flow cache (flow_cache.hpp): the
// slow path records which field bits it examined, installs a megaflow
// covering the whole wildcarded aggregate, and subsequent packets of
// the aggregate replay the cached action program — identical outputs,
// packet-ins and counters, a fraction of the cost. Flow-mods, group
// mods and expiry invalidate cached entries via a shared epoch.
//
// The pipeline prices nothing. It reports the work each packet made it
// do (PipelineWork: parses, table probes and compares, misses, actions,
// group indirections, tier-2 cache probes, conntrack lookups and
// commits), and softswitch::DatapathCosts prices every term — the one
// price list EXPERIMENTS.md documents.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "openflow/conntrack.hpp"
#include "openflow/flow_cache.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/group_table.hpp"

namespace harmless::openflow {

enum class PacketInReason : std::uint8_t {
  kNoMatch = 0,  // reached via a table-miss entry with output:CONTROLLER
  kAction = 1,
};

struct PacketInEvent {
  net::Packet packet;
  std::uint32_t in_port = 0;
  std::uint8_t table_id = 0;
  PacketInReason reason = PacketInReason::kAction;
};

/// The work one packet made the pipeline do, in countable units. The
/// pipeline prices nothing: softswitch::DatapathCosts::marginal_cost_ns
/// multiplies each count by its rate.
struct PipelineWork {
  std::uint32_t parses = 0;           // slow-path header parses (again after a rewrite)
  LookupCost lookup;                  // flow-table hash probes and entry compares
  std::uint32_t misses = 0;           // table misses with no miss entry
  std::uint32_t actions = 0;          // actions applied, on the slow path or in replay
  std::uint32_t groups = 0;           // group indirections
  std::uint32_t subtable_probes = 0;  // tier-2 dpcls hashed subtable probes
  std::uint32_t linear_compares = 0;  // tier-2 megaflows compared (linear-scan ablation)
  /// One lookup when the conntrack prelude classified the packet (ct
  /// enabled + IPv4 TCP/UDP), one commit per `ct` action traversed
  /// (slow path or replay alike).
  std::uint32_t ct_lookups = 0;
  std::uint32_t ct_commits = 0;
};

struct PipelineResult {
  /// (out_port, frame) pairs; out_port may be a ReservedPort (FLOOD,
  /// ALL, IN_PORT) that the datapath resolves against its port set.
  std::vector<std::pair<std::uint32_t, net::Packet>> outputs;
  std::vector<PacketInEvent> packet_ins;
  PipelineWork work;
  std::uint8_t last_table = 0;
  bool matched = false;
  /// True when the flow cache served this packet: `work` then counts
  /// only the tier-2 probes and the replayed actions, and the datapath
  /// prices the hit itself instead of parse + lookup.
  bool cache_hit = false;
  /// True when this slow-path miss actually installed a megaflow; the
  /// datapath prices the insert only then. The slow path declines to
  /// install when the traversal punted to the controller (a packet-in
  /// upcall is a slow-path event by nature — the controller's answer is
  /// about to change the tables anyway).
  bool cache_installed = false;

  [[nodiscard]] bool dropped() const { return outputs.empty() && packet_ins.empty(); }

  /// Back to a fresh state, keeping the outputs/packet_ins capacity —
  /// BurstResult recycles these across bursts.
  void reset() {
    outputs.clear();
    packet_ins.clear();
    work = {};
    last_table = 0;
    matched = false;
    cache_hit = false;
    cache_installed = false;
  }
};

/// One packet of a service burst, in arrival order.
struct BurstPacket {
  net::Packet packet;
  std::uint32_t in_port = 0;
};

/// Per-packet results of one burst plus the burst-level amortization
/// facts the datapath bills from.
struct BurstResult {
  std::vector<PipelineResult> results;  // one per packet, arrival order
  /// Distinct megaflow entries replayed: the burst pays one
  /// DatapathCosts::replay_setup_ns per group, not per packet.
  std::uint32_t replay_groups = 0;

  /// Size for a new burst of `n` packets, recycling the per-packet
  /// result vectors' capacity (SoftSwitch keeps one BurstResult alive
  /// across its whole run).
  void reset(std::size_t n) {
    replay_groups = 0;
    if (results.size() > n) results.resize(n);
    for (PipelineResult& result : results) result.reset();
    results.reserve(n);
    while (results.size() < n) results.emplace_back();
  }
};

class Pipeline {
 public:
  /// `table_count` tables (0..n-1); `specialized` picks the matcher;
  /// `flow_cache` enables the two-tier fast path (ablation knob);
  /// `shards` flow-cache shards, one per worker core of a multi-core
  /// datapath (shard 0 is what the single-core datapath uses). Each
  /// shard owns its own microflow map, classifier subtables, rank order
  /// and CLOCK hand; all shards share the pipeline's one invalidation
  /// epoch, so any table/group mutation invalidates every core's cached
  /// programs at once — the only cross-core cache state, and it is
  /// read-mostly.
  explicit Pipeline(std::size_t table_count = 2, bool specialized = true,
                    bool flow_cache = true, std::size_t shards = 1);

  /// Non-movable: tables_ and groups_ hold raw pointers into the
  /// pipeline-owned cache epoch counter, so a move would leave them
  /// aimed at the moved-from object. Hold pipelines by value in their
  /// owner (as SoftSwitch does) or behind a unique_ptr.
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  Pipeline(Pipeline&&) = delete;
  Pipeline& operator=(Pipeline&&) = delete;

  [[nodiscard]] std::size_t table_count() const { return tables_.size(); }
  [[nodiscard]] FlowTable& table(std::size_t index);
  [[nodiscard]] const FlowTable& table(std::size_t index) const;
  [[nodiscard]] GroupTable& groups() { return groups_; }
  [[nodiscard]] const GroupTable& groups() const { return groups_; }

  [[nodiscard]] std::size_t shard_count() const { return caches_.size(); }

  /// Shard 0 — the single-core cache (and the historical accessor).
  [[nodiscard]] FlowCache& cache() { return *caches_.front(); }
  [[nodiscard]] const FlowCache& cache() const { return *caches_.front(); }
  /// Core `shard`'s cache shard.
  [[nodiscard]] FlowCache& cache(std::size_t shard) { return *caches_.at(shard); }
  [[nodiscard]] const FlowCache& cache(std::size_t shard) const { return *caches_.at(shard); }
  [[nodiscard]] bool cache_enabled() const { return cache_enabled_; }
  /// Set every shard's capacity limits uniformly. On a multi-core
  /// switch, `cache().set_limits(...)` configures shard 0 only — for
  /// capacity experiments use this (typically with per-shard limits of
  /// total/cores, since each shard fields only its cores' traffic).
  void set_cache_limits(const FlowCache::Limits& limits) {
    for (auto& shard : caches_) shard->set_limits(limits);
  }

  /// Turn on the conntrack tier: one ConnTracker shard per cache shard.
  /// From here on, every IPv4 TCP/UDP packet is classified read-only
  /// before any cache probe and carries Field::kCtState, so ct_state
  /// rules can match and both cache tiers key on the state. Call
  /// before traffic.
  void enable_conntrack(const CtConfig& config);
  [[nodiscard]] bool conntrack_enabled() const { return ct_enabled_; }
  /// Core `shard`'s conntrack shard (enable_conntrack first).
  [[nodiscard]] ConnTracker& conntrack(std::size_t shard = 0) { return *trackers_.at(shard); }
  [[nodiscard]] const ConnTracker& conntrack(std::size_t shard = 0) const {
    return *trackers_.at(shard);
  }
  /// Live connections across all shards (0 when ct is disabled).
  [[nodiscard]] std::size_t ct_connection_count() const;
  /// Sweep every shard's expiry wheel; returns connections expired.
  std::size_t ct_expire(sim::SimNanos now);
  /// Conntrack counters summed across shards (zero when ct is disabled).
  [[nodiscard]] CtStats ct_stats() const;
  /// Wipe all connection state (datapath crash), keeping shard stats.
  void ct_clear();

  /// Run one packet; consumes it. Fast path on a cache-shard hit,
  /// otherwise the full traversal (which learns a megaflow into the
  /// same shard when caching is on). `shard` is the calling worker
  /// core's cache shard; the single-core datapath uses shard 0.
  PipelineResult run(net::Packet&& packet, std::uint32_t in_port, sim::SimNanos now,
                     std::size_t shard = 0);

  /// Run one burst, OVS/DPDK style; consumes it. Phase 1 probes the
  /// flow cache for every packet; phase 2 replays the hits in arrival
  /// order and counts the distinct megaflow entries replayed (one
  /// replay setup per entry); phase 3 sends only the residue through
  /// run()'s slow path — in arrival order, and re-probing, so the
  /// second packet of a new flow within one burst hits the megaflow
  /// the first one installed. Observationally identical to running the
  /// packets one at a time (the burst equivalence property test pins
  /// this). With the cache off or conntrack on it runs
  /// run_burst_sequential instead. `shard` as in run(). Consumes the
  /// packets but not the vector (the caller's burst buffer keeps its
  /// capacity); `out` is reset and refilled, so a caller-owned
  /// BurstResult recycles all result storage.
  void run_burst(std::vector<BurstPacket>& burst, sim::SimNanos now, std::size_t shard,
                 BurstResult& out);

  /// Run one burst strictly in arrival order, each packet exactly as
  /// run() would — the per-packet datapath. Replay-group amortization
  /// survives as the count of distinct megaflow entries replayed.
  /// Contract otherwise as run_burst.
  void run_burst_sequential(std::vector<BurstPacket>& burst, sim::SimNanos now,
                            std::size_t shard, BurstResult& out);

  /// Convenience overload returning a fresh BurstResult.
  BurstResult run_burst(std::vector<BurstPacket>&& burst, sim::SimNanos now,
                        std::size_t shard = 0) {
    BurstResult out;
    run_burst(burst, now, shard, out);
    return out;
  }

  /// Sweep all tables for expired entries.
  std::vector<FlowEntry> collect_expired(sim::SimNanos now);

  /// Total entries across tables.
  [[nodiscard]] std::size_t total_entries() const;

 private:
  /// Execute an action list against `packet`; outputs/groups/punts are
  /// routed into `result`, and the actions and group indirections it
  /// performs are counted into `result.work`. `learn` (slow path only)
  /// records fields that actions overwrite so megaflow learning stops
  /// attributing them to the original packet. `consume` marks `packet`
  /// dead after this call: when the list's final action is an output to
  /// a data port, the packet moves into the result instead of being
  /// cloned — the common unicast fast path forwards zero frame copies.
  void execute_actions(const ActionList& actions, net::Packet& packet, std::uint32_t in_port,
                       std::uint8_t table_id, PipelineResult& result, bool& view_dirty,
                       FieldUse* learn, int depth, bool consume = false);

  /// The one per-packet entry, behind run() and run_burst_sequential:
  /// bounds-check `shard`, build the packet's view, run the conntrack
  /// prelude (one stats-bearing classification, counted into
  /// work.ct_lookups), then run_with_view. `replayed` as in
  /// run_with_view; `result` must be fresh (reset).
  void run_packet(net::Packet&& packet, std::uint32_t in_port, sim::SimNanos now,
                  std::size_t shard, const MegaflowEntry** replayed, PipelineResult& result);

  /// Cache probe, then replay or slow path, for a packet whose view is
  /// built and classified — run_burst residue packets enter here with
  /// their phase-1 view, so a burst parses each packet exactly once.
  /// `shard` is the serving core's cache shard (lookup and learning
  /// both land there), already bounds-checked by the caller.
  /// `replayed` (optional) reports the megaflow entry a cache hit
  /// replayed, for the caller's replay-group accounting. Fills
  /// `result`, adding to whatever work it already counts (a residue
  /// packet's phase-1 probes).
  void run_with_view(net::Packet&& packet, std::uint32_t in_port, sim::SimNanos now,
                     FieldView view, std::size_t shard, const MegaflowEntry** replayed,
                     PipelineResult& result);

  /// Conntrack prelude: classify the packet's 5-tuple against `shard`'s
  /// tracker (read-only) and stamp Field::kCtState into `view`. Returns
  /// true when the packet was classifiable (ct enabled + IPv4 TCP/UDP);
  /// the caller then counts one work.ct_lookups.
  bool ct_annotate(FieldView& view, std::size_t shard, sim::SimNanos now);

  /// Execute one `ct` action: commit/refresh the connection in the
  /// current shard's tracker and apply its stored NAT translation to
  /// the packet. Pins the full 5-tuple + ct_state into `learn`, so a
  /// megaflow that traversed ct serves exactly one connection-direction
  /// in one state — a cached decision can never go stale.
  void ct_execute(const CtAction& spec, net::Packet& packet, PipelineResult& result,
                  FieldUse* learn, bool& view_dirty);

  /// Fast path: replay a cached traversal against `packet`.
  void replay(const MegaflowEntry& entry, net::Packet& packet, std::uint32_t in_port,
              sim::SimNanos now, PipelineResult& result);

  /// Turn a finished slow-path traversal into a megaflow keyed on the
  /// original (pre-rewrite) packet projection and install it into
  /// `shard`.
  void install_learned(MegaflowEntry entry, const FieldView& original_view,
                       const FieldUse& use, std::size_t shard);

  std::vector<FlowTable> tables_;
  GroupTable groups_;
  /// The one invalidation epoch all cache shards (and the tables'
  /// dirty plumbing) share — read-mostly across cores.
  std::uint64_t cache_epoch_ = 1;
  /// Per-core cache shards, >= 1 (shard 0 is the single-core cache).
  /// unique_ptr: FlowCache is address-pinned (self-referential epoch
  /// pointer until share_epoch rebinds it).
  std::vector<std::unique_ptr<FlowCache>> caches_;
  bool cache_enabled_ = true;

  /// Conntrack shards, parallel to caches_ when enabled (empty when
  /// not). unique_ptr for address stability, like the cache shards.
  std::vector<std::unique_ptr<ConnTracker>> trackers_;
  bool ct_enabled_ = false;
  /// The shard whose tracker `ct` actions hit, set on every entry path
  /// (run_with_view / replay) — execute_actions recursion plumbs no
  /// shard argument. Safe as a member: the pipeline serves one packet
  /// at a time per datapath, like the burst scratch below.
  std::size_t current_shard_ = 0;
  /// Simulation time of the packet in flight, for ct timeouts (same
  /// single-packet-at-a-time argument).
  sim::SimNanos ct_now_ = 0;

  // Burst scratch, recycled across bursts (phase-1 probe results and
  // the distinct megaflow entries replayed, for group billing). Safe as
  // members: bursts are not reentrant (the datapath serves one at a
  // time).
  std::vector<MegaflowEntry*> burst_hits_;
  std::vector<FieldView> burst_views_;
  std::vector<const MegaflowEntry*> burst_replayed_;
};

}  // namespace harmless::openflow
