// E1 — throughput ("without incurring any major performance penalty").
//
// Two tables, matching the two readings of the claim:
//
//  Table 1 (capacity): RFC 2544-style no-drop rate — for each data
//  plane and frame size, a binary search over offered load finds the
//  highest rate forwarded with <0.5% loss on a 10G feed. The legacy
//  ASIC runs at line rate; the batched soft switch now holds the 10G
//  wire even at 64B (the per-packet PR-1 datapath was CPU-bound
//  there); the HARMLESS path crosses SS_1 twice per packet, so its
//  64B NDR still trails native (~0.7x) until serialization dominates.
//
//  Table 2 (deployment envelope): offered load fixed at the 1G access
//  line rate — the rates a migrated legacy switch actually serves.
//  Here HARMLESS tracks the legacy baseline at every frame size: the
//  paper's "no major performance penalty" in its operating regime.
//
//  Table 3 (flow-cache fast path): CPU-bound capacity of the software
//  datapath on a skewed elephant-flow workload against an
//  enterprise-shaped pipeline (prefix ACL + exact L2), with the
//  two-tier microflow/megaflow cache on vs off. Reports hit rates and
//  simulated Mpps; the cached datapath wins ~2.2-2.4x on a thin
//  16-rule ACL and >=3x (~4x) at realistic ACL sizes, because the
//  cache decouples per-packet cost from rule count entirely.
//
//  Table 4 (burst amortization): the batched datapath
//  (Pipeline::run_burst + DatapathCosts::bill_ns) against the
//  per-packet datapath on the same skewed workload, swept over
//  burst sizes. Batching amortizes the fixed rx/tx overhead and one
//  replay setup per megaflow group across the burst, so the speedup
//  grows super-linearly toward an asymptote set by the per-packet
//  marginal costs: >=1.5x at burst 32 with the defaults. The burst
//  bill includes the per-queue rx poll sweep, so burst 1 pays for
//  polling every port to pull one packet — batching's honest floor.
//
//  Table 5 (head-of-line blocking): the per-port RX queue + burst
//  scheduler redesign, measured. An elephant port overloads the
//  datapath ~12x while a mouse port asks for 75% of its fair share:
//  FCFS over the shared buffer collapses the mouse; RR and DRR over
//  per-port queues hold it at ~100% of demand.
//
//  Table 6 (cache scaling): the dpcls-style per-mask subtable
//  classifier vs the linear-scan ablation as the megaflow population
//  grows 64 -> 4096 on a skewed multi-mask workload. Linear tier-2
//  cost is O(#megaflows) and degrades super-linearly with population;
//  subtable cost is O(#subtables) with hit-ranked probing, so it stays
//  flat and resolves skewed traffic in <2 hashed probes per tier-2
//  lookup.
//
//  Everything is also written to BENCH_throughput.json so the numbers
//  are diffable across PRs. `--quick` shrinks every sweep to a smoke
//  run (the CI bench job uses it to keep perf evidence executable
//  without paying the full sweep).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;

namespace {

std::size_t kTrialPackets = 4'000;  // --quick shrinks it (and every sweep)
constexpr double kLossBudget = 0.005;  // 0.5%

/// Offered fraction of line rate -> measured loss ratio.
template <typename Rig>
double loss_at(const RigOptions& options, std::size_t frame_size, double fraction) {
  Rig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  const double line_interval =
      static_cast<double>(options.access_link.rate.serialization_ns(frame_size));
  const auto interval = static_cast<sim::SimNanos>(std::ceil(line_interval / fraction));
  rig.stream(0, 1, kTrialPackets, frame_size, interval);
  rig.network.run();
  return 1.0 - static_cast<double>(recorder.completed()) / kTrialPackets;
}

/// RFC 2544-ish binary search for the no-drop rate, in packets/s.
template <typename Rig>
double ndr_pps(const RigOptions& options, std::size_t frame_size) {
  const double line_pps =
      1e9 / static_cast<double>(options.access_link.rate.serialization_ns(frame_size));
  if (loss_at<Rig>(options, frame_size, 1.0) <= kLossBudget) return line_pps;
  double lo = 0.01, hi = 1.0;
  for (int step = 0; step < 9; ++step) {
    const double mid = (lo + hi) / 2;
    if (loss_at<Rig>(options, frame_size, mid) <= kLossBudget)
      lo = mid;
    else
      hi = mid;
  }
  return line_pps * lo;
}

/// Fixed-rate delivery (Table 2): offered exactly at line rate.
template <typename Rig>
Throughput delivered_at_line(const RigOptions& options, std::size_t frame_size) {
  Rig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, kTrialPackets, frame_size,
             options.access_link.rate.serialization_ns(frame_size));
  rig.network.run();
  return measure(recorder, frame_size);
}

// ---- Tables 3/4: the flow-cache fast path on a skewed workload -------

struct SkewedTuple {
  int src, dst;
  std::uint16_t sport, dport;
};

/// Enterprise-shaped pipeline: a prefix ACL nothing in the workload
/// hits (the common case for ACLs) falling through to exact L2.
void build_skewed_pipeline(openflow::Pipeline& pipeline, util::Rng& rng, int hosts,
                           int acl_rules) {
  using namespace openflow;
  for (int i = 0; i < acl_rules; ++i) {
    FlowEntry entry;
    entry.priority = static_cast<std::uint16_t>(20 + i % 8);
    entry.match.eth_type(0x0800).ip_dst_prefix(
        net::Ipv4Addr(0xc0a80000u + (static_cast<std::uint32_t>(rng.below(1u << 16)))),
        static_cast<int>(16 + rng.below(9)));
    entry.instructions = Instructions{};
    pipeline.table(0).add(std::move(entry), 0).check();
  }
  FlowEntry to_l2;
  to_l2.priority = 1;
  to_l2.instructions = apply_then_goto({}, 1);
  pipeline.table(0).add(std::move(to_l2), 0).check();
  for (int i = 0; i < hosts; ++i) {
    FlowEntry entry;
    entry.priority = 10;
    entry.match.eth_dst(host_mac(i));
    entry.instructions = apply({openflow::output(static_cast<std::uint32_t>(1 + i))});
    pipeline.table(1).add(std::move(entry), 0).check();
  }
}

/// Skewed traffic: 8 elephant 5-tuples carry 90% of packets; the mice
/// tail sprays random host pairs and L4 ports (distinct microflows
/// that still collapse onto per-destination megaflows).
SkewedTuple next_skewed_tuple(util::Rng& rng, int hosts) {
  if (rng.chance(0.9)) {
    const int e = static_cast<int>(rng.below(8));
    return {e % hosts, (e + 1) % hosts, static_cast<std::uint16_t>(10'000 + e), 443};
  }
  SkewedTuple tuple;
  tuple.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts)));
  tuple.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts)));
  tuple.sport = static_cast<std::uint16_t>(1024 + rng.below(40'000));
  tuple.dport = static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 8000 + rng.below(100));
  return tuple;
}

net::Packet tuple_packet(const SkewedTuple& tuple) {
  net::FlowKey key;
  key.eth_src = host_mac(tuple.src);
  key.eth_dst = host_mac(tuple.dst);
  key.ip_src = host_ip(tuple.src);
  key.ip_dst = host_ip(tuple.dst);
  key.src_port = tuple.sport;
  key.dst_port = tuple.dport;
  return net::make_udp(key, 64);
}

struct CacheRun {
  double mpps = 0;       // 1000 / average simulated ns per packet
  double hit_rate = 0;   // fraction of packets served by the cache
  double micro_rate = 0; // microflow (tier-1) share of all packets
  std::size_t megaflows = 0;
};

/// Service-cost model of one soft-switch core (rx/tx + pipeline +
/// cache accounting, exactly as SoftSwitch bills a per-packet burst),
/// driven CPU-bound: capacity = 1e9 / avg_ns packets per second.
CacheRun skewed_capacity(bool flow_cache, int hosts, int acl_rules, std::size_t packets) {
  using namespace openflow;
  Pipeline pipeline(/*table_count=*/2, /*specialized=*/true, flow_cache);
  softswitch::DatapathCosts costs;
  util::Rng rng(7);
  build_skewed_pipeline(pipeline, rng, hosts, acl_rules);

  sim::SimNanos total_ns = 0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < packets; ++i) {
    const SkewedTuple tuple = next_skewed_tuple(rng, hosts);
    const auto now = static_cast<sim::SimNanos>(i) * 100;
    auto result = pipeline.run(tuple_packet(tuple), 1 + static_cast<std::uint32_t>(tuple.src),
                               now);
    total_ns += costs.packet_cost_ns(result);
    if (result.cache_hit) ++hits;
  }

  CacheRun run;
  const double avg_ns = static_cast<double>(total_ns) / static_cast<double>(packets);
  run.mpps = 1000.0 / avg_ns;
  run.hit_rate = static_cast<double>(hits) / static_cast<double>(packets);
  run.micro_rate = static_cast<double>(pipeline.cache().stats().microflow_hits) /
                   static_cast<double>(packets);
  run.megaflows = pipeline.cache().megaflow_count();
  return run;
}

struct BatchedRun {
  double mpps = 0;
  double hit_rate = 0;
  double groups_per_burst = 0;  // distinct megaflows replayed per burst
};

/// The batched datapath on the identical workload (same rng seed, so
/// the exact same packet sequence): bursts of `burst_size` through
/// Pipeline::run_burst, billed by DatapathCosts::bill_ns — exactly as
/// SoftSwitch::service_burst charges a batched burst.
BatchedRun skewed_capacity_batched(std::size_t burst_size, int hosts, int acl_rules,
                                   std::size_t packets) {
  using namespace openflow;
  Pipeline pipeline(/*table_count=*/2, /*specialized=*/true, /*flow_cache=*/true);
  softswitch::DatapathCosts costs;
  util::Rng rng(7);
  build_skewed_pipeline(pipeline, rng, hosts, acl_rules);

  sim::SimNanos total_ns = 0;
  std::uint64_t hits = 0, bursts = 0, groups = 0;
  std::vector<BurstPacket> burst;
  burst.reserve(burst_size);
  for (std::size_t i = 0; i < packets; ++i) {
    const SkewedTuple tuple = next_skewed_tuple(rng, hosts);
    burst.push_back(BurstPacket{tuple_packet(tuple), 1 + static_cast<std::uint32_t>(tuple.src)});
    if (burst.size() < burst_size && i + 1 < packets) continue;

    const auto now = static_cast<sim::SimNanos>(i) * 100;
    const std::size_t count = burst.size();
    BurstResult result = pipeline.run_burst(std::move(burst), now);
    burst.clear();
    burst.reserve(burst_size);
    sim::SimNanos marginal_ns = 0;
    for (const PipelineResult& packet_result : result.results)
      marginal_ns += costs.marginal_cost_ns(packet_result);
    softswitch::DatapathCosts::BurstWork work;
    work.queues_polled = static_cast<std::size_t>(hosts);
    work.replay_groups = result.replay_groups;
    total_ns += costs.bill_ns(work, count, 1, marginal_ns);
    ++bursts;
    groups += result.replay_groups;
    for (const PipelineResult& packet_result : result.results)
      if (packet_result.cache_hit) ++hits;
  }

  BatchedRun run;
  const double avg_ns = static_cast<double>(total_ns) / static_cast<double>(packets);
  run.mpps = 1000.0 / avg_ns;
  run.hit_rate = static_cast<double>(hits) / static_cast<double>(packets);
  run.groups_per_burst = static_cast<double>(groups) / static_cast<double>(bursts);
  return run;
}

// ---- Table 5: head-of-line blocking across ports vs the scheduler ----

struct HolRun {
  double mouse_offered_pps = 0;
  double mouse_delivered_pps = 0;
  double mouse_share = 0;  // delivered / offered (offered < fair share)
  double mouse_p99_us = 0;
  double elephant_delivered_pps = 0;
  std::uint64_t mouse_port_drops = 0;
  std::uint64_t elephant_port_drops = 0;
};

/// One elephant port saturating the switch ~12x, one mouse port asking
/// for ~75% of its fair share (capacity / 2 active ports). The
/// datapath is deliberately slowed (rx_tx_pkt_ns) so the batched
/// burst-32 loop is the bottleneck, not the 10G wires — this isolates
/// what the *scheduler* does under compute overload. FCFS runs the
/// pre-refactor shared buffer; RR/DRR partition it per port.
HolRun hol_run(sim::SchedulerKind scheduler, std::size_t port_queue_capacity) {
  RigOptions options;
  options.host_count = 4;
  options.access_link = sim::LinkSpec::gbps(10);
  options.sw.burst_size = 32;
  options.sw.ingress.scheduler = scheduler;
  options.sw.ingress.port_queue_capacity = port_queue_capacity;
  options.sw.costs.rx_tx_pkt_ns = 600;  // ~1.6 Mpps core: the elephant overloads it
  NativeRig rig(options);

  sim::LatencyRecorder mouse, elephant;
  rig.hosts[1]->set_recorder(&mouse);
  rig.hosts[3]->set_recorder(&mouse);
  rig.hosts[0]->set_recorder(&elephant);
  rig.hosts[2]->set_recorder(&elephant);

  const sim::SimNanos line = options.access_link.rate.serialization_ns(64);
  const std::size_t kElephant = kTrialPackets * 30;
  const std::size_t kMice = kTrialPackets;
  rig.stream(0, 2, kElephant, 64, line);        // 19.2 Mpps offered
  rig.stream(1, 3, kMice, 64, line * 32);       // ~0.6 Mpps: 75% of fair share
  rig.network.run();

  HolRun run;
  run.mouse_offered_pps = 1e9 / static_cast<double>(line * 32);
  run.mouse_delivered_pps = measure(mouse, 64).pps;
  run.mouse_share = static_cast<double>(mouse.completed()) / kMice;
  run.mouse_p99_us = mouse.latency().p99() / 1000.0;
  run.elephant_delivered_pps = measure(elephant, 64).pps;
  run.mouse_port_drops = rig.datapath->rx_queue_drops(2);
  run.elephant_port_drops = rig.datapath->rx_queue_drops(1);
  return run;
}

// ---- Table 6: megaflow classifier scaling (dpcls subtables vs linear) ----

struct ScalingRun {
  double mpps = 0;          // CPU-bound capacity, steady state
  double probes_per_t2 = 0; // tier-2 work units per tier-2 lookup
  double hit_rate = 0;
  std::size_t megaflows = 0;
  std::size_t subtables = 0;
};

/// Skewed multi-mask workload against a warmed cache of `flows`
/// megaflows spread over `mask_classes` distinct mask signatures
/// (disjoint ip_dst prefixes of different lengths in table 0, exact L2
/// in table 1). Hot five-tuples stay on tier 1; the mice tail churns
/// sports so every mouse is a tier-2 lookup, 80% of them inside mask
/// class 0 — the skew the hit-ranked probe order exploits. The linear
/// ablation pays one masked compare per resident megaflow instead
/// (cache_scan_ns vs cache_subtable_ns, as the datapath bills them).
ScalingRun cache_scaling(bool linear, int flows, int mask_classes, std::size_t packets) {
  using namespace openflow;
  Pipeline pipeline(/*table_count=*/2, /*specialized=*/true, /*flow_cache=*/true);
  pipeline.cache().set_linear_scan(linear);
  FlowCache::Limits limits;
  limits.max_megaflows = 8192;  // population, not capacity, is the variable
  limits.max_microflows = 1u << 16;
  pipeline.cache().set_limits(limits);
  softswitch::DatapathCosts costs;
  util::Rng rng(11);

  // Table 0: one disjoint ip_dst prefix per mask class, each with a
  // distinct prefix length -> distinct megaflow mask signature.
  for (int k = 0; k < mask_classes; ++k) {
    FlowEntry entry;
    entry.priority = 20;
    entry.match.eth_type(0x0800).ip_dst_prefix(
        net::Ipv4Addr(static_cast<std::uint32_t>(10 + k) << 24), 9 + k);
    entry.instructions = apply_then_goto({}, 1);
    pipeline.table(0).add(std::move(entry), 0).check();
  }
  FlowEntry to_l2;
  to_l2.priority = 1;
  to_l2.instructions = apply_then_goto({}, 1);
  pipeline.table(0).add(std::move(to_l2), 0).check();
  for (int f = 0; f < flows; ++f) {
    FlowEntry entry;
    entry.priority = 10;
    entry.match.eth_dst(host_mac(f));
    entry.instructions = apply({openflow::output(static_cast<std::uint32_t>(1 + f % 16))});
    pipeline.table(1).add(std::move(entry), 0).check();
  }

  auto flow_packet = [&](int f, std::uint16_t sport) {
    const int k = f % mask_classes;
    net::FlowKey key;
    key.eth_src = host_mac(f % 16);
    key.eth_dst = host_mac(f);
    key.ip_src = host_ip(f % 16);
    key.ip_dst = net::Ipv4Addr((static_cast<std::uint32_t>(10 + k) << 24) |
                               (static_cast<std::uint32_t>(f) & 0xffff));
    key.src_port = sport;
    key.dst_port = 443;
    return net::make_udp(key, 64);
  };

  // Warm the cache to full population (one slow path per flow); the
  // warmup is not billed — Table 6 measures steady-state lookup cost.
  sim::SimNanos now = 0;
  for (int f = 0; f < flows; ++f)
    (void)pipeline.run(flow_packet(f, 9), 1, now += 100);
  const FlowCache::Stats warm = pipeline.cache().stats();

  sim::SimNanos total_ns = 0;
  std::uint64_t hits = 0, scanned = 0;
  for (std::size_t i = 0; i < packets; ++i) {
    int f;
    std::uint16_t sport;
    if (rng.chance(0.9)) {  // hot tier-1 five-tuples, all in class 0
      f = static_cast<int>(rng.below(8)) * mask_classes % flows;
      sport = static_cast<std::uint16_t>(10'000 + f);
    } else if (rng.chance(0.8)) {  // mice skewed into mask class 0
      f = static_cast<int>(rng.below(static_cast<std::uint64_t>(flows / mask_classes))) *
          mask_classes;
      sport = static_cast<std::uint16_t>(1024 + rng.below(40'000));
    } else {  // uniform mice across every mask class
      f = static_cast<int>(rng.below(static_cast<std::uint64_t>(flows)));
      sport = static_cast<std::uint16_t>(1024 + rng.below(40'000));
    }
    auto result = pipeline.run(flow_packet(f, sport), 1, now += 100);
    total_ns += costs.packet_cost_ns(result);
    scanned += result.work.subtable_probes + result.work.linear_compares;
    if (result.cache_hit) ++hits;
  }

  const FlowCache::Stats& stats = pipeline.cache().stats();
  const std::uint64_t t2 = (stats.megaflow_hits - warm.megaflow_hits) +
                           (stats.misses - warm.misses);
  ScalingRun run;
  run.mpps = 1000.0 * static_cast<double>(packets) / static_cast<double>(total_ns);
  run.probes_per_t2 = t2 == 0 ? 0 : static_cast<double>(scanned) / static_cast<double>(t2);
  run.hit_rate = static_cast<double>(hits) / static_cast<double>(packets);
  run.megaflows = pipeline.cache().megaflow_count();
  run.subtables = pipeline.cache().subtable_count();
  return run;
}

// ---- Table 7: multi-core scaling (RSS-sharded worker cores) ----------

struct CoreScaleRun {
  double delivered_pps = 0;
  double hit_rate = 0;
  std::uint64_t queue_drops = 0;
  /// Load balance across cores: slowest core's busy_ns / mean busy_ns
  /// (1.0 = perfectly balanced; the makespan model makes imbalance
  /// visible as idle cycles on the fast cores).
  double busy_imbalance = 0;
  std::size_t busiest_core_queues = 0;
};

/// Every port offers its 1G line rate of 64B frames to its neighbor —
/// an aggregate overload of the deliberately slowed (rx_tx_pkt_ns)
/// burst-32 datapath, so delivered throughput measures the compute
/// capacity of the worker-core pool, not the wires. Skewed traffic
/// keeps 90% of each port on its hot five-tuple (tier-1 resident) and
/// churns sports on the rest; uniform churns every packet's sport.
/// Steering is the CoreSpec policy under test: RSS hash (what a NIC
/// indirection table does) or stride pinning (exact balance).
CoreScaleRun core_scaling_run(std::size_t cores, int ports, bool skewed,
                              sim::RssPolicy policy, std::size_t packets) {
  RigOptions options;
  options.host_count = ports;
  options.access_link = sim::LinkSpec::gbps(1);
  options.sw.burst_size = 32;
  options.sw.ingress.cores.cores = cores;
  options.sw.ingress.cores.rss = policy;
  // Partitioned ingress buffers (the PR-3 isolation knob), with the
  // shared bound lifted out of the way: under a shared buffer, a
  // heavily-steered core's ports monopolize admission and starve the
  // light cores — measuring buffer crowding, not steering. Partitioned,
  // imbalance shows up where it belongs: as idle makespan on
  // under-steered cores (and empty cores at high core counts, the real
  // port-hash failure mode).
  options.sw.ingress.port_queue_capacity = 256;
  options.sw.ingress.queue_capacity = static_cast<std::size_t>(ports) * 256;
  options.sw.costs.rx_tx_pkt_ns = 600;  // ~1.6 Mpps per core: the ports overload it
  NativeRig rig(options);

  sim::LatencyRecorder recorder;
  for (sim::Host* host : rig.hosts) host->set_recorder(&recorder);

  util::Rng rng(13);
  const sim::SimNanos line = options.access_link.rate.serialization_ns(64);
  for (int p = 0; p < ports; ++p) {
    const int dst = (p + 1) % ports;
    for (std::size_t i = 0; i < packets; ++i) {
      const std::uint16_t sport = (skewed && rng.chance(0.9))
                                      ? static_cast<std::uint16_t>(10'000 + p)
                                      : static_cast<std::uint16_t>(1024 + rng.below(40'000));
      rig.network.engine().schedule_at(
          static_cast<sim::SimNanos>(i) * line, [&rig, p, dst, sport] {
            SkewedTuple tuple{p, dst, sport, 443};
            rig.hosts[static_cast<std::size_t>(p)]->send(tuple_packet(tuple));
          });
    }
  }
  rig.network.run();

  CoreScaleRun run;
  run.delivered_pps = measure(recorder, 64).pps;
  run.queue_drops = rig.datapath->queue_drops();
  const auto& counters = rig.datapath->counters();
  const std::uint64_t cache_total = counters.cache_hits + counters.cache_misses;
  run.hit_rate = cache_total == 0
                     ? 0
                     : static_cast<double>(counters.cache_hits) / static_cast<double>(cache_total);
  sim::SimNanos busy_sum = 0, busy_max = 0;
  for (std::size_t core = 0; core < rig.datapath->core_count(); ++core) {
    const sim::SimNanos busy = rig.datapath->core_busy_ns(core);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    run.busiest_core_queues =
        std::max(run.busiest_core_queues, rig.datapath->core_queue_count(core));
  }
  run.busy_imbalance = busy_sum == 0 ? 0
                                     : static_cast<double>(busy_max) * static_cast<double>(cores) /
                                           static_cast<double>(busy_sum);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: the CI smoke configuration — every sweep shrunk so the
  // whole bench (and its JSON artifact) runs in seconds. The committed
  // BENCH_throughput.json always comes from a full run.
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  if (quick) kTrialPackets = 1'000;
  const std::vector<std::size_t> frame_sizes =
      quick ? std::vector<std::size_t>{64, 512}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024, 1500};
  const std::vector<int> cache_hosts = quick ? std::vector<int>{16} : std::vector<int>{16, 64};
  const std::vector<int> cache_acls = quick ? std::vector<int>{16} : std::vector<int>{16, 48};
  const std::vector<std::size_t> burst_sizes =
      quick ? std::vector<std::size_t>{1, 32}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64, 128};
  const std::vector<int> scaling_populations =
      quick ? std::vector<int>{64, 512} : std::vector<int>{64, 256, 1024, 4096};
  const std::size_t skew_packets = quick ? 30'000 : 200'000;
  const std::size_t scaling_packets = quick ? 30'000 : 120'000;
  const std::vector<int> core_scale_ports = quick ? std::vector<int>{8} : std::vector<int>{8, 16};
  const std::vector<std::size_t> core_counts =
      quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t core_scale_packets = quick ? 1'500 : 6'000;  // per port

  std::cout << "E1 - throughput: legacy vs native software switch vs HARMLESS\n"
            << "(unidirectional h1->h2, preinstalled L2 state, " << kTrialPackets
            << " packets per trial" << (quick ? ", QUICK mode" : "") << ")\n\n";
  Json report = Json::object();

  {
    RigOptions options;
    options.access_link = sim::LinkSpec::gbps(10);
    options.trunk_link = sim::LinkSpec::gbps(10);
    std::cout << "Table 1 - no-drop rate on a 10G feed (<0.5% loss, binary search):\n";
    util::Table table({"frame", "legacy (pps)", "native SS (pps)", "HARMLESS (pps)",
                       "HARMLESS (Gb/s)", "vs legacy", "vs native"});
    Json rows = Json::array();
    for (const std::size_t frame_size : frame_sizes) {
      const double legacy_pps = ndr_pps<LegacyRig>(options, frame_size);
      const double native_pps = ndr_pps<NativeRig>(options, frame_size);
      const double harmless_pps = ndr_pps<HarmlessRig>(options, frame_size);
      table.add_row({std::to_string(frame_size) + "B", util::si_format(legacy_pps, "pps"),
                     util::si_format(native_pps, "pps"), util::si_format(harmless_pps, "pps"),
                     util::format("%.2f", harmless_pps * static_cast<double>(frame_size) * 8 / 1e9),
                     util::format("%.2fx", harmless_pps / legacy_pps),
                     util::format("%.2fx", harmless_pps / native_pps)});
      rows.push(Json::object()
                    .set("frame_bytes", frame_size)
                    .set("legacy_pps", legacy_pps)
                    .set("native_pps", native_pps)
                    .set("harmless_pps", harmless_pps));
    }
    std::cout << table.to_string() << '\n';
    report.set("ndr_10g", std::move(rows));
  }

  {
    RigOptions options;
    options.access_link = sim::LinkSpec::gbps(1);
    options.trunk_link = sim::LinkSpec::gbps(10);
    std::cout << "Table 2 - goodput at the 1G access line rate (deployment envelope):\n";
    util::Table table({"frame", "legacy (pps)", "native SS (pps)", "HARMLESS (pps)",
                       "HARMLESS (Gb/s)", "vs legacy", "vs native"});
    Json rows = Json::array();
    for (const std::size_t frame_size : frame_sizes) {
      const Throughput legacy_tp = delivered_at_line<LegacyRig>(options, frame_size);
      const Throughput native_tp = delivered_at_line<NativeRig>(options, frame_size);
      const Throughput harmless_tp = delivered_at_line<HarmlessRig>(options, frame_size);
      table.add_row({std::to_string(frame_size) + "B", util::si_format(legacy_tp.pps, "pps"),
                     util::si_format(native_tp.pps, "pps"),
                     util::si_format(harmless_tp.pps, "pps"),
                     util::format("%.2f", harmless_tp.gbps),
                     util::format("%.2fx", harmless_tp.pps / legacy_tp.pps),
                     util::format("%.2fx", harmless_tp.pps / native_tp.pps)});
      rows.push(Json::object()
                    .set("frame_bytes", frame_size)
                    .set("legacy_pps", legacy_tp.pps)
                    .set("native_pps", native_tp.pps)
                    .set("harmless_pps", harmless_tp.pps));
    }
    std::cout << table.to_string() << '\n';
    report.set("goodput_1g", std::move(rows));
  }

  {
    std::cout << "Table 3 - flow-cache fast path: CPU-bound soft-switch capacity on a\n"
                 "skewed elephant-flow workload (90% of packets from 8 five-tuples,\n"
                 "64B frames, prefix-ACL + exact-L2 pipeline):\n";
    util::Table table({"hosts", "ACL rules", "cache", "sim Mpps", "hit rate",
                       "microflow share", "megaflows", "speedup"});
    Json rows = Json::array();
    for (const int hosts : cache_hosts) {
      for (const int acl_rules : cache_acls) {
        const CacheRun off = skewed_capacity(false, hosts, acl_rules, skew_packets);
        const CacheRun on = skewed_capacity(true, hosts, acl_rules, skew_packets);
        table.add_row({std::to_string(hosts), std::to_string(acl_rules), "off",
                       util::format("%.2f", off.mpps), "-", "-", "-", "1.00x"});
        table.add_row({std::to_string(hosts), std::to_string(acl_rules), "on",
                       util::format("%.2f", on.mpps),
                       util::format("%.1f%%", on.hit_rate * 100),
                       util::format("%.1f%%", on.micro_rate * 100),
                       std::to_string(on.megaflows),
                       util::format("%.2fx", on.mpps / off.mpps)});
        rows.push(Json::object()
                      .set("hosts", hosts)
                      .set("acl_rules", acl_rules)
                      .set("uncached_mpps", off.mpps)
                      .set("cached_mpps", on.mpps)
                      .set("hit_rate", on.hit_rate)
                      .set("microflow_share", on.micro_rate)
                      .set("megaflows", on.megaflows)
                      .set("speedup", on.mpps / off.mpps));
      }
    }
    std::cout << table.to_string() << '\n';
    report.set("flow_cache", std::move(rows));
  }

  {
    constexpr int kHosts = 64;
    constexpr int kAclRules = 48;
    const std::size_t kPackets = skew_packets;
    const CacheRun per_packet = skewed_capacity(true, kHosts, kAclRules, kPackets);
    std::cout << "Table 4 - burst amortization: batched vs per-packet datapath on the\n"
                 "skewed elephant-flow workload (" << kHosts << " hosts, " << kAclRules
              << "-rule ACL, cache on,\nper-packet baseline "
              << util::format("%.2f", per_packet.mpps) << " Mpps):\n";
    util::Table table({"burst", "sim Mpps", "hit rate", "groups/burst", "vs per-packet"});
    Json rows = Json::array();
    for (const std::size_t burst : burst_sizes) {
      const BatchedRun run = skewed_capacity_batched(burst, kHosts, kAclRules, kPackets);
      table.add_row({std::to_string(burst), util::format("%.2f", run.mpps),
                     util::format("%.1f%%", run.hit_rate * 100),
                     util::format("%.1f", run.groups_per_burst),
                     util::format("%.2fx", run.mpps / per_packet.mpps)});
      rows.push(Json::object()
                    .set("burst_size", burst)
                    .set("batched_mpps", run.mpps)
                    .set("hit_rate", run.hit_rate)
                    .set("groups_per_burst", run.groups_per_burst)
                    .set("speedup_vs_per_packet", run.mpps / per_packet.mpps));
    }
    std::cout << table.to_string() << '\n';
    report.set("burst_sweep",
               Json::object().set("per_packet_mpps", per_packet.mpps).set("rows", std::move(rows)));
  }

  {
    std::cout << "Table 5 - head-of-line blocking across ports: an elephant port\n"
                 "saturating the burst-32 datapath ~12x vs a mouse port asking for 75%\n"
                 "of its fair share (64B, per-port rx queues, scheduler dimension):\n";
    util::Table table({"scheduler", "queues", "mouse pps", "of its demand", "p99 (us)",
                       "elephant pps", "mouse drops", "elephant drops"});
    Json rows = Json::array();
    struct Config {
      sim::SchedulerKind scheduler;
      std::size_t port_queue_capacity;
      const char* queues;
    };
    const Config configs[] = {
        {sim::SchedulerKind::kFcfs, 0, "shared"},  // the pre-refactor datapath
        {sim::SchedulerKind::kRoundRobin, 256, "per-port"},
        {sim::SchedulerKind::kDrr, 256, "per-port"},
    };
    for (const Config& config : configs) {
      const HolRun run = hol_run(config.scheduler, config.port_queue_capacity);
      table.add_row({sim::to_string(config.scheduler), config.queues,
                     util::si_format(run.mouse_delivered_pps, "pps"),
                     util::format("%.0f%%", run.mouse_share * 100),
                     util::format("%.1f", run.mouse_p99_us),
                     util::si_format(run.elephant_delivered_pps, "pps"),
                     std::to_string(run.mouse_port_drops),
                     std::to_string(run.elephant_port_drops)});
      rows.push(Json::object()
                    .set("scheduler", sim::to_string(config.scheduler))
                    .set("port_queue_capacity", config.port_queue_capacity)
                    .set("mouse_offered_pps", run.mouse_offered_pps)
                    .set("mouse_delivered_pps", run.mouse_delivered_pps)
                    .set("mouse_share_of_demand", run.mouse_share)
                    .set("mouse_p99_us", run.mouse_p99_us)
                    .set("elephant_delivered_pps", run.elephant_delivered_pps)
                    .set("mouse_port_drops", run.mouse_port_drops)
                    .set("elephant_port_drops", run.elephant_port_drops));
    }
    std::cout << table.to_string() << '\n';
    report.set("hol_blocking", std::move(rows));
  }

  {
    std::cout << "Table 6 - cache scaling: dpcls-style per-mask subtables vs the\n"
                 "linear-scan ablation as the megaflow population grows (skewed\n"
                 "multi-mask workload: 90% hot tier-1 five-tuples, mice tail 80%\n"
                 "inside mask class 0, steady state after warmup):\n";
    util::Table table({"megaflows", "masks", "subtables", "linear Mpps", "dpcls Mpps",
                       "speedup", "scans/t2 (linear)", "probes/t2 (dpcls)"});
    Json rows = Json::array();
    for (const int flows : scaling_populations) {
      for (const int mask_classes : {1, 8}) {
        const ScalingRun linear =
            cache_scaling(/*linear=*/true, flows, mask_classes, scaling_packets);
        const ScalingRun dpcls =
            cache_scaling(/*linear=*/false, flows, mask_classes, scaling_packets);
        table.add_row({std::to_string(dpcls.megaflows), std::to_string(mask_classes),
                       std::to_string(dpcls.subtables), util::format("%.2f", linear.mpps),
                       util::format("%.2f", dpcls.mpps),
                       util::format("%.2fx", dpcls.mpps / linear.mpps),
                       util::format("%.1f", linear.probes_per_t2),
                       util::format("%.2f", dpcls.probes_per_t2)});
        rows.push(Json::object()
                      .set("population", flows)
                      .set("mask_classes", mask_classes)
                      .set("megaflows", dpcls.megaflows)
                      .set("subtables", dpcls.subtables)
                      .set("linear_mpps", linear.mpps)
                      .set("dpcls_mpps", dpcls.mpps)
                      .set("speedup", dpcls.mpps / linear.mpps)
                      .set("linear_scans_per_t2", linear.probes_per_t2)
                      .set("dpcls_probes_per_t2", dpcls.probes_per_t2)
                      .set("hit_rate", dpcls.hit_rate));
      }
    }
    std::cout << table.to_string() << '\n';
    report.set("cache_scaling", std::move(rows));
  }

  {
    std::cout << "Table 7 - multi-core scaling: RSS-sharded worker cores (per-core RX\n"
                 "queue subsets, schedulers and flow-cache shards; lockstep makespan\n"
                 "time advance) on an all-ports 64B overload of the slowed burst-32\n"
                 "datapath (~1.6 Mpps/core, 1G access feeds):\n";
    util::Table table({"ports", "workload", "steering", "cores", "delivered", "speedup",
                       "hit rate", "busy max/mean", "max queues/core"});
    Json rows = Json::array();
    for (const int ports : core_scale_ports) {
      for (const bool skewed : {true, false}) {
        if (!skewed && quick) continue;  // quick mode: skewed only
        for (const sim::RssPolicy policy : {sim::RssPolicy::kHash, sim::RssPolicy::kStride}) {
          if (!skewed && policy == sim::RssPolicy::kStride) continue;  // steering dim on skew
          double base_pps = 0;
          for (const std::size_t cores : core_counts) {
            const CoreScaleRun run =
                core_scaling_run(cores, ports, skewed, policy, core_scale_packets);
            if (cores == 1) base_pps = run.delivered_pps;
            const double speedup = base_pps == 0 ? 0 : run.delivered_pps / base_pps;
            table.add_row({std::to_string(ports), skewed ? "skewed" : "uniform",
                           sim::to_string(policy), std::to_string(cores),
                           util::si_format(run.delivered_pps, "pps"),
                           util::format("%.2fx", speedup),
                           util::format("%.1f%%", run.hit_rate * 100),
                           util::format("%.2f", run.busy_imbalance),
                           std::to_string(run.busiest_core_queues)});
            rows.push(Json::object()
                          .set("ports", ports)
                          .set("workload", skewed ? "skewed" : "uniform")
                          .set("steering", sim::to_string(policy))
                          .set("cores", cores)
                          .set("delivered_pps", run.delivered_pps)
                          .set("speedup_vs_1core", speedup)
                          .set("hit_rate", run.hit_rate)
                          .set("queue_drops", run.queue_drops)
                          .set("busy_imbalance", run.busy_imbalance)
                          .set("busiest_core_queues", run.busiest_core_queues));
          }
        }
      }
    }
    std::cout << table.to_string() << '\n';
    report.set("core_scaling", std::move(rows));
  }

  std::cout << "Shape check: Table 2 should read 1.00x across the board (the paper's\n"
               "'no major performance penalty' at access-network rates). Table 1 shows\n"
               "the honest capacity bill: the batched native switch holds the 10G wire\n"
               "even at 64B; HARMLESS still pays the double SS_1 crossing at the\n"
               "smallest frames (~0.7x) and converges to line rate from 128B on.\n"
               "Table 3 should show a >99% hit rate with a handful of megaflows\n"
               "covering the whole mice tail (fields no rule examines stay wild), and\n"
               "cached-vs-uncached speedup growing with ACL size: ~2.2-2.4x on the\n"
               "thin 16-rule ACL, >=3x (~4x) at the realistic 48-rule table — cached\n"
               "cost is flat in rule count, uncached cost is not.\n"
               "Table 4 should show batching losing badly at burst 1 (polling 64\n"
               "port queues to pull one packet), breaking even around burst 8, and\n"
               ">=1.5x from burst 32 on as the fixed rx/tx cost, the per-queue poll\n"
               "sweep and the per-group replay setup spread across the burst.\n"
               "Table 5 is the scheduler payoff: FCFS over the shared buffer\n"
               "collapses the mouse port to a sliver of its demand (the elephant's\n"
               "backlog owns both the buffer and the service order), while RR and\n"
               "DRR over per-port queues hold it within 5% of what it asked for —\n"
               "per-port isolation through an overload, the property operators\n"
               "expect the SDN-fronted box to preserve.\n"
               "Table 6 is the classifier payoff: linear tier-2 cost grows with the\n"
               "resident megaflow population (super-linear Mpps decay, thousands of\n"
               "masked compares per tier-2 lookup at 4096 entries), while the\n"
               "subtable classifier stays flat (+-2x across 64 -> 4096) and the\n"
               "hit-ranked probe order resolves the skewed tail in <2 hashed probes\n"
               "per tier-2 lookup regardless of mask diversity.\n"
               "Table 7 is the multi-core payoff, makespan-honest: stride steering\n"
               "scales ~linearly (2x/4x/8x, busy max/mean 1.00), NIC-style hash\n"
               "steering lands ~3.7-3.8x at 4 cores and visibly degrades where the\n"
               "port-hash leaves cores empty (8 cores on 8 ports: ~4.7x) — exactly\n"
               "why operators pin queues when ports are few. cores=1 reproduces\n"
               "Tables 1-6 unchanged.\n";
  write_bench_json("BENCH_throughput.json", report);
  return 0;
}
