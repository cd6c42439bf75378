// Sharding-coherence theorems, as differential property tests (the
// scheduler_equivalence_test.cpp approach, one layer up: the cores).
//
// The multi-core datapath — RSS-steered per-core queue subsets, one
// BurstScheduler and one flow-cache shard per core, makespan time
// advance — must be semantically invisible: it may reorder service
// across cores and change every timing number, but never *what* is
// delivered, punted, matched, or counted. Two theorems pin it down:
//
//  1. For ANY RSS map (random core counts, hash or stride steering)
//     and any drained-between-waves flow-mod interleaving, the sharded switch delivers the identical
//     per-host packet multiset, the identical packet-ins, identical
//     per-rule packet/byte counters, and identical *summed* cache
//     stats (every rule here matches on in_port, so megaflows are
//     port-disjoint and the shard partition is exact).
//
//  2. Under a megaflow capacity storm with balanced stride steering and
//     per-shard limits of limit/cores, the summed insertion and CLOCK
//     eviction counts equal the single-core cache's — sharding divides
//     the capacity pressure, it does not change it.
//
// Both run green under ASan/UBSan (the CI sanitize job runs all of
// ctest).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bench/common.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

using bench::host_ip;
using bench::host_mac;
using bench::NativeRig;
using bench::RigOptions;
using net::FlowKey;
using sim::SimNanos;

constexpr int kHosts = 8;

/// Install (in_port, eth_dst) exact rules for every host pair — every
/// traversal examines in_port, so learned megaflows are port-specific
/// and the per-core shard partition of the cache is exact (stats sums
/// must then match the single-core cache bit for bit).
void install_port_l2(NativeRig& rig) {
  for (int src = 0; src < kHosts; ++src) {
    for (int dst = 0; dst < kHosts; ++dst) {
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 30;
      mod.match.in_port(static_cast<std::uint32_t>(src + 1)).eth_dst(host_mac(dst));
      mod.instructions =
          openflow::apply({openflow::output(static_cast<std::uint32_t>(dst + 1))});
      rig.datapath->install(mod).check();
    }
  }
}

net::Packet flow_packet(int src, int dst, std::uint16_t sport, std::size_t size = 64) {
  FlowKey key;
  key.eth_src = host_mac(src);
  key.eth_dst = host_mac(dst);
  key.ip_src = host_ip(src);
  key.ip_dst = host_ip(dst);
  key.src_port = sport;
  key.dst_port = 443;
  return net::make_udp(key, size);
}

/// Everything the sharding must not change. Timing (busy_ns, service
/// order, latencies) is deliberately absent — that is what it changes.
struct Observed {
  std::vector<std::uint64_t> host_rx;
  std::vector<std::pair<std::uint32_t, net::Bytes>> packet_ins;  // sorted
  std::vector<std::pair<std::string, std::uint64_t>> rule_packets;
  std::vector<std::pair<std::string, std::uint64_t>> rule_bytes;
  std::uint64_t pipeline_runs = 0, packets_out = 0, drops_no_match = 0, queue_drops = 0;
  std::uint64_t counter_hits = 0, counter_misses = 0, invalidations = 0;
  // Summed across shards (== the single-core cache's own stats):
  std::uint64_t hits = 0, microflow_hits = 0, megaflow_hits = 0, misses = 0;
  std::uint64_t insertions = 0, evictions = 0;
  std::size_t megaflows = 0;

  friend bool operator==(const Observed&, const Observed&) = default;
};

struct Wave {
  struct Send {
    int src, dst;
    std::uint16_t sport;
    std::size_t size;
  };
  std::vector<Send> sends;
  /// Re-point one (in_port, dst) rule after the wave drains (0 = none).
  int mod_src = 0, mod_dst = -1, mod_out = 0;
};

std::vector<Wave> make_waves(std::uint64_t seed) {
  util::Rng rng(seed * 1021 + 11);
  std::vector<Wave> waves;
  for (int w = 0; w < 8; ++w) {
    Wave wave;
    const std::size_t sends = 40 + rng.below(80);
    for (std::size_t i = 0; i < sends; ++i) {
      Wave::Send send;
      send.src = static_cast<int>(rng.below(kHosts));
      do {
        send.dst = static_cast<int>(rng.below(kHosts));
      } while (send.dst == send.src);
      // A hot five-tuple share keeps tier-1 busy; the tail churns
      // sports so tier-2 and the slow path stay busy too.
      send.sport = rng.chance(0.6) ? static_cast<std::uint16_t>(10'000 + send.dst)
                                   : static_cast<std::uint16_t>(1024 + rng.below(2000));
      send.size = 64 + rng.below(900);
      wave.sends.push_back(send);
    }
    if (rng.chance(0.7)) {
      wave.mod_src = static_cast<int>(rng.below(kHosts));
      wave.mod_dst = static_cast<int>(rng.below(kHosts));
      // Occasionally re-point to the controller: packet-ins must match
      // too (and punting traversals decline to install megaflows).
      wave.mod_out = rng.chance(0.2) ? -1 : static_cast<int>(1 + rng.below(kHosts));
    }
    waves.push_back(std::move(wave));
  }
  return waves;
}

Observed run_waves(const std::vector<Wave>& waves, const sim::CoreSpec& cores) {
  RigOptions options;
  options.host_count = kHosts;
  options.sw.burst_size = 8;
  options.sw.ingress.cores = cores;
  NativeRig rig(options);
  install_port_l2(rig);

  Observed observed;
  openflow::ControlChannel channel(rig.network.engine(), 1'000);
  rig.datapath->attach_channel(channel);
  channel.set_controller_handler([&observed](openflow::Message&& message) {
    if (auto* punt = std::get_if<openflow::PacketInMsg>(&message))
      observed.packet_ins.emplace_back(punt->in_port, punt->packet.frame());
  });

  SimNanos at = 10'000;
  for (const Wave& wave : waves) {
    util::Rng jitter(wave.sends.size());
    for (const Wave::Send& send : wave.sends) {
      rig.network.engine().schedule_at(at, [&rig, &send] {
        rig.hosts[static_cast<std::size_t>(send.src)]->send(
            flow_packet(send.src, send.dst, send.sport, send.size));
      });
      // Dense arrivals (queues build up) with occasional gaps.
      if (jitter.chance(0.3)) at += jitter.below(3'000);
    }
    rig.network.run();  // drain completely before mutating tables
    if (wave.mod_dst >= 0) {
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 30;
      mod.match.in_port(static_cast<std::uint32_t>(wave.mod_src + 1))
          .eth_dst(host_mac(wave.mod_dst));
      mod.instructions = openflow::apply(
          {wave.mod_out < 0 ? openflow::to_controller()
                            : openflow::output(static_cast<std::uint32_t>(wave.mod_out))});
      rig.datapath->install(mod).check();
    }
    at += 200'000;
  }
  rig.network.run();

  for (sim::Host* host : rig.hosts) observed.host_rx.push_back(host->counters().rx_udp);
  std::sort(observed.packet_ins.begin(), observed.packet_ins.end());
  for (const openflow::FlowEntry* entry : rig.datapath->pipeline().table(0).entries()) {
    observed.rule_packets.emplace_back(entry->match.to_string(), entry->packet_count);
    observed.rule_bytes.emplace_back(entry->match.to_string(), entry->byte_count);
  }
  std::sort(observed.rule_packets.begin(), observed.rule_packets.end());
  std::sort(observed.rule_bytes.begin(), observed.rule_bytes.end());

  const auto& counters = rig.datapath->counters();
  observed.pipeline_runs = counters.pipeline_runs;
  observed.packets_out = counters.packets_out;
  observed.drops_no_match = counters.drops_no_match;
  observed.queue_drops = rig.datapath->queue_drops();
  observed.counter_hits = counters.cache_hits;
  observed.counter_misses = counters.cache_misses;
  observed.invalidations = counters.cache_invalidations;
  const openflow::Pipeline& pipeline = rig.datapath->pipeline();
  for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard) {
    const openflow::FlowCache::Stats& stats = pipeline.cache(shard).stats();
    observed.hits += stats.hits;
    observed.microflow_hits += stats.microflow_hits;
    observed.megaflow_hits += stats.megaflow_hits;
    observed.misses += stats.misses;
    observed.insertions += stats.insertions;
    observed.evictions += stats.evictions;
    observed.megaflows += pipeline.cache(shard).megaflow_count();
  }
  return observed;
}

class MulticoreEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MulticoreEquivalence, ShardedSwitchIsObservationallyIdenticalToSingleCore) {
  const std::uint64_t seed = GetParam();
  const std::vector<Wave> waves = make_waves(seed);
  util::Rng rng(seed * 77 + 5);

  const Observed single = run_waves(waves, sim::CoreSpec{});

  // Random core layouts: counts 2..5, hash or stride steering.
  for (int layout = 0; layout < 3; ++layout) {
    sim::CoreSpec cores;
    cores.cores = 2 + rng.below(4);
    cores.rss = rng.chance(0.5) ? sim::RssPolicy::kHash : sim::RssPolicy::kStride;
    const Observed sharded = run_waves(waves, cores);
    EXPECT_EQ(sharded, single) << "seed " << seed << " cores " << cores.cores << " policy "
                               << sim::to_string(cores.rss);
  }

  // The workload must actually exercise the machinery being compared.
  EXPECT_GT(single.hits, 100u) << "seed " << seed;
  EXPECT_GT(single.insertions, 10u) << "seed " << seed;
  EXPECT_GT(single.invalidations, 0u) << "seed " << seed;
  EXPECT_EQ(single.queue_drops, 0u) << "seed " << seed;  // ample buffers by design
}

INSTANTIATE_TEST_SUITE_P(Seeds, MulticoreEquivalence, ::testing::Values(3, 9, 17, 29, 41));

// ---- Part 2: capacity storms shard cleanly ---------------------------

/// One switch under a megaflow capacity storm: per-port elephants
/// (every other packet, so CLOCK keeps them resident) over a stream of
/// one-shot mice. Returns the summed (insertions, evictions,
/// hits+misses, delivered) facts.
struct StormRun {
  std::uint64_t insertions = 0, evictions = 0, hits = 0, misses = 0;
  std::uint64_t delivered = 0;
  friend bool operator==(const StormRun&, const StormRun&) = default;
};

StormRun run_storm(std::size_t cores, std::size_t megaflow_limit) {
  RigOptions options;
  options.host_count = kHosts;
  options.sw.burst_size = 8;
  options.sw.ingress.cores.cores = cores;
  // Balanced by construction: stride pinning + a port-cycling workload
  // give every shard an identical slice of the storm, so per-shard
  // limits of limit/cores reproduce the single-core pressure exactly.
  options.sw.ingress.cores.rss = sim::RssPolicy::kStride;
  NativeRig rig(options);
  install_port_l2(rig);
  openflow::FlowCache::Limits limits;
  limits.max_megaflows = megaflow_limit / cores;
  limits.max_microflows = 1u << 20;  // tier-1 never flushes: megaflow storm only
  rig.datapath->pipeline().set_cache_limits(limits);

  SimNanos at = 10'000;
  int mouse_id = 0;
  for (int round = 0; round < 120; ++round) {
    for (int port = 0; port < kHosts; ++port) {
      const int dst = (port + 1) % kHosts;
      // Elephant: the port's hot five-tuple — revisited every round,
      // its referenced bit stays ahead of the CLOCK hand.
      rig.network.engine().schedule_at(at, [&rig, port, dst] {
        rig.hosts[static_cast<std::size_t>(port)]->send(
            flow_packet(port, dst, static_cast<std::uint16_t>(10'000 + port)));
      });
      // Mouse: a never-revisited *unknown destination MAC*. Every rule
      // examines eth_dst, so each mouse learns its own (drop) megaflow
      // — one insert, one eventual CLOCK eviction once the tier fills.
      // (Distinct sports would NOT storm the tier: no rule examines
      // L4, so sport churn collapses into one wildcarded megaflow —
      // the cache working as designed.)
      const int mouse = mouse_id++;
      rig.network.engine().schedule_at(at, [&rig, port, mouse] {
        FlowKey key;
        key.eth_src = host_mac(port);
        key.eth_dst = host_mac(100'000 + mouse);
        key.ip_src = host_ip(port);
        key.ip_dst = host_ip(100'000 + mouse);
        key.src_port = 7;
        key.dst_port = 443;
        rig.hosts[static_cast<std::size_t>(port)]->send(net::make_udp(key, 64));
      });
    }
    at += 40'000;
    if (round % 10 == 9) {
      rig.network.run();  // periodic full drain keeps buffers lossless
    }
  }
  rig.network.run();

  StormRun run;
  const openflow::Pipeline& pipeline = rig.datapath->pipeline();
  for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard) {
    const openflow::FlowCache::Stats& stats = pipeline.cache(shard).stats();
    run.insertions += stats.insertions;
    run.evictions += stats.evictions;
    run.hits += stats.hits;
    run.misses += stats.misses;
  }
  for (sim::Host* host : rig.hosts) run.delivered += host->counters().rx_udp;
  EXPECT_EQ(rig.datapath->queue_drops(), 0u);
  return run;
}

TEST(MulticoreStorm, BalancedShardsReproduceSingleCoreCapacityPressure) {
  constexpr std::size_t kLimit = 64;
  const StormRun single = run_storm(1, kLimit);
  const StormRun sharded = run_storm(4, kLimit);

  EXPECT_EQ(sharded, single);
  // The storm must be real: far more distinct megaflows than capacity,
  // so CLOCK ran hot — and the elephants' hits prove residency paid.
  EXPECT_GT(single.evictions, 500u);
  EXPECT_GT(single.hits, 500u);
}

}  // namespace
}  // namespace harmless
