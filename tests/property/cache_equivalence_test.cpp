// Cache-coherence theorem, as a differential property test.
//
// The flow-cache fast path must be invisible: for ANY interleaving of
// packets, flow-mods, group-mods and expiry sweeps, a cached pipeline
// must produce byte-identical outputs, packet-ins, and counters
// (per-table lookups/matches, per-entry packet/byte counts, group
// bucket counts) to an uncached pipeline fed the same sequence. This
// extends transparency_test.cpp's differential approach one layer down,
// from the fabric to the datapath's caching machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/build.hpp"
#include "openflow/pipeline.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {
namespace {

using net::FlowKey;

net::MacAddr mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

constexpr int kHosts = 6;
constexpr std::uint8_t kTables = 2;

/// A random mutation applied identically to both pipelines.
void random_flow_op(Pipeline& pipeline, util::Rng& rng, sim::SimNanos now) {
  const auto choice = rng.below(12);
  FlowTable& table0 = pipeline.table(0);
  FlowTable& table1 = pipeline.table(1);
  switch (choice) {
    case 0: {  // exact L2 rule in table 1, sometimes with a timeout
      FlowEntry entry;
      entry.priority = 10;
      entry.cookie = 0x12;
      entry.match.eth_dst(mac(static_cast<int>(rng.below(kHosts))));
      entry.instructions =
          apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      if (rng.chance(0.4)) entry.idle_timeout = 40'000 + rng.below(80'000);
      if (rng.chance(0.3)) entry.hard_timeout = 100'000 + rng.below(200'000);
      (void)table1.add(std::move(entry), now);
      break;
    }
    case 1: {  // ACL prefix rule in table 0 (drop or punt), else goto
      FlowEntry entry;
      entry.priority = static_cast<std::uint16_t>(20 + rng.below(10));
      entry.cookie = 0xac1;
      entry.match.eth_type(0x0800).ip_dst_prefix(
          ip(static_cast<int>(rng.below(kHosts))), static_cast<int>(16 + rng.below(17)));
      entry.instructions = rng.chance(0.5) ? Instructions{} : apply({to_controller()});
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 2: {  // header rewrite then continue to table 1
      FlowEntry entry;
      entry.priority = 15;
      entry.cookie = 0x5e7;
      entry.match.eth_type(0x0800).ip_src(ip(static_cast<int>(rng.below(kHosts))));
      entry.instructions = apply_then_goto(
          {set_eth_dst(mac(static_cast<int>(rng.below(kHosts))))}, 1);
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 3: {  // group rule in table 1
      FlowEntry entry;
      entry.priority = 12;
      entry.cookie = 0x9f0;
      entry.match.eth_type(0x0800).ip_dst(ip(static_cast<int>(rng.below(kHosts))));
      entry.instructions = apply({group(1 + static_cast<std::uint32_t>(rng.below(2)))});
      (void)table1.add(std::move(entry), now);
      break;
    }
    case 4:  // remove an app's rules by cookie
      table0.remove_by_cookie(rng.chance(0.5) ? 0xac1 : 0x5e7);
      break;
    case 5: {  // non-strict delete of one destination's L2 rules
      Match match;
      match.eth_dst(mac(static_cast<int>(rng.below(kHosts))));
      table1.remove(match, /*strict=*/false);
      break;
    }
    case 6: {  // rewrite instructions of whatever a wildcard subsumes
      Match match;
      match.eth_type(0x0800);
      Instructions instructions =
          apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      table0.modify(match, instructions, /*strict=*/false);
      break;
    }
    case 7: {  // group mod: re-point a group's buckets
      GroupEntry entry;
      entry.group_id = 1 + static_cast<std::uint32_t>(rng.below(2));
      entry.type = rng.chance(0.5) ? GroupType::kSelect : GroupType::kAll;
      entry.select_hash = rng.chance(0.5) ? SelectHash::kFiveTuple : SelectHash::kSourceIp;
      const std::size_t buckets = 1 + rng.below(3);
      for (std::size_t b = 0; b < buckets; ++b) {
        Bucket bucket;
        bucket.weight = static_cast<std::uint16_t>(1 + rng.below(3));
        bucket.actions = {output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))};
        entry.buckets.push_back(std::move(bucket));
      }
      if (pipeline.groups().find(entry.group_id) != nullptr)
        (void)pipeline.groups().modify(std::move(entry));
      else
        (void)pipeline.groups().add(std::move(entry));
      break;
    }
    case 8: {  // VLAN manipulation per ingress port, then continue —
               // success of pop/set_vlan_vid depends on taggedness, the
               // trickiest structural pinning the learner does
      FlowEntry entry;
      entry.priority = 14;
      entry.cookie = 0x71a;
      entry.match.in_port(static_cast<std::uint32_t>(1 + rng.below(kHosts)));
      ActionList actions;
      switch (rng.below(3)) {
        case 0: actions = {pop_vlan()}; break;
        case 1:
          actions = {push_vlan(),
                     set_vlan_vid(static_cast<net::VlanId>(100 + rng.below(4)))};
          break;
        default:
          actions = {set_vlan_vid(static_cast<net::VlanId>(200 + rng.below(4)))};
      }
      entry.instructions = apply_then_goto(std::move(actions), 1);
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 9: {  // rule matching on VLAN state in table 1
      FlowEntry entry;
      entry.priority = 16;
      entry.cookie = 0x71b;
      if (rng.chance(0.4))
        entry.match.vlan_absent();
      else if (rng.chance(0.5))
        entry.match.vlan_any();
      else
        entry.match.vlan_vid(static_cast<net::VlanId>(100 + rng.below(4)));
      entry.instructions =
          apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      (void)table1.add(std::move(entry), now);
      break;
    }
    case 10: {  // mirror to a port, then continue to table 1
      FlowEntry entry;
      entry.priority = 17;
      entry.cookie = 0x3a1;
      entry.match.eth_type(0x0800).ip_src(ip(static_cast<int>(rng.below(kHosts))));
      entry.instructions =
          apply_then_goto({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))}, 1);
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 11: {  // table-1 rule with no instructions: after a mirror, the
                // packet's last output came from an earlier table. It
                // matches ip_dst, not eth_dst, so case 5 never deletes it.
      FlowEntry entry;
      entry.priority = 18;
      entry.cookie = 0x3a2;
      entry.match.eth_type(0x0800).ip_dst(ip(static_cast<int>(rng.below(kHosts))));
      (void)table1.add(std::move(entry), now);
      break;
    }
    default: break;
  }
}

net::Packet random_packet(util::Rng& rng) {
  FlowKey key;
  const int src = static_cast<int>(rng.below(kHosts));
  const int dst = static_cast<int>(rng.below(kHosts));
  key.eth_src = mac(src);
  key.eth_dst = mac(dst);
  key.ip_src = ip(src);
  key.ip_dst = ip(dst);
  key.src_port = static_cast<std::uint16_t>(1024 + rng.below(16));
  key.dst_port = static_cast<std::uint16_t>(7000 + rng.below(4));
  if (rng.chance(0.1)) return net::make_arp_request(key.eth_src, key.ip_src, key.ip_dst);
  net::Packet packet =
      rng.chance(0.25)
          ? net::make_tcp(key, /*tcp_flags=*/0x02)
          : net::make_udp(key, 64 + rng.below(256), static_cast<std::uint8_t>(rng.below(256)));
  // A tagged share of the traffic, so vlan-dependent actions (pop,
  // set_vlan_vid) succeed for some packets and no-op for others — the
  // cached pipeline must reproduce both.
  if (rng.chance(0.3))
    net::vlan_push(packet.frame(),
                   net::VlanTag{static_cast<net::VlanId>(100 + rng.below(4)),
                                static_cast<std::uint8_t>(rng.below(8)), false});
  return packet;
}

/// Normalized projection of a result for comparison (cost is expected
/// to differ — that is the whole point of the cache).
struct Observed {
  std::vector<std::pair<std::uint32_t, net::Bytes>> outputs;
  std::vector<std::pair<std::uint8_t, net::Bytes>> packet_ins;
  bool matched;
  std::uint8_t last_table;

  explicit Observed(const PipelineResult& result)
      : matched(result.matched), last_table(result.last_table) {
    for (const auto& [port, packet] : result.outputs) outputs.emplace_back(port, packet.frame());
    for (const auto& event : result.packet_ins)
      packet_ins.emplace_back(event.table_id, event.packet.frame());
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

void expect_same_state(const Pipeline& cached, const Pipeline& uncached, std::uint64_t seed) {
  for (std::size_t t = 0; t < kTables; ++t) {
    const FlowTable& a = cached.table(t);
    const FlowTable& b = uncached.table(t);
    EXPECT_EQ(a.counters().lookups, b.counters().lookups) << "table " << t << " seed " << seed;
    EXPECT_EQ(a.counters().matches, b.counters().matches) << "table " << t << " seed " << seed;
    const auto entries_a = a.entries();
    const auto entries_b = b.entries();
    ASSERT_EQ(entries_a.size(), entries_b.size()) << "table " << t << " seed " << seed;
    for (std::size_t i = 0; i < entries_a.size(); ++i) {
      EXPECT_EQ(entries_a[i]->match.to_string(), entries_b[i]->match.to_string());
      EXPECT_EQ(entries_a[i]->packet_count, entries_b[i]->packet_count)
          << "entry " << entries_a[i]->match.to_string() << " seed " << seed;
      EXPECT_EQ(entries_a[i]->byte_count, entries_b[i]->byte_count)
          << "entry " << entries_a[i]->match.to_string() << " seed " << seed;
      EXPECT_EQ(entries_a[i]->last_hit, entries_b[i]->last_hit)
          << "entry " << entries_a[i]->match.to_string() << " seed " << seed;
    }
  }
  for (std::uint32_t group_id : {1u, 2u}) {
    const GroupEntry* a = cached.groups().find(group_id);
    const GroupEntry* b = uncached.groups().find(group_id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "group " << group_id << " seed " << seed;
    if (a == nullptr) continue;
    ASSERT_EQ(a->buckets.size(), b->buckets.size());
    for (std::size_t i = 0; i < a->buckets.size(); ++i)
      EXPECT_EQ(a->buckets[i].packet_count, b->buckets[i].packet_count)
          << "group " << group_id << " bucket " << i << " seed " << seed;
  }
}

class CacheEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheEquivalence, CachedPipelineIsObservationallyIdentical) {
  const std::uint64_t seed = GetParam();

  Pipeline cached(kTables, /*specialized=*/true, /*flow_cache=*/true);
  Pipeline uncached(kTables, /*specialized=*/true, /*flow_cache=*/false);
  ASSERT_TRUE(cached.cache_enabled());
  ASSERT_FALSE(uncached.cache_enabled());

  // Both pipelines see the same op/packet interleaving, driven by twin
  // RNGs (one per pipeline) plus a shared scheduler RNG.
  util::Rng schedule(seed);
  util::Rng ops_a(seed * 31 + 7), ops_b(seed * 31 + 7);
  util::Rng traffic(seed * 131 + 1);

  // Start both with a miss entry so some traffic floods.
  for (Pipeline* pipeline : {&cached, &uncached}) {
    FlowEntry miss;
    miss.priority = 0;
    miss.instructions = apply({flood()});
    (void)pipeline->table(1).add(std::move(miss), 0);
    FlowEntry to_l2;
    to_l2.priority = 1;
    to_l2.instructions = apply_then_goto({}, 1);
    (void)pipeline->table(0).add(std::move(to_l2), 0);
  }

  sim::SimNanos now = 0;
  for (int step = 0; step < 600; ++step) {
    now += 1'000 + schedule.below(20'000);  // jittered arrivals: idle gaps happen
    if (schedule.chance(0.12)) {
      random_flow_op(cached, ops_a, now);
      random_flow_op(uncached, ops_b, now);
      continue;
    }
    if (schedule.chance(0.04)) {
      auto expired_a = cached.collect_expired(now);
      auto expired_b = uncached.collect_expired(now);
      EXPECT_EQ(expired_a.size(), expired_b.size()) << "seed " << seed << " step " << step;
      continue;
    }
    net::Packet packet = random_packet(traffic);
    net::Packet twin = packet.clone();
    const std::uint32_t in_port = static_cast<std::uint32_t>(1 + schedule.below(kHosts));
    const PipelineResult result_a = cached.run(std::move(packet), in_port, now);
    const PipelineResult result_b = uncached.run(std::move(twin), in_port, now);
    ASSERT_EQ(Observed(result_a), Observed(result_b)) << "seed " << seed << " step " << step;
    EXPECT_FALSE(result_b.cache_hit);
  }

  expect_same_state(cached, uncached, seed);
  // The workload must actually exercise the fast path for this test to
  // mean anything.
  EXPECT_GT(cached.cache().stats().hits, 0u) << "seed " << seed;
  EXPECT_GT(cached.cache().stats().invalidations + cached.cache().stats().insertions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Burst-coherence theorem: the batched datapath entry point
// (Pipeline::run_burst — whole-burst cache probe, grouped megaflow
// replay, slow-path residue) must be observationally identical to
// running the same packets one at a time through an uncached pipeline:
// byte-identical outputs and packet-ins per packet, identical flow and
// group counters — for ANY burst size and any flow-mod/group-mod/expiry
// interleaving between bursts.
class BurstEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurstEquivalence, BatchedPipelineIsObservationallyIdentical) {
  const std::uint64_t seed = GetParam();

  Pipeline batched(kTables, /*specialized=*/true, /*flow_cache=*/true);
  Pipeline unbatched(kTables, /*specialized=*/true, /*flow_cache=*/false);

  util::Rng schedule(seed);
  util::Rng ops_a(seed * 31 + 7), ops_b(seed * 31 + 7);
  util::Rng traffic(seed * 131 + 1);

  for (Pipeline* pipeline : {&batched, &unbatched}) {
    FlowEntry miss;
    miss.priority = 0;
    miss.instructions = apply({flood()});
    (void)pipeline->table(1).add(std::move(miss), 0);
    FlowEntry to_l2;
    to_l2.priority = 1;
    to_l2.instructions = apply_then_goto({}, 1);
    (void)pipeline->table(0).add(std::move(to_l2), 0);
  }

  sim::SimNanos now = 0;
  std::uint64_t bursts_over_one = 0;
  for (int step = 0; step < 200; ++step) {
    now += 1'000 + schedule.below(20'000);
    if (schedule.chance(0.15)) {
      random_flow_op(batched, ops_a, now);
      random_flow_op(unbatched, ops_b, now);
      continue;
    }
    if (schedule.chance(0.05)) {
      auto expired_a = batched.collect_expired(now);
      auto expired_b = unbatched.collect_expired(now);
      EXPECT_EQ(expired_a.size(), expired_b.size()) << "seed " << seed << " step " << step;
      continue;
    }

    // One burst of random size: 1 (degenerate), tiny, or a full gulp —
    // with repeated flows inside the burst so the same-burst
    // learn-then-hit path (miss installs, later packet replays) runs.
    const std::size_t burst_size = 1 + schedule.below(48);
    if (burst_size > 1) ++bursts_over_one;
    std::vector<BurstPacket> burst;
    std::vector<net::Packet> twins;
    std::vector<std::uint32_t> in_ports;
    for (std::size_t i = 0; i < burst_size; ++i) {
      net::Packet packet = random_packet(traffic);
      twins.push_back(packet.clone());
      const std::uint32_t in_port = static_cast<std::uint32_t>(1 + schedule.below(kHosts));
      in_ports.push_back(in_port);
      burst.push_back(BurstPacket{std::move(packet), in_port});
    }

    BurstResult batched_result = batched.run_burst(std::move(burst), now);
    ASSERT_EQ(batched_result.results.size(), burst_size);
    for (std::size_t i = 0; i < burst_size; ++i) {
      const PipelineResult sequential =
          unbatched.run(std::move(twins[i]), in_ports[i], now);
      ASSERT_EQ(Observed(batched_result.results[i]), Observed(sequential))
          << "seed " << seed << " step " << step << " packet " << i;
      EXPECT_FALSE(sequential.cache_hit);
    }
  }

  expect_same_state(batched, unbatched, seed);
  EXPECT_GT(bursts_over_one, 0u) << "seed " << seed;
  EXPECT_GT(batched.cache().stats().hits, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstEquivalence,
                         ::testing::Values(2, 7, 11, 23, 42, 97, 131, 255, 1009, 4096));

}  // namespace
}  // namespace harmless::openflow
