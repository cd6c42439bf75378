// Classifier-coherence theorem, as a differential property test.
//
// The dpcls-style per-mask subtable classifier is a pure lookup
// acceleration: for ANY interleaving of packets, flow-mods, group-mods,
// expiry sweeps, epoch bumps and CLOCK evictions at capacity, a cache
// probing hash subtables in hit-ranked order must be observationally
// identical to the verbatim linear-scan reference — byte-identical
// outputs and packet-ins, identical per-rule packet/byte counters and
// group bucket counts, identical cache statistics (hits per tier,
// misses, insertions, invalidations, evictions, flushes) and identical
// resident-entry population. Only the *work accounting* may differ:
// subtable probes vs per-entry comparisons — that difference is the
// whole point (Table 6).
//
// The workload deliberately maximizes mask diversity (exact L2, varied
// prefix lengths, in_port, VLAN presence/any/exact, DSCP) so many
// subtables coexist, and skews traffic so the rank order keeps
// reordering under the decay cadence.
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

constexpr int kHosts = 8;
constexpr std::uint8_t kTables = 2;

/// A random mutation applied identically to both pipelines. Compared
/// with cache_equivalence_test's generator this one leans harder on
/// mask diversity: every branch examines a different field set, so the
/// learned megaflows spread across many subtable signatures.
void random_flow_op(Pipeline& pipeline, util::Rng& rng, sim::SimNanos now) {
  const auto choice = rng.below(12);
  FlowTable& table0 = pipeline.table(0);
  FlowTable& table1 = pipeline.table(1);
  switch (choice) {
    case 0: {  // exact L2, sometimes with a timeout
      FlowEntry entry;
      entry.priority = 10;
      entry.cookie = 0x12;
      entry.match.eth_dst(mac(static_cast<int>(rng.below(kHosts))));
      entry.instructions = apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      if (rng.chance(0.4)) entry.idle_timeout = 40'000 + rng.below(80'000);
      if (rng.chance(0.3)) entry.hard_timeout = 100'000 + rng.below(200'000);
      (void)table1.add(std::move(entry), now);
      break;
    }
    case 1: {  // ACL prefix rule, length drawn from the full range
      FlowEntry entry;
      entry.priority = static_cast<std::uint16_t>(20 + rng.below(10));
      entry.cookie = 0xac1;
      entry.match.eth_type(0x0800).ip_dst_prefix(
          ip(static_cast<int>(rng.below(kHosts))), static_cast<int>(8 + rng.below(25)));
      entry.instructions = rng.chance(0.5) ? Instructions{} : apply({to_controller()});
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 2: {  // source-prefix rewrite then continue
      FlowEntry entry;
      entry.priority = 15;
      entry.cookie = 0x5e7;
      entry.match.eth_type(0x0800).ip_src(ip(static_cast<int>(rng.below(kHosts))));
      entry.instructions =
          apply_then_goto({set_eth_dst(mac(static_cast<int>(rng.below(kHosts))))}, 1);
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 3: {  // group rule
      FlowEntry entry;
      entry.priority = 12;
      entry.cookie = 0x9f0;
      entry.match.eth_type(0x0800).ip_dst(ip(static_cast<int>(rng.below(kHosts))));
      entry.instructions = apply({group(1 + static_cast<std::uint32_t>(rng.below(2)))});
      (void)table1.add(std::move(entry), now);
      break;
    }
    case 4:  // remove an app's rules by cookie (epoch bump, mass purge)
      table0.remove_by_cookie(rng.chance(0.5) ? 0xac1 : 0x5e7);
      break;
    case 5: {  // non-strict delete of one destination's L2 rules
      Match match;
      match.eth_dst(mac(static_cast<int>(rng.below(kHosts))));
      table1.remove(match, /*strict=*/false);
      break;
    }
    case 6: {  // rewrite whatever a wildcard subsumes
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
    case 8: {  // per-ingress-port VLAN manipulation (structural pinning)
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
    case 9: {  // VLAN presence / any / exact — three more signatures
      FlowEntry entry;
      entry.priority = 16;
      entry.cookie = 0x71b;
      if (rng.chance(0.4))
        entry.match.vlan_absent();
      else if (rng.chance(0.5))
        entry.match.vlan_any();
      else
        entry.match.vlan_vid(static_cast<net::VlanId>(100 + rng.below(4)));
      entry.instructions = apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      (void)table1.add(std::move(entry), now);
      break;
    }
    case 10: {  // DSCP class rule: yet another examined-field set
      FlowEntry entry;
      entry.priority = 18;
      entry.cookie = 0xd5c;
      entry.match.eth_type(0x0800).set(Field::kIpDscp, rng.below(2) * 46);
      entry.instructions = apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      (void)table0.add(std::move(entry), now);
      break;
    }
    case 11: {  // L4 port rule: unwildcards a field the mice tail varies
      FlowEntry entry;
      entry.priority = 17;
      entry.cookie = 0x14d;
      entry.match.eth_type(0x0800).set(Field::kL4Dst, 7000 + rng.below(4));
      entry.instructions = apply({output(static_cast<std::uint32_t>(1 + rng.below(kHosts)))});
      (void)table1.add(std::move(entry), now);
      break;
    }
    default: break;
  }
}

/// Skewed traffic: half the packets come from 4 hot microflows (the
/// rank order's bread and butter), the rest spray hosts, L4 ports,
/// VLAN tags and ARP so lookups wander across subtables.
net::Packet random_packet(util::Rng& rng) {
  FlowKey key;
  if (rng.chance(0.5)) {
    const int e = static_cast<int>(rng.below(4));
    key.eth_src = mac(e);
    key.eth_dst = mac((e + 1) % kHosts);
    key.ip_src = ip(e);
    key.ip_dst = ip((e + 1) % kHosts);
    key.src_port = static_cast<std::uint16_t>(10'000 + e);
    key.dst_port = 443;
    return net::make_udp(key, 64);
  }
  const int src = static_cast<int>(rng.below(kHosts));
  const int dst = static_cast<int>(rng.below(kHosts));
  key.eth_src = mac(src);
  key.eth_dst = mac(dst);
  key.ip_src = ip(src);
  key.ip_dst = ip(dst);
  key.src_port = static_cast<std::uint16_t>(1024 + rng.below(64));
  key.dst_port = static_cast<std::uint16_t>(7000 + rng.below(4));
  if (rng.chance(0.1)) return net::make_arp_request(key.eth_src, key.ip_src, key.ip_dst);
  net::Packet packet =
      rng.chance(0.25)
          ? net::make_tcp(key, /*tcp_flags=*/0x02)
          : net::make_udp(key, 64 + rng.below(256), static_cast<std::uint8_t>(rng.below(256)));
  if (rng.chance(0.3))
    net::vlan_push(packet.frame(),
                   net::VlanTag{static_cast<net::VlanId>(100 + rng.below(4)),
                                static_cast<std::uint8_t>(rng.below(8)), false});
  return packet;
}

/// Normalized projection of a result for comparison (only the tier-2
/// *work accounting* — work.subtable_probes vs work.linear_compares —
/// may differ between the classifier and the reference).
struct Observed {
  std::vector<std::pair<std::uint32_t, net::Bytes>> outputs;
  std::vector<std::pair<std::uint8_t, net::Bytes>> packet_ins;
  bool matched;
  bool cache_hit;
  std::uint8_t last_table;

  explicit Observed(const PipelineResult& result)
      : matched(result.matched), cache_hit(result.cache_hit), last_table(result.last_table) {
    for (const auto& [port, packet] : result.outputs) outputs.emplace_back(port, packet.frame());
    for (const auto& event : result.packet_ins)
      packet_ins.emplace_back(event.table_id, event.packet.frame());
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

void expect_same_state(const Pipeline& subtables, const Pipeline& linear, std::uint64_t seed) {
  for (std::size_t t = 0; t < kTables; ++t) {
    const FlowTable& a = subtables.table(t);
    const FlowTable& b = linear.table(t);
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
    const GroupEntry* a = subtables.groups().find(group_id);
    const GroupEntry* b = linear.groups().find(group_id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "group " << group_id << " seed " << seed;
    if (a == nullptr) continue;
    ASSERT_EQ(a->buckets.size(), b->buckets.size());
    for (std::size_t i = 0; i < a->buckets.size(); ++i)
      EXPECT_EQ(a->buckets[i].packet_count, b->buckets[i].packet_count)
          << "group " << group_id << " bucket " << i << " seed " << seed;
  }
}

void expect_same_cache_stats(const FlowCache& subtables, const FlowCache& linear,
                             std::uint64_t seed, int step) {
  const FlowCache::Stats& a = subtables.stats();
  const FlowCache::Stats& b = linear.stats();
  EXPECT_EQ(a.hits, b.hits) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.microflow_hits, b.microflow_hits) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.megaflow_hits, b.megaflow_hits) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.misses, b.misses) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.insertions, b.insertions) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.invalidations, b.invalidations) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.evictions, b.evictions) << "seed " << seed << " step " << step;
  EXPECT_EQ(a.flushes, b.flushes) << "seed " << seed << " step " << step;
  EXPECT_EQ(subtables.megaflow_count(), linear.megaflow_count())
      << "seed " << seed << " step " << step;
  EXPECT_EQ(subtables.microflow_count(), linear.microflow_count())
      << "seed " << seed << " step " << step;
}

/// Deterministic tail phase: 24 fresh exact-L2 aggregates through a
/// 12-entry megaflow tier force CLOCK evictions in both pipelines no
/// matter what the random prefix did — still compared packet by packet.
void capacity_storm(Pipeline& with_subtables, Pipeline& with_linear, sim::SimNanos& now,
                    std::uint64_t seed) {
  for (int i = 0; i < 24; ++i) {
    for (Pipeline* pipeline : {&with_subtables, &with_linear}) {
      FlowEntry entry;
      entry.priority = 30;
      entry.cookie = 0x570;
      entry.match.eth_dst(mac(100 + i));
      entry.instructions = apply({output(static_cast<std::uint32_t>(1 + i % kHosts))});
      (void)pipeline->table(1).add(std::move(entry), now);
    }
  }
  for (int round = 0; round < 2; ++round)
    for (int i = 0; i < 24; ++i) {
      now += 500;
      FlowKey key;
      key.eth_src = mac(1);
      key.eth_dst = mac(100 + i);
      key.ip_src = ip(1);
      key.ip_dst = ip(2);
      key.src_port = static_cast<std::uint16_t>(2048 + round);
      key.dst_port = 80;
      net::Packet packet = net::make_udp(key, 64);
      net::Packet twin = packet.clone();
      const PipelineResult result_a = with_subtables.run(std::move(packet), 1, now);
      const PipelineResult result_b = with_linear.run(std::move(twin), 1, now);
      ASSERT_EQ(Observed(result_a), Observed(result_b))
          << "storm seed " << seed << " dst " << i << " round " << round;
      expect_same_cache_stats(with_subtables.cache(), with_linear.cache(), seed, 10'000 + i);
    }
}

class ClassifierEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierEquivalence, SubtablesMatchLinearScanOnAllObservables) {
  const std::uint64_t seed = GetParam();

  Pipeline with_subtables(kTables, /*specialized=*/true, /*flow_cache=*/true);
  Pipeline with_linear(kTables, /*specialized=*/true, /*flow_cache=*/true);
  with_linear.cache().set_linear_scan(true);
  ASSERT_FALSE(with_subtables.cache().linear_scan());
  ASSERT_TRUE(with_linear.cache().linear_scan());

  // Undersized tier 2 + tiny tier 1 so CLOCK eviction and microflow
  // flushes run constantly, and an aggressive rank-decay cadence so the
  // subtable probe order keeps reshuffling mid-run — none of which may
  // leak into observables.
  FlowCache::Limits limits;
  limits.max_megaflows = 12;
  limits.max_microflows = 24;
  limits.rank_decay_lookups = 64;
  with_subtables.cache().set_limits(limits);
  with_linear.cache().set_limits(limits);

  util::Rng schedule(seed);
  util::Rng ops_a(seed * 31 + 7), ops_b(seed * 31 + 7);
  util::Rng traffic(seed * 131 + 1);

  for (Pipeline* pipeline : {&with_subtables, &with_linear}) {
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
  std::size_t max_subtables = 0;
  for (int step = 0; step < 800; ++step) {
    now += 1'000 + schedule.below(20'000);
    max_subtables = std::max(max_subtables, with_subtables.cache().subtable_count());
    if (schedule.chance(0.10)) {
      random_flow_op(with_subtables, ops_a, now);
      random_flow_op(with_linear, ops_b, now);
      continue;
    }
    if (schedule.chance(0.04)) {
      auto expired_a = with_subtables.collect_expired(now);
      auto expired_b = with_linear.collect_expired(now);
      EXPECT_EQ(expired_a.size(), expired_b.size()) << "seed " << seed << " step " << step;
      continue;
    }
    net::Packet packet = random_packet(traffic);
    net::Packet twin = packet.clone();
    const std::uint32_t in_port = static_cast<std::uint32_t>(1 + schedule.below(kHosts));
    const PipelineResult result_a = with_subtables.run(std::move(packet), in_port, now);
    const PipelineResult result_b = with_linear.run(std::move(twin), in_port, now);
    ASSERT_EQ(Observed(result_a), Observed(result_b)) << "seed " << seed << " step " << step;
    expect_same_cache_stats(with_subtables.cache(), with_linear.cache(), seed, step);
  }

  capacity_storm(with_subtables, with_linear, now, seed);

  expect_same_state(with_subtables, with_linear, seed);
  // The run must actually have exercised what it claims to test (CLOCK
  // eviction churn has its own deterministic differential test below —
  // a random seed may legitimately never fill tier 2 within one epoch).
  EXPECT_GT(with_subtables.cache().stats().hits, 0u) << "seed " << seed;
  EXPECT_GT(with_subtables.cache().stats().megaflow_hits, 0u) << "seed " << seed;
  EXPECT_GT(with_subtables.cache().stats().invalidations, 0u) << "seed " << seed;
  EXPECT_GT(with_subtables.cache().stats().subtable_probes, 0u) << "seed " << seed;
  EXPECT_EQ(with_linear.cache().stats().subtable_probes, 0u) << "seed " << seed;
  EXPECT_GT(max_subtables, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// Burst entry point too: run_burst's phase-1 whole-burst probe and
// phase-3 re-probing residue must agree between the classifier and the
// linear reference for any burst size.
class BurstClassifierEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurstClassifierEquivalence, BatchedProbeAgreesAcrossClassifiers) {
  const std::uint64_t seed = GetParam();

  Pipeline with_subtables(kTables, /*specialized=*/true, /*flow_cache=*/true);
  Pipeline with_linear(kTables, /*specialized=*/true, /*flow_cache=*/true);
  with_linear.cache().set_linear_scan(true);
  FlowCache::Limits limits;
  limits.max_megaflows = 12;
  limits.max_microflows = 24;
  limits.rank_decay_lookups = 64;
  with_subtables.cache().set_limits(limits);
  with_linear.cache().set_limits(limits);

  util::Rng schedule(seed);
  util::Rng ops_a(seed * 31 + 7), ops_b(seed * 31 + 7);
  util::Rng traffic(seed * 131 + 1);

  for (Pipeline* pipeline : {&with_subtables, &with_linear}) {
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
  for (int step = 0; step < 200; ++step) {
    now += 1'000 + schedule.below(20'000);
    if (schedule.chance(0.15)) {
      random_flow_op(with_subtables, ops_a, now);
      random_flow_op(with_linear, ops_b, now);
      continue;
    }
    const std::size_t burst_size = 1 + schedule.below(48);
    std::vector<BurstPacket> burst_a, burst_b;
    for (std::size_t i = 0; i < burst_size; ++i) {
      net::Packet packet = random_packet(traffic);
      const std::uint32_t in_port = static_cast<std::uint32_t>(1 + schedule.below(kHosts));
      burst_b.push_back(BurstPacket{packet.clone(), in_port});
      burst_a.push_back(BurstPacket{std::move(packet), in_port});
    }
    BurstResult result_a = with_subtables.run_burst(std::move(burst_a), now);
    BurstResult result_b = with_linear.run_burst(std::move(burst_b), now);
    ASSERT_EQ(result_a.results.size(), result_b.results.size());
    EXPECT_EQ(result_a.replay_groups, result_b.replay_groups)
        << "seed " << seed << " step " << step;
    for (std::size_t i = 0; i < result_a.results.size(); ++i)
      ASSERT_EQ(Observed(result_a.results[i]), Observed(result_b.results[i]))
          << "seed " << seed << " step " << step << " packet " << i;
    expect_same_cache_stats(with_subtables.cache(), with_linear.cache(), seed, step);
  }

  capacity_storm(with_subtables, with_linear, now, seed);

  expect_same_state(with_subtables, with_linear, seed);
  EXPECT_GT(with_subtables.cache().stats().megaflow_hits, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstClassifierEquivalence,
                         ::testing::Values(2, 7, 11, 23, 42, 97, 131, 255));

// CLOCK eviction churn, deterministically: 64 per-destination
// aggregates through a 12-entry megaflow tier, with a hot elephant
// interleaved so reference bits and the clock hand stay busy. Victim
// choice depends on insertion order and hit history only — both of
// which the classifier must leave untouched.
TEST(ClassifierEquivalence, EvictionChurnAgreesWithLinearReference) {
  Pipeline with_subtables(kTables, /*specialized=*/true, /*flow_cache=*/true);
  Pipeline with_linear(kTables, /*specialized=*/true, /*flow_cache=*/true);
  with_linear.cache().set_linear_scan(true);
  FlowCache::Limits limits;
  limits.max_megaflows = 12;
  limits.max_microflows = 32;
  with_subtables.cache().set_limits(limits);
  with_linear.cache().set_limits(limits);

  for (Pipeline* pipeline : {&with_subtables, &with_linear})
    for (int dst = 0; dst < 64; ++dst) {
      FlowEntry entry;
      entry.priority = 10;
      entry.match.eth_dst(mac(100 + dst));
      entry.instructions = apply({output(static_cast<std::uint32_t>(1 + dst % kHosts))});
      (void)pipeline->table(0).add(std::move(entry), 0);
    }

  sim::SimNanos now = 1000;
  auto send = [&](int dst, std::uint16_t sport) {
    FlowKey key;
    key.eth_src = mac(0);
    key.eth_dst = mac(100 + dst);
    key.ip_src = ip(0);
    key.ip_dst = ip(1);
    key.src_port = sport;
    key.dst_port = 80;
    net::Packet packet = net::make_udp(key, 64);
    net::Packet twin = packet.clone();
    ++now;
    const PipelineResult result_a = with_subtables.run(std::move(packet), 1, now);
    const PipelineResult result_b = with_linear.run(std::move(twin), 1, now);
    ASSERT_EQ(Observed(result_a), Observed(result_b)) << "dst " << dst << " sport " << sport;
    ASSERT_EQ(result_a.cache_hit, result_b.cache_hit) << "dst " << dst << " sport " << sport;
  };

  for (int round = 0; round < 3; ++round)
    for (int dst = 0; dst < 64; ++dst) {
      send(dst, static_cast<std::uint16_t>(5000 + round));
      send(63, 7777);  // the elephant: hit between every mouse
    }

  expect_same_cache_stats(with_subtables.cache(), with_linear.cache(), /*seed=*/0, /*step=*/-1);
  expect_same_state(with_subtables, with_linear, /*seed=*/0);
  EXPECT_GT(with_subtables.cache().stats().evictions, 100u);
  EXPECT_LE(with_subtables.cache().megaflow_count(), 12u);
}

}  // namespace
}  // namespace harmless::openflow
