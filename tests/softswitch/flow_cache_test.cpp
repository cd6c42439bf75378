// Flow-cache behavior and invalidation edges.
//
// The fast path must (a) actually hit — microflow tier for repeated
// 5-tuples, megaflow tier for wildcarded aggregates — and (b) get out
// of the way the instant the pipeline state it memoized changes: flow
// expiry, cookie-based deletion, group-mods and port state changes
// must each invalidate affected entries so the next packet re-learns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/build.hpp"
#include "net/ethernet.hpp"
#include "openflow/pipeline.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/rng.hpp"

namespace harmless::softswitch {
namespace {

using namespace net;
using namespace openflow;
using sim::Host;
using sim::LinkSpec;
using sim::Network;

Packet udp_packet(std::uint64_t src_mac, std::uint64_t dst_mac, std::uint16_t src_port,
                  std::uint16_t dst_port = 80) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(src_mac);
  key.eth_dst = MacAddr::from_u64(dst_mac);
  key.ip_src = Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = Ipv4Addr(10, 0, 0, 2);
  key.src_port = src_port;
  key.dst_port = dst_port;
  return make_udp(key, 100);
}

FlowEntry l2_entry(std::uint64_t dst_mac, std::uint32_t out_port,
                   std::uint16_t priority = 10) {
  FlowEntry entry;
  entry.priority = priority;
  entry.match.eth_dst(MacAddr::from_u64(dst_mac));
  entry.instructions = apply({output(out_port)});
  return entry;
}

// ---------------------------------------------------------------- tiers

TEST(FlowCache, MicroflowTierServesRepeatedFiveTuples) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());

  for (int i = 0; i < 5; ++i) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000 + i);
    EXPECT_EQ(result.cache_hit, i > 0) << "packet " << i;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].first, 2u);
  }
  EXPECT_EQ(pipeline.cache().stats().misses, 1u);
  EXPECT_EQ(pipeline.cache().stats().microflow_hits, 4u);
  EXPECT_EQ(pipeline.cache().stats().megaflow_hits, 0u);
  // The one slow path installed one megaflow covering all five packets.
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
}

TEST(FlowCache, MegaflowTierCoversFieldsNoRuleExamines) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());

  // Vary the L4 source port: distinct microflows, one megaflow — no
  // rule ever looks at L4, so the learned entry wildcards it.
  for (std::uint16_t port = 0; port < 32; ++port) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 1024 + port), 1, 1000 + port);
    EXPECT_EQ(result.cache_hit, port > 0) << "port " << port;
  }
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
  EXPECT_EQ(pipeline.cache().stats().megaflow_hits, 31u);
  // Repeating a port now hits the microflow tier.
  auto result = pipeline.run(udp_packet(0x1, 0x2, 1024), 1, 5000);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(pipeline.cache().stats().microflow_hits, 1u);
}

TEST(FlowCache, RewrittenFieldsDoNotFragmentMegaflows) {
  // A rule matching only in_port that rewrites eth_dst: the rewrite's
  // success depends on packet structure, not the old value, so flows
  // with different original destinations must share one megaflow.
  Pipeline pipeline(1);
  FlowEntry entry;
  entry.priority = 10;
  entry.match.in_port(1);
  entry.instructions =
      apply({set_eth_dst(MacAddr::from_u64(0x999)), output(2)});
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());

  for (std::uint64_t dst = 1; dst <= 8; ++dst) {
    auto result = pipeline.run(udp_packet(0x1, dst, 5555), 1, 1000 + static_cast<sim::SimNanos>(dst));
    EXPECT_EQ(result.cache_hit, dst > 1) << "dst " << dst;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].first, 2u);
    // The rewrite really happened on the replayed path too.
    const auto parsed = net::parse_packet(result.outputs[0].second);
    EXPECT_EQ(parsed.eth_dst.to_u64(), 0x999u) << "dst " << dst;
  }
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
}

TEST(FlowCache, UnsupportedSetFieldDoesNotSuppressLearning) {
  // set_field on a field action.cpp cannot rewrite (e.g. ip_dscp)
  // silently no-ops, so the packet keeps its original value and a
  // later table's examination of it must still be learned — otherwise
  // one flow's megaflow would wrongly cover packets with other values.
  Pipeline pipeline(2);
  FlowEntry rewrite;
  rewrite.priority = 10;
  rewrite.match.in_port(1);
  rewrite.instructions =
      apply_then_goto({SetFieldAction{Field::kIpDscp, 46}}, 1);
  ASSERT_TRUE(pipeline.table(0).add(std::move(rewrite), 0).is_ok());
  FlowEntry dscp_zero;
  dscp_zero.priority = 20;
  dscp_zero.match.eth_type(0x0800).set(Field::kIpDscp, 0);
  dscp_zero.instructions = apply({output(2)});
  ASSERT_TRUE(pipeline.table(1).add(std::move(dscp_zero), 0).is_ok());
  FlowEntry fallback;
  fallback.priority = 0;
  fallback.instructions = apply({output(3)});
  ASSERT_TRUE(pipeline.table(1).add(std::move(fallback), 0).is_ok());

  // dscp=0 packet learns the dscp_zero path...
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2u);
  // ...and a dscp=46 packet must NOT be covered by that megaflow.
  net::Packet marked = udp_packet(0x1, 0x2, 5555);
  {
    auto& frame = marked.frame();
    frame[net::kEthHeaderSize + 1] = 46 << 2;  // IPv4 DSCP field
  }
  result = pipeline.run(std::move(marked), 1, 200);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, CachedDropIsStillADrop) {
  Pipeline pipeline(1);  // empty table: OF1.3 default-drops
  for (int i = 0; i < 3; ++i) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000 + i);
    EXPECT_TRUE(result.dropped());
    EXPECT_FALSE(result.matched);
    EXPECT_EQ(result.cache_hit, i > 0);
  }
}

// --------------------------------------------------------- invalidation

TEST(FlowCache, FlowModInvalidatesAffectedEntries) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000);  // learn
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1001).cache_hit);

  // A higher-priority rule re-points the flow; the stale cached output
  // must not survive.
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 3, /*priority=*/20), 1002).is_ok());
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1003);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  EXPECT_GE(pipeline.cache().stats().invalidations, 1u);
  // And the re-learned entry serves the new rule from the cache.
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1004);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, ExpirySweepInvalidates) {
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.hard_timeout = 10'000;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200).cache_hit);

  ASSERT_EQ(pipeline.collect_expired(20'000).size(), 1u);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 20'100);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());  // the rule is gone; default drop
}

TEST(FlowCache, LazyExpiryWithoutSweepInvalidates) {
  // No sweep runs here: the cached entry itself must refuse to hit once
  // a referenced flow entry has timed out, and the resulting slow path
  // performs the table's lazy expiry.
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.idle_timeout = 10'000;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  // Cache hits keep refreshing the idle timer, exactly like real hits.
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 8'000).cache_hit);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 16'000).cache_hit);

  // A 10 ms silence idles the rule out; the next packet must slow-path.
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 40'000);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());
  EXPECT_EQ(pipeline.table(0).size(), 0u);  // lazy expiry fired
}

TEST(FlowCache, RemoveByCookieInvalidates) {
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.cookie = 0xbeef;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200).cache_hit);

  ASSERT_EQ(pipeline.table(0).remove_by_cookie(0xbeef).size(), 1u);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 300);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());
}

TEST(FlowCache, GroupModInvalidates) {
  Pipeline pipeline(1);
  GroupEntry group_entry;
  group_entry.group_id = 7;
  group_entry.type = GroupType::kIndirect;
  group_entry.buckets.push_back(Bucket{{output(2)}, 1, 0});
  ASSERT_TRUE(pipeline.groups().add(group_entry).is_ok());

  FlowEntry entry;
  entry.priority = 10;
  entry.match.eth_dst(MacAddr::from_u64(0x2));
  entry.instructions = apply({group(7)});
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());

  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200);
  ASSERT_TRUE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2u);

  // Re-point the group: the cached program references the group id, so
  // it must re-learn (and then serve the new bucket from the cache).
  group_entry.buckets[0].actions = {output(3)};
  ASSERT_TRUE(pipeline.groups().modify(group_entry).is_ok());
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 300);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 400);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, PortStateChangeInvalidates) {
  Network network;
  auto& sw = network.add_node<SoftSwitch>("ss", 0x1, 3);
  auto& h1 = network.add_host("h1", MacAddr::from_u64(0x1), Ipv4Addr(10, 0, 0, 1));
  auto& h2 = network.add_host("h2", MacAddr::from_u64(0x2), Ipv4Addr(10, 0, 0, 2));
  auto& h3 = network.add_host("h3", MacAddr::from_u64(0x3), Ipv4Addr(10, 0, 0, 3));
  network.connect(h1, 0, sw, 0, LinkSpec::gbps(1));
  network.connect(h2, 0, sw, 1, LinkSpec::gbps(1));
  network.connect(h3, 0, sw, 2, LinkSpec::gbps(1));

  FlowModMsg mod;
  mod.priority = 10;
  mod.match.eth_dst(h2.mac());
  mod.instructions = apply({output(2)});
  ASSERT_TRUE(sw.install(mod).is_ok());

  auto send_one = [&] {
    FlowKey key;
    key.eth_src = h1.mac();
    key.eth_dst = h2.mac();
    key.ip_src = h1.ip();
    key.ip_dst = h2.ip();
    key.dst_port = 80;
    h1.send(make_udp(key, 100));
    network.run();
  };

  send_one();
  send_one();
  EXPECT_EQ(sw.counters().cache_hits, 1u);
  EXPECT_EQ(sw.counters().cache_misses, 1u);
  const std::uint64_t invalidations_before = sw.counters().cache_invalidations;

  sw.set_port_state(2, /*up=*/false);
  EXPECT_GT(sw.counters().cache_invalidations, invalidations_before);
  send_one();  // re-learns; the packet is dropped at the down port
  EXPECT_EQ(sw.counters().cache_misses, 2u);
  EXPECT_EQ(h2.counters().rx_udp, 2u);

  sw.set_port_state(2, /*up=*/true);
  send_one();  // port back up: re-learn again, delivery resumes
  EXPECT_EQ(sw.counters().cache_misses, 3u);
  EXPECT_EQ(h2.counters().rx_udp, 3u);
}

// ------------------------------------------------------------- counters

TEST(FlowCache, CacheHitsKeepFlowCountersExact) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());
  std::size_t bytes = 0;
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = udp_packet(0x1, 0x2, 5555);
    bytes += packet.size();
    (void)pipeline.run(std::move(packet), 1, 1000 + i);
  }
  const auto entries = pipeline.table(0).entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->packet_count, 4u);
  EXPECT_EQ(entries[0]->byte_count, bytes);
  EXPECT_EQ(pipeline.table(0).counters().lookups, 4u);
  EXPECT_EQ(pipeline.table(0).counters().matches, 4u);
}

TEST(FlowCache, ReplayAfterAMirrorKeepsByteCountersExact) {
  // Table 0 mirrors to port 2 and continues; table 1's matching rule
  // has no instructions, so the mirror is the last output. Replay must
  // still record table 1's lookup with the live packet's size.
  Pipeline pipeline(2);
  FlowEntry mirror;
  mirror.priority = 10;
  mirror.instructions = apply_then_goto({output(2)}, 1);
  ASSERT_TRUE(pipeline.table(0).add(std::move(mirror), 0).is_ok());
  FlowEntry sink;
  sink.priority = 10;
  sink.match.eth_dst(MacAddr::from_u64(0x2));
  ASSERT_TRUE(pipeline.table(1).add(std::move(sink), 0).is_ok());

  std::size_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = udp_packet(0x1, 0x2, 5555);
    const std::size_t size = packet.size();
    bytes += size;
    const PipelineResult result = pipeline.run(std::move(packet), 1, 1000 + i);
    EXPECT_EQ(result.cache_hit, i > 0) << "packet " << i;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].second.size(), size);
  }
  for (std::size_t t = 0; t < 2; ++t) {
    const auto entries = pipeline.table(t).entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0]->packet_count, 3u) << "table " << t;
    EXPECT_EQ(entries[0]->byte_count, bytes) << "table " << t;
  }
}

TEST(FlowCache, CapacityPressureEvictsInsteadOfGrowingUnbounded) {
  Pipeline pipeline(1);
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  limits.max_microflows = 64;
  pipeline.cache().set_limits(limits);
  // Each destination MAC is its own megaflow (the rule set is per-dst);
  // 100 dsts against an 8-entry cache must evict one at a time (CLOCK),
  // never grow past the limit.
  for (std::uint64_t dst = 1; dst <= 100; ++dst) {
    ASSERT_TRUE(pipeline.table(0).add(l2_entry(dst, 2), 0).is_ok());
  }
  for (std::uint64_t dst = 1; dst <= 100; ++dst)
    (void)pipeline.run(udp_packet(0x777, dst, 5555), 1, 1000 + static_cast<sim::SimNanos>(dst));
  EXPECT_LE(pipeline.cache().megaflow_count(), 8u);
  EXPECT_GE(pipeline.cache().stats().evictions, 92u);
}

TEST(FlowCache, SubtablesProbePerMaskNotPerEntry) {
  // The dpcls classifier's whole point: tier-2 lookup cost is counted
  // (and billed) per distinct mask signature, not per resident entry —
  // and the linear-scan ablation still reports per-entry comparisons.
  FlowCache cache;
  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    view.set(Field::kL4Src, sport);
    return view;
  };
  auto exact_dst_megaflow = [](std::uint64_t dst) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    return entry;
  };
  for (std::uint64_t dst = 1; dst <= 8; ++dst)
    (void)cache.insert(exact_dst_megaflow(dst), view_for(dst, dst));
  MegaflowEntry in_port_megaflow;
  in_port_megaflow.required_present = field_bit(Field::kInPort);
  in_port_megaflow.masks[static_cast<std::size_t>(Field::kInPort)] =
      field_all_ones(Field::kInPort);
  in_port_megaflow.values[static_cast<std::size_t>(Field::kInPort)] = 7;
  {
    FieldView view;
    view.set(Field::kInPort, 7);
    (void)cache.insert(std::move(in_port_megaflow), view);
  }

  // 9 megaflows, but only 2 distinct mask signatures.
  EXPECT_EQ(cache.megaflow_count(), 9u);
  EXPECT_EQ(cache.subtable_count(), 2u);

  // A fresh sport misses tier 1; the eth_dst subtable answers in one
  // hashed probe no matter how many exact-dst entries it holds (the
  // in_port subtable is rejected by the presence pre-check, unbilled).
  std::uint32_t scanned = 0;
  ASSERT_NE(cache.lookup(view_for(5, 999), 0, &scanned), nullptr);
  EXPECT_EQ(scanned, 1u);
  EXPECT_EQ(cache.stats().subtable_probes, 1u);

  // The ablation pays per entry again: dst 8 is the 8th insertion, so
  // the linear reference compares 8 candidates to find it.
  cache.set_linear_scan(true);
  scanned = 0;
  ASSERT_NE(cache.lookup(view_for(8, 999), 0, &scanned), nullptr);
  EXPECT_EQ(scanned, 8u);
  EXPECT_EQ(cache.stats().subtable_probes, 1u);  // no hashed probes in linear mode
}

TEST(FlowCache, BucketCandidatesKeepInsertionOrder) {
  // Two megaflows with one signature and the same masked values share a
  // subtable bucket. covers() takes the bucket's first covering
  // candidate, so the first-inserted one answers until it leaves; a
  // bucket that filed newcomers in front would answer with the second.
  FlowCache cache;
  FlowCache::Limits limits;
  limits.max_megaflows = 2;
  cache.set_limits(limits);
  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    view.set(Field::kL4Src, sport);
    return view;
  };
  auto dst_megaflow = [](std::uint64_t dst, std::uint32_t out_port) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    entry.final_actions = {output(out_port)};
    return entry;
  };
  MegaflowEntry* first = cache.insert(dst_megaflow(0x2, 2), view_for(0x2, 1));
  MegaflowEntry* second = cache.insert(dst_megaflow(0x2, 3), view_for(0x2, 2));
  ASSERT_EQ(cache.subtable_count(), 1u);

  // A fresh L4 source (a field no megaflow examines) misses tier 1.
  MegaflowEntry* hit = cache.lookup(view_for(0x2, 100), 0);
  ASSERT_EQ(hit, first);
  EXPECT_EQ(hit->final_actions, ActionList{output(2)});
  EXPECT_EQ(cache.stats().megaflow_hits, 1u);

  // Evict the first: the CLOCK hand rests on it, and with its reference
  // bit down an insert at capacity takes it.
  first->referenced = false;
  (void)cache.insert(dst_megaflow(0x9, 9), view_for(0x9, 1));
  EXPECT_EQ(cache.stats().evictions, 1u);
  hit = cache.lookup(view_for(0x2, 101), 0);
  ASSERT_EQ(hit, second);
  EXPECT_EQ(hit->final_actions, ActionList{output(3)});
  EXPECT_EQ(cache.stats().megaflow_hits, 2u);
}

TEST(FlowCache, MicroflowKeyVectorStaysBoundedAcrossTierOneResets) {
  // Regression: a long-lived elephant megaflow re-seeds the microflow
  // tier after every tier-1 capacity reset, and each re-seed used to
  // append another (now stale or duplicate) key to microflow_keys —
  // unbounded growth for exactly the entries that live longest. The
  // cache now compacts the vector at power-of-two watermarks.
  FlowCache cache;
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  limits.max_microflows = 4;  // tiny tier 1: constant flush pressure
  cache.set_limits(limits);

  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    if (sport != 0) view.set(Field::kL4Src, sport);
    return view;
  };
  auto exact_dst_megaflow = [](std::uint64_t dst) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    return entry;
  };

  MegaflowEntry* elephant = cache.insert(exact_dst_megaflow(0x22), view_for(0x22, 1));
  for (std::uint64_t round = 1; round <= 2000; ++round) {
    // A one-shot mouse installs (flushing tier 1 whenever it is full)...
    (void)cache.insert(exact_dst_megaflow(0x1000 + round), view_for(0x1000 + round, 0));
    // ...and the elephant's next microflow re-seeds tier 1 with a fresh
    // key via a tier-2 hit.
    MegaflowEntry* hit = cache.lookup(view_for(0x22, 1 + round), /*now=*/0);
    ASSERT_EQ(hit, elephant) << "round " << round;
  }
  EXPECT_GT(cache.stats().flushes, 100u);     // tier-1 resets really happened
  EXPECT_GT(cache.stats().evictions, 1000u);  // and CLOCK churned the mice
  // ~2000 keys accumulated before the fix; the compaction watermark
  // (64) now bounds it regardless of the entry's lifetime.
  EXPECT_LE(elephant->microflow_keys.size(), 64u);
}

/// The CLOCK of the insertion-ordered vector the megaflow tier used to
/// be, reduced to ids: an index hand, and reference bits set by hits
/// and cleared by the sweep. An eviction leaves the hand on the
/// victim's successor, or at size() when the victim was last, so the
/// next push_back lands under the hand.
struct VectorClock {
  std::size_t capacity = 0;
  std::vector<std::uint64_t> ids;  // insertion order
  std::vector<bool> referenced;
  std::size_t hand = 0;

  [[nodiscard]] std::ptrdiff_t position(std::uint64_t id) const {
    const auto it = std::find(ids.begin(), ids.end(), id);
    return it == ids.end() ? -1 : it - ids.begin();
  }
  void hit(std::uint64_t id) {
    const std::ptrdiff_t at = position(id);
    if (at >= 0) referenced[static_cast<std::size_t>(at)] = true;
  }
  void insert(std::uint64_t id) {
    if (ids.size() >= capacity) evict_one();
    ids.push_back(id);
    referenced.push_back(false);
  }
  void evict_one() {
    for (std::size_t step = 0; step < 2 * ids.size(); ++step) {
      if (hand >= ids.size()) hand = 0;
      if (referenced[hand]) {
        referenced[hand] = false;
        ++hand;
        continue;
      }
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(hand));
      referenced.erase(referenced.begin() + static_cast<std::ptrdiff_t>(hand));
      return;
    }
  }
};

/// A FlowCache and the vector CLOCK fed the same inserts and hits. Every
/// megaflow matches one exact eth_dst (its id) and replays one flow
/// entry that expires at kLate, so a lookup at kLate walks the linear
/// scan to the covering entry and stops there without a hit: `scanned`
/// reads the entry's position in insertion order, and no reference bit
/// moves.
class ClockPair {
 public:
  static constexpr sim::SimNanos kLate = 1'000;

  explicit ClockPair(std::size_t capacity) {
    FlowCache::Limits limits;
    limits.max_megaflows = capacity;
    cache_.set_limits(limits);
    reference_.capacity = capacity;
    flow_.hard_timeout = kLate;
  }

  void insert(std::uint64_t id) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = id;
    entry.steps.push_back(MegaflowEntry::Step{nullptr, &flow_, {}});
    entries_[id] = cache_.insert(std::move(entry), view(id));
    reference_.insert(id);
  }

  void hit(std::uint64_t id) {
    const bool resident = reference_.position(id) >= 0;
    EXPECT_EQ(cache_.lookup(view(id), /*now=*/0) != nullptr, resident) << "id " << id;
    reference_.hit(id);
  }

  /// Same entries in the same insertion order, with the same bits.
  void expect_same_residents() {
    ASSERT_EQ(cache_.megaflow_count(), reference_.ids.size());
    cache_.set_linear_scan(true);
    for (std::size_t at = 0; at < reference_.ids.size(); ++at) {
      const std::uint64_t id = reference_.ids[at];
      std::uint32_t scanned = 0;
      ASSERT_EQ(cache_.lookup(view(id), kLate, &scanned), nullptr);
      ASSERT_EQ(scanned, at + 1) << "id " << id << " is not resident at position " << at;
      EXPECT_EQ(entries_.at(id)->referenced, reference_.referenced[at]) << "id " << id;
    }
    cache_.set_linear_scan(false);
  }

  [[nodiscard]] const VectorClock& reference() const { return reference_; }

 private:
  static FieldView view(std::uint64_t id) {
    FieldView view;
    view.set(Field::kEthDst, id);
    return view;
  }

  FlowEntry flow_;
  FlowCache cache_;
  VectorClock reference_;
  std::map<std::uint64_t, MegaflowEntry*> entries_;
};

TEST(FlowCache, ClockVictimOrderMatchesVectorReference) {
  {
    // The victim is the last entry: the hand rests past the end, and
    // the entry inserted next is the first one the sweep examines.
    ClockPair pair(4);
    for (std::uint64_t id = 1; id <= 4; ++id) pair.insert(id);
    for (std::uint64_t id = 1; id <= 3; ++id) pair.hit(id);
    pair.insert(5);  // the sweep spares 1-3 and evicts 4, the last entry
    pair.expect_same_residents();
    pair.insert(6);  // evicts 5, under the hand, not 1 at the front
    pair.expect_same_residents();
    EXPECT_EQ(pair.reference().ids, (std::vector<std::uint64_t>{1, 2, 3, 6}));
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const std::size_t capacity = 2 + rng.below(7);
    ClockPair pair(capacity);
    std::uint64_t next_id = 1;
    for (int op = 0; op < 2'000 && !HasFailure(); ++op) {
      if (rng.below(5) < 2) {
        pair.insert(next_id++);
        pair.expect_same_residents();
      } else if (next_id > 1) {
        // Mostly recent ids, some already evicted.
        const std::uint64_t window = std::min<std::uint64_t>(next_id - 1, 2 * capacity);
        pair.hit(next_id - 1 - rng.below(window));
      }
    }
  }
}

TEST(FlowCache, ClockEvictionKeepsElephantsResident) {
  // An elephant aggregate interleaved with a parade of one-shot mice
  // through an under-provisioned cache: second-chance eviction must
  // recycle the mice and keep the elephant's megaflow hitting (the old
  // wholesale flush cold-started it every ~8 mice).
  Pipeline pipeline(1);
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  pipeline.cache().set_limits(limits);
  for (std::uint64_t dst = 1; dst <= 200; ++dst)
    ASSERT_TRUE(pipeline.table(0).add(l2_entry(dst, 2), 0).is_ok());

  sim::SimNanos now = 1000;
  (void)pipeline.run(udp_packet(0x777, 200, 5555), 1, now);  // elephant learns (dst 200)
  std::uint64_t elephant_misses = 0;
  for (std::uint64_t mouse = 1; mouse <= 100; ++mouse) {
    (void)pipeline.run(udp_packet(0x777, mouse, 6000), 1, ++now);  // one-shot mouse
    auto result = pipeline.run(udp_packet(0x777, 200, 5555), 1, ++now);
    if (!result.cache_hit) ++elephant_misses;
  }
  EXPECT_EQ(elephant_misses, 0u);
  EXPECT_GT(pipeline.cache().stats().evictions, 0u);
}

}  // namespace
}  // namespace harmless::softswitch
