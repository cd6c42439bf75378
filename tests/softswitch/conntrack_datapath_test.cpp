// Conntrack on the full SoftSwitch datapath: ct_state-keyed megaflows
// (the NEW->ESTABLISHED transition must never be masked by a cached
// decision), NAT replay through the cache, expiry sweeps on the
// calendar engine, and cost billing.
#include <gtest/gtest.h>

#include <string>

#include "net/build.hpp"
#include "net/l4.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/status.hpp"

namespace harmless::softswitch {
namespace {

using namespace net;
using namespace openflow;
using sim::LinkSpec;
using sim::Network;

struct Rig {
  Network network;
  SoftSwitch* sw;
  sim::Host* a;
  sim::Host* b;

  explicit Rig(CtConfig config = {}, std::size_t burst_size = 32) {
    sw = &network.add_node<SoftSwitch>("sw", 0xC7, 2,
                                       SwitchSpec{.burst_size = burst_size, .conntrack = config});
    a = &network.add_host("a", MacAddr::from_u64(0xA), Ipv4Addr(10, 0, 0, 1));
    b = &network.add_host("b", MacAddr::from_u64(0xB), Ipv4Addr(10, 0, 0, 2));
    network.connect(*a, 0, *sw, 0, LinkSpec::gbps(1));
    network.connect(*b, 0, *sw, 1, LinkSpec::gbps(1));
  }

  /// The stateful-firewall rule shape: a (port 1) may open outward,
  /// b's (port 2) traffic gets in only when ESTABLISHED.
  void install_firewall() {
    FlowModMsg open;
    open.table_id = 0;
    open.priority = 100;
    open.match.in_port(1).eth_type(0x0800).ip_proto(6);
    open.instructions = apply({ct_commit(), output(2)});
    ASSERT_TRUE(sw->install(open).is_ok());

    FlowModMsg established;
    established.table_id = 0;
    established.priority = 100;
    established.match.in_port(2).eth_type(0x0800).ip_proto(6).ct_established();
    established.instructions = apply({ct_commit(), output(1)});
    ASSERT_TRUE(sw->install(established).is_ok());

    FlowModMsg drop;
    drop.table_id = 0;
    drop.priority = 0;
    ASSERT_TRUE(sw->install(drop).is_ok());
  }

  FlowKey forward() const {
    FlowKey key;
    key.eth_src = a->mac();
    key.eth_dst = b->mac();
    key.ip_src = a->ip();
    key.ip_dst = b->ip();
    key.src_port = 40000;
    key.dst_port = 80;
    return key;
  }
  FlowKey reverse() const {
    FlowKey key;
    key.eth_src = b->mac();
    key.eth_dst = a->mac();
    key.ip_src = b->ip();
    key.ip_dst = a->ip();
    key.src_port = 80;
    key.dst_port = 40000;
    return key;
  }
};

TEST(ConntrackDatapath, CachedDecisionNeverMasksStateTransition) {
  Rig rig;
  rig.install_firewall();

  // All phases run inside ONE engine run: connections idle out (and
  // network.run() only returns) once nothing keeps them alive, so any
  // state the later phases depend on must be built while time is still
  // in range. Snapshots are captured by scheduled probes.
  auto& engine = rig.network.engine();
  std::uint64_t rx_after_probes = 99, hits_after_probes = 0;
  std::uint64_t rx_after_reply = 99;
  std::uint64_t rx_after_retry = 99;
  std::uint64_t rx_final = 99, hits_before_repeat = 0, hits_final = 0;

  // Phase 1: b probes twice before any connection exists. The first
  // probe takes the slow path and installs a drop megaflow; the second
  // must be a cache hit on it — the cached decision we then prove gets
  // bypassed, not reused, after the transition.
  engine.schedule_at(0, [&] { rig.b->send(make_tcp(rig.reverse(), kTcpAck)); });
  engine.schedule_at(1'000'000, [&] { rig.b->send(make_tcp(rig.reverse(), kTcpAck)); });
  engine.schedule_at(2'000'000, [&] {
    rx_after_probes = rig.a->counters().rx_tcp;
    hits_after_probes = rig.sw->counters().cache_hits;
  });

  // Phase 2: a opens the connection and b's reply establishes it.
  engine.schedule_at(3'000'000, [&] { rig.a->send(make_tcp(rig.forward(), kTcpSyn)); });
  engine.schedule_at(4'000'000,
                     [&] { rig.b->send(make_tcp(rig.reverse(), kTcpSyn | kTcpAck)); });
  engine.schedule_at(5'000'000, [&] { rx_after_reply = rig.a->counters().rx_tcp; });

  // Phase 3: the same 5-tuple b sent in phase 1 — byte-identical
  // packets — must now be delivered: the prelude stamps a different
  // ct_state, so the drop megaflow cannot match.
  engine.schedule_at(6'000'000, [&] { rig.b->send(make_tcp(rig.reverse(), kTcpAck)); });
  engine.schedule_at(7'000'000, [&] {
    rx_after_retry = rig.a->counters().rx_tcp;
    hits_before_repeat = rig.sw->counters().cache_hits;
  });

  // And the established path itself is cacheable: repeats hit.
  engine.schedule_at(8'000'000, [&] { rig.b->send(make_tcp(rig.reverse(), kTcpAck)); });
  engine.schedule_at(9'000'000, [&] {
    rx_final = rig.a->counters().rx_tcp;
    hits_final = rig.sw->counters().cache_hits;
  });
  rig.network.run();

  EXPECT_EQ(rx_after_probes, 0u);
  EXPECT_GE(hits_after_probes, 1u) << "drop decision was never cached";
  EXPECT_EQ(rx_after_reply, 1u) << "reply direction classified ESTABLISHED must pass";
  EXPECT_EQ(rx_after_retry, 2u)
      << "stale cached drop masked the NEW->ESTABLISHED transition";
  EXPECT_EQ(rx_final, 3u);
  EXPECT_GT(hits_final, hits_before_repeat);
}

TEST(ConntrackDatapath, SnatRewriteReplaysThroughTheCache) {
  Rig rig;
  // a's traffic is source-translated to 192.0.2.1; b replies to the
  // external address and the reverse traversal restores a's address.
  FlowModMsg out;
  out.table_id = 0;
  out.priority = 100;
  out.match.in_port(1).eth_type(0x0800).ip_proto(6);
  out.instructions =
      apply({ct_snat(Ipv4Addr(192, 0, 2, 1), 50000, 50100), set_eth_dst(rig.b->mac()), output(2)});
  ASSERT_TRUE(rig.sw->install(out).is_ok());
  FlowModMsg back;
  back.table_id = 0;
  back.priority = 100;
  back.match.in_port(2).eth_type(0x0800).ip_proto(6).ct_tracked();
  back.instructions = apply({ct_commit(), set_eth_dst(rig.a->mac()), output(1)});
  ASSERT_TRUE(rig.sw->install(back).is_ok());
  FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  ASSERT_TRUE(rig.sw->install(drop).is_ok());

  rig.b->set_rx_log_capacity(16);
  auto& engine = rig.network.engine();
  std::uint64_t hits_before = 0, hits_after = 0;
  std::uint16_t external_port = 0;
  engine.schedule_at(0, [&] { rig.a->send(make_tcp(rig.forward(), kTcpSyn)); });
  engine.schedule_at(1'000'000, [&] {
    ASSERT_EQ(rig.b->counters().rx_tcp, 1u);
    const ParsedPacket& first = rig.b->rx_log().back();
    ASSERT_TRUE(first.ipv4);
    EXPECT_EQ(first.ipv4->src, Ipv4Addr(192, 0, 2, 1));
    external_port = first.src_port();
    // Repeat packets replay the rewrite from the cache: same external
    // port, valid checksums (parse would fail otherwise), cache hits.
    hits_before = rig.sw->counters().cache_hits;
    for (int i = 0; i < 3; ++i) rig.a->send(make_tcp(rig.forward(), kTcpAck));
  });
  engine.schedule_at(2'000'000, [&] {
    hits_after = rig.sw->counters().cache_hits;
    // Reply direction un-translates.
    FlowKey reply;
    reply.eth_src = rig.b->mac();
    reply.eth_dst = rig.a->mac();
    reply.ip_src = rig.b->ip();
    reply.ip_dst = Ipv4Addr(192, 0, 2, 1);
    reply.src_port = 80;
    reply.dst_port = external_port;
    rig.b->send(make_tcp(reply, kTcpSyn | kTcpAck));
  });
  rig.network.run();

  EXPECT_GE(external_port, 50000u);
  EXPECT_LE(external_port, 50100u);
  EXPECT_EQ(rig.b->counters().rx_tcp, 4u);
  for (const ParsedPacket& rx : rig.b->rx_log()) {
    ASSERT_TRUE(rx.ipv4);
    EXPECT_EQ(rx.ipv4->src, Ipv4Addr(192, 0, 2, 1));
    EXPECT_EQ(rx.src_port(), external_port) << "NAT mapping not stable across replay";
  }
  EXPECT_GT(hits_after, hits_before);

  ASSERT_EQ(rig.a->counters().rx_tcp, 1u);
  const ParsedPacket& restored = rig.a->rx_log().back();
  ASSERT_TRUE(restored.ipv4);
  EXPECT_EQ(restored.ipv4->dst, rig.a->ip());
  EXPECT_EQ(restored.dst_port(), 40000u);

  const CtStats ct = rig.sw->pipeline().ct_stats();
  EXPECT_EQ(ct.nat_allocated, 1u);
  EXPECT_EQ(ct.created, 1u);
}

TEST(ConntrackDatapath, SweepExpiresIdleConnectionsOnTheEngine) {
  CtConfig config;
  config.tcp_established_timeout = 10'000'000;  // 10 ms
  config.tcp_transient_timeout = 10'000'000;
  config.sweep_interval = 1'000'000;
  Rig rig(config);
  rig.install_firewall();

  rig.a->send(make_tcp(rig.forward(), kTcpSyn));
  rig.network.run();  // drains: the sweep runs until the table is empty
  const CtStats ct = rig.sw->pipeline().ct_stats();
  EXPECT_EQ(ct.created, 1u);
  EXPECT_EQ(ct.expired, 1u);
  EXPECT_EQ(rig.sw->pipeline().ct_connection_count(), 0u);
  // The engine drained — the sweep must disarm itself once the table
  // is empty (otherwise network.run() would never have returned).
}

TEST(ConntrackDatapath, CtCostsAreBilled) {
  Rig rig;
  rig.install_firewall();
  rig.a->send(make_tcp(rig.forward(), kTcpSyn));
  rig.network.run();
  const CtStats ct = rig.sw->pipeline().ct_stats();
  EXPECT_GE(ct.lookups, 1u);
  EXPECT_EQ(ct.created, 1u);
  // The busy bill must include the ct lookup and commit costs.
  const DatapathCosts costs;
  EXPECT_GT(costs.ct_lookup_ns, 0u);
  EXPECT_GT(costs.ct_commit_ns, 0u);
  EXPECT_GT(rig.sw->core_busy_ns(0), 0);
}

TEST(ConntrackDatapath, DisabledConntrackReportsZeroes) {
  Network network;
  auto& sw = network.add_node<SoftSwitch>("sw", 0xC8, 2);
  auto& a = network.add_host("a", MacAddr::from_u64(0xA), Ipv4Addr(10, 0, 0, 1));
  auto& b = network.add_host("b", MacAddr::from_u64(0xB), Ipv4Addr(10, 0, 0, 2));
  network.connect(a, 0, sw, 0, LinkSpec::gbps(1));
  network.connect(b, 0, sw, 1, LinkSpec::gbps(1));
  FlowModMsg mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.match.eth_dst(b.mac());
  mod.instructions = apply({output(2)});
  ASSERT_TRUE(sw.install(mod).is_ok());
  FlowKey key;
  key.eth_src = a.mac();
  key.eth_dst = b.mac();
  key.ip_src = a.ip();
  key.ip_dst = b.ip();
  key.src_port = 1;
  key.dst_port = 2;
  a.send(make_tcp(key, kTcpSyn));
  network.run();
  EXPECT_EQ(b.counters().rx_tcp, 1u);
  const CtStats ct = sw.pipeline().ct_stats();
  EXPECT_EQ(ct.lookups, 0u);
  EXPECT_EQ(ct.created, 0u);
  EXPECT_EQ(sw.pipeline().ct_connection_count(), 0u);
}

/// A switch on `cores` worker cores under `rss`, conntrack on or off.
SwitchSpec spec_with_cores(std::size_t cores, sim::RssPolicy rss, bool conntrack = true) {
  SwitchSpec spec{.tables = 1, .ingress = {.cores = {.cores = cores, .rss = rss}}};
  if (conntrack) spec.conntrack = CtConfig{};
  return spec;
}

TEST(ConntrackDatapath, MultiCoreHashRssIsRejected) {
  Network network;
  try {
    network.add_node<SoftSwitch>("gw", 0xC9, 4, spec_with_cores(4, sim::RssPolicy::kHash));
    FAIL() << "conntrack on 4 kHash cores was accepted";
  } catch (const util::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("gw"), std::string::npos) << error.what();
  }
}

TEST(ConntrackDatapath, MultiCoreStrideRssIsRejected) {
  Network network;
  EXPECT_THROW(
      network.add_node<SoftSwitch>("gw", 0xC9, 4, spec_with_cores(2, sim::RssPolicy::kStride)),
      util::ConfigError);
}

TEST(ConntrackDatapath, OneCoreAcceptsAnyRssPolicy) {
  for (const sim::RssPolicy rss :
       {sim::RssPolicy::kHash, sim::RssPolicy::kStride, sim::RssPolicy::kSymmetric}) {
    Network network;
    EXPECT_NO_THROW(network.add_node<SoftSwitch>("gw", 0xC9, 4, spec_with_cores(1, rss)));
  }
  Network network;
  EXPECT_NO_THROW(
      network.add_node<SoftSwitch>("gw", 0xC9, 4, spec_with_cores(4, sim::RssPolicy::kSymmetric)));
}

// The post-construction enable_conntrack (kept for bench_suite) checks
// the same rule through SwitchSpec::validate, and a rejected call
// leaves conntrack off.
TEST(ConntrackDatapath, EnableConntrackForwardIsValidatedLikeTheSpec) {
  Network network;
  auto& sw = network.add_node<SoftSwitch>("gw", 0xC9, 4,
                                          spec_with_cores(4, sim::RssPolicy::kHash, false));
  try {
    sw.enable_conntrack(CtConfig{});
    FAIL() << "conntrack on 4 kHash cores was accepted";
  } catch (const util::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("gw"), std::string::npos) << error.what();
  }
  EXPECT_FALSE(sw.pipeline().conntrack_enabled());
}

}  // namespace
}  // namespace harmless::softswitch
