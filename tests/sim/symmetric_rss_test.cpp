// Symmetric RSS properties: the hash is direction-insensitive, the
// (port, core) queue grid steers both directions of a flow to one
// core, and the asymmetric policies are untouched by the new variant.
#include <gtest/gtest.h>

#include "net/build.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace harmless::sim {
namespace {

TEST(SymmetricHash, FlowHashIsDirectionInsensitive) {
  util::Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto ip_a = static_cast<std::uint32_t>(rng.below(UINT32_MAX));
    const auto ip_b = static_cast<std::uint32_t>(rng.below(UINT32_MAX));
    const auto port_a = static_cast<std::uint16_t>(rng.below(65536));
    const auto port_b = static_cast<std::uint16_t>(rng.below(65536));
    const auto proto = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(util::symmetric_flow_hash(ip_a, port_a, ip_b, port_b, proto),
              util::symmetric_flow_hash(ip_b, port_b, ip_a, port_a, proto));
    EXPECT_EQ(util::symmetric_pair_hash(ip_a, ip_b), util::symmetric_pair_hash(ip_b, ip_a));
  }
}

TEST(SymmetricHash, DirectionalityIsTheOnlyCollapse) {
  // Distinct unordered endpoint pairs should (virtually) never
  // collide; sample a few thousand and require uniqueness.
  util::Rng rng(43);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4000; ++i) {
    const auto h = util::symmetric_flow_hash(rng.below(UINT32_MAX), rng.below(65536),
                                             rng.below(UINT32_MAX), rng.below(65536), 6);
    EXPECT_TRUE(seen.insert(h).second) << "collision at i=" << i;
  }
}

TEST(CoreSpecPolicy, SymmetricGridMapsQueueIndexToItsCore) {
  CoreSpec spec;
  spec.cores = 4;
  spec.rss = RssPolicy::kSymmetric;
  // queue index = port * cores + core: core_of must return the encoded
  // core regardless of port.
  for (std::size_t port = 0; port < 8; ++port)
    for (std::size_t core = 0; core < 4; ++core)
      EXPECT_EQ(spec.core_of(port * 4 + core), core);
}

TEST(CoreSpecPolicy, AsymmetricPoliciesUnchangedBySymmetricVariant) {
  // kHash and kStride must behave exactly as before the kSymmetric
  // addition: stride is queue % cores, hash is the finalized mix.
  CoreSpec stride;
  stride.cores = 3;
  stride.rss = RssPolicy::kStride;
  for (std::size_t q = 0; q < 12; ++q) EXPECT_EQ(stride.core_of(q), q % 3);

  CoreSpec hash;
  hash.cores = 3;
  hash.rss = RssPolicy::kHash;
  for (std::size_t q = 0; q < 12; ++q) {
    std::uint64_t h = util::hash_u64(util::kHashSeed, q);
    h = util::hash_u64(h, h >> 32);
    h = util::hash_u64(h, h >> 32);
    EXPECT_EQ(hash.core_of(q), static_cast<std::size_t>(h % 3));
  }
}

// End-to-end: on a multi-core SoftSwitch with symmetric RSS, a flow
// and its exact reverse must be served by the same core even when they
// enter on different ports.
TEST(SymmetricRss, BothFlowDirectionsLandOnOneCore) {
  Network network;
  auto& sw = network.add_node<softswitch::SoftSwitch>(
      "sw", 0x51, 2,
      softswitch::SwitchSpec{.ingress = {.cores = {.cores = 4, .rss = RssPolicy::kSymmetric}}});

  auto& a = network.add_host("a", net::MacAddr::from_u64(0xA), net::Ipv4Addr(10, 0, 0, 1));
  auto& b = network.add_host("b", net::MacAddr::from_u64(0xB), net::Ipv4Addr(10, 0, 0, 2));
  network.connect(a, 0, sw, 0, LinkSpec::gbps(1));
  network.connect(b, 0, sw, 1, LinkSpec::gbps(1));

  openflow::FlowModMsg out1;
  out1.table_id = 0;
  out1.priority = 10;
  out1.match.in_port(1);
  out1.instructions = openflow::apply({openflow::output(2)});
  ASSERT_TRUE(sw.install(out1).is_ok());
  openflow::FlowModMsg out2;
  out2.table_id = 0;
  out2.priority = 10;
  out2.match.in_port(2);
  out2.instructions = openflow::apply({openflow::output(1)});
  ASSERT_TRUE(sw.install(out2).is_ok());

  util::Rng rng(7);
  for (int flow = 0; flow < 20; ++flow) {
    std::uint64_t packets_before[4];
    for (std::size_t core = 0; core < 4; ++core)
      packets_before[core] = sw.core_packets(core);

    net::FlowKey key;
    key.eth_src = a.mac();
    key.eth_dst = b.mac();
    key.ip_src = a.ip();
    key.ip_dst = b.ip();
    key.src_port = static_cast<std::uint16_t>(1024 + rng.below(60000));
    key.dst_port = static_cast<std::uint16_t>(1024 + rng.below(60000));
    a.send(net::make_udp(key, 100));
    net::FlowKey reverse;
    reverse.eth_src = b.mac();
    reverse.eth_dst = a.mac();
    reverse.ip_src = b.ip();
    reverse.ip_dst = a.ip();
    reverse.src_port = key.dst_port;
    reverse.dst_port = key.src_port;
    b.send(net::make_udp(reverse, 100));
    network.run();

    int cores_touched = 0;
    for (std::size_t core = 0; core < 4; ++core) {
      const std::uint64_t delta = sw.core_packets(core) - packets_before[core];
      if (delta != 0) {
        ++cores_touched;
        EXPECT_EQ(delta, 2u) << "flow " << flow << " split across cores";
      }
    }
    EXPECT_EQ(cores_touched, 1) << "flow " << flow;
  }
  EXPECT_EQ(a.counters().rx_udp, 20u);
  EXPECT_EQ(b.counters().rx_udp, 20u);
}

// cores == 1 collapses the symmetric grid to one queue per port; the
// datapath must behave exactly like the default single-core layout.
TEST(SymmetricRss, SingleCoreCollapsesToDefaultLayout) {
  auto deliver = [](RssPolicy policy) {
    Network network;
    auto& sw = network.add_node<softswitch::SoftSwitch>(
        "sw", 0x52, 2,
        softswitch::SwitchSpec{.ingress = {.cores = {.cores = 1, .rss = policy}}});
    auto& a = network.add_host("a", net::MacAddr::from_u64(0xA), net::Ipv4Addr(10, 0, 0, 1));
    auto& b = network.add_host("b", net::MacAddr::from_u64(0xB), net::Ipv4Addr(10, 0, 0, 2));
    network.connect(a, 0, sw, 0, LinkSpec::gbps(1));
    network.connect(b, 0, sw, 1, LinkSpec::gbps(1));
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = 10;
    mod.match.eth_dst(b.mac());
    mod.instructions = openflow::apply({openflow::output(2)});
    EXPECT_TRUE(sw.install(mod).is_ok());
    net::FlowKey key;
    key.eth_src = a.mac();
    key.eth_dst = b.mac();
    key.ip_src = a.ip();
    key.ip_dst = b.ip();
    key.src_port = 1111;
    key.dst_port = 2222;
    for (int i = 0; i < 5; ++i) a.send(net::make_udp(key, 100));
    network.run();
    return b.counters().rx_udp;
  };
  EXPECT_EQ(deliver(RssPolicy::kSymmetric), deliver(RssPolicy::kHash));
}

}  // namespace
}  // namespace harmless::sim
