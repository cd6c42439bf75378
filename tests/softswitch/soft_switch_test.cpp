// SoftSwitch datapath tests: wired forwarding, flood resolution, patch
// ports, the OF control session (handshake, mods, errors, barriers,
// stats, packet-out, flow-removed, port-status).
#include <gtest/gtest.h>

#include "net/build.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"

namespace harmless::softswitch {
namespace {

using namespace net;
using namespace openflow;
using sim::Host;
using sim::LinkSpec;
using sim::Network;

FlowModMsg add_flow(std::uint8_t table, std::uint16_t priority, Match match,
                    Instructions instructions) {
  FlowModMsg mod;
  mod.table_id = table;
  mod.priority = priority;
  mod.match = std::move(match);
  mod.instructions = std::move(instructions);
  return mod;
}

struct Rig {
  Network network;
  SoftSwitch* sw;
  Host* h1;
  Host* h2;
  Host* h3;

  Rig() {
    sw = &network.add_node<SoftSwitch>("ss", 0x1, 3);
    h1 = &network.add_host("h1", MacAddr::from_u64(0x1), Ipv4Addr(10, 0, 0, 1));
    h2 = &network.add_host("h2", MacAddr::from_u64(0x2), Ipv4Addr(10, 0, 0, 2));
    h3 = &network.add_host("h3", MacAddr::from_u64(0x3), Ipv4Addr(10, 0, 0, 3));
    network.connect(*h1, 0, *sw, 0, LinkSpec::gbps(1));
    network.connect(*h2, 0, *sw, 1, LinkSpec::gbps(1));
    network.connect(*h3, 0, *sw, 2, LinkSpec::gbps(1));
  }

  Packet h1_to_h2() {
    FlowKey key;
    key.eth_src = h1->mac();
    key.eth_dst = h2->mac();
    key.ip_src = h1->ip();
    key.ip_dst = h2->ip();
    key.dst_port = 80;
    return make_udp(key, 100);
  }
};

TEST(SoftSwitch, ForwardsPerFlowTable) {
  Rig rig;
  ASSERT_TRUE(
      rig.sw->install(add_flow(0, 10, Match().eth_dst(rig.h2->mac()), apply({output(2)})))
          .is_ok());
  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h2->counters().rx_udp, 1u);
  EXPECT_EQ(rig.h3->counters().rx_udp, 0u);
  EXPECT_EQ(rig.sw->counters().pipeline_runs, 1u);
  EXPECT_EQ(rig.sw->counters().packets_out, 1u);
}

TEST(SoftSwitch, MissWithEmptyTableDrops) {
  Rig rig;
  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h2->counters().rx_total, 0u);
  EXPECT_EQ(rig.sw->counters().drops_no_match, 1u);
}

TEST(SoftSwitch, FloodExcludesIngress) {
  Rig rig;
  rig.h3->set_promiscuous(true);  // observe the flood copy despite its dst MAC
  ASSERT_TRUE(rig.sw->install(add_flow(0, 1, Match(), apply({flood()}))).is_ok());
  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h1->counters().rx_udp, 0u);  // never back out the ingress
  EXPECT_EQ(rig.h1->counters().rx_filtered, 0u);
  EXPECT_EQ(rig.h2->counters().rx_udp, 1u);
  EXPECT_EQ(rig.h3->counters().rx_udp, 1u);
}

TEST(SoftSwitch, OutputInPortReflects) {
  Rig rig;
  rig.h1->set_promiscuous(true);  // the reflected frame is addressed to h2
  ASSERT_TRUE(
      rig.sw->install(add_flow(0, 1, Match(), apply({output(kPortInPort)}))).is_ok());
  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h1->counters().rx_udp, 1u);
}

TEST(SoftSwitch, InvalidOutputPortDropsSilently) {
  Rig rig;
  ASSERT_TRUE(rig.sw->install(add_flow(0, 1, Match(), apply({output(99)}))).is_ok());
  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h1->counters().rx_udp, 0u);
  EXPECT_EQ(rig.h2->counters().rx_udp, 0u);
}

TEST(SoftSwitch, PortDownDropsAndReportsStatus) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);
  std::vector<PortStatusMsg> statuses;
  channel.set_controller_handler([&](Message&& message) {
    if (const auto* status = std::get_if<PortStatusMsg>(&message))
      statuses.push_back(*status);
  });

  ASSERT_TRUE(rig.sw->install(add_flow(0, 1, Match(), apply({output(2)}))).is_ok());
  rig.sw->set_port_state(2, false);
  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h2->counters().rx_udp, 0u);
  EXPECT_EQ(rig.sw->counters().drops_port_down, 1u);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].desc.port_no, 2u);
  EXPECT_FALSE(statuses[0].desc.up);

  rig.sw->set_port_state(2, true);
  rig.sw->set_port_state(2, true);  // no duplicate event
  rig.network.run();
  EXPECT_EQ(statuses.size(), 2u);
}

TEST(SoftSwitch, PatchPortsHandOffBetweenSwitches) {
  Network network;
  auto& left = network.add_node<SoftSwitch>("left", 0x1, 2);
  auto& right = network.add_node<SoftSwitch>("right", 0x2, 2);
  auto& h1 = network.add_host("h1", MacAddr::from_u64(0x1), Ipv4Addr(10, 0, 0, 1));
  auto& h2 = network.add_host("h2", MacAddr::from_u64(0x2), Ipv4Addr(10, 0, 0, 2));
  network.connect(h1, 0, left, 0, LinkSpec::gbps(1));   // left OF 1
  network.connect(h2, 0, right, 0, LinkSpec::gbps(1));  // right OF 1
  left.bind_patch(2, right, 2);

  ASSERT_TRUE(left.install(add_flow(0, 1, Match().in_port(1), apply({output(2)}))).is_ok());
  ASSERT_TRUE(left.install(add_flow(0, 1, Match().in_port(2), apply({output(1)}))).is_ok());
  ASSERT_TRUE(right.install(add_flow(0, 1, Match().in_port(2), apply({output(1)}))).is_ok());
  ASSERT_TRUE(right.install(add_flow(0, 1, Match().in_port(1), apply({output(2)}))).is_ok());

  FlowKey key;
  key.eth_src = h1.mac();
  key.eth_dst = h2.mac();
  h1.send(make_udp(key, 100));
  network.run();
  EXPECT_EQ(h2.counters().rx_udp, 1u);

  // And back.
  FlowKey reverse;
  reverse.eth_src = h2.mac();
  reverse.eth_dst = h1.mac();
  h2.send(make_udp(reverse, 100));
  network.run();
  EXPECT_EQ(h1.counters().rx_udp, 1u);
}

TEST(SoftSwitch, PatchBindingValidatesRange) {
  Network network;
  auto& left = network.add_node<SoftSwitch>("left", 0x1, 2);
  auto& right = network.add_node<SoftSwitch>("right", 0x2, 2);
  EXPECT_THROW(left.bind_patch(0, right, 1), util::ConfigError);
  EXPECT_THROW(left.bind_patch(3, right, 1), util::ConfigError);
  EXPECT_THROW(left.bind_patch(1, right, 9), util::ConfigError);
}

TEST(SoftSwitch, FlowModViaChannelAndErrorReplies) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);
  std::vector<std::string> errors;
  channel.set_controller_handler([&](Message&& message) {
    if (const auto* error = std::get_if<ErrorMsg>(&message)) errors.push_back(error->text);
  });

  channel.send_to_switch(add_flow(0, 10, Match().eth_dst(rig.h2->mac()), apply({output(2)})));
  // Bad table id -> ErrorMsg.
  channel.send_to_switch(add_flow(7, 10, Match(), apply({output(1)})));
  rig.network.run();

  EXPECT_EQ(rig.sw->pipeline().table(0).size(), 1u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("bad table id"), std::string::npos);

  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  EXPECT_EQ(rig.h2->counters().rx_udp, 1u);
}

TEST(SoftSwitch, HandshakeEchoBarrierStats) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);

  bool got_hello = false, got_features = false, got_echo = false, got_barrier = false;
  bool got_stats = false;
  channel.set_controller_handler([&](Message&& message) {
    if (std::holds_alternative<HelloMsg>(message)) got_hello = true;
    if (const auto* features = std::get_if<FeaturesReplyMsg>(&message)) {
      got_features = true;
      EXPECT_EQ(features->datapath_id, 0x1u);
      EXPECT_EQ(features->ports.size(), 3u);
      EXPECT_EQ(features->table_count, 2);
    }
    if (const auto* echo = std::get_if<EchoReplyMsg>(&message)) {
      got_echo = true;
      EXPECT_EQ(echo->payload, 42u);
    }
    if (const auto* barrier = std::get_if<BarrierReplyMsg>(&message)) {
      got_barrier = true;
      EXPECT_EQ(barrier->xid, 9u);
    }
    if (const auto* stats = std::get_if<FlowStatsReplyMsg>(&message)) {
      got_stats = true;
      ASSERT_EQ(stats->flows.size(), 1u);
      EXPECT_EQ(stats->flows[0].priority, 10);
    }
  });

  channel.send_to_switch(HelloMsg{});
  channel.send_to_switch(FeaturesRequestMsg{});
  channel.send_to_switch(EchoRequestMsg{42});
  channel.send_to_switch(BarrierRequestMsg{9});
  channel.send_to_switch(add_flow(0, 10, Match().l4_dst(80), apply({output(1)})));
  channel.send_to_switch(FlowStatsRequestMsg{});
  rig.network.run();

  EXPECT_TRUE(got_hello);
  EXPECT_TRUE(got_features);
  EXPECT_TRUE(got_echo);
  EXPECT_TRUE(got_barrier);
  EXPECT_TRUE(got_stats);
}

TEST(SoftSwitch, PacketOutExecutesActions) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);

  PacketOutMsg out;
  out.packet = rig.h1_to_h2();
  out.actions = {output(2)};
  channel.send_to_switch(std::move(out));
  rig.network.run();
  EXPECT_EQ(rig.h2->counters().rx_udp, 1u);
}

TEST(SoftSwitch, PacketInFlowsToChannel) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);
  std::vector<PacketInMsg> punts;
  channel.set_controller_handler([&](Message&& message) {
    if (auto* punt = std::get_if<PacketInMsg>(&message)) punts.push_back(std::move(*punt));
  });
  ASSERT_TRUE(rig.sw->install(add_flow(0, 0, Match(), apply({to_controller()}))).is_ok());

  rig.h1->send(rig.h1_to_h2());
  rig.network.run();
  ASSERT_EQ(punts.size(), 1u);
  EXPECT_EQ(punts[0].in_port, 1u);
  const ParsedPacket parsed = parse_packet(punts[0].packet);
  EXPECT_EQ(parsed.eth_src, rig.h1->mac());
}

TEST(SoftSwitch, FlowRemovedSentOnTimeout) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);
  std::vector<FlowRemovedMsg> removed;
  channel.set_controller_handler([&](Message&& message) {
    if (const auto* msg = std::get_if<FlowRemovedMsg>(&message)) removed.push_back(*msg);
  });

  FlowModMsg mod = add_flow(0, 10, Match().l4_dst(80), apply({output(2)}));
  mod.hard_timeout = 50'000'000;  // 50 ms
  mod.send_flow_removed = true;
  mod.cookie = 0xabc;
  channel.send_to_switch(mod);
  rig.network.run();

  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 0xabcu);
  EXPECT_EQ(rig.sw->pipeline().table(0).size(), 0u);
}

TEST(SoftSwitch, GroupModViaChannel) {
  Rig rig;
  ControlChannel channel(rig.network.engine(), 1000);
  rig.sw->attach_channel(channel);
  std::size_t errors = 0;
  channel.set_controller_handler([&](Message&& message) {
    if (std::holds_alternative<ErrorMsg>(message)) ++errors;
  });

  GroupModMsg group_mod;
  group_mod.entry.group_id = 5;
  group_mod.entry.buckets.push_back(Bucket{{output(2)}, 1, 0});
  channel.send_to_switch(group_mod);
  channel.send_to_switch(group_mod);  // duplicate add -> error
  rig.network.run();

  EXPECT_NE(rig.sw->pipeline().groups().find(5), nullptr);
  EXPECT_EQ(errors, 1u);
}

// ---------------------------------------------------------- price list

// DatapathCosts is the one price list: every PipelineWork count and
// each cache flag, set alone, costs exactly its own rate. A term the
// pricing function drops, prices twice or prices at another term's
// rate fails here without a bench run.
TEST(DatapathCosts, MarginalCostPricesEachTermAtItsRate) {
  static_assert(sizeof(PipelineWork) == 10 * sizeof(std::uint32_t),
                "a new PipelineWork count needs a row below");
  DatapathCosts costs;
  // Distinct rates, so a term priced at a neighbour's rate shows.
  costs.parse_ns = 101;
  costs.hash_probe_ns = 103;
  costs.entry_scan_ns = 107;
  costs.miss_ns = 109;
  costs.action_ns = 113;
  costs.group_ns = 127;
  costs.cache_subtable_ns = 131;
  costs.cache_scan_ns = 137;
  costs.ct_lookup_ns = 139;
  costs.ct_commit_ns = 149;
  costs.cache_hit_ns = 151;
  costs.cache_insert_ns = 157;

  struct Term {
    const char* name;
    void (*set)(PipelineResult&);
    sim::SimNanos rate;
  };
  const Term terms[] = {
      {"parses", [](PipelineResult& r) { r.work.parses = 1; }, costs.parse_ns},
      {"hash_probes", [](PipelineResult& r) { r.work.lookup.hash_probes = 1; },
       costs.hash_probe_ns},
      {"entries_scanned", [](PipelineResult& r) { r.work.lookup.entries_scanned = 1; },
       costs.entry_scan_ns},
      {"misses", [](PipelineResult& r) { r.work.misses = 1; }, costs.miss_ns},
      {"actions", [](PipelineResult& r) { r.work.actions = 1; }, costs.action_ns},
      {"groups", [](PipelineResult& r) { r.work.groups = 1; }, costs.group_ns},
      {"subtable_probes", [](PipelineResult& r) { r.work.subtable_probes = 1; },
       costs.cache_subtable_ns},
      {"linear_compares", [](PipelineResult& r) { r.work.linear_compares = 1; },
       costs.cache_scan_ns},
      {"ct_lookups", [](PipelineResult& r) { r.work.ct_lookups = 1; }, costs.ct_lookup_ns},
      {"ct_commits", [](PipelineResult& r) { r.work.ct_commits = 1; }, costs.ct_commit_ns},
      {"cache_hit", [](PipelineResult& r) { r.cache_hit = true; }, costs.cache_hit_ns},
      {"cache_installed", [](PipelineResult& r) { r.cache_installed = true; },
       costs.cache_insert_ns},
  };
  EXPECT_EQ(costs.marginal_cost_ns(PipelineResult{}), 0);
  for (const Term& term : terms) {
    PipelineResult result;
    term.set(result);
    EXPECT_EQ(costs.marginal_cost_ns(result), term.rate) << term.name;
    EXPECT_EQ(costs.packet_cost_ns(result),
              costs.rx_tx_burst_ns + costs.rx_tx_pkt_ns + term.rate)
        << term.name;
  }
}

}  // namespace
}  // namespace harmless::softswitch
