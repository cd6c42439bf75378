// Group table semantics (ALL/SELECT/INDIRECT) and multi-table pipeline
// execution: goto, action sets, header rewrites with checksum fix-up,
// packet-ins, VLAN push/pop.
#include <gtest/gtest.h>

#include <map>

#include "net/build.hpp"
#include "net/parse.hpp"
#include "openflow/pipeline.hpp"

namespace harmless::openflow {
namespace {

using namespace net;

FlowKey flow(std::uint32_t src_ip_suffix = 1) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x02aa);
  key.eth_dst = MacAddr::from_u64(0x02bb);
  key.ip_src = Ipv4Addr(0x0a000000u + src_ip_suffix);
  key.ip_dst = Ipv4Addr(10, 0, 1, 1);
  key.src_port = 1234;
  key.dst_port = 80;
  return key;
}

// --------------------------------------------------------------- groups

TEST(GroupTable, AddValidation) {
  GroupTable groups;
  GroupEntry entry;
  entry.group_id = 1;
  EXPECT_FALSE(groups.add(entry).is_ok());  // no buckets

  entry.buckets.push_back(Bucket{{output(1)}, 1, 0});
  EXPECT_TRUE(groups.add(entry).is_ok());
  EXPECT_FALSE(groups.add(entry).is_ok());  // duplicate id

  GroupEntry select;
  select.group_id = 2;
  select.type = GroupType::kSelect;
  select.buckets.push_back(Bucket{{output(1)}, 0, 0});
  EXPECT_FALSE(groups.add(select).is_ok());  // zero total weight

  GroupEntry indirect;
  indirect.group_id = 3;
  indirect.type = GroupType::kIndirect;
  indirect.buckets.push_back(Bucket{{output(1)}, 1, 0});
  indirect.buckets.push_back(Bucket{{output(2)}, 1, 0});
  EXPECT_FALSE(groups.add(indirect).is_ok());  // indirect needs 1 bucket
}

TEST(GroupTable, ModifyAndRemove) {
  GroupTable groups;
  GroupEntry entry;
  entry.group_id = 1;
  entry.buckets.push_back(Bucket{{output(1)}, 1, 0});
  ASSERT_TRUE(groups.add(entry).is_ok());

  entry.buckets[0].actions = {output(9)};
  ASSERT_TRUE(groups.modify(entry).is_ok());
  EXPECT_EQ(std::get<OutputAction>(groups.find(1)->buckets[0].actions[0]).port, 9u);

  GroupEntry missing;
  missing.group_id = 42;
  missing.buckets.push_back(Bucket{{output(1)}, 1, 0});
  EXPECT_FALSE(groups.modify(missing).is_ok());

  groups.remove(1);
  EXPECT_EQ(groups.find(1), nullptr);
  groups.remove(1);  // idempotent
}

TEST(GroupTable, SelectIsDeterministicPerFlow) {
  GroupTable groups;
  GroupEntry entry;
  entry.group_id = 1;
  entry.type = GroupType::kSelect;
  for (int i = 0; i < 4; ++i) entry.buckets.push_back(Bucket{{output(1)}, 1, 0});
  ASSERT_TRUE(groups.add(entry).is_ok());

  const FieldView view =
      build_field_view(parse_packet(make_udp(flow(7), 64)), 1);
  const std::size_t first = groups.select_bucket(*groups.find(1), flow_hash_of(view));
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(groups.select_bucket(*groups.find(1), flow_hash_of(view)), first);
}

TEST(GroupTable, SelectSpreadsAcrossSourceIps) {
  GroupTable groups;
  GroupEntry entry;
  entry.group_id = 1;
  entry.type = GroupType::kSelect;
  for (int i = 0; i < 4; ++i) entry.buckets.push_back(Bucket{{output(1)}, 1, 0});
  ASSERT_TRUE(groups.add(entry).is_ok());

  std::map<std::size_t, int> histogram;
  for (std::uint32_t ip = 1; ip <= 400; ++ip) {
    const FieldView view = build_field_view(parse_packet(make_udp(flow(ip), 64)), 1);
    histogram[groups.select_bucket(*groups.find(1), flow_hash_of(view))]++;
  }
  ASSERT_EQ(histogram.size(), 4u);  // every bucket used
  for (const auto& [bucket, count] : histogram) {
    (void)bucket;
    EXPECT_GT(count, 50);  // roughly even (100 each +-50%)
    EXPECT_LT(count, 150);
  }
}

TEST(GroupTable, WeightsBiasSelection) {
  GroupTable groups;
  GroupEntry entry;
  entry.group_id = 1;
  entry.type = GroupType::kSelect;
  entry.buckets.push_back(Bucket{{output(1)}, 3, 0});  // 75%
  entry.buckets.push_back(Bucket{{output(2)}, 1, 0});  // 25%
  ASSERT_TRUE(groups.add(entry).is_ok());

  int heavy = 0;
  for (std::uint32_t ip = 1; ip <= 1000; ++ip) {
    const FieldView view = build_field_view(parse_packet(make_udp(flow(ip), 64)), 1);
    if (groups.select_bucket(*groups.find(1), flow_hash_of(view)) == 0) ++heavy;
  }
  EXPECT_GT(heavy, 650);
  EXPECT_LT(heavy, 850);
}

// ------------------------------------------------------------- pipeline

TEST(Pipeline, MissWithEmptyTableDrops) {
  Pipeline pipeline(1);
  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  EXPECT_TRUE(result.dropped());
  EXPECT_FALSE(result.matched);
  // One parse, one miss, no actions: the pipeline counts the work and
  // prices none of it.
  EXPECT_EQ(result.work.parses, 1u);
  EXPECT_EQ(result.work.misses, 1u);
  EXPECT_EQ(result.work.actions, 0u);
  EXPECT_TRUE(result.cache_installed);
}

void install(Pipeline& pipeline, std::uint8_t table, std::uint16_t priority, Match match,
             Instructions instructions) {
  FlowEntry entry;
  entry.priority = priority;
  entry.match = std::move(match);
  entry.instructions = std::move(instructions);
  ASSERT_TRUE(pipeline.table(table).add(std::move(entry), 0).is_ok());
}

TEST(Pipeline, SimpleOutput) {
  Pipeline pipeline(1);
  install(pipeline, 0, 10, Match().l4_dst(80), apply({output(3)}));
  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  EXPECT_TRUE(result.matched);
}

TEST(Pipeline, GotoTableChainsAndActionSetExecutesAtExit) {
  Pipeline pipeline(2);
  // Table 0: write an output into the action set, then goto table 1.
  Instructions stage0;
  stage0.write_actions = {output(7)};
  stage0.goto_table = 1;
  install(pipeline, 0, 10, Match(), std::move(stage0));
  // Table 1: nothing matches -> but action set still runs? No: a miss
  // in table 1 drops (OF default). Add a match that just ends.
  install(pipeline, 1, 10, Match(), Instructions{});

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 7u);
  EXPECT_EQ(result.last_table, 1);
}

TEST(Pipeline, ClearActionsEmptiesTheSet) {
  Pipeline pipeline(2);
  Instructions stage0;
  stage0.write_actions = {output(7)};
  stage0.goto_table = 1;
  install(pipeline, 0, 10, Match(), std::move(stage0));
  Instructions stage1;
  stage1.clear_actions = true;
  install(pipeline, 1, 10, Match(), std::move(stage1));

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  EXPECT_TRUE(result.dropped());
}

TEST(Pipeline, WriteActionsLastOutputWins) {
  Pipeline pipeline(2);
  Instructions stage0;
  stage0.write_actions = {output(7)};
  stage0.goto_table = 1;
  install(pipeline, 0, 10, Match(), std::move(stage0));
  Instructions stage1;
  stage1.write_actions = {output(9)};
  install(pipeline, 1, 10, Match(), std::move(stage1));

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 9u);
}

TEST(Pipeline, BackwardGotoStopsPipeline) {
  Pipeline pipeline(2);
  Instructions bad;
  bad.apply_actions = {output(2)};
  bad.goto_table = 0;  // backward: forbidden
  install(pipeline, 1, 10, Match(), std::move(bad));
  Instructions start;
  start.goto_table = 1;
  install(pipeline, 0, 10, Match(), std::move(start));

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  EXPECT_EQ(result.outputs.size(), 1u);  // output happened, no loop
}

TEST(Pipeline, VlanPushSetOutputRewritesHeader) {
  Pipeline pipeline(1);
  install(pipeline, 0, 10, Match(),
          apply({push_vlan(), set_vlan_vid(101), output(1)}));
  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 2, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  const ParsedPacket parsed = parse_packet(result.outputs[0].second);
  ASSERT_TRUE(parsed.has_vlan());
  EXPECT_EQ(parsed.vlan_vid(), 101);
  ASSERT_TRUE(parsed.ipv4);  // inner packet intact
}

TEST(Pipeline, VlanPopRestoresUntagged) {
  Pipeline pipeline(1);
  install(pipeline, 0, 10, Match().vlan_vid(101), apply({pop_vlan(), output(1)}));
  Packet tagged = make_udp(flow(), 64);
  vlan_push(tagged.frame(), VlanTag{101, 0, false});
  const PipelineResult result = pipeline.run(std::move(tagged), 1, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_FALSE(parse_packet(result.outputs[0].second).has_vlan());
}

TEST(Pipeline, RewritesAfterApplyAffectNextTableMatch) {
  Pipeline pipeline(2);
  // Table 0 pushes vlan 200, goto 1; table 1 matches vlan 200.
  install(pipeline, 0, 10, Match(),
          apply_then_goto({push_vlan(), set_vlan_vid(200)}, 1));
  install(pipeline, 1, 10, Match().vlan_vid(200), apply({output(5)}));
  install(pipeline, 1, 5, Match(), Instructions{});  // explicit drop fallback

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 5u);
}

TEST(Pipeline, SetIpDstKeepsChecksumsValid) {
  Pipeline pipeline(1);
  install(pipeline, 0, 10, Match(),
          apply({set_ip_dst(Ipv4Addr(192, 168, 9, 9)), set_l4_dst(8080), output(1)}));
  const PipelineResult result = pipeline.run(make_udp(flow(), 128), 1, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  // The parser validates the IP checksum; UDP parse validates length.
  const ParsedPacket parsed = parse_packet(result.outputs[0].second);
  ASSERT_TRUE(parsed.ipv4);
  EXPECT_EQ(parsed.ipv4->dst, Ipv4Addr(192, 168, 9, 9));
  ASSERT_TRUE(parsed.udp);
  EXPECT_EQ(parsed.dst_port(), 8080);
}

TEST(Pipeline, OutputToControllerBecomesPacketIn) {
  Pipeline pipeline(1);
  install(pipeline, 0, 10, Match(), apply({to_controller()}));
  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 4, 0);
  EXPECT_TRUE(result.outputs.empty());
  ASSERT_EQ(result.packet_ins.size(), 1u);
  EXPECT_EQ(result.packet_ins[0].in_port, 4u);
  EXPECT_FALSE(result.dropped());
}

TEST(Pipeline, GroupAllReplicates) {
  Pipeline pipeline(1);
  GroupEntry group_entry;
  group_entry.group_id = 1;
  group_entry.type = GroupType::kAll;
  group_entry.buckets.push_back(Bucket{{output(1)}, 1, 0});
  group_entry.buckets.push_back(Bucket{{push_vlan(), set_vlan_vid(7), output(2)}, 1, 0});
  ASSERT_TRUE(pipeline.groups().add(group_entry).is_ok());
  install(pipeline, 0, 10, Match(), apply({group(1)}));

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 3, 0);
  ASSERT_EQ(result.outputs.size(), 2u);
  // Bucket mutations are isolated: copy 1 untagged, copy 2 tagged.
  EXPECT_FALSE(parse_packet(result.outputs[0].second).has_vlan());
  EXPECT_EQ(parse_packet(result.outputs[1].second).vlan_vid(), 7);
}

TEST(Pipeline, SelectGroupPicksExactlyOneBucket) {
  Pipeline pipeline(1);
  GroupEntry group_entry;
  group_entry.group_id = 1;
  group_entry.type = GroupType::kSelect;
  group_entry.buckets.push_back(Bucket{{output(1)}, 1, 0});
  group_entry.buckets.push_back(Bucket{{output(2)}, 1, 0});
  ASSERT_TRUE(pipeline.groups().add(group_entry).is_ok());
  install(pipeline, 0, 10, Match(), apply({group(1)}));

  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 3, 0);
  ASSERT_EQ(result.outputs.size(), 1u);
  // Bucket counters tick.
  const GroupEntry* live = pipeline.groups().find(1);
  EXPECT_EQ(live->buckets[0].packet_count + live->buckets[1].packet_count, 1u);
}

TEST(Pipeline, DanglingGroupBlackholes) {
  Pipeline pipeline(1);
  install(pipeline, 0, 10, Match(), apply({group(404)}));
  const PipelineResult result = pipeline.run(make_udp(flow(), 64), 1, 0);
  EXPECT_TRUE(result.dropped());
}

TEST(Pipeline, CostScalesWithWork) {
  Pipeline cheap(1);
  install(cheap, 0, 10, Match(), apply({output(1)}));
  Pipeline expensive(2);
  install(expensive, 0, 10, Match(),
          apply_then_goto({push_vlan(), set_vlan_vid(5)}, 1));
  install(expensive, 1, 10, Match(), apply({pop_vlan(), output(1)}));

  const PipelineWork cheap_work = cheap.run(make_udp(flow(), 64), 1, 0).work;
  const PipelineWork expensive_work = expensive.run(make_udp(flow(), 64), 1, 0).work;
  // One table, one action; two tables, four actions, and the rewrites
  // force a second parse before table 1.
  EXPECT_EQ(cheap_work.parses, 1u);
  EXPECT_EQ(cheap_work.actions, 1u);
  EXPECT_EQ(expensive_work.parses, 2u);
  EXPECT_EQ(expensive_work.actions, 4u);
  EXPECT_GT(expensive_work.lookup.hash_probes + expensive_work.lookup.entries_scanned,
            cheap_work.lookup.hash_probes + cheap_work.lookup.entries_scanned);
  EXPECT_EQ(cheap_work.misses + expensive_work.misses, 0u);
}

TEST(Pipeline, InvalidTableThrows) {
  Pipeline pipeline(2);
  EXPECT_THROW((void)pipeline.table(2), util::ConfigError);
  EXPECT_THROW(Pipeline(0), util::ConfigError);
}

TEST(Pipeline, TotalEntriesSumsTables) {
  Pipeline pipeline(3);
  install(pipeline, 0, 1, Match().l4_dst(1), Instructions{});
  install(pipeline, 2, 1, Match().l4_dst(2), Instructions{});
  EXPECT_EQ(pipeline.total_entries(), 2u);
}

}  // namespace
}  // namespace harmless::openflow
