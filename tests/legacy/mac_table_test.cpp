// MAC learning table tests: learning, per-VLAN isolation, aging,
// station moves, port flush, capacity, the bridging decision.
#include <gtest/gtest.h>

#include "legacy/mac_table.hpp"

namespace harmless::legacy {
namespace {

using net::MacAddr;

const MacAddr kMacA = MacAddr::from_u64(0xa);
const MacAddr kMacB = MacAddr::from_u64(0xb);

TEST(MacTable, LearnAndLookup) {
  MacTable table;
  table.learn(101, kMacA, 3, 0);
  EXPECT_EQ(table.lookup(101, kMacA, 1), 3);
  EXPECT_FALSE(table.lookup(101, kMacB, 1).has_value());
  EXPECT_EQ(table.size(), 1u);
}

TEST(MacTable, VlansAreIndependent) {
  MacTable table;
  table.learn(101, kMacA, 1, 0);
  table.learn(102, kMacA, 2, 0);
  EXPECT_EQ(table.lookup(101, kMacA, 0), 1);
  EXPECT_EQ(table.lookup(102, kMacA, 0), 2);
  EXPECT_FALSE(table.lookup(103, kMacA, 0).has_value());
}

TEST(MacTable, EntriesAgeOut) {
  MacTable table(/*aging=*/1000);
  table.learn(1, kMacA, 5, 0);
  EXPECT_TRUE(table.lookup(1, kMacA, 999).has_value());
  EXPECT_FALSE(table.lookup(1, kMacA, 1001).has_value());
}

TEST(MacTable, RelearnRefreshesAge) {
  MacTable table(/*aging=*/1000);
  table.learn(1, kMacA, 5, 0);
  table.learn(1, kMacA, 5, 900);
  EXPECT_TRUE(table.lookup(1, kMacA, 1800).has_value());
  EXPECT_FALSE(table.lookup(1, kMacA, 2000).has_value());
}

TEST(MacTable, ZeroAgingMeansNever) {
  MacTable table(/*aging=*/0);
  table.learn(1, kMacA, 5, 0);
  EXPECT_TRUE(table.lookup(1, kMacA, INT64_MAX / 2).has_value());
}

TEST(MacTable, StationMoveUpdatesPortAndCounts) {
  MacTable table;
  table.learn(1, kMacA, 5, 0);
  table.learn(1, kMacA, 9, 10);
  EXPECT_EQ(table.lookup(1, kMacA, 10), 9);
  EXPECT_EQ(table.moves(), 1u);
}

TEST(MacTable, FlushPortRemovesOnlyThatPort) {
  MacTable table;
  table.learn(1, kMacA, 5, 0);
  table.learn(1, kMacB, 6, 0);
  table.flush_port(5);
  EXPECT_FALSE(table.lookup(1, kMacA, 0).has_value());
  EXPECT_EQ(table.lookup(1, kMacB, 0), 6);
}

TEST(MacTable, CapacityFullDropsNewEntries) {
  MacTable table(/*aging=*/0, /*capacity=*/2);
  table.learn(1, MacAddr::from_u64(1), 1, 0);
  table.learn(1, MacAddr::from_u64(2), 2, 0);
  table.learn(1, MacAddr::from_u64(3), 3, 0);  // dropped
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.lookup(1, MacAddr::from_u64(3), 0).has_value());
  // Existing entries still refresh at capacity.
  table.learn(1, MacAddr::from_u64(1), 7, 0);
  EXPECT_EQ(table.lookup(1, MacAddr::from_u64(1), 0), 7);
}

TEST(MacTable, ClearEmptiesEverything) {
  MacTable table;
  table.learn(1, kMacA, 5, 0);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(1, kMacA, 0).has_value());
}

TEST(MacTable, BridgeLearnsTheSourceThenDecidesOnTheDestination) {
  MacTable table;
  using Verdict = MacTable::Verdict;
  // Unknown destination: flood, and the source is learned.
  EXPECT_EQ(table.bridge(1, kMacA, kMacB, 3, 0).verdict, Verdict::kFlood);
  EXPECT_EQ(table.lookup(1, kMacA, 0), 3);
  // Known destination on another port: forward there.
  const MacTable::Decision back = table.bridge(1, kMacB, kMacA, 4, 0);
  EXPECT_EQ(back.verdict, Verdict::kForward);
  EXPECT_EQ(back.port, 3);
  // Known destination on the ingress port: filter.
  EXPECT_EQ(table.bridge(1, kMacB, kMacA, 3, 0).verdict, Verdict::kFilter);
  // Multicast destinations always flood; multicast and zero sources
  // are never learned.
  EXPECT_EQ(table.bridge(1, kMacB, MacAddr::broadcast(), 4, 0).verdict, Verdict::kFlood);
  const std::size_t size = table.size();
  (void)table.bridge(1, MacAddr::broadcast(), kMacA, 5, 0);
  (void)table.bridge(1, MacAddr::from_u64(0), kMacA, 5, 0);
  EXPECT_EQ(table.size(), size);
  // Learning comes first: a frame addressed to its own source MAC, from
  // a station the table has not seen, is filtered, not flooded.
  const MacAddr kMacC = MacAddr::from_u64(0xc);
  EXPECT_EQ(table.bridge(1, kMacC, kMacC, 6, 0).verdict, Verdict::kFilter);
}

}  // namespace
}  // namespace harmless::legacy
