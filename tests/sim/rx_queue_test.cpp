// RxQueue's ring buffer and its ready bit, against a counting model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace harmless::sim {
namespace {

net::Packet packet_with_id(std::uint64_t id) {
  net::Packet packet{net::Bytes(64)};
  packet.set_id(id);
  return packet;
}

TEST(RxQueue, FifoAcrossWrapsAndGrowthsMatchesACountingModel) {
  RxQueue queue(3);
  ReadyBits ready;
  queue.bind(ready, 70);  // second bitmap word
  std::deque<std::uint64_t> model;
  std::uint64_t enqueued = 0;
  std::size_t peak = 0;
  std::uint64_t next = 0;
  util::Rng rng(42);
  // Push-biased, then pop-biased rounds: the head walks around the ring
  // many times, and the ring doubles (8 -> 16 -> ... -> 256) with the
  // head at arbitrary slots.
  for (int round = 0; round < 40; ++round) {
    const double push_chance = round % 4 == 3 ? 0.2 : 0.7;
    for (int step = 0; step < 200; ++step) {
      if (rng.chance(push_chance)) {
        queue.push(next * 10, packet_with_id(next));
        model.push_back(next++);
        ++enqueued;
        peak = std::max(peak, model.size());
      } else if (!model.empty()) {
        ASSERT_EQ(queue.front().seq, model.front() * 10);
        ASSERT_EQ(queue.pop().id(), model.front());
        model.pop_front();
      }
      ASSERT_EQ(queue.depth(), model.size());
      ASSERT_EQ(queue.empty(), model.empty());
      ASSERT_EQ(ready.test(70), !model.empty());
    }
    ASSERT_EQ(queue.enqueued(), enqueued);
    ASSERT_EQ(queue.peak_depth(), peak);
  }
  EXPECT_GT(peak, 128u) << "the ring never reached 256 slots";
  while (!model.empty()) {
    ASSERT_EQ(queue.pop().id(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(ready.test(70));
  EXPECT_EQ(queue.in_port(), 3);
  EXPECT_EQ(queue.drops(), 0u);
}

TEST(RxQueue, EmptiedQueueRefillsInOrder) {
  RxQueue queue(0);
  ReadyBits ready;
  queue.bind(ready, 0);
  for (std::uint64_t i = 0; i < 5; ++i) queue.push(i, packet_with_id(i));
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(queue.pop().id(), i);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(ready.test(0));
  // The second fill starts mid-ring and wraps past the end.
  for (std::uint64_t i = 5; i < 12; ++i) queue.push(i, packet_with_id(i));
  EXPECT_TRUE(ready.test(0));
  EXPECT_EQ(queue.depth(), 7u);
  EXPECT_EQ(queue.peak_depth(), 7u);
  EXPECT_EQ(queue.enqueued(), 12u);
  for (std::uint64_t i = 5; i < 12; ++i) EXPECT_EQ(queue.pop().id(), i);
  EXPECT_FALSE(ready.test(0));
}

TEST(RxQueue, BindingABackloggedQueueSetsItsBit) {
  RxQueue queue(1);
  queue.push(0, packet_with_id(0));  // unbound: no bitmap to touch
  ReadyBits ready;
  queue.bind(ready, 5);
  EXPECT_TRUE(ready.test(5));
  EXPECT_FALSE(ready.test(4));
  queue.pop();
  EXPECT_FALSE(ready.test(5));
}

TEST(RxQueue, MovedQueueKeepsItsPacketsAndBinding) {
  ReadyBits ready;
  std::vector<RxQueue> queues;
  queues.emplace_back(0);
  queues.back().bind(ready, 0);
  for (std::uint64_t i = 0; i < 3; ++i) queues.back().push(i, packet_with_id(i));
  for (int port = 1; port < 40; ++port) queues.emplace_back(port);  // relocates queue 0
  EXPECT_EQ(queues.front().depth(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(queues.front().pop().id(), i);
  EXPECT_FALSE(ready.test(0));
}

}  // namespace
}  // namespace harmless::sim
