// HaAgent on its own: two agents over two bare Pipelines, one
// ReplicationChannel pair and one Witness — no SoftSwitch, no traffic.
// The agent's whole world is its pipeline, its spec/stats and the crash
// flag, so each test flips those directly and watches the timers,
// channels and witness react.
//
// Every test drives the engine with run_until: armed heartbeat and
// monitor timers reschedule themselves forever.

#include <gtest/gtest.h>

#include "openflow/pipeline.hpp"
#include "sim/event.hpp"
#include "sim/witness.hpp"
#include "softswitch/ha_agent.hpp"
#include "softswitch/replication.hpp"

namespace harmless::softswitch {
namespace {

constexpr sim::SimNanos kUs = 1'000;
constexpr sim::SimNanos kMs = 1'000'000;

openflow::CtTuple udp_tuple(std::uint16_t src_port) {
  return openflow::CtTuple{0x0a000001, 0x0a000002, src_port, 53, 17};
}

/// Two agents, "act" over pipeline a and "stb" over pipeline b (one
/// conntrack shard each), with the duplex replication pair and a
/// witness link per box. Nothing is wired into a role yet.
struct Pair {
  sim::Engine engine;
  openflow::Pipeline pipe_a{1};
  openflow::Pipeline pipe_b{1};
  FailoverSpec spec;
  FailoverStats stats_a;
  FailoverStats stats_b;
  bool crashed_a = false;
  bool crashed_b = false;
  sim::SimNanos checkpoint_entry_ns = 40;
  HaAgent act{engine, "act", pipe_a, spec, stats_a, crashed_a, checkpoint_entry_ns};
  HaAgent stb{engine, "stb", pipe_b, spec, stats_b, crashed_b, checkpoint_entry_ns};
  ReplicationChannel ab{engine};  // act -> stb
  ReplicationChannel ba{engine};  // stb -> act
  sim::Witness witness;
  sim::WitnessLink wl_act{engine, witness, 0xA1};
  sim::WitnessLink wl_stb{engine, witness, 0xA2};

  Pair() {
    pipe_a.enable_conntrack(openflow::CtConfig{});
    pipe_b.enable_conntrack(openflow::CtConfig{});
  }

  /// Commit one UDP connection on the active's pipeline, as the
  /// datapath would, and tell the agent traffic touched the table.
  void commit(std::uint16_t src_port) {
    pipe_a.conntrack(0).process(udp_tuple(src_port), 0, engine.now(), openflow::CtAction{});
    act.arm_ct_timers();
  }

  /// Step the engine in 10 us slices until `link` has sent one more
  /// lease request than `sent_before` (or `limit` passes).
  void run_until_request(const sim::WitnessLink& link, std::uint64_t sent_before,
                         sim::SimNanos limit) {
    while (link.stats().requests_sent == sent_before && engine.now() < limit)
      engine.run_until(engine.now() + 10 * kUs);
  }
};

TEST(HaAgent, PromotesOnlyAfterFirstContactPlusThresholdSilence) {
  // Never heard the active: silence alone must not promote (bootstrap
  // promotion is the operator's call).
  {
    Pair pair;
    pair.act.enable_active(pair.ab);
    pair.stb.enable_standby(pair.ab);
    pair.crashed_a = true;  // silent from the start
    pair.engine.run_until(20 * kMs);
    EXPECT_FALSE(pair.stb.promoted());
    EXPECT_EQ(pair.stats_b.takeovers, 0u);
  }
  // Heard it, then silence: promotion lands on the first monitor tick
  // (every 500 us) with more than 3 x 500 us since the last heartbeat.
  // The last one leaves at 2.0 ms and lands at 2.05 ms, so the 3.5 ms
  // tick (1.45 ms of silence) holds and the 4.0 ms tick promotes.
  Pair pair;
  pair.act.enable_active(pair.ab);
  pair.stb.enable_standby(pair.ab);
  pair.engine.run_until(2 * kMs + 250 * kUs);
  ASSERT_EQ(pair.ab.stats().heartbeats_delivered, 4u);
  pair.crashed_a = true;
  pair.engine.run_until(3 * kMs + 900 * kUs);
  EXPECT_FALSE(pair.stb.promoted());
  EXPECT_EQ(pair.stb.role(), HaAgent::Role::kStandby);
  pair.engine.run_until(4 * kMs + 100 * kUs);
  EXPECT_TRUE(pair.stb.promoted());
  EXPECT_EQ(pair.stb.role(), HaAgent::Role::kActive);
  EXPECT_EQ(pair.stats_b.takeovers, 1u);
  EXPECT_TRUE(pair.stb.unfenced_active());
}

TEST(HaAgent, LeaseReplyForAStandbyThatWasPromotedMeanwhileIsIgnored) {
  Pair pair;
  pair.act.set_witness(pair.wl_act);
  pair.stb.set_witness(pair.wl_stb);
  pair.act.enable_active(pair.ab, &pair.ba);
  pair.stb.enable_standby(pair.ab, &pair.ba);
  pair.engine.run_until(3 * kMs);
  ASSERT_TRUE(pair.act.unfenced_active());

  // Crash the active; the standby's monitor trips and asks the witness
  // for the lease. While that request is in flight, promote it by hand.
  pair.crashed_a = true;
  pair.run_until_request(pair.wl_stb, pair.wl_stb.stats().requests_sent, 20 * kMs);
  ASSERT_EQ(pair.wl_stb.stats().requests_sent, 1u);
  pair.stb.takeover();
  const FailoverStats before = pair.stats_b;
  const std::uint64_t epoch_before = pair.stb.epoch();

  // The reply lands one rtt (100 us) later — before the promoted box's
  // first renewal (500 us) — and must change nothing.
  pair.engine.run_until(pair.engine.now() + 150 * kUs);
  EXPECT_EQ(pair.wl_stb.stats().granted + pair.wl_stb.stats().denied, 1u);
  EXPECT_EQ(pair.stats_b.ha_lease_grants, before.ha_lease_grants);
  EXPECT_EQ(pair.stats_b.ha_lease_denials, before.ha_lease_denials);
  EXPECT_EQ(pair.stats_b.ha_promotions_denied, before.ha_promotions_denied);
  EXPECT_EQ(pair.stats_b.takeovers, 1u);
  EXPECT_EQ(pair.stb.epoch(), epoch_before);
  EXPECT_EQ(pair.stb.role(), HaAgent::Role::kActive);
}

TEST(HaAgent, LeaseReplyForAnActiveThatWasDemotedMeanwhileIsIgnored) {
  Pair pair;
  pair.act.set_witness(pair.wl_act);
  pair.act.enable_active(pair.ab, &pair.ba);
  pair.engine.run_until(kMs);
  ASSERT_TRUE(pair.act.unfenced_active());
  ASSERT_EQ(pair.act.epoch(), 1u);

  // Catch a renewal in flight, then let a newer-epoch heartbeat (50 us
  // of replication latency) overtake its reply (100 us rtt).
  pair.run_until_request(pair.wl_act, pair.wl_act.stats().requests_sent, 5 * kMs);
  const std::uint64_t grants_before = pair.stats_a.ha_lease_grants;
  const std::uint64_t granted_before = pair.wl_act.stats().granted;
  pair.ba.publish_heartbeat(/*epoch=*/7);
  pair.engine.run_until(pair.engine.now() + 75 * kUs);
  ASSERT_EQ(pair.act.role(), HaAgent::Role::kStandby);
  EXPECT_EQ(pair.stats_a.ha_demotions, 1u);

  // The renewal's grant arrives for a box that is no longer active:
  // ignored — no grant counted, the epoch is not rolled back to the
  // witness's, and the fence stays up.
  pair.engine.run_until(pair.engine.now() + 75 * kUs);
  EXPECT_EQ(pair.wl_act.stats().granted, granted_before + 1);
  EXPECT_EQ(pair.stats_a.ha_lease_grants, grants_before);
  EXPECT_EQ(pair.act.epoch(), 7u);
  EXPECT_TRUE(pair.act.fenced());
  EXPECT_FALSE(pair.act.unfenced_active());
}

TEST(HaAgent, CrashFlagSilencesHeartbeatsAndCheckpoints) {
  Pair pair;
  pair.spec.checkpoint_interval_ns = kMs;
  pair.act.enable_active(pair.ab);
  pair.commit(40000);
  pair.engine.run_until(3 * kMs + 100 * kUs);
  ASSERT_GE(pair.ab.stats().heartbeats_sent, 6u);
  ASSERT_EQ(pair.stats_a.checkpoints, 3u);

  pair.crashed_a = true;
  const std::uint64_t heartbeats = pair.ab.stats().heartbeats_sent;
  pair.engine.run_until(8 * kMs);
  EXPECT_EQ(pair.ab.stats().heartbeats_sent, heartbeats);
  EXPECT_EQ(pair.stats_a.checkpoints, 3u);

  // The heartbeat timer kept running through the crash: beacons resume
  // on restart. The checkpoint timer disarmed; traffic re-arms it.
  pair.crashed_a = false;
  pair.engine.run_until(9 * kMs + 100 * kUs);
  EXPECT_GT(pair.ab.stats().heartbeats_sent, heartbeats);
  EXPECT_EQ(pair.stats_a.checkpoints, 3u);
  pair.commit(40001);
  pair.engine.run_until(10 * kMs + 200 * kUs);
  EXPECT_EQ(pair.stats_a.checkpoints, 4u);
}

TEST(HaAgent, CheckpointRestoreRoundTrip) {
  Pair pair;
  // Nothing held yet: restore is a no-op.
  EXPECT_FALSE(pair.act.restore_checkpoint());

  pair.spec.checkpoint_interval_ns = kMs;
  pair.commit(40000);
  pair.commit(40001);
  pair.engine.run_until(kMs + 100 * kUs);
  ASSERT_EQ(pair.stats_a.checkpoints, 1u);
  EXPECT_EQ(pair.stats_a.checkpoint_entries, 2u);
  EXPECT_EQ(pair.stats_a.checkpoint_ns_billed, 2 * pair.checkpoint_entry_ns);

  // A crash wipes the table but not the off-box image.
  pair.crashed_a = true;
  pair.pipe_a.ct_clear();
  pair.crashed_a = false;
  ASSERT_EQ(pair.pipe_a.ct_connection_count(), 0u);
  EXPECT_TRUE(pair.act.restore_checkpoint());
  EXPECT_EQ(pair.pipe_a.ct_connection_count(), 2u);
  EXPECT_EQ(pair.stats_a.ct_restored, 2u);
  EXPECT_EQ(pair.stats_a.ct_restore_dropped, 0u);
  EXPECT_EQ(pair.pipe_a.conntrack(0).classify(udp_tuple(40001), 0, pair.engine.now()) &
                openflow::kCtTracked,
            openflow::kCtTracked);

  // Restoring again collides with the live entries: nothing restored.
  EXPECT_FALSE(pair.act.restore_checkpoint());
  EXPECT_EQ(pair.stats_a.ct_restore_dropped, 2u);
}

TEST(HaAgent, ReEnabledConntrackIsCheckpointedAfresh) {
  Pair pair;
  pair.spec.checkpoint_interval_ns = kMs;
  pair.spec.incremental_checkpoints = true;
  pair.commit(40000);
  pair.commit(40001);
  pair.engine.run_until(kMs + 100 * kUs);
  ASSERT_EQ(pair.stats_a.checkpoint_entries, 2u);

  // Conntrack re-enabled between two incremental cadences: the new
  // table holds one connection, and so must the held image, however
  // the new tracker's address relates to the old one's.
  pair.pipe_a.enable_conntrack(openflow::CtConfig{});
  pair.commit(40002);
  pair.engine.run_until(2 * kMs + 100 * kUs);
  ASSERT_EQ(pair.stats_a.checkpoints, 2u);
  EXPECT_EQ(pair.stats_a.checkpoint_entries, 3u);

  pair.pipe_a.ct_clear();
  EXPECT_TRUE(pair.act.restore_checkpoint());
  EXPECT_EQ(pair.stats_a.ct_restored, 1u);
  EXPECT_EQ(pair.pipe_a.ct_connection_count(), 1u);
}

}  // namespace
}  // namespace harmless::softswitch
