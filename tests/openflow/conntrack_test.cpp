// ConnTracker unit tests: the state machine, timeouts and expiry, LRU
// capacity bounds, and NAT allocation (including the shard-affinity
// property the symmetric-RSS datapath depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "net/l4.hpp"
#include "openflow/conntrack.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {
namespace {

constexpr std::uint8_t kTcp = 6;
constexpr std::uint8_t kUdp = 17;

CtTuple tuple(std::uint32_t src_ip, std::uint16_t src_port, std::uint32_t dst_ip,
              std::uint16_t dst_port, std::uint8_t proto = kTcp) {
  return CtTuple{src_ip, dst_ip, src_port, dst_port, proto};
}

const CtAction kCommit{};

TEST(ConnTracker, TcpLifecycleNewToEstablishedToClosing) {
  ConnTracker ct(CtConfig{}, 1);
  const CtTuple orig = tuple(0x0a000001, 40000, 0x0a000002, 80);

  // Before any commit: a SYN is NEW, a mid-stream segment is INVALID.
  EXPECT_EQ(ct.classify(orig, net::kTcpSyn, 0), kCtNew);
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 0), kCtInvalid);

  // SYN through ct: commits.
  const CtOutcome opened = ct.process(orig, net::kTcpSyn, 1000, kCommit);
  EXPECT_TRUE(opened.committed);
  EXPECT_EQ(opened.state & kCtNew, kCtNew);
  EXPECT_EQ(ct.size(), 1u);

  // Original direction, pre-reply: tracked but not yet established.
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 2000), kCtTracked);

  // Reply direction classifies ESTABLISHED immediately (it proves
  // bidirectionality), and its ct traversal flips seen_reply.
  const CtTuple reply = orig.reversed();
  EXPECT_EQ(ct.classify(reply, net::kTcpSyn | net::kTcpAck, 2000),
            kCtTracked | kCtReply | kCtEstablished);
  ct.process(reply, net::kTcpSyn | net::kTcpAck, 2000, kCommit);

  // Now the original direction is established too.
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 3000), kCtTracked | kCtEstablished);

  // FIN demotes the entry to the transient timeout.
  ct.process(orig, net::kTcpFin | net::kTcpAck, 4000, kCommit);
  const auto entries = ct.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].closing);
  EXPECT_TRUE(entries[0].seen_reply);
  EXPECT_EQ(entries[0].expires_at, 4000 + CtConfig{}.tcp_transient_timeout);
}

TEST(ConnTracker, UdpTracksWithoutFlagsAndIdlesOut) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 100;  // wheel buckets quantize up to this
  ConnTracker ct(config, 1);
  const CtTuple orig = tuple(0x0a000001, 5353, 0x0a000002, 53, kUdp);

  EXPECT_EQ(ct.classify(orig, 0, 0), kCtNew);  // no SYN requirement for UDP
  ct.process(orig, 0, 100, kCommit);
  EXPECT_EQ(ct.classify(orig, 0, 500), kCtTracked);

  // Idle past udp_timeout: the sweep reaps it.
  EXPECT_EQ(ct.expire(2'000), 1u);
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.stats().expired, 1u);
  EXPECT_EQ(ct.classify(orig, 0, 2'001), kCtNew);
}

TEST(ConnTracker, RefreshExtendsDeadlineAcrossStaleWheelBuckets) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 100;
  ConnTracker ct(config, 1);
  const CtTuple orig = tuple(1, 1, 2, 2, kUdp);
  ct.process(orig, 0, 0, kCommit);
  // Refresh just before the original deadline; the stale wheel bucket
  // must re-file, not kill.
  ct.process(orig, 0, 900, kCommit);
  EXPECT_EQ(ct.expire(1'000), 0u);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_EQ(ct.expire(2'000), 1u);
}

TEST(ConnTracker, LruEvictsOldestAtCapacity) {
  CtConfig config;
  config.max_connections = 4;
  ConnTracker ct(config, 1);
  for (std::uint16_t i = 0; i < 4; ++i)
    ct.process(tuple(100 + i, i, 200, 80, kUdp), 0, i, kCommit);
  // Touch connection 0 so connection 1 is the LRU victim.
  ct.process(tuple(100, 0, 200, 80, kUdp), 0, 10, kCommit);

  ct.process(tuple(500, 9, 200, 80, kUdp), 0, 20, kCommit);
  EXPECT_EQ(ct.size(), 4u);
  EXPECT_EQ(ct.stats().evicted, 1u);
  EXPECT_EQ(ct.classify(tuple(101, 1, 200, 80, kUdp), 0, 21), kCtNew);    // evicted
  EXPECT_EQ(ct.classify(tuple(100, 0, 200, 80, kUdp), 0, 21), kCtTracked);  // survived
}

TEST(ConnTracker, SnatAllocatesDistinctPortsAndTranslatesBothWays) {
  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};

  // Two inside hosts using the same source port must get distinct
  // external ports.
  const CtOutcome a = ct.process(tuple(0x0a000001, 40000, 0x08080808, 80), net::kTcpSyn, 0, snat);
  const CtOutcome b = ct.process(tuple(0x0a000002, 40000, 0x08080808, 80), net::kTcpSyn, 0, snat);
  ASSERT_TRUE(a.rewrite);
  ASSERT_TRUE(b.rewrite);
  EXPECT_TRUE(a.translation.src);
  EXPECT_EQ(a.translation.src_ip, 0xc0a80001u);
  EXPECT_NE(a.translation.src_port, b.translation.src_port);
  EXPECT_EQ(ct.stats().nat_allocated, 2u);

  // The reply to the translated tuple maps back to the inside host.
  const CtTuple reply = tuple(0x08080808, 80, 0xc0a80001, a.translation.src_port);
  const CtOutcome back = ct.process(reply, net::kTcpAck, 100, kCommit);
  ASSERT_TRUE(back.rewrite);
  EXPECT_TRUE(back.translation.dst);
  EXPECT_EQ(back.translation.dst_ip, 0x0a000001u);
  EXPECT_EQ(back.translation.dst_port, 40000u);
  EXPECT_EQ(back.state & kCtEstablished, kCtEstablished);
}

TEST(ConnTracker, SnatRepliesHashToTheCommittingShard) {
  // The allocator property the sharded datapath depends on: the
  // translated reply tuple must steer (symmetric hash % shards) to the
  // same virtual shard as the original direction, for every shard
  // count the benches use.
  util::Rng rng(7);
  for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
    CtConfig config;
    config.nat_steer_shards = shards;
    ConnTracker ct(config, 1);
    const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};
    for (int i = 0; i < 200; ++i) {
      const CtTuple orig = tuple(0x0a000000 + static_cast<std::uint32_t>(rng.below(1 << 16)),
                                 static_cast<std::uint16_t>(1024 + rng.below(60000)),
                                 0x08080808, 443);
      const CtOutcome out = ct.process(orig, net::kTcpSyn, i, snat);
      ASSERT_TRUE(out.rewrite);
      const CtTuple reply =
          tuple(orig.dst_ip, orig.dst_port, out.translation.src_ip, out.translation.src_port);
      EXPECT_EQ(reply.symmetric_hash() % shards, orig.symmetric_hash() % shards)
          << "shards=" << shards << " i=" << i;
    }
    EXPECT_EQ(ct.stats().nat_failures, 0u);
  }
}

TEST(ConnTracker, DnatStoresMappingAndUntranslatesReplies) {
  ConnTracker ct(CtConfig{}, 1);
  const CtAction dnat{CtAction::Nat::kDest, 0x0a000063, 0, 0};  // keep dst port

  const CtTuple orig = tuple(0xac100001, 30000, 0x0a000064, 80);  // client -> VIP
  const CtOutcome fwd = ct.process(orig, net::kTcpSyn, 0, dnat);
  ASSERT_TRUE(fwd.rewrite);
  EXPECT_TRUE(fwd.translation.dst);
  EXPECT_EQ(fwd.translation.dst_ip, 0x0a000063u);
  EXPECT_EQ(fwd.translation.dst_port, 80u);  // port preserved

  // Backend's reply: restore the VIP as source.
  const CtTuple reply = tuple(0x0a000063, 80, 0xac100001, 30000);
  const CtOutcome back = ct.process(reply, net::kTcpAck, 100, kCommit);
  ASSERT_TRUE(back.rewrite);
  EXPECT_TRUE(back.translation.src);
  EXPECT_EQ(back.translation.src_ip, 0x0a000064u);
  EXPECT_EQ(back.translation.src_port, 80u);

  // Later original-direction packets re-derive the same mapping even
  // through a plain (non-NAT) ct action — the stored mapping wins.
  const CtOutcome again = ct.process(orig, net::kTcpAck, 200, kCommit);
  ASSERT_TRUE(again.rewrite);
  EXPECT_EQ(again.translation.dst_ip, 0x0a000063u);
  EXPECT_EQ(ct.stats().nat_allocated, 1u);
}

// ---- stateful HA: checkpoint/restore and replication (PR 9) ----

TEST(ConnTracker, CheckpointSerializeParseRoundTrips) {
  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};
  ct.process(tuple(0x0a000001, 40000, 0x08080808, 80), net::kTcpSyn, 100, snat);
  ct.process(tuple(0x0a000002, 5353, 0x0a000003, 53, kUdp), 0, 200, kCommit);

  const CtSnapshot snap = ct.checkpoint(1'000);
  EXPECT_EQ(snap.taken_at, 1'000);
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(ct.stats().checkpoints, 1u);

  const std::vector<std::uint8_t> bytes = snap.serialize();
  const auto parsed = CtSnapshot::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->taken_at, snap.taken_at);
  ASSERT_EQ(parsed->entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].orig, snap.entries[i].orig);
    EXPECT_EQ(parsed->entries[i].reply, snap.entries[i].reply);
    EXPECT_EQ(parsed->entries[i].nat.kind, snap.entries[i].nat.kind);
    EXPECT_EQ(parsed->entries[i].nat.ip, snap.entries[i].nat.ip);
    EXPECT_EQ(parsed->entries[i].nat.port, snap.entries[i].nat.port);
    EXPECT_EQ(parsed->entries[i].seen_reply, snap.entries[i].seen_reply);
    EXPECT_EQ(parsed->entries[i].remaining_ns, snap.entries[i].remaining_ns);
  }

  // Truncation, bit rot in the magic, and trailing garbage all parse
  // to nullopt, never to garbage connections.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_FALSE(CtSnapshot::parse(truncated).has_value());
  std::vector<std::uint8_t> corrupted = bytes;
  corrupted[0] ^= 0xff;
  EXPECT_FALSE(CtSnapshot::parse(corrupted).has_value());
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(CtSnapshot::parse(padded).has_value());
}

TEST(CtSnapshot, ParseRejectsForgedCountUnknownNatKindAndFlagBits) {
  // A bare header claiming 0xFFFFFFFF entries: refused by length, before
  // any allocation is sized from it.
  std::vector<std::uint8_t> forged = CtSnapshot{}.serialize();
  ASSERT_EQ(forged.size(), 18u);
  for (std::size_t i = 14; i < 18; ++i) forged[i] = 0xff;
  EXPECT_FALSE(CtSnapshot::parse(forged).has_value());

  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};
  ct.process(tuple(0x0a000001, 40000, 0x08080808, 80), net::kTcpSyn, 100, snat);
  const std::vector<std::uint8_t> bytes = ct.checkpoint(1'000).serialize();
  ASSERT_TRUE(CtSnapshot::parse(bytes).has_value());
  // Entry 0 starts at byte 18: its NAT kind sits after the two 13-byte
  // tuples, its flags after the NAT ip and port.
  std::vector<std::uint8_t> bad_nat = bytes;
  bad_nat[18 + 26] = 0x7f;
  EXPECT_FALSE(CtSnapshot::parse(bad_nat).has_value());
  std::vector<std::uint8_t> bad_flags = bytes;
  bad_flags[18 + 33] |= 0x04;
  EXPECT_FALSE(CtSnapshot::parse(bad_flags).has_value());
}

TEST(ConnTracker, RestoreDropsMidHandshakeEntriesAndCollisions) {
  ConnTracker ct(CtConfig{}, 1);
  // One fully established connection and one SYN-only half-open.
  const CtTuple established = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ct.process(established, net::kTcpSyn, 0, kCommit);
  ct.process(established.reversed(), net::kTcpSyn | net::kTcpAck, 100, kCommit);
  const CtTuple half_open = tuple(0x0a000003, 41000, 0x0a000002, 80);
  ct.process(half_open, net::kTcpSyn, 200, kCommit);

  const CtSnapshot snap = ct.checkpoint(1'000);
  ASSERT_EQ(snap.entries.size(), 2u);

  // A snapshot taken mid-handshake must not resurrect the half-open
  // entry: its peer will retransmit the SYN and re-commit cleanly.
  ConnTracker fresh(CtConfig{}, 1);
  const CtRestoreResult result = fresh.restore(snap, 5'000);
  EXPECT_EQ(result.restored, 1u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh.stats().restored, 1u);
  EXPECT_EQ(fresh.stats().restore_dropped, 1u);
  // The survivor still classifies ESTABLISHED — mid-stream ACKs keep
  // flowing instead of going INVALID.
  EXPECT_EQ(fresh.classify(established, net::kTcpAck, 5'100), kCtTracked | kCtEstablished);
  EXPECT_EQ(fresh.classify(half_open, net::kTcpAck, 5'100), kCtInvalid);

  // Restoring the same snapshot again collides with live state: live
  // entries win, nothing is duplicated or corrupted.
  const CtRestoreResult again = fresh.restore(snap, 6'000);
  EXPECT_EQ(again.restored, 0u);
  EXPECT_EQ(again.dropped, 2u);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(ConnTracker, RestoreReArmsRemainingTimeoutAndDemotesEstablished) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 100;
  ConnTracker ct(config, 1);
  const CtTuple udp = tuple(1, 1, 2, 2, kUdp);
  ct.process(udp, 0, 600, kCommit);  // expires at 1'600
  const CtTuple tcp = tuple(3, 3, 4, 4);
  ct.process(tcp, net::kTcpSyn, 0, kCommit);
  ct.process(tcp.reversed(), net::kTcpSyn | net::kTcpAck, 100, kCommit);

  const CtSnapshot snap = ct.checkpoint(1'200);  // UDP remaining = 400

  // The remaining timeout survives the restart: the UDP entry gets
  // 400 ns from the restore clock, not a fresh full udp_timeout.
  ConnTracker fresh(config, 1);
  fresh.restore(snap, 10'000);
  EXPECT_EQ(fresh.classify(udp, 0, 10'300), kCtTracked);
  EXPECT_EQ(fresh.expire(10'400), 1u);  // 10'000 + 400, wheel re-armed
  EXPECT_EQ(fresh.classify(udp, 0, 10'500), kCtNew);

  // The established TCP entry came back *demoted*: ~30 s remained in
  // the snapshot, but unconfirmed entries idle out on the transient
  // timeout — a stale snapshot cannot keep a dead flow alive.
  auto entries = fresh.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].confirmed);
  EXPECT_EQ(entries[0].expires_at, 10'000 + config.tcp_transient_timeout);

  // Real traffic re-confirms it back up to the established budget.
  fresh.process(tcp, net::kTcpAck, 11'000, kCommit);
  entries = fresh.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].confirmed);
  EXPECT_EQ(entries[0].expires_at, 11'000 + config.tcp_established_timeout);
}

TEST(ConnTracker, RestoredNatBindingBlocksPostRestoreSnatCollision) {
  // Two-port SNAT pool: the restored binding must keep its external
  // port claimed, so a post-restore allocation cannot collide with it.
  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 49153};
  const CtTuple first = tuple(0x0a000001, 40000, 0x08080808, 80);
  const CtOutcome a = ct.process(first, net::kTcpSyn, 0, snat);
  ASSERT_TRUE(a.rewrite);
  ct.process(CtTuple{0x08080808, 0xc0a80001, 80, a.translation.src_port, kTcp},
             net::kTcpSyn | net::kTcpAck, 100, kCommit);  // establish

  ConnTracker fresh(CtConfig{}, 1);
  fresh.restore(ct.checkpoint(1'000), 2'000);
  ASSERT_EQ(fresh.size(), 1u);

  // A new inside host asks for SNAT after the restore: it must get the
  // *other* pool port — the restored reply binding owns the first.
  const CtOutcome b =
      fresh.process(tuple(0x0a000002, 40000, 0x08080808, 80), net::kTcpSyn, 2'100, snat);
  ASSERT_TRUE(b.rewrite);
  EXPECT_NE(b.translation.src_port, a.translation.src_port);
  EXPECT_EQ(fresh.stats().nat_failures, 0u);

  // Pool exhausted: a third allocation fails instead of stealing the
  // restored binding's port.
  const CtOutcome c =
      fresh.process(tuple(0x0a000003, 40000, 0x08080808, 80), net::kTcpSyn, 2'200, snat);
  EXPECT_FALSE(c.rewrite);
  EXPECT_EQ(fresh.stats().nat_failures, 1u);

  // And the restored mapping still translates replies to the inside.
  const CtOutcome back = fresh.process(
      CtTuple{0x08080808, 0xc0a80001, 80, a.translation.src_port, kTcp}, net::kTcpAck, 2'300,
      kCommit);
  ASSERT_TRUE(back.rewrite);
  EXPECT_EQ(back.translation.dst_ip, 0x0a000001u);
  EXPECT_EQ(back.translation.dst_port, 40000u);
}

TEST(ConnTracker, DeltaStreamReplicatesStateAdvancesOnly) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker standby(CtConfig{}, 1);
  std::vector<CtDelta> log;
  active.set_delta_sink([&](const CtDelta& delta) { log.push_back(delta); });

  const CtTuple conn = tuple(0x0a000001, 40000, 0x0a000002, 80);
  active.process(conn, net::kTcpSyn, 0, kCommit);           // kCommit
  active.process(conn.reversed(), net::kTcpAck, 100, kCommit);  // kUpdate (seen_reply)
  active.process(conn, net::kTcpAck, 200, kCommit);         // refresh only: no delta
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, CtDelta::Kind::kCommit);
  EXPECT_EQ(log[1].kind, CtDelta::Kind::kUpdate);
  EXPECT_TRUE(log[1].entry.seen_reply);
  EXPECT_EQ(active.stats().deltas_emitted, 2u);

  for (const CtDelta& delta : log) standby.apply_delta(delta, 500);
  EXPECT_EQ(standby.size(), 1u);
  EXPECT_EQ(standby.classify(conn, net::kTcpAck, 600), kCtTracked | kCtEstablished);

  // FIN advances state (kUpdate), expiry/kill closes it (kClose) —
  // and applying the close removes the replica too.
  active.process(conn, net::kTcpFin | net::kTcpAck, 300, kCommit);
  active.expire(300 + CtConfig{}.tcp_transient_timeout + CtConfig{}.sweep_interval);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2].kind, CtDelta::Kind::kUpdate);
  EXPECT_TRUE(log[2].entry.closing);
  EXPECT_EQ(log[3].kind, CtDelta::Kind::kClose);
  standby.apply_delta(log[2], 700);
  standby.apply_delta(log[3], 800);
  EXPECT_EQ(standby.size(), 0u);
  EXPECT_EQ(standby.stats().deltas_applied, 4u);
}

TEST(ConnTracker, CommitRefusesAReplyTupleClaimedAsAnOriginal) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker standby(CtConfig{}, 1);
  std::vector<CtDelta> log;
  active.set_delta_sink([&](const CtDelta& delta) { log.push_back(delta); });
  constexpr std::uint32_t kB = 0x0a000002;
  constexpr std::uint32_t kC = 0x0a000003;
  constexpr std::uint32_t kVip = 0x0a0000fe;

  // A plain connection B:80 -> C:5555 ...
  const CtTuple plain = tuple(kB, 80, kC, 5555);
  ASSERT_TRUE(active.process(plain, net::kTcpSyn, 0, kCommit).committed);
  // ... then C:5555 -> VIP:80 DNATed to B:80, whose reply tuple
  // B:80 -> C:5555 the plain connection already holds as its original.
  CtAction dnat;
  dnat.nat = CtAction::Nat::kDest;
  dnat.nat_ip = kB;
  dnat.port_min = 80;
  const CtOutcome refused = active.process(tuple(kC, 5555, kVip, 80), net::kTcpSyn, 0, dnat);
  EXPECT_FALSE(refused.committed);
  EXPECT_FALSE(refused.rewrite);
  EXPECT_EQ(refused.state & kCtInvalid, kCtInvalid);
  EXPECT_EQ(active.stats().nat_failures, 1u);
  EXPECT_EQ(active.stats().nat_allocated, 0u);
  EXPECT_EQ(active.size(), 1u);
  // The tuple still names exactly one connection, in its original direction.
  EXPECT_EQ(active.classify(plain, net::kTcpAck, 100), kCtTracked);

  // A standby applying the same stream holds the same table.
  for (const CtDelta& delta : log) standby.apply_delta(delta, 0);
  const CtSnapshot a = active.checkpoint(500);
  const CtSnapshot b = standby.checkpoint(500);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].orig, b.entries[i].orig);
    EXPECT_EQ(a.entries[i].reply, b.entries[i].reply);
    EXPECT_EQ(a.entries[i].nat.kind, b.entries[i].nat.kind);
    EXPECT_EQ(a.entries[i].seen_reply, b.entries[i].seen_reply);
    EXPECT_EQ(a.entries[i].closing, b.entries[i].closing);
    EXPECT_EQ(a.entries[i].remaining_ns, b.entries[i].remaining_ns);
  }
}

TEST(ConnTracker, DemoteAllClampsReplicatedEntriesToTransient) {
  CtConfig config;
  config.sweep_interval = 100;
  ConnTracker standby(config, 1);
  CtDelta delta;
  delta.kind = CtDelta::Kind::kCommit;
  delta.entry = CtSnapshotEntry{tuple(1, 1, 2, 2), tuple(2, 2, 1, 1), CtNat{}, true, false,
                                config.tcp_established_timeout};
  standby.apply_delta(delta, 0);
  auto entries = standby.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].confirmed);  // the live stream vouches for it
  EXPECT_EQ(entries[0].expires_at, config.tcp_established_timeout);

  // Takeover: every replicated entry is only as fresh as the stream
  // was — demote to the transient budget until traffic re-confirms.
  EXPECT_EQ(standby.demote_all(1'000), 1u);
  entries = standby.snapshot();
  EXPECT_FALSE(entries[0].confirmed);
  EXPECT_EQ(entries[0].expires_at, 1'000 + config.tcp_transient_timeout);
  EXPECT_EQ(standby.classify(tuple(1, 1, 2, 2), net::kTcpAck, 2'000),
            kCtTracked | kCtEstablished);
}

TEST(ConnTracker, NextDeadlineDrivesSweepScheduling) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 500;
  ConnTracker ct(config, 1);
  EXPECT_FALSE(ct.next_deadline().has_value());
  ct.process(tuple(1, 1, 2, 2, kUdp), 0, 500, kCommit);
  // expires_at = 1'500, quantized up to the 500ns wheel bucket.
  const auto deadline = ct.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, 1'500);
  ct.clear();
  EXPECT_FALSE(ct.next_deadline().has_value());
  EXPECT_EQ(ct.size(), 0u);
}

TEST(ConnTracker, FencedRefusesNewCommitsButServesEstablished) {
  ConnTracker ct(CtConfig{}, 1);
  const CtTuple orig = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ct.process(orig, net::kTcpSyn, 1000, kCommit);
  ct.process(orig.reversed(), net::kTcpSyn | net::kTcpAck, 2000, kCommit);
  ASSERT_EQ(ct.size(), 1u);

  ct.set_fenced(true);
  EXPECT_TRUE(ct.fenced());

  // New connections (and their NAT allocations) are refused outright.
  const CtTuple fresh = tuple(0x0a000003, 41000, 0x0a000002, 80);
  CtAction snat;
  snat.nat = CtAction::Nat::kSource;
  snat.nat_ip = 0xc0000201;
  snat.port_min = 50000;
  snat.port_max = 50100;
  const CtOutcome refused = ct.process(fresh, net::kTcpSyn, 3000, snat);
  EXPECT_FALSE(refused.committed);
  EXPECT_EQ(refused.state, kCtInvalid);
  EXPECT_EQ(ct.stats().fenced_rejects, 1u);
  EXPECT_EQ(ct.stats().nat_allocated, 0u);
  EXPECT_EQ(ct.size(), 1u);

  // The established flow keeps its fast path: classification and
  // refresh still serve it — fencing stops state *minting*, not
  // forwarding.
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 3000), kCtTracked | kCtEstablished);
  const CtOutcome served = ct.process(orig, net::kTcpAck, 3000, kCommit);
  EXPECT_EQ(served.state, kCtTracked | kCtEstablished);

  // Unfencing restores commits.
  ct.set_fenced(false);
  EXPECT_TRUE(ct.process(fresh, net::kTcpSyn, 4000, kCommit).committed);
}

TEST(ConnTracker, DirtyTracksMutationsAndOnlyCaptureClearsIt) {
  ConnTracker ct(CtConfig{}, 1);
  CtImage image;
  EXPECT_FALSE(ct.dirty());
  const CtTuple orig = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ct.process(orig, net::kTcpSyn, 1000, kCommit);
  EXPECT_TRUE(ct.dirty());
  // checkpoint() streams the table without taking its changes.
  ct.checkpoint(1500);
  EXPECT_TRUE(ct.dirty());
  EXPECT_EQ(ct.capture(image, 1500, /*incremental=*/true), 1u);
  EXPECT_FALSE(ct.dirty());
  // A pure classification does not dirty; a refresh does.
  ct.classify(orig, net::kTcpAck, 2000);
  EXPECT_FALSE(ct.dirty());
  ct.process(orig, net::kTcpAck, 2000, kCommit);
  EXPECT_TRUE(ct.dirty());
}

TEST(ConnTracker, ResyncUpsertsAuthoritativelyAndDemotesUncovered) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker rejoining(CtConfig{}, 1);

  // The active holds two established connections (one NATed is not
  // needed — resync carries nat verbatim either way).
  const CtTuple c1 = tuple(0x0a000001, 40000, 0x0a000002, 80);
  const CtTuple c2 = tuple(0x0a000001, 40001, 0x0a000002, 80);
  for (const CtTuple& t : {c1, c2}) {
    active.process(t, net::kTcpSyn, 1000, kCommit);
    active.process(t.reversed(), net::kTcpSyn | net::kTcpAck, 2000, kCommit);
  }

  // The rejoining box has c1 (stale, pre-reply) plus a connection the
  // active never saw (minted during a split that fencing would have
  // prevented — resync must quarantine it).
  rejoining.process(c1, net::kTcpSyn, 1500, kCommit);
  const CtTuple ghost = tuple(0x0a000009, 49000, 0x0a000002, 80);
  rejoining.process(ghost, net::kTcpSyn, 1500, kCommit);
  rejoining.process(ghost.reversed(), net::kTcpSyn | net::kTcpAck, 1600, kCommit);

  const CtSnapshot image = active.checkpoint(3000);
  const std::size_t upserts = rejoining.resync(image, 4000);
  EXPECT_EQ(upserts, 2u);
  ASSERT_EQ(rejoining.size(), 3u);

  for (const ConnEntry& entry : rejoining.snapshot()) {
    if (entry.orig == ghost) {
      // Uncovered: demoted to unconfirmed with a transient deadline.
      EXPECT_FALSE(entry.confirmed);
      EXPECT_LE(entry.expires_at, 4000 + CtConfig{}.tcp_transient_timeout);
    } else {
      // Covered: confirmed, carrying the active's view (seen_reply even
      // for the locally-stale c1).
      EXPECT_TRUE(entry.confirmed);
      EXPECT_TRUE(entry.seen_reply);
    }
  }
}

TEST(ConnTracker, ResyncEvictsLocalCollisionsOnEitherTuple) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker rejoining(CtConfig{}, 1);

  // Active: c via SNAT — its reply tuple claims external port 50000.
  CtAction snat;
  snat.nat = CtAction::Nat::kSource;
  snat.nat_ip = 0xc0000201;
  snat.port_min = 50000;
  snat.port_max = 50000;
  const CtTuple c = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ASSERT_TRUE(active.process(c, net::kTcpSyn, 1000, snat).committed);

  // Rejoining box: a *different* connection grabbed the same external
  // port during the split — the classic double-allocation conflict.
  const CtTuple other = tuple(0x0a000005, 45000, 0x0a000002, 80);
  ASSERT_TRUE(rejoining.process(other, net::kTcpSyn, 1000, snat).committed);

  rejoining.resync(active.checkpoint(2000), 3000);
  // The conflicting local connection was killed; the authoritative one
  // owns the port now.
  const auto entries = rejoining.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].orig, c);
  EXPECT_TRUE(entries[0].confirmed);
}

TEST(CtSnapshot, WireBytesMatchesSerializedSize) {
  ConnTracker ct(CtConfig{}, 1);
  for (int i = 0; i < 5; ++i) {
    const CtTuple t = tuple(0x0a000001 + static_cast<std::uint32_t>(i), 40000,
                            0x0a000002, 80);
    ct.process(t, net::kTcpSyn, 1000, kCommit);
  }
  const CtSnapshot snap = ct.checkpoint(2000);
  EXPECT_EQ(snap.wire_bytes(), snap.serialize().size());
  const CtSnapshot empty{};
  EXPECT_EQ(empty.wire_bytes(), empty.serialize().size());
}

// ---- the held checkpoint image ----

/// `count` plain TCP connections committed at `now`, their tuples in
/// commit order.
std::vector<CtTuple> preload(ConnTracker& ct, std::size_t count, sim::SimNanos now) {
  std::vector<CtTuple> tuples;
  for (std::size_t i = 0; i < count; ++i) {
    tuples.push_back(tuple(0x0a000000 + static_cast<std::uint32_t>(i / 1000),
                           static_cast<std::uint16_t>(10000 + i % 1000), 0x14000001, 80));
    EXPECT_TRUE(ct.process(tuples.back(), net::kTcpSyn, now, kCommit).committed);
  }
  return tuples;
}

CtDelta close_of(const CtTuple& orig) {
  CtDelta close;
  close.kind = CtDelta::Kind::kClose;
  close.entry.orig = orig;
  close.entry.reply = orig.reversed();
  return close;
}

TEST(CtImage, CaptureRewritesOnlyTheChangedRows) {
  ConnTracker ct(CtConfig{}, 1);
  constexpr std::size_t kConnections = 2'000;
  constexpr std::size_t kRefreshed = 37;
  const std::vector<CtTuple> tuples = preload(ct, kConnections, 1000);
  CtImage image;
  EXPECT_EQ(ct.capture(image, 2000, true), kConnections);
  EXPECT_EQ(image.rows_written(), kConnections);  // a fresh image is built in full

  // A clean shard rewrites nothing.
  EXPECT_EQ(ct.capture(image, 3000, true), kConnections);
  EXPECT_EQ(image.rows_written(), 0u);

  // k refreshed connections (one of them twice) rewrite k rows.
  for (std::size_t i = 0; i < kRefreshed; ++i)
    ct.process(tuples[i * 50], net::kTcpAck, 4000, kCommit);
  ct.process(tuples[0].reversed(), net::kTcpSyn | net::kTcpAck, 4500, kCommit);
  EXPECT_EQ(ct.capture(image, 5000, true), kConnections);
  EXPECT_EQ(image.rows_written(), kRefreshed);
  EXPECT_EQ(image.taken_at(), 5000);
  EXPECT_EQ(image.snapshot().serialize(), ct.checkpoint(5000).serialize());

  // Full mode rebuilds every row.
  EXPECT_EQ(ct.capture(image, 6000, false), kConnections);
  EXPECT_EQ(image.rows_written(), kConnections);
  EXPECT_EQ(image.snapshot().serialize(), ct.checkpoint(6000).serialize());
}

TEST(CtImage, RowCapacityStaysBoundedAfterTheTableShrinks) {
  ConnTracker ct(CtConfig{}, 1);
  constexpr std::size_t kPeak = 10'000;
  constexpr std::size_t kSurvivors = 60;
  const std::vector<CtTuple> tuples = preload(ct, kPeak, 1000);
  CtImage image;
  ASSERT_EQ(ct.capture(image, 2000, true), kPeak);
  // Close all but the survivors, one batch per capture; each batch is
  // small enough that the capture patches instead of rebuilding.
  sim::SimNanos now = 3000;
  for (std::size_t next = kSurvivors; next < kPeak; now += 1000) {
    const std::size_t end = std::min(kPeak, next + 1'500);
    const std::size_t batch = end - next;
    for (; next < end; ++next) ct.apply_delta(close_of(tuples[next]), now);
    EXPECT_EQ(ct.capture(image, now, true), ct.size());
    EXPECT_EQ(image.rows_written(), batch);
    EXPECT_LE(image.row_capacity(), 4 * image.rows() + 1024);
  }
  EXPECT_EQ(image.rows(), kSurvivors);
  EXPECT_LE(image.row_capacity(), 4 * kSurvivors + 1024);
  EXPECT_EQ(image.snapshot().serialize(), ct.checkpoint(image.taken_at()).serialize());
}

TEST(CtImage, SnapshotReadsBackAsTheCheckpoint) {
  CtConfig config;
  config.udp_timeout = 5'000;
  ConnTracker ct(config, 1);
  // Established TCP, a half-open one, and UDP that is past its deadline
  // at the second capture but not swept.
  const CtTuple a = tuple(0x0a000001, 40000, 0x0a000002, 80);
  const CtTuple b = tuple(0x0a000001, 40001, 0x0a000002, 80);
  const CtTuple u = tuple(0x0a000001, 40002, 0x0a000002, 53, kUdp);
  ct.process(a, net::kTcpSyn, 1000, kCommit);
  ct.process(a.reversed(), net::kTcpSyn | net::kTcpAck, 1000, kCommit);
  ct.process(b, net::kTcpSyn, 1000, kCommit);
  ct.process(u, 0, 1000, kCommit);
  CtImage image;
  EXPECT_EQ(ct.capture(image, 2000, true), 3u);
  ct.process(a, net::kTcpAck, 3000, kCommit);
  EXPECT_EQ(ct.capture(image, 7000, true), 2u);  // u died at 6000
  EXPECT_EQ(image.rows(), 3u);

  // The unswept row is skipped; the rest carry deadline - taken_at.
  const CtSnapshot snap = image.snapshot();
  EXPECT_EQ(snap.taken_at, 7000);
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].orig, a);
  EXPECT_EQ(snap.entries[0].remaining_ns, 3000 + config.tcp_established_timeout - 7000);
  EXPECT_EQ(snap.entries[1].orig, b);
  EXPECT_EQ(snap.serialize(), ct.checkpoint(7000).serialize());

  // And it restores: a comes back, b is half-open.
  ConnTracker restarted(config, 1);
  const CtRestoreResult result = restarted.restore(snap, 9000);
  EXPECT_EQ(result.restored, 1u);
  EXPECT_EQ(result.dropped, 1u);
  ASSERT_EQ(restarted.snapshot().size(), 1u);
  EXPECT_EQ(restarted.snapshot()[0].orig, a);
  EXPECT_TRUE(restarted.dirty());
}

TEST(CtImage, AReplacementTrackerRebuildsTheImageItDidNotCapture) {
  // A replacement tracker built where the old one lived (as re-enabling
  // conntrack on a pipeline may do) must not patch the old one's image:
  // its few changes would leave every old connection in it.
  std::optional<ConnTracker> ct;
  ct.emplace(CtConfig{}, 1);
  const std::vector<CtTuple> old_tuples = preload(*ct, 100, 1000);
  CtImage image;
  ASSERT_EQ(ct->capture(image, 2000, true), 100u);
  const ConnTracker* const old_address = &*ct;
  const std::uint64_t old_id = ct->id();

  ct.emplace(CtConfig{}, 1);
  ASSERT_EQ(&*ct, old_address);
  EXPECT_NE(ct->id(), old_id);
  const CtTuple fresh = tuple(0x0b000001, 50000, 0x14000001, 80);
  ASSERT_TRUE(ct->process(fresh, net::kTcpSyn, 3000, kCommit).committed);
  EXPECT_EQ(ct->capture(image, 4000, true), 1u);
  EXPECT_EQ(image.rows(), 1u);
  EXPECT_EQ(image.snapshot().serialize(), ct->checkpoint(4000).serialize());
}

}  // namespace
}  // namespace harmless::openflow
