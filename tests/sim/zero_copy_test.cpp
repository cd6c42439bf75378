// The zero-copy property: once the fast path is warm, forwarding a
// packet end to end — host emit, ingress queue, burst scheduler, flow
// cache, action apply, channel delivery, host receive — must never
// copy frame bytes. Packet is move-only and clone() is the only way to
// duplicate a frame; it counts every call, so frame_copies() staying
// flat across a steady-state run proves the whole hop chain moves one
// pooled buffer through.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "net/packet.hpp"
#include "net/parse.hpp"
#include "sim/network.hpp"

namespace harmless {
namespace {

using bench::HarmlessRig;
using bench::NativeRig;
using bench::RigOptions;

TEST(ZeroCopy, NativeUnicastFastPathNeverCopiesFrames) {
  RigOptions options;
  NativeRig rig(options);
  sim::LatencyRecorder recorder;
  for (sim::Host* host : rig.hosts) host->set_recorder(&recorder);

  // Warm every (src, dst) microflow + megaflow entry once.
  for (int i = 0; i < options.host_count; ++i)
    rig.stream(i, (i + 1) % options.host_count, 1, 64, 0);
  rig.network.run();
  const std::uint64_t warm_completed = recorder.completed();

  net::Packet::reset_frame_copies();
  constexpr std::size_t kPackets = 2'000;
  for (int i = 0; i < options.host_count; ++i)
    rig.stream(i, (i + 1) % options.host_count, kPackets, 64, 1'000);
  rig.network.run();

  EXPECT_EQ(recorder.completed(),
            warm_completed + kPackets * static_cast<std::size_t>(options.host_count));
  EXPECT_EQ(net::Packet::frame_copies(), 0u)
      << "a warmed unicast hop chain deep-copied frame bytes";
}

TEST(ZeroCopy, HarmlessFabricSteadyStateNeverCopiesFrames) {
  // The full migrated fabric — legacy hairpin, VLAN push/pop, two soft
  // switches — rewrites headers in place; steady-state unicast must
  // stay copy-free too. (The rig constructor already pre-learns MACs,
  // so no flood/clone happens after it returns.)
  RigOptions options;
  HarmlessRig rig(options);
  sim::LatencyRecorder recorder;
  for (sim::Host* host : rig.hosts) host->set_recorder(&recorder);

  // Bidirectional pairs (0<->1, 2<->3): the legacy hairpin learns a
  // host's MAC inside a peer's VLAN only from reverse traffic, so a
  // one-way ring would flood (and clone) at the legacy switch forever.
  // Warm both directions of each pair before counting.
  for (int i = 0; i < options.host_count; ++i) rig.stream(i, i ^ 1, 1, 64, 0);
  rig.network.run();
  const std::uint64_t warm_completed = recorder.completed();
  ASSERT_EQ(warm_completed, static_cast<std::size_t>(options.host_count));

  net::Packet::reset_frame_copies();
  const std::uint64_t flooded_before = rig.device->counters().flooded;
  constexpr std::size_t kPackets = 1'000;
  for (int i = 0; i < options.host_count; ++i) rig.stream(i, i ^ 1, kPackets, 64, 2'000);
  rig.network.run();

  EXPECT_EQ(recorder.completed(),
            warm_completed + kPackets * static_cast<std::size_t>(options.host_count));
  EXPECT_EQ(rig.device->counters().flooded, flooded_before)
      << "legacy switch flooded in steady state — MAC learning regressed";
  EXPECT_EQ(net::Packet::frame_copies(), 0u)
      << "steady-state fabric forwarding deep-copied frame bytes";
}

TEST(ZeroCopy, HarmlessFabricSteadyStateParsesEachFrameOnce) {
  // Every hop reads the frame's interned parse, and every rewrite on
  // the hairpin — the legacy switch's tag toward the trunk, SS_1's pop
  // and push, the legacy untag toward the host — patches it instead of
  // dropping it: a packet is parsed once, at its first hop.
  RigOptions options;
  HarmlessRig rig(options);
  sim::LatencyRecorder recorder;
  for (sim::Host* host : rig.hosts) host->set_recorder(&recorder);

  for (int i = 0; i < options.host_count; ++i) rig.stream(i, i ^ 1, 1, 64, 0);
  rig.network.run();
  const std::uint64_t warm_completed = recorder.completed();

  net::PacketParse::reset_parses();
  constexpr std::size_t kPackets = 1'000;
  for (int i = 0; i < options.host_count; ++i) rig.stream(i, i ^ 1, kPackets, 64, 2'000);
  rig.network.run();

  const std::size_t sent = kPackets * static_cast<std::size_t>(options.host_count);
  ASSERT_EQ(recorder.completed(), warm_completed + sent);
  EXPECT_EQ(net::PacketParse::parses(), sent)
      << "a hop re-parsed a frame whose interned parse a rewrite should have kept";
}

}  // namespace
}  // namespace harmless
