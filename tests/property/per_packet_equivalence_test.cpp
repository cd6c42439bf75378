// The per-packet soft-switch datapath, pinned.
//
// A soft switch with burst_size 1 serves every packet as a burst of one
// through its single service_burst() ingress path. That path must bill,
// count and time every packet exactly as the historical per-packet
// service() path did. Each case below runs the per-packet datapath two
// ways (one core; two symmetric-RSS cores) and folds everything
// observable into a digest: every delivery (host, receive time), the
// switch's busy_ns, every Counters field and every FailoverStats field.
// The one-core digests were recorded from the per-packet service()
// implementation, so any drift in the bill, the counters or the timer
// arming fails here. The engine's dispatched-event count is
// pinned beside each digest rather than folded into it: an engine that
// skips no-op events moves the count and nothing else.
//
// The conntrack case covers a known asymmetry: the per-packet datapath
// arms the conntrack sweep and checkpoint timers only after a `ct`
// commit, while a batched burst arms them on every burst. Its UDP phase
// (conntrack on, no commits, an emptied table with a held checkpoint
// image) is exactly where the two would diverge.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "controller/apps/static_flows.hpp"
#include "controller/controller.hpp"
#include "net/build.hpp"
#include "net/l4.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"

namespace {

using namespace harmless;
using openflow::ControlChannel;
using openflow::FlowModMsg;
using softswitch::FailoverSpec;
using softswitch::SoftSwitch;
using softswitch::SwitchSpec;

constexpr sim::SimNanos kUs = 1'000;
constexpr sim::SimNanos kMs = 1'000'000;

// FNV-1a over a stream of u64 observations.
struct Digest {
  std::uint64_t value = 14695981039346656037ULL;
  void fold(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (x >> (byte * 8)) & 0xff;
      value *= 1099511628211ULL;
    }
  }
  void fold_signed(std::int64_t x) { fold(static_cast<std::uint64_t>(x)); }
};

enum class Way { kBurstOne, kTwoCores };

/// One run, pinned: the digest of everything observable and the number
/// of engine events the run took.
struct Outcome {
  std::uint64_t digest;
  std::uint64_t events;
};

void expect_outcome(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.digest, want.digest) << "an observable moved";
  EXPECT_EQ(got.events, want.events) << "the engine's event count moved";
}

net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

FlowModMsg l2_rule(int host_index) {
  FlowModMsg mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.match.eth_dst(host_mac(host_index));
  mod.instructions =
      openflow::apply({openflow::output(static_cast<std::uint32_t>(host_index + 1))});
  return mod;
}

FlowModMsg miss_rule(bool to_controller) {
  FlowModMsg mod;
  mod.table_id = 0;
  mod.priority = 0;
  if (to_controller) mod.instructions = openflow::apply({openflow::to_controller()});
  return mod;
}

FailoverSpec probing(FailoverSpec::Mode mode) {
  FailoverSpec spec;
  spec.mode = mode;
  spec.echo_interval_ns = 500 * kUs;
  return spec;
}

struct Options {
  int hosts = 4;
  /// Program the rules through a controller session (resync reinstalls
  /// them after a crash) instead of installing them directly.
  bool controller = false;
  /// The switch; the rig sets its burst size and ingress per Way.
  SwitchSpec sw{.tables = 1};
};

/// `options.hosts` hosts on one soft switch running the per-packet
/// datapath one of the two ways; every delivery folds into `digest`.
struct Rig {
  sim::Network network;
  SoftSwitch* sw = nullptr;
  std::vector<sim::Host*> hosts;
  std::unique_ptr<ControlChannel> channel;
  controller::Controller ctrl;
  Digest digest;

  Rig(Way way, const Options& options, const std::vector<FlowModMsg>& rules) {
    SwitchSpec spec = options.sw;
    spec.burst_size = 1;
    if (way == Way::kTwoCores) {
      spec.ingress.cores.cores = 2;
      spec.ingress.cores.rss = sim::RssPolicy::kSymmetric;
    }
    sw = &network.add_node<SoftSwitch>("sw", 0xE1, static_cast<std::size_t>(options.hosts),
                                       spec);
    for (int i = 0; i < options.hosts; ++i) {
      sim::Host& host = network.add_host("h" + std::to_string(i), host_mac(i), host_ip(i));
      network.connect(host, 0, *sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(10));
      host.set_on_receive([this, i](const net::Packet&, const net::ParsedPacket&) {
        digest.fold(static_cast<std::uint64_t>(i));
        digest.fold_signed(network.now());
      });
      hosts.push_back(&host);
    }
    if (options.controller) {
      channel = std::make_unique<ControlChannel>(network.engine());
      sw->attach_channel(*channel);
      auto& app = ctrl.add_app<controller::StaticFlowApp>();
      for (const FlowModMsg& rule : rules) app.flow(rule);
      ctrl.connect(*channel, "sw");
    } else {
      for (const FlowModMsg& rule : rules) sw->install(rule).check();
    }
  }

  void at(sim::SimNanos when, std::function<void()> action) {
    network.engine().schedule_at(when, std::move(action));
  }

  /// `count` 64-byte UDP frames from host `from` to host `to`, one every
  /// `interval`, starting at `start`.
  void stream(sim::SimNanos start, int from, int to, std::size_t count,
              sim::SimNanos interval) {
    at(start, [this, from, to, count, interval] {
      hosts[static_cast<std::size_t>(from)]->send_udp_stream(
          host_mac(to), host_ip(to), count, 64, interval);
    });
  }

  /// Finish the run and fold the switch-side observables.
  Outcome finish(sim::SimNanos until) {
    network.run_until(until);
    digest.fold_signed(sw->busy_ns());
    const SoftSwitch::Counters& c = sw->counters();
    // Per-shard cache and conntrack totals, summed where they live.
    const openflow::Pipeline& pipeline = sw->pipeline();
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_subtables = 0;
    std::uint64_t cache_subtable_probes = 0;
    for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard) {
      cache_evictions += pipeline.cache(shard).stats().evictions;
      cache_subtables += pipeline.cache(shard).subtable_count();
      cache_subtable_probes += pipeline.cache(shard).stats().subtable_probes;
    }
    const openflow::CtStats ct = pipeline.ct_stats();
    for (const std::uint64_t value :
         {c.pipeline_runs, c.packets_out, c.packet_ins, c.drops_no_match, c.drops_port_down,
          c.flow_mods, c.errors, c.cache_hits, c.cache_misses, c.cache_invalidations,
          cache_evictions, cache_subtables, cache_subtable_probes, c.service_bursts,
          c.replay_groups, c.rx_queue_polls, c.rss_steered, ct.lookups, ct.hits, ct.created,
          ct.expired, ct.evicted, ct.invalid, ct.nat_allocated, ct.nat_failures,
          static_cast<std::uint64_t>(pipeline.ct_connection_count())})
      digest.fold(value);
    const softswitch::FailoverStats& f = sw->failover_stats();
    for (const std::uint64_t value :
         {f.disconnects, f.reconnects, f.resyncs, f.echo_sent, f.echo_replies, f.echo_misses,
          f.reconnect_attempts, f.packet_ins_dropped, f.warmup_packet_ins_dropped,
          f.standalone_packets, f.standalone_floods, f.flows_expired_degraded,
          f.flows_reinstalled, f.crashes, f.restarts, f.dropped_restarting, f.checkpoints,
          f.ct_restored, f.ct_restore_dropped, f.takeovers, f.warm_resyncs, f.ha_fences,
          f.ha_unfences, f.ha_lease_grants, f.ha_lease_denials, f.ha_promotions_denied,
          f.ha_demotions, f.ha_failbacks, f.ha_failback_entries, f.ha_deltas_rejected_epoch,
          f.checkpoint_entries, f.checkpoint_bytes, f.checkpoint_shards_skipped})
      digest.fold(value);
    for (const sim::SimNanos value : {f.checkpoint_ns_billed, f.degraded_ns, f.last_disconnect_at,
                                      f.last_reconnect_at, f.last_resync_at})
      digest.fold_signed(value);
    return Outcome{digest.value, network.engine().events_dispatched()};
  }
};

/// Four hosts in a ring plus an unroutable stream and a port flap.
Outcome run_plain(Way way, bool flow_cache) {
  Options options;
  options.sw.flow_cache = flow_cache;
  std::vector<FlowModMsg> rules;
  for (int i = 0; i < options.hosts; ++i) rules.push_back(l2_rule(i));
  rules.push_back(miss_rule(/*to_controller=*/false));
  Rig rig(way, options, rules);
  for (int i = 0; i < options.hosts; ++i)
    rig.stream(static_cast<sim::SimNanos>(i) * 3 * kUs, i, (i + 1) % options.hosts, 300,
               (7 + i) * kUs);
  rig.stream(50 * kUs, 0, 77, 50, 40 * kUs);  // no rule: drops
  rig.at(1 * kMs, [&rig] { rig.sw->set_port_state(3, false); });
  rig.at(1500 * kUs, [&rig] { rig.sw->set_port_state(3, true); });
  return rig.finish(5 * kMs);
}

/// Controller outage under fail-standalone: rules for hosts 0 and 1,
/// host 2 reachable only by punting (then by standalone bridging).
Outcome run_standalone_outage(Way way) {
  Options options;
  options.hosts = 3;
  options.controller = true;
  options.sw.failover = probing(FailoverSpec::Mode::kFailStandalone);
  Rig rig(way, options, {l2_rule(0), l2_rule(1), miss_rule(/*to_controller=*/true)});
  for (int i = 0; i < options.hosts; ++i)
    rig.stream(2 * kMs + static_cast<sim::SimNanos>(i) * 5 * kUs, i, (i + 1) % options.hosts,
               900, 20 * kUs);
  rig.at(6 * kMs, [&rig] { rig.ctrl.fault_crash(); });
  rig.at(12 * kMs, [&rig] { rig.ctrl.fault_restart(); });
  return rig.finish(30 * kMs);
}

/// Switch reboot under fail-secure: ingress dropped while restarting,
/// then reconnect and resync.
Outcome run_switch_crash(Way way) {
  Options options;
  options.hosts = 3;
  options.controller = true;
  options.sw.failover = probing(FailoverSpec::Mode::kFailSecure);
  Rig rig(way, options, {l2_rule(0), l2_rule(1), l2_rule(2), miss_rule(/*to_controller=*/true)});
  for (int i = 0; i < options.hosts; ++i)
    rig.stream(2 * kMs + static_cast<sim::SimNanos>(i) * 5 * kUs, i, (i + 1) % options.hosts,
               700, 20 * kUs);
  rig.at(6 * kMs, [&rig] { rig.sw->fault_crash(); });
  rig.at(8 * kMs, [&rig] { rig.sw->fault_restart(); });
  return rig.finish(30 * kMs);
}

/// Conntrack + SNAT with 1 ms checkpoints: four TCP connections from
/// host 0 (translated to 192.0.2.1) that host 1 answers segment by
/// segment, a switch crash restored from the checkpoint, idle expiry
/// of every connection, then UDP both ways that commits nothing.
Outcome run_conntrack_checkpointing(Way way) {
  Options options;
  options.hosts = 2;
  options.controller = true;
  options.sw.conntrack = openflow::CtConfig{.tcp_established_timeout = 3 * kMs,
                                            .tcp_transient_timeout = 3 * kMs,
                                            .udp_timeout = 3 * kMs,
                                            .sweep_interval = 1 * kMs};
  options.sw.failover = probing(FailoverSpec::Mode::kFailSecure);
  options.sw.failover.checkpoint_interval_ns = 1 * kMs;

  FlowModMsg out;
  out.table_id = 0;
  out.priority = 100;
  out.match.in_port(1).eth_type(0x0800).ip_proto(6);
  out.instructions = openflow::apply({openflow::ct_snat(net::Ipv4Addr(192, 0, 2, 1), 50000, 50100),
                                      openflow::output(2)});
  FlowModMsg back;
  back.table_id = 0;
  back.priority = 100;
  back.match.in_port(2).eth_type(0x0800).ip_proto(6).ct_tracked();
  back.instructions = openflow::apply({openflow::ct_commit(), openflow::output(1)});
  Rig rig(way, options, {out, back, l2_rule(0), l2_rule(1), miss_rule(/*to_controller=*/false)});

  // Host 1 answers every TCP segment it receives (SYN with SYN|ACK,
  // anything else with ACK), addressed to the translated source.
  sim::Host& server = *rig.hosts[1];
  server.set_on_receive([&rig, &server](const net::Packet&, const net::ParsedPacket& parsed) {
    rig.digest.fold(1);
    rig.digest.fold_signed(rig.network.now());
    if (!parsed.ipv4 || !parsed.tcp) return;
    const net::FlowKey reply{server.mac(), host_mac(0), server.ip(), parsed.ipv4->src,
                             parsed.dst_port(), parsed.src_port()};
    const std::uint8_t flags =
        (parsed.tcp->flags & net::kTcpSyn) != 0 ? net::kTcpSyn | net::kTcpAck : net::kTcpAck;
    rig.at(rig.network.now() + 5 * kUs,
           [&server, reply, flags] { server.send(net::make_tcp(reply, flags)); });
  });

  for (int c = 0; c < 4; ++c) {
    const net::FlowKey flow{host_mac(0), host_mac(1), host_ip(0), host_ip(1),
                            static_cast<std::uint16_t>(40000 + c), 80};
    const sim::SimNanos start = 2 * kMs + static_cast<sim::SimNanos>(c) * 100 * kUs;
    rig.at(start, [&rig, flow] { rig.hosts[0]->send(net::make_tcp(flow, net::kTcpSyn)); });
    for (int segment = 1; segment <= 60; ++segment)
      rig.at(start + static_cast<sim::SimNanos>(segment) * 50 * kUs,
             [&rig, flow] { rig.hosts[0]->send(net::make_tcp(flow, net::kTcpAck)); });
  }
  rig.at(4 * kMs, [&rig] { rig.sw->fault_crash(); });
  rig.at(4300 * kUs, [&rig] { rig.sw->fault_restart(); });
  rig.stream(12 * kMs, 0, 1, 100, 40 * kUs);
  rig.stream(12 * kMs + 20 * kUs, 1, 0, 100, 40 * kUs);
  return rig.finish(22 * kMs);
}

// One-core digests recorded from the per-packet service() datapath;
// event counts recorded with claimed link-departure and drain re-arm
// keys. Two-core digests and counts recorded from the service_burst()
// datapath with burst_size 1 on two kSymmetric cores.
constexpr Outcome kCacheOnBurstOne{6510268970685941966ULL, 5921};
constexpr Outcome kCacheOnTwoCores{6087165268721291598ULL, 5806};
constexpr Outcome kCacheOffBurstOne{6408654575646611674ULL, 5921};
constexpr Outcome kCacheOffTwoCores{9599904551689504609ULL, 5806};
constexpr Outcome kConntrackBurstOne{3563975662584092843ULL, 2935};
constexpr Outcome kConntrackTwoCores{269955310571506208ULL, 2856};
constexpr Outcome kStandaloneBurstOne{16855465101370128942ULL, 13017};
constexpr Outcome kStandaloneTwoCores{18036787413775153606ULL, 12282};
constexpr Outcome kSwitchCrashBurstOne{11536804785042268268ULL, 9728};
constexpr Outcome kSwitchCrashTwoCores{4461110331808029276ULL, 9150};

TEST(PerPacketEquivalence, CacheOn) {
  expect_outcome(run_plain(Way::kBurstOne, true), kCacheOnBurstOne);
  expect_outcome(run_plain(Way::kTwoCores, true), kCacheOnTwoCores);
}

TEST(PerPacketEquivalence, CacheOff) {
  expect_outcome(run_plain(Way::kBurstOne, false), kCacheOffBurstOne);
  expect_outcome(run_plain(Way::kTwoCores, false), kCacheOffTwoCores);
}

TEST(PerPacketEquivalence, ConntrackSnatWithCheckpointing) {
  expect_outcome(run_conntrack_checkpointing(Way::kBurstOne), kConntrackBurstOne);
  expect_outcome(run_conntrack_checkpointing(Way::kTwoCores), kConntrackTwoCores);
}

TEST(PerPacketEquivalence, FailStandaloneControllerOutage) {
  expect_outcome(run_standalone_outage(Way::kBurstOne), kStandaloneBurstOne);
  expect_outcome(run_standalone_outage(Way::kTwoCores), kStandaloneTwoCores);
}

TEST(PerPacketEquivalence, SwitchCrashAndRestart) {
  expect_outcome(run_switch_crash(Way::kBurstOne), kSwitchCrashBurstOne);
  expect_outcome(run_switch_crash(Way::kTwoCores), kSwitchCrashTwoCores);
}

}  // namespace
