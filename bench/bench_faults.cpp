// bench_faults — Table 8: OpenFlow failure semantics under controller
// outages.
//
// A reactive L2 deployment (LearningSwitchApp + a StaticFlowApp
// program of `flows` controller-owned rules) runs on one soft switch
// while the FaultInjector crashes the controller for a configurable
// outage. Two traffic classes observe the outage:
//
//   warm — a stream whose forwarding rule was installed before the
//          crash. OpenFlow fail-secure keeps it flowing (installed
//          flows survive controller loss); only a switch reboot would
//          kill it.
//   cold — a stream that STARTS mid-outage, so its first packet needs
//          the controller. Under fail-secure it is dropped at the
//          packet-in governor until reconnect + resync; under
//          fail-standalone the switch bridges it immediately with
//          legacy MAC learning — holding legacy-baseline goodput
//          through the entire outage.
//
// Recovery time = last_resync_at - heal time: detection lag (echo
// misses) is already paid mid-outage, so this is backoff remainder +
// handshake + the full-state re-install, which the control channel's
// per-message serialization gap makes scale with `flows` (the point of
// the flow-count axis).
//
// A LegacyRig baseline row per outage shows what the hardware switch
// would have done (no controller: both classes ~100%). The fault-free
// determinism guard runs the outage-free scenario twice and insists on
// a bit-identical digest — the CI chaos-smoke job keys off it and off
// every faulted row having recovered.
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "controller/apps/learning.hpp"
#include "controller/apps/static_flows.hpp"
#include "controller/controller.hpp"
#include "net/build.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"
#include "sim/witness.hpp"
#include "softswitch/replication.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;

namespace {

constexpr sim::SimNanos kMs = 1'000'000;

// One paced stream every kPacketInterval; windows below count offered
// packets as window / interval.
constexpr sim::SimNanos kPacketInterval = 20'000;  // 50 kpps per stream
constexpr sim::SimNanos kOutageStart = 30 * kMs;
constexpr sim::SimNanos kColdLag = 3 * kMs;  // cold stream starts this far into the outage
constexpr sim::SimNanos kEnd = 150 * kMs;

struct Row {
  std::string mode;
  sim::SimNanos outage_ns = 0;
  std::size_t flows = 0;
  double warm_goodput_pct = 0;  // delivered/offered inside the outage window
  double cold_goodput_pct = 0;
  double recovery_ms = -1;  // last_resync_at - heal; -1 = never resynced
  std::uint64_t flows_reinstalled = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t standalone_packets = 0;
  std::uint64_t packet_ins_dropped = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;  // engine events, kept out of the digest
  bool recovered = true;
};

// Count deliveries that land inside [kOutageStart, heal).
struct WindowCounter {
  sim::Engine* engine = nullptr;
  sim::SimNanos heal = 0;
  std::uint64_t in_window = 0;
  std::uint64_t total = 0;

  void attach(sim::Host& host) {
    host.set_on_receive([this](const net::Packet&, const net::ParsedPacket&) {
      ++total;
      const sim::SimNanos now = engine->now();
      if (now >= kOutageStart && now < heal) ++in_window;
    });
  }
};

double goodput_pct(std::uint64_t delivered, sim::SimNanos window, sim::SimNanos first_offer) {
  if (window <= first_offer) return 0;
  const double offered = static_cast<double>((window - first_offer) / kPacketInterval);
  if (offered <= 0) return 0;
  return 100.0 * static_cast<double>(delivered) / offered;
}

Row run_scenario(softswitch::FailoverSpec::Mode mode, sim::SimNanos outage_ns,
                 std::size_t flows) {
  const int host_count = 4;
  const sim::SimNanos heal = kOutageStart + outage_ns;

  sim::Network network;
  softswitch::FailoverSpec spec;
  spec.mode = mode;
  spec.echo_interval_ns = 500'000;
  spec.warmup_ns = kMs;  // post-resync packet-in governor
  spec.warmup_packet_in_budget = 8;
  auto& sw = network.add_node<softswitch::SoftSwitch>(
      "dp", 0xD0, static_cast<std::size_t>(host_count),
      softswitch::SwitchSpec{.tables = 1, .failover = spec});
  std::vector<sim::Host*> local_hosts;
  for (int i = 0; i < host_count; ++i) {
    sim::Host& host = network.add_host("h" + std::to_string(i), host_mac(i), host_ip(i));
    network.connect(host, 0, sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    local_hosts.push_back(&host);
  }

  openflow::ControlChannel channel(network.engine());
  // The resync pacing knob: each control message serializes 5 us after
  // the previous one, so re-installing N rules takes ~5N us.
  channel.set_min_gap(5'000);
  sw.attach_channel(channel);

  controller::Controller ctrl;
  auto& program = ctrl.add_app<controller::StaticFlowApp>();
  for (std::size_t i = 0; i < flows; ++i) {
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = 10;
    // The first two rules cover the WARM pair (h0 <-> h1) only — the
    // cold pair (h2 -> h3) must go through the learning app, so its
    // packets need a live controller. The rest are filler state
    // (synthetic MACs) whose only job is to be re-installed on resync.
    if (i < 2) {
      mod.match.eth_dst(host_mac(static_cast<int>(i)));
      mod.instructions =
          openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
    } else {
      mod.match.eth_dst(net::MacAddr::from_u64(0x0400'0000'0000ULL + i));
      mod.instructions = openflow::apply({openflow::output(1)});
    }
    program.flow(mod);
  }
  ctrl.add_app<controller::LearningSwitchApp>(/*table=*/0);
  ctrl.connect(channel, "dp");

  sim::FaultInjector injector(network.engine());
  injector.register_point("ctrl", ctrl);
  if (outage_ns > 0) {
    sim::FaultPlan plan;
    plan.crash("ctrl", kOutageStart, outage_ns);
    injector.arm(plan);
  }

  network.run_until(2 * kMs);  // handshake + program install

  WindowCounter warm{&network.engine(), heal};
  WindowCounter cold{&network.engine(), heal};
  warm.attach(*local_hosts[1]);
  cold.attach(*local_hosts[3]);
  const sim::SimNanos cold_start = kOutageStart + kColdLag;
  const std::size_t warm_count = static_cast<std::size_t>((kEnd - 2 * kMs) / kPacketInterval);
  const std::size_t cold_count =
      static_cast<std::size_t>((kEnd - cold_start) / kPacketInterval);
  local_hosts[0]->send_udp_stream(local_hosts[1]->mac(), local_hosts[1]->ip(), warm_count, 64,
                                  kPacketInterval, /*start=*/2 * kMs);
  local_hosts[2]->send_udp_stream(local_hosts[3]->mac(), local_hosts[3]->ip(), cold_count, 64,
                                  kPacketInterval, /*start=*/cold_start);

  network.run_until(kEnd);

  const auto& stats = sw.failover_stats();
  Row row;
  row.mode = (mode == softswitch::FailoverSpec::Mode::kFailSecure) ? "fail_secure"
                                                                   : "fail_standalone";
  row.outage_ns = outage_ns;
  row.flows = flows;
  row.warm_goodput_pct = goodput_pct(warm.in_window, outage_ns, 0);
  row.cold_goodput_pct = goodput_pct(cold.in_window, outage_ns, kColdLag);
  row.flows_reinstalled = stats.flows_reinstalled;
  row.disconnects = stats.disconnects;
  row.reconnects = stats.reconnects;
  row.resyncs = stats.resyncs;
  row.standalone_packets = stats.standalone_packets;
  row.packet_ins_dropped = stats.packet_ins_dropped;
  if (outage_ns > 0) {
    row.recovered = stats.disconnects > 0 && stats.reconnects == stats.disconnects &&
                    stats.resyncs == stats.reconnects && stats.last_resync_at >= heal;
    row.recovery_ms =
        stats.last_resync_at >= heal
            ? static_cast<double>(stats.last_resync_at - heal) / static_cast<double>(kMs)
            : -1.0;
  }
  // Digest for the fault-free determinism guard.
  std::uint64_t digest = 14695981039346656037ULL;
  const auto fold = [&digest](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (x >> (b * 8)) & 0xff;
      digest *= 1099511628211ULL;
    }
  };
  fold(warm.total);
  fold(cold.total);
  fold(channel.to_controller().sent);
  fold(channel.to_switch().sent);
  row.digest = digest;
  row.events = network.engine().events_dispatched();
  return row;
}

// What the pre-migration hardware would do: no controller to lose.
Row legacy_baseline(sim::SimNanos outage_ns) {
  RigOptions options;
  options.host_count = 4;
  options.access_link = sim::LinkSpec::gbps(1);
  LegacyRig rig(options);
  const sim::SimNanos heal = kOutageStart + outage_ns;
  WindowCounter warm{&rig.network.engine(), heal};
  WindowCounter cold{&rig.network.engine(), heal};
  warm.attach(*rig.hosts[1]);
  cold.attach(*rig.hosts[3]);
  const sim::SimNanos cold_start = kOutageStart + kColdLag;
  const std::size_t warm_count = static_cast<std::size_t>((kEnd - 2 * kMs) / kPacketInterval);
  const std::size_t cold_count =
      static_cast<std::size_t>((kEnd - cold_start) / kPacketInterval);
  rig.hosts[0]->send_udp_stream(rig.hosts[1]->mac(), rig.hosts[1]->ip(), warm_count, 64,
                                kPacketInterval, /*start=*/2 * kMs);
  rig.hosts[2]->send_udp_stream(rig.hosts[3]->mac(), rig.hosts[3]->ip(), cold_count, 64,
                                kPacketInterval, /*start=*/cold_start);
  rig.network.run_until(kEnd);

  Row row;
  row.mode = "legacy_baseline";
  row.outage_ns = outage_ns;
  row.warm_goodput_pct = goodput_pct(warm.in_window, outage_ns, 0);
  row.cold_goodput_pct = goodput_pct(cold.in_window, outage_ns, kColdLag);
  return row;
}

// ---- Table 10: stateful HA — established-TCP survival ----------------
//
// A stateful firewall (only ct-tracked connections pass; everything
// else drops) makes the conntrack table load-bearing: a mid-stream
// segment with no entry classifies INVALID and dies at the priority-0
// drop. Two HA scenarios measure established-TCP goodput through a
// failure of the box that holds that table:
//
//   crash_restart — one switch crashes for 10 ms and restarts. Swept
//       over the checkpoint interval: 0 (amnesiac — the PR-8 behaviour)
//       must deliver ZERO established goodput after the restart; any
//       checkpointing cadence must deliver > 0. Two flows expose
//       snapshot staleness: one established long before the crash
//       (every cadence images it) and one 1.8 ms before it (only a
//       sub-1.8 ms cadence catches it).
//
//   takeover — active + standby behind a bench-local mux switch whose
//       steering rules flip to the standby on the takeover callback.
//       The active replicates conntrack deltas (and heartbeats) to the
//       standby; crashing the active silences the stream and the
//       standby promotes itself. Swept over replication lag (liveness
//       detection AND state arrival both ride the sync session, so lag
//       delays the takeover too) and over per-batch loss. The loss
//       rows use an out-of-band detector (explicit takeover 2 ms after
//       the crash) because a lossy sync session also eats heartbeats —
//       random premature takeovers would measure the detector, not the
//       state stream.

// The fault-free run with checkpointing off and no standby, pinned: its
// digest was recorded before the HA layer existed, and its engine event
// count (kept out of the digest) moves only when the engine dispatches
// differently.
constexpr std::uint64_t kHaOffDigest = 250949799608397640ULL;
constexpr std::uint64_t kHaOffEvents = 78849;
constexpr sim::SimNanos kHaCrashAt = 30 * kMs;
constexpr sim::SimNanos kHaHeal = 40 * kMs;
constexpr sim::SimNanos kHaEnd = 100 * kMs;

std::vector<openflow::FlowModMsg> ct_firewall_rules() {
  std::vector<openflow::FlowModMsg> rules;
  for (int dir = 0; dir < 2; ++dir) {
    openflow::FlowModMsg est;
    est.table_id = 0;
    est.priority = 30;
    est.match.in_port(static_cast<std::uint32_t>(dir + 1)).ct_established();
    est.instructions =
        openflow::apply({openflow::ct_commit(), openflow::output(dir == 0 ? 2u : 1u)});
    rules.push_back(est);
  }
  openflow::FlowModMsg open;
  open.table_id = 0;
  open.priority = 20;
  open.match.in_port(1).ct_new();
  open.instructions = openflow::apply({openflow::ct_commit(), openflow::output(2)});
  rules.push_back(open);
  openflow::FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  rules.push_back(drop);
  return rules;
}

struct HaRow {
  std::string scenario;
  double checkpoint_ms = -1;  // crash_restart axis; 0 = amnesiac
  double lag_us = -1;         // takeover axes
  double loss = -1;
  std::string detector = "-";  // takeover: "monitor" | "external"
  std::uint64_t offered = 0;   // segments offered after the measurement epoch
  std::uint64_t delivered = 0;
  double est_goodput_pct = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t ct_restored = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t deltas_delivered = 0;
  bool survived = false;
};

struct HaFlow {
  net::FlowKey fwd;
  net::FlowKey rev;
  sim::SimNanos established_at = 0;
};

/// SYN at established_at, SYN|ACK 200 us later, then an ACK stream
/// every kPacketInterval until `end`. Offered counts ACKs sent at or
/// after `epoch` (the measurement window).
void schedule_flow(sim::Engine& engine, sim::Host& a, sim::Host& b, const HaFlow& flow,
                   sim::SimNanos end, sim::SimNanos epoch, std::uint64_t& offered) {
  engine.schedule_at(flow.established_at,
                     [&a, &flow] { a.send(net::make_tcp(flow.fwd, net::kTcpSyn)); });
  engine.schedule_at(flow.established_at + 200'000, [&b, &flow] {
    b.send(net::make_tcp(flow.rev, net::kTcpSyn | net::kTcpAck));
  });
  for (sim::SimNanos at = flow.established_at + 500'000; at < end; at += kPacketInterval) {
    engine.schedule_at(at, [&a, &flow, &offered, at, epoch] {
      if (at >= epoch) ++offered;
      a.send(net::make_tcp(flow.fwd, net::kTcpAck));
    });
  }
}

HaRow run_crash_restart(sim::SimNanos checkpoint_interval) {
  sim::Network network;
  softswitch::FailoverSpec spec;
  spec.mode = softswitch::FailoverSpec::Mode::kFailSecure;
  spec.echo_interval_ns = 500'000;
  spec.checkpoint_interval_ns = checkpoint_interval;
  auto& sw = network.add_node<softswitch::SoftSwitch>(
      "fw", 0xE0, 2,
      softswitch::SwitchSpec{.tables = 1, .conntrack = openflow::CtConfig{}, .failover = spec});
  auto& a = network.add_host("a", host_mac(0), host_ip(0));
  auto& b = network.add_host("b", host_mac(1), host_ip(1));
  network.connect(a, 0, sw, 0, sim::LinkSpec::gbps(10));
  network.connect(b, 0, sw, 1, sim::LinkSpec::gbps(10));

  openflow::ControlChannel channel(network.engine());
  channel.set_min_gap(5'000);
  sw.attach_channel(channel);

  controller::Controller ctrl;
  auto& program = ctrl.add_app<controller::StaticFlowApp>();
  for (const openflow::FlowModMsg& rule : ct_firewall_rules()) program.flow(rule);
  ctrl.connect(channel, "fw");

  sim::FaultInjector injector(network.engine());
  injector.register_point("sw", sw);
  sim::FaultPlan plan;
  plan.crash("sw", kHaCrashAt, kHaHeal - kHaCrashAt);
  injector.arm(plan);

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  b.set_on_receive([&network, &delivered](const net::Packet&, const net::ParsedPacket&) {
    if (network.now() >= kHaHeal) ++delivered;
  });

  // Flow 0: established at 2 ms (every checkpoint cadence images it).
  // Flow 1: established 1.8 ms before the crash (staleness probe).
  std::vector<HaFlow> flows;
  for (int i = 0; i < 2; ++i) {
    const auto sport = static_cast<std::uint16_t>(40000 + i);
    flows.push_back(HaFlow{net::FlowKey{a.mac(), b.mac(), a.ip(), b.ip(), sport, 80},
                           net::FlowKey{b.mac(), a.mac(), b.ip(), a.ip(), 80, sport},
                           i == 0 ? 2 * kMs : kHaCrashAt - 1'800'000});
  }
  for (const HaFlow& flow : flows)
    schedule_flow(network.engine(), a, b, flow, kHaEnd, kHaHeal, offered);

  network.run_until(kHaEnd);

  HaRow row;
  row.scenario = "crash_restart";
  row.checkpoint_ms = static_cast<double>(checkpoint_interval) / static_cast<double>(kMs);
  row.offered = offered;
  row.delivered = delivered;
  row.est_goodput_pct =
      offered == 0 ? 0 : 100.0 * static_cast<double>(delivered) / static_cast<double>(offered);
  row.checkpoints = sw.failover_stats().checkpoints;
  row.ct_restored = sw.failover_stats().ct_restored;
  row.survived = delivered > 0;
  return row;
}

HaRow run_takeover(sim::SimNanos lag_ns, double loss, bool auto_monitor) {
  constexpr std::size_t kFlowCount = 8;
  sim::Network network;
  const softswitch::SwitchSpec gateway{.tables = 1, .conntrack = openflow::CtConfig{}};
  auto& mux = network.add_node<softswitch::SoftSwitch>("mux", 0xE1, 6,
                                                       softswitch::SwitchSpec{.tables = 1});
  auto& act = network.add_node<softswitch::SoftSwitch>("act", 0xE2, 2, gateway);
  auto& stb = network.add_node<softswitch::SoftSwitch>("stb", 0xE3, 2, gateway);
  auto& a = network.add_host("a", host_mac(0), host_ip(0));
  auto& b = network.add_host("b", host_mac(1), host_ip(1));
  network.connect(a, 0, mux, 0, sim::LinkSpec::gbps(10));
  network.connect(b, 0, mux, 1, sim::LinkSpec::gbps(10));
  // Mux OF 3/4 patch to the active's two firewall ports, OF 5/6 to the
  // standby's.
  mux.bind_patch(3, act, 1);
  mux.bind_patch(4, act, 2);
  mux.bind_patch(5, stb, 1);
  mux.bind_patch(6, stb, 2);
  for (const openflow::FlowModMsg& rule : ct_firewall_rules()) {
    act.install(rule).check();
    stb.install(rule).check();
  }
  const auto steer = [&mux](std::uint32_t in, std::uint32_t out, std::uint16_t priority) {
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = priority;
    mod.match.in_port(in);
    mod.instructions = openflow::apply({openflow::output(out)});
    mux.install(mod).check();
  };
  steer(1, 3, 10);
  steer(3, 1, 10);
  steer(2, 4, 10);
  steer(4, 2, 10);

  softswitch::ReplicationSpec rspec;
  rspec.latency_ns = lag_ns;
  rspec.loss = loss;
  // External detector: the monitor is parked (a lossy sync session
  // also loses heartbeats) and the bench promotes the standby itself.
  if (!auto_monitor) rspec.takeover_miss_threshold = 1'000'000;
  softswitch::ReplicationChannel repl(network.engine(), rspec);
  act.enable_ha_active(repl);
  stb.enable_ha_standby(repl);
  stb.set_ha_takeover_handler([&steer] {
    steer(1, 5, 20);
    steer(5, 1, 20);
    steer(2, 6, 20);
    steer(6, 2, 20);
  });

  sim::Engine& engine = network.engine();
  engine.schedule_at(kHaCrashAt, [&act] { act.fault_crash(); });
  if (!auto_monitor)
    engine.schedule_at(kHaCrashAt + 2 * kMs, [&stb] { stb.ha().takeover(); });

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  b.set_on_receive([&network, &delivered](const net::Packet&, const net::ParsedPacket&) {
    if (network.now() >= kHaCrashAt) ++delivered;
  });

  // Flows establish staggered across [14 ms, 28 ms): with lag, the
  // youngest flows' deltas are still in flight (or arrive after the
  // promotion and are refused) when the active dies.
  std::vector<HaFlow> flows;
  for (std::size_t i = 0; i < kFlowCount; ++i) {
    const auto sport = static_cast<std::uint16_t>(41000 + i);
    flows.push_back(HaFlow{net::FlowKey{a.mac(), b.mac(), a.ip(), b.ip(), sport, 80},
                           net::FlowKey{b.mac(), a.mac(), b.ip(), a.ip(), 80, sport},
                           14 * kMs + static_cast<sim::SimNanos>(i) * 2 * kMs});
  }
  for (const HaFlow& flow : flows) schedule_flow(engine, a, b, flow, kHaEnd, kHaCrashAt, offered);

  network.run_until(kHaEnd);

  HaRow row;
  row.scenario = "takeover";
  row.lag_us = static_cast<double>(lag_ns) / 1e3;
  row.loss = loss;
  row.detector = auto_monitor ? "monitor" : "external";
  row.offered = offered;
  row.delivered = delivered;
  row.est_goodput_pct =
      offered == 0 ? 0 : 100.0 * static_cast<double>(delivered) / static_cast<double>(offered);
  row.takeovers = stb.failover_stats().takeovers;
  row.deltas_delivered = repl.stats().deltas_delivered;
  row.survived = delivered > 0;
  return row;
}

// ---- Table 11: split-brain containment and incremental checkpoints ---
//
// Partition matrix x fencing. Two SNAT gateways (each fronting its own
// client pair, sharing one 8-port external pool) run active/standby
// with duplex replication. Four pre-split connections consume half the
// pool on the active — and, via the delta stream, park the same
// reservations on the standby — leaving FOUR free ports. During a
// 30 ms partition each side that believes it is active admits THREE
// new connections: if both believe it, 3 + 3 allocations from 4 free
// ports overlap by pigeonhole — the irrefutable split-brain artifact
// (one external port owned by two different flows).
//
//   fencing off — the PR-9 seam: the standby promotes on heartbeat
//       silence alone, so an active-standby partition manufactures a
//       second active and the conflict count goes positive.
//   fencing on — promotion additionally needs the witness's lease, and
//       an active that cannot renew fences itself (new commits/NAT
//       refused, established flows still served). Every cell of the
//       matrix must show ZERO conflicts and zero double-active probe
//       samples; the double partition additionally exercises warm
//       failback (the healed ex-active demotes and is resynced by the
//       new active over the reverse channel).
//
// The second half measures incremental checkpoints: an 8-core firewall
// with 32 idle connections spread across its shards plus ONE hot flow.
// Full mode re-serializes every shard every cadence; dirty-shard
// tracking serializes only the hot one — steady-state checkpoint bytes
// must drop >= 5x at equal cadence (the staleness-vs-overhead sweep's
// honesty guard).

constexpr sim::SimNanos kSplitAt = 30 * kMs;
constexpr sim::SimNanos kHealAt = 60 * kMs;
constexpr sim::SimNanos kT11End = 80 * kMs;
constexpr std::uint16_t kSnatLo = 50000;
constexpr std::uint16_t kSnatHi = 50007;  // 8 ports: 4 pre-split + 4 contested

enum class PartitionKind { kActiveStandby, kWitness, kDouble };

const char* partition_name(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kActiveStandby: return "active_standby";
    case PartitionKind::kWitness: return "witness";
    case PartitionKind::kDouble: return "double";
  }
  return "?";
}

std::vector<openflow::FlowModMsg> t11_snat_rules(net::MacAddr a_mac, net::MacAddr b_mac) {
  std::vector<openflow::FlowModMsg> rules;
  openflow::FlowModMsg out;
  out.table_id = 0;
  out.priority = 100;
  out.match.in_port(1).eth_type(0x0800).ip_proto(6);
  out.instructions = openflow::apply({openflow::ct_snat(net::Ipv4Addr(203, 0, 113, 1), kSnatLo,
                                                        kSnatHi),
                                      openflow::set_eth_dst(b_mac), openflow::output(2)});
  rules.push_back(out);
  openflow::FlowModMsg back;
  back.table_id = 0;
  back.priority = 100;
  back.match.in_port(2).eth_type(0x0800).ip_proto(6).ct_tracked();
  back.instructions =
      openflow::apply({openflow::ct_commit(), openflow::set_eth_dst(a_mac), openflow::output(1)});
  rules.push_back(back);
  openflow::FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  rules.push_back(drop);
  return rules;
}

struct T11Row {
  std::string partition;
  bool fencing = false;
  std::uint64_t nat_conflicts = 0;         // external ports owned by two flows
  std::uint64_t double_active_samples = 0; // 100 us probe: both unfenced-active
  std::uint64_t fenced_rejects = 0;
  std::uint64_t promotions_denied = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t demotions = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t failback_entries = 0;
};

T11Row run_partition(PartitionKind kind, bool fencing) {
  sim::Network network;
  sim::Engine& engine = network.engine();
  const softswitch::SwitchSpec gateway{.tables = 1, .conntrack = openflow::CtConfig{}};
  auto& act = network.add_node<softswitch::SoftSwitch>("act", 0xF1, 2, gateway);
  auto& stb = network.add_node<softswitch::SoftSwitch>("stb", 0xF2, 2, gateway);
  auto& a1 = network.add_host("a1", host_mac(0), host_ip(0));
  auto& b1 = network.add_host("b1", host_mac(1), host_ip(1));
  auto& a2 = network.add_host("a2", host_mac(2), host_ip(2));
  auto& b2 = network.add_host("b2", host_mac(3), host_ip(3));
  network.connect(a1, 0, act, 0, sim::LinkSpec::gbps(10));
  network.connect(b1, 0, act, 1, sim::LinkSpec::gbps(10));
  network.connect(a2, 0, stb, 0, sim::LinkSpec::gbps(10));
  network.connect(b2, 0, stb, 1, sim::LinkSpec::gbps(10));
  for (const openflow::FlowModMsg& rule : t11_snat_rules(a1.mac(), b1.mac()))
    act.install(rule).check();
  for (const openflow::FlowModMsg& rule : t11_snat_rules(a2.mac(), b2.mac()))
    stb.install(rule).check();

  softswitch::ReplicationChannel ab(engine);  // act -> stb
  softswitch::ReplicationChannel ba(engine);  // stb -> act
  sim::Witness witness;
  sim::WitnessLink wl_act(engine, witness, 0xF1);
  sim::WitnessLink wl_stb(engine, witness, 0xF2);
  if (fencing) {
    act.set_ha_witness(wl_act);
    stb.set_ha_witness(wl_stb);
  }
  act.enable_ha_active(ab, &ba);
  stb.enable_ha_standby(ab, &ba);

  // Pre-split connections: four SNAT allocations on the active, the
  // same reservations parked on the standby via the delta stream.
  for (int i = 0; i < 4; ++i) {
    engine.schedule_at((5 + i) * kMs, [&a1, &b1, i] {
      a1.send(net::make_tcp(net::FlowKey{a1.mac(), b1.mac(), a1.ip(), b1.ip(),
                                         static_cast<std::uint16_t>(42000 + i), 80},
                            net::kTcpSyn));
    });
  }

  const bool split_repl = kind != PartitionKind::kWitness;
  const bool split_witness = kind != PartitionKind::kActiveStandby;
  engine.schedule_at(kSplitAt, [&ab, &ba, &wl_act, split_repl, split_witness] {
    if (split_repl) {
      ab.set_up(false);
      ba.set_up(false);
    }
    if (split_witness) wl_act.set_up(false);
  });
  engine.schedule_at(kHealAt, [&ab, &ba, &wl_act] {
    ab.set_up(true);
    ba.set_up(true);
    wl_act.set_up(true);
  });

  // Mid-split admissions, three per side. The active's clients keep
  // arriving regardless (a fenced box refuses them at the tracker);
  // the standby's clients only reach it once it claims the active
  // role (the re-steer model of Table 10's mux, without the mux).
  for (int i = 0; i < 3; ++i) {
    engine.schedule_at(34 * kMs + static_cast<sim::SimNanos>(i) * kMs, [&a1, &b1, i] {
      a1.send(net::make_tcp(net::FlowKey{a1.mac(), b1.mac(), a1.ip(), b1.ip(),
                                         static_cast<std::uint16_t>(43000 + i), 80},
                            net::kTcpSyn));
    });
    engine.schedule_at(34 * kMs + 500'000 + static_cast<sim::SimNanos>(i) * kMs,
                       [&stb, &a2, &b2, i] {
                         if (!stb.ha_promoted()) return;
                         a2.send(net::make_tcp(
                             net::FlowKey{a2.mac(), b2.mac(), a2.ip(), b2.ip(),
                                          static_cast<std::uint16_t>(44000 + i), 80},
                             net::kTcpSyn));
                       });
  }

  // Dense probe across split and heal: any instant with two unfenced
  // actives is a containment failure.
  std::uint64_t double_active = 0;
  for (sim::SimNanos at = kSplitAt; at <= 70 * kMs; at += 100'000) {
    engine.schedule_at(at, [&act, &stb, &double_active] {
      if (act.ha_unfenced_active() && stb.ha_unfenced_active()) ++double_active;
    });
  }

  network.run_until(kT11End);

  T11Row row;
  row.partition = partition_name(kind);
  row.fencing = fencing;
  row.double_active_samples = double_active;
  row.fenced_rejects = act.pipeline().conntrack(0).stats().fenced_rejects +
                       stb.pipeline().conntrack(0).stats().fenced_rejects;
  row.promotions_denied = stb.failover_stats().ha_promotions_denied;
  row.takeovers = stb.failover_stats().takeovers;
  row.demotions = act.failover_stats().ha_demotions;
  row.failbacks = act.failover_stats().ha_failbacks;
  row.failback_entries = act.failover_stats().ha_failback_entries;

  // Conflict audit: collect every SNAT allocation on both boxes; an
  // external port owned by two different original flows is split-brain
  // damage (reply traffic for one of them lands on the other).
  std::map<std::uint16_t, std::set<std::string>> owners;
  for (const softswitch::SoftSwitch* sw : {&act, &stb}) {
    for (const openflow::ConnEntry& entry : sw->pipeline().conntrack(0).snapshot()) {
      if (entry.nat.kind != openflow::CtAction::Nat::kSource) continue;
      owners[entry.nat.port].insert(util::format("%u:%u", entry.orig.src_ip,
                                                 static_cast<unsigned>(entry.orig.src_port)));
    }
  }
  for (const auto& [port, origins] : owners)
    if (origins.size() > 1) ++row.nat_conflicts;
  return row;
}

struct CheckpointRow {
  bool incremental = false;
  std::uint64_t checkpoints = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t shards_skipped = 0;
  sim::SimNanos ns_billed = 0;
};

CheckpointRow run_checkpoint_bytes(bool incremental) {
  constexpr sim::SimNanos kCkptEnd = 100 * kMs;
  sim::Network network;
  sim::Engine& engine = network.engine();
  softswitch::FailoverSpec spec;
  spec.checkpoint_interval_ns = kMs;
  spec.incremental_checkpoints = incremental;
  auto& sw = network.add_node<softswitch::SoftSwitch>(
      "fw", 0xF5, 2,
      softswitch::SwitchSpec{
          .tables = 1,
          .ingress = {.cores = {.cores = 8, .rss = sim::RssPolicy::kSymmetric}},
          .conntrack = openflow::CtConfig{},
          .failover = spec});
  for (const openflow::FlowModMsg& rule : ct_firewall_rules()) sw.install(rule).check();
  auto& a = network.add_host("a", host_mac(0), host_ip(0));
  auto& b = network.add_host("b", host_mac(1), host_ip(1));
  network.connect(a, 0, sw, 0, sim::LinkSpec::gbps(10));
  network.connect(b, 0, sw, 1, sim::LinkSpec::gbps(10));

  // The skew: 32 connections committed once and then idle, spread by
  // RSS across the 8 shards...
  for (int i = 0; i < 32; ++i) {
    engine.schedule_at(2 * kMs + static_cast<sim::SimNanos>(i) * 50'000, [&a, &b, i] {
      a.send(net::make_tcp(net::FlowKey{a.mac(), b.mac(), a.ip(), b.ip(),
                                        static_cast<std::uint16_t>(42000 + i), 80},
                           net::kTcpSyn));
    });
  }
  // ...and ONE hot flow ACKing every 100 us, dirtying only its shard.
  const net::FlowKey hot{a.mac(), b.mac(), a.ip(), b.ip(), 41000, 80};
  const net::FlowKey hot_rev{b.mac(), a.mac(), b.ip(), a.ip(), 80, 41000};
  engine.schedule_at(4 * kMs, [&a, hot] { a.send(net::make_tcp(hot, net::kTcpSyn)); });
  engine.schedule_at(4 * kMs + 200'000,
                     [&b, hot_rev] { b.send(net::make_tcp(hot_rev, net::kTcpSyn | net::kTcpAck)); });
  for (sim::SimNanos at = 5 * kMs; at < kCkptEnd; at += 100'000)
    engine.schedule_at(at, [&a, hot] { a.send(net::make_tcp(hot, net::kTcpAck)); });

  network.run_until(kCkptEnd);

  const auto& stats = sw.failover_stats();
  CheckpointRow row;
  row.incremental = incremental;
  row.checkpoints = stats.checkpoints;
  row.entries = stats.checkpoint_entries;
  row.bytes = stats.checkpoint_bytes;
  row.shards_skipped = stats.checkpoint_shards_skipped;
  row.ns_billed = stats.checkpoint_ns_billed;
  return row;
}

Json to_json(const T11Row& row) {
  Json json = Json::object();
  json.set("partition", row.partition);
  json.set("fencing", row.fencing);
  json.set("nat_conflicts", row.nat_conflicts);
  json.set("double_active_samples", row.double_active_samples);
  json.set("fenced_rejects", row.fenced_rejects);
  json.set("promotions_denied", row.promotions_denied);
  json.set("takeovers", row.takeovers);
  json.set("demotions", row.demotions);
  json.set("failbacks", row.failbacks);
  json.set("failback_entries", row.failback_entries);
  return json;
}

Json to_json(const CheckpointRow& row) {
  Json json = Json::object();
  json.set("scenario", std::string("checkpoint_bytes"));
  json.set("incremental", row.incremental);
  json.set("checkpoints", row.checkpoints);
  json.set("entries", row.entries);
  json.set("bytes", row.bytes);
  json.set("shards_skipped", row.shards_skipped);
  json.set("ns_billed", static_cast<std::uint64_t>(row.ns_billed));
  return json;
}

Json to_json(const HaRow& row) {
  Json json = Json::object();
  json.set("scenario", row.scenario);
  json.set("checkpoint_ms", row.checkpoint_ms);
  json.set("lag_us", row.lag_us);
  json.set("loss", row.loss);
  json.set("detector", row.detector);
  json.set("offered", row.offered);
  json.set("delivered", row.delivered);
  json.set("est_goodput_pct", row.est_goodput_pct);
  json.set("checkpoints", row.checkpoints);
  json.set("ct_restored", row.ct_restored);
  json.set("takeovers", row.takeovers);
  json.set("deltas_delivered", row.deltas_delivered);
  json.set("survived", row.survived);
  return json;
}

Json to_json(const Row& row) {
  Json json = Json::object();
  json.set("mode", row.mode);
  json.set("outage_ms", static_cast<double>(row.outage_ns) / static_cast<double>(kMs));
  json.set("flows", row.flows);
  json.set("warm_goodput_pct", row.warm_goodput_pct);
  json.set("cold_goodput_pct", row.cold_goodput_pct);
  json.set("recovery_ms", row.recovery_ms);
  json.set("flows_reinstalled", row.flows_reinstalled);
  json.set("disconnects", row.disconnects);
  json.set("reconnects", row.reconnects);
  json.set("resyncs", row.resyncs);
  json.set("standalone_packets", row.standalone_packets);
  json.set("packet_ins_dropped", row.packet_ins_dropped);
  json.set("recovered", row.recovered);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::vector<sim::SimNanos> outages =
      quick ? std::vector<sim::SimNanos>{10 * kMs} : std::vector<sim::SimNanos>{10 * kMs, 40 * kMs};
  const std::vector<std::size_t> flow_counts =
      quick ? std::vector<std::size_t>{16, 128} : std::vector<std::size_t>{16, 128, 1024};

  std::cout << "bench_faults - Table 8: goodput dip and time-to-recover across controller\n"
               "outages (mode x outage x controller-owned flow count)"
            << (quick ? " [QUICK]" : "") << "\n\n";

  util::Table table({"mode", "outage_ms", "flows", "warm_good%", "cold_good%", "recovery_ms",
                     "reinstalled", "standalone_pkts", "pktin_dropped"});
  Json rows = Json::array();
  bool all_recovered = true;

  for (const sim::SimNanos outage : outages) {
    const Row base = legacy_baseline(outage);
    table.add_row({base.mode, util::format("%.0f", static_cast<double>(outage) / 1e6), "-",
                   util::format("%.1f", base.warm_goodput_pct),
                   util::format("%.1f", base.cold_goodput_pct), "-", "-", "-", "-"});
    rows.push(to_json(base));
    for (const auto mode : {softswitch::FailoverSpec::Mode::kFailSecure,
                            softswitch::FailoverSpec::Mode::kFailStandalone}) {
      for (const std::size_t flows : flow_counts) {
        const Row row = run_scenario(mode, outage, flows);
        all_recovered = all_recovered && row.recovered;
        table.add_row(
            {row.mode, util::format("%.0f", static_cast<double>(outage) / 1e6),
             util::format("%zu", row.flows), util::format("%.1f", row.warm_goodput_pct),
             util::format("%.1f", row.cold_goodput_pct),
             row.recovery_ms < 0 ? std::string("never") : util::format("%.2f", row.recovery_ms),
             util::format("%llu", static_cast<unsigned long long>(row.flows_reinstalled)),
             util::format("%llu", static_cast<unsigned long long>(row.standalone_packets)),
             util::format("%llu", static_cast<unsigned long long>(row.packet_ins_dropped))});
        rows.push(to_json(row));
      }
    }
  }
  std::cout << table.to_string() << '\n';

  // ---- Table 10: stateful HA — established-TCP survival ----
  std::cout << "Table 10: established-TCP goodput through a crash of the box holding the\n"
               "conntrack table (checkpoint/restore vs amnesiac; active->standby takeover\n"
               "across replication lag and loss)\n\n";

  const std::vector<sim::SimNanos> checkpoint_intervals =
      quick ? std::vector<sim::SimNanos>{0, kMs}
            : std::vector<sim::SimNanos>{0, kMs, 5 * kMs, 20 * kMs};
  const std::vector<sim::SimNanos> lags =
      quick ? std::vector<sim::SimNanos>{50'000}
            : std::vector<sim::SimNanos>{50'000, 8 * kMs, 20 * kMs};
  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 1.0} : std::vector<double>{0.0, 0.3, 0.7, 1.0};

  util::Table table10({"scenario", "ckpt_ms", "lag_us", "loss", "detector", "est_good%",
                       "delivered", "restored", "takeovers"});
  Json rows10 = Json::array();
  const auto add10 = [&table10, &rows10](const HaRow& row) {
    table10.add_row(
        {row.scenario, row.checkpoint_ms < 0 ? std::string("-") : util::format("%.0f", row.checkpoint_ms),
         row.lag_us < 0 ? std::string("-") : util::format("%.0f", row.lag_us),
         row.loss < 0 ? std::string("-") : util::format("%.1f", row.loss), row.detector,
         util::format("%.1f", row.est_goodput_pct),
         util::format("%llu/%llu", static_cast<unsigned long long>(row.delivered),
                      static_cast<unsigned long long>(row.offered)),
         util::format("%llu", static_cast<unsigned long long>(row.ct_restored)),
         util::format("%llu", static_cast<unsigned long long>(row.takeovers))});
    rows10.push(to_json(row));
  };

  bool amnesiac_zero = true;
  bool checkpoint_survives = true;
  for (const sim::SimNanos interval : checkpoint_intervals) {
    const HaRow row = run_crash_restart(interval);
    if (interval == 0 && row.delivered != 0) amnesiac_zero = false;
    if (interval > 0 && !row.survived) checkpoint_survives = false;
    add10(row);
  }

  double zero_lag_goodput = 0;
  bool lag_monotone = true;
  double previous = 101.0;
  for (const sim::SimNanos lag : lags) {
    const HaRow row = run_takeover(lag, 0.0, /*auto_monitor=*/true);
    if (lag == 50'000) zero_lag_goodput = row.est_goodput_pct;
    if (row.est_goodput_pct > previous + 1e-9) lag_monotone = false;
    previous = row.est_goodput_pct;
    add10(row);
  }
  bool loss_monotone = true;
  previous = 101.0;
  for (const double loss : losses) {
    const HaRow row = run_takeover(50'000, loss, /*auto_monitor=*/false);
    if (row.est_goodput_pct > previous + 1e-9) loss_monotone = false;
    previous = row.est_goodput_pct;
    add10(row);
  }
  std::cout << table10.to_string() << '\n';

  // Table 11: the split-brain matrix, fencing off (the PR-9 seam,
  // reproduced) vs on (the witness closes it), plus the incremental
  // checkpoint byte comparison. Cheap enough to run in --quick too.
  util::Table table11({"partition", "fencing", "nat_conflicts", "dbl_active", "fenced_rej",
                       "prom_denied", "takeovers", "demotions", "failbacks", "fb_entries"});
  Json rows11 = Json::array();
  std::uint64_t off_conflicts = 0;
  std::uint64_t off_double_active = 0;
  std::uint64_t on_conflicts = 0;
  std::uint64_t on_double_active = 0;
  std::uint64_t fencing_failbacks = 0;
  std::uint64_t fencing_failback_entries = 0;
  for (const PartitionKind kind :
       {PartitionKind::kActiveStandby, PartitionKind::kWitness, PartitionKind::kDouble}) {
    for (const bool fencing : {false, true}) {
      const T11Row row = run_partition(kind, fencing);
      if (fencing) {
        on_conflicts += row.nat_conflicts;
        on_double_active += row.double_active_samples;
        fencing_failbacks += row.failbacks;
        fencing_failback_entries += row.failback_entries;
      } else {
        off_conflicts += row.nat_conflicts;
        off_double_active += row.double_active_samples;
      }
      table11.add_row({row.partition, row.fencing ? "on" : "off",
                       util::format("%llu", static_cast<unsigned long long>(row.nat_conflicts)),
                       util::format("%llu", static_cast<unsigned long long>(row.double_active_samples)),
                       util::format("%llu", static_cast<unsigned long long>(row.fenced_rejects)),
                       util::format("%llu", static_cast<unsigned long long>(row.promotions_denied)),
                       util::format("%llu", static_cast<unsigned long long>(row.takeovers)),
                       util::format("%llu", static_cast<unsigned long long>(row.demotions)),
                       util::format("%llu", static_cast<unsigned long long>(row.failbacks)),
                       util::format("%llu", static_cast<unsigned long long>(row.failback_entries))});
      rows11.push(to_json(row));
    }
  }
  const CheckpointRow ckpt_full = run_checkpoint_bytes(false);
  const CheckpointRow ckpt_incr = run_checkpoint_bytes(true);
  for (const CheckpointRow* row : {&ckpt_full, &ckpt_incr}) {
    table11.add_row({row->incremental ? "ckpt_incremental" : "ckpt_full", "-",
                     util::format("%llu B", static_cast<unsigned long long>(row->bytes)),
                     util::format("%llu ent", static_cast<unsigned long long>(row->entries)),
                     util::format("%llu skip", static_cast<unsigned long long>(row->shards_skipped)),
                     "-", "-", "-", "-",
                     util::format("%llu ckpt", static_cast<unsigned long long>(row->checkpoints))});
    rows11.push(to_json(*row));
  }
  std::cout << table11.to_string() << '\n';

  const bool split_brain_reproduced = off_conflicts > 0 && off_double_active > 0;
  const bool fencing_zero_conflicts = on_conflicts == 0;
  const bool fencing_single_active = on_double_active == 0;
  const bool failback_warm = fencing_failbacks >= 1 && fencing_failback_entries > 0;
  const double ckpt_ratio = ckpt_incr.bytes > 0
                                ? static_cast<double>(ckpt_full.bytes) / static_cast<double>(ckpt_incr.bytes)
                                : 0.0;
  const bool ckpt_5x = ckpt_ratio >= 5.0;
  std::cout << "incremental checkpoint bytes: " << ckpt_incr.bytes << " vs full " << ckpt_full.bytes
            << " (" << util::format("%.1fx", ckpt_ratio) << " reduction)\n";

  // Fault-free determinism guard: the outage-free scenario twice, bit
  // identical or the bench fails (the chaos-smoke CI gate) — and, new
  // in the HA PR, pinned to the PR-8 digest: with checkpointing off
  // and no standby the whole HA layer must be byte-invisible.
  const Row free1 = run_scenario(softswitch::FailoverSpec::Mode::kFailSecure, 0, 16);
  const Row free2 = run_scenario(softswitch::FailoverSpec::Mode::kFailSecure, 0, 16);
  const bool deterministic = free1.digest == free2.digest && free1.events == free2.events;
  const bool ha_off_identical = free1.digest == kHaOffDigest && free1.events == kHaOffEvents;
  if (!ha_off_identical)
    std::cerr << "HA-off run: digest " << free1.digest << ", events " << free1.events << '\n';
  std::cout << "fault-free determinism: " << (deterministic ? "OK" : "DRIFT") << '\n';
  std::cout << "HA-off byte-identity vs PR 8: " << (ha_off_identical ? "OK" : "DRIFT") << '\n';

  Json report = Json::object();
  report.set("table8", std::move(rows));
  report.set("table10", std::move(rows10));
  report.set("table11", std::move(rows11));
  Json guard = Json::object();
  guard.set("fault_free_digest_match", deterministic);
  guard.set("all_faulted_rows_recovered", all_recovered);
  guard.set("ha_off_matches_pr8_digest", ha_off_identical);
  guard.set("amnesiac_restart_zero_goodput", amnesiac_zero);
  guard.set("checkpointed_restart_survives", checkpoint_survives);
  guard.set("takeover_zero_lag_goodput_pct", zero_lag_goodput);
  guard.set("takeover_lag_monotone", lag_monotone);
  guard.set("takeover_loss_monotone", loss_monotone);
  guard.set("t11_split_brain_reproduced", split_brain_reproduced);
  guard.set("t11_fencing_zero_conflicts", fencing_zero_conflicts);
  guard.set("t11_fencing_at_most_one_active", fencing_single_active);
  guard.set("t11_failback_warm", failback_warm);
  guard.set("t11_incremental_checkpoint_5x", ckpt_5x);
  report.set("guards", std::move(guard));
  write_bench_json("BENCH_faults.json", report);

  bool ok = true;
  if (!deterministic) {
    std::cerr << "FAIL: fault-free runs diverged\n";
    ok = false;
  }
  if (!ha_off_identical) {
    std::cerr << "FAIL: HA-off run is not byte-identical to the PR 8 baseline\n";
    ok = false;
  }
  if (!all_recovered) {
    std::cerr << "FAIL: a faulted scenario never reconnected + resynced\n";
    ok = false;
  }
  if (!amnesiac_zero) {
    std::cerr << "FAIL: an amnesiac restart delivered established goodput\n";
    ok = false;
  }
  if (!checkpoint_survives) {
    std::cerr << "FAIL: a checkpointed restart delivered zero established goodput\n";
    ok = false;
  }
  if (zero_lag_goodput < 90.0) {
    std::cerr << "FAIL: zero-lag takeover kept only " << zero_lag_goodput
              << "% established goodput (need >= 90%)\n";
    ok = false;
  }
  if (!lag_monotone || !loss_monotone) {
    std::cerr << "FAIL: takeover goodput did not degrade monotonically with lag/loss\n";
    ok = false;
  }
  if (!split_brain_reproduced) {
    std::cerr << "FAIL: fencing-off partition did not reproduce split-brain damage "
                 "(conflicts=" << off_conflicts << ", double-active=" << off_double_active << ")\n";
    ok = false;
  }
  if (!fencing_zero_conflicts) {
    std::cerr << "FAIL: witness fencing leaked " << on_conflicts << " NAT conflicts\n";
    ok = false;
  }
  if (!fencing_single_active) {
    std::cerr << "FAIL: witness fencing allowed " << on_double_active
              << " double-active probe samples\n";
    ok = false;
  }
  if (!failback_warm) {
    std::cerr << "FAIL: no warm failback completed under fencing (failbacks="
              << fencing_failbacks << ", entries=" << fencing_failback_entries << ")\n";
    ok = false;
  }
  if (!ckpt_5x) {
    std::cerr << "FAIL: incremental checkpoints only cut bytes "
              << util::format("%.1fx", ckpt_ratio) << " (need >= 5x)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
