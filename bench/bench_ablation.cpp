// E6 — ablation of the Translator (SS_1).
//
// The paper adds SS_1 purely as an adaptation layer "to avoid having
// to tailor controller programs to the way HARMLESS maps output ports
// to VLAN ids". This bench quantifies what that abstraction costs by
// comparing against the alternative the paper rejected: a *merged*
// single software switch whose (VLAN-aware) rules fuse translation and
// policy — every L2 rule becomes (in_port=trunk, vlan=v_src,
// eth_dst=mac) -> set_vlan(v_dst) -> output trunk.
//
// Reported per data plane: throughput, p50 latency, rules installed,
// and whether the controller program had to know the VLAN map.
#include <iostream>

#include "bench/common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;

namespace {

constexpr std::size_t kPackets = 20'000;
constexpr std::size_t kFrame = 256;

struct Outcome {
  double pps = 0;
  double p50_us = 0;
  std::size_t rules = 0;
};

Outcome run_harmless(const RigOptions& options) {
  HarmlessRig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, kPackets, kFrame, options.access_link.rate.serialization_ns(kFrame));
  rig.network.run();
  Outcome outcome;
  outcome.pps = measure(recorder, kFrame).pps;
  outcome.p50_us = recorder.latency().p50() / 1000.0;
  outcome.rules = rig.fabric->ss1().pipeline().total_entries() +
                  rig.fabric->ss2().pipeline().total_entries();
  return outcome;
}

/// The merged design: legacy switch + ONE software switch on the trunk
/// whose single table fuses translation and forwarding.
Outcome run_merged(const RigOptions& options) {
  BaseRig rig;
  auto& device = rig.network.add_node<legacy::LegacySwitch>(
      "legacy", harmless_legacy_config(options.host_count));
  rig.add_hosts(device, options);

  auto& merged = rig.network.add_node<softswitch::SoftSwitch>(
      "merged-ss", 0x99, 1,
      softswitch::SwitchSpec{.tables = 1, .specialized = options.sw.specialized});
  rig.network.connect(device, static_cast<std::size_t>(options.host_count), merged, 0,
                      options.trunk_link);

  // Fused rules: for every (source port, destination host) pair.
  // The "controller program" must know every VLAN id — the coupling
  // the Translator exists to remove.
  std::size_t rules = 0;
  for (int src = 0; src < options.host_count; ++src) {
    for (int dst = 0; dst < options.host_count; ++dst) {
      if (src == dst) continue;
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 100;
      mod.match.in_port(1)
          .vlan_vid(static_cast<net::VlanId>(101 + src))
          .eth_dst(host_mac(dst));
      // The hairpin goes back out the trunk it arrived on, which in
      // OpenFlow requires the explicit IN_PORT reserved port.
      mod.instructions = openflow::apply(
          {openflow::set_vlan_vid(static_cast<net::VlanId>(101 + dst)),
           openflow::output(openflow::kPortInPort)});
      merged.install(mod).check();
      ++rules;
    }
  }

  // Warm the legacy FDB.
  for (int i = 0; i < options.host_count; ++i)
    rig.stream(i, (i + 1) % options.host_count, 1, 64, 0);
  rig.network.run();

  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, kPackets, kFrame, options.access_link.rate.serialization_ns(kFrame));
  rig.network.run();
  Outcome outcome;
  outcome.pps = measure(recorder, kFrame).pps;
  outcome.p50_us = recorder.latency().p50() / 1000.0;
  outcome.rules = rules;
  return outcome;
}

}  // namespace

int main() {
  std::cout << "E6 - Translator (SS_1) ablation: HARMLESS vs merged single-switch\n"
            << "(" << kPackets << " packets of " << kFrame << "B, 10G feed, h1->h2)\n\n";

  util::Table table({"hosts", "design", "pps", "p50 (us)", "OF rules",
                     "controller VLAN-free?"});
  for (const int hosts : {4, 8, 16, 32}) {
    RigOptions options;
    options.host_count = hosts;
    options.access_link = sim::LinkSpec::gbps(10);
    options.trunk_link = sim::LinkSpec::gbps(10);

    const Outcome harmless_outcome = run_harmless(options);
    const Outcome merged_outcome = run_merged(options);
    RigOptions linear_options = options;
    linear_options.sw.specialized = false;
    const Outcome linear_outcome = run_harmless(linear_options);
    RigOptions uncached_options = options;
    uncached_options.sw.flow_cache = false;
    const Outcome uncached_outcome = run_harmless(uncached_options);
    table.add_row({std::to_string(hosts), "HARMLESS (SS_1+SS_2)",
                   util::si_format(harmless_outcome.pps, "pps"),
                   util::format("%.2f", harmless_outcome.p50_us),
                   std::to_string(harmless_outcome.rules), "yes"});
    table.add_row({std::to_string(hosts), "HARMLESS (linear matchers)",
                   util::si_format(linear_outcome.pps, "pps"),
                   util::format("%.2f", linear_outcome.p50_us),
                   std::to_string(linear_outcome.rules), "yes"});
    table.add_row({std::to_string(hosts), "HARMLESS (no flow cache)",
                   util::si_format(uncached_outcome.pps, "pps"),
                   util::format("%.2f", uncached_outcome.p50_us),
                   std::to_string(uncached_outcome.rules), "yes"});
    table.add_row({std::to_string(hosts), "merged single SS",
                   util::si_format(merged_outcome.pps, "pps"),
                   util::format("%.2f", merged_outcome.p50_us),
                   std::to_string(merged_outcome.rules), "NO (fused VLAN map)"});
  }
  std::cout << table.to_string() << '\n';

  std::cout << "Shape check: the merged design wins some throughput/latency (one SS\n"
               "traversal instead of three) but its rule count grows as ports x hosts\n"
               "and every rule hard-codes the VLAN mapping - the operational cost the\n"
               "paper's adaptation layer pays a bounded performance price to avoid\n"
               "(HARMLESS rules stay 2*ports + policy). The linear-matcher and\n"
               "no-flow-cache rows isolate the two datapath accelerations: disabling\n"
               "the cache re-exposes the full per-packet parse+lookup bill on every\n"
               "SS traversal.\n";
  return 0;
}
