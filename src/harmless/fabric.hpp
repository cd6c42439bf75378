// harmless/fabric.hpp — the assembled HARMLESS data plane.
//
// Fabric::build() takes a simulated Network that already contains the
// legacy switch and constructs everything Fig. 1 adds around it:
//
//     hosts ── legacy switch ══trunk══ SS_1 ──patch──> SS_2 ── controller
//                                        (HARMLESS-S4 box)
//
//   * SS_1 ("translator"): trunk leg on OF port 1 wired to the legacy
//     trunk port; translator rules installed directly (the Manager
//     owns SS_1; it is not controller-visible).
//   * SS_2 ("main OF switch"): one patch-bound OF port per managed
//     access port, numbered identically to the legacy ports' order in
//     the PortMap, plus a ControlChannel for the SDN controller.
//
// The fabric also provides failure injection (trunk down) used by the
// resilience tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harmless/port_map.hpp"
#include "harmless/translator.hpp"
#include "legacy/legacy_switch.hpp"
#include "openflow/channel.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"

namespace harmless::core {

struct FabricSpec {
  /// Trunk interconnect: typically faster than access links (the paper
  /// uses a 10G trunk-port-to-soft-switch cable for 1G access ports).
  sim::LinkSpec trunk_link = sim::LinkSpec::gbps(10);
  /// Both soft switches' shape: matchers, cache, burst, ingress queues
  /// and cores, costs, conntrack. SS_2 takes it as given; SS_1 takes it
  /// with one table and no failover, because SS_1 has no controller.
  softswitch::SwitchSpec sw;
  /// Control channel one-way latency (controller is usually on-box or
  /// one rack away).
  sim::SimNanos control_latency = 50'000;
  /// Control-channel per-message serialization gap (0 = instantaneous
  /// pipe; set to model resync time scaling with flow count). The
  /// channel draws loss/jitter from ControlChannel's default seed.
  sim::SimNanos control_min_gap = 0;
  std::uint64_t ss1_datapath_id = 0x51;
  std::uint64_t ss2_datapath_id = 0x52;
};

class Fabric {
 public:
  /// Build the S4 box around `device` inside `network`. The legacy
  /// switch must already be configured with the per-port VLANs the
  /// `map` describes (the Manager guarantees this ordering).
  static Fabric build(sim::Network& network, legacy::LegacySwitch& device, const PortMap& map,
                      const FabricSpec& spec = {});

  [[nodiscard]] softswitch::SoftSwitch& ss1() { return *ss1_; }
  [[nodiscard]] softswitch::SoftSwitch& ss2() { return *ss2_; }
  [[nodiscard]] openflow::ControlChannel& control_channel() { return *channel_; }
  [[nodiscard]] const PortMap& port_map() const { return map_; }
  [[nodiscard]] const TranslatorRules& translator_rules() const { return rules_; }

  /// Sever / restore the trunk (both directions). SS_1 reports the
  /// port-status transition; SS_2 keeps running (its patches are
  /// intact) so the controller sees the event via SS_1's... — SS_1 has
  /// no controller, so the observable effect is silence plus the
  /// port-status SS_2 emits for any patch leg the caller also downs.
  void set_trunk_up(bool up);
  [[nodiscard]] bool trunk_up() const { return trunk_up_; }

  /// Register the fabric's failure surface with a FaultInjector. Every
  /// component is auto-registered under a derived name, so FaultPlans
  /// scale to any topology without hard-coding:
  ///   "switch:<name>"  — each soft switch (crash/restart faults)
  ///   "control:<name>" — each control channel (named by its switch)
  ///   "trunk:leg<k>"   — each bonded trunk leg (both directions)
  /// The caller registers its Controller separately (the fabric does
  /// not own one).
  void register_faults(sim::FaultInjector& injector);

  /// Same, plus every channel of `network` under "link:<label>" (e.g.
  /// "link:legacy:4->SS_1") — the whole-network failure surface for
  /// chaos schedules that flap arbitrary cables.
  void register_faults(sim::FaultInjector& injector, sim::Network& network);

 private:
  Fabric(PortMap map, TranslatorRules rules) : map_(std::move(map)), rules_(std::move(rules)) {}

  PortMap map_;
  TranslatorRules rules_;
  softswitch::SoftSwitch* ss1_ = nullptr;
  softswitch::SoftSwitch* ss2_ = nullptr;
  std::unique_ptr<openflow::ControlChannel> channel_;
  std::vector<sim::Channel*> trunk_channels_;  // both directions, per leg
  bool trunk_up_ = true;
};

}  // namespace harmless::core
