// legacy/legacy_switch.hpp — a faithful model of a dumb 802.1Q access
// switch: the hardware HARMLESS keeps in service.
//
// Behaviour implemented (and nothing more — this device has no flow
// tables, no controller, no programmability):
//   * VLAN classification on ingress: access ports classify untagged
//     frames into their PVID and drop tagged frames; trunk ports accept
//     frames tagged with an allowed VLAN (and untagged into the native
//     VLAN if configured).
//   * MAC learning per (VLAN, source MAC) with aging; multicast sources
//     are never learned.
//   * Forwarding: known unicast to the learned port, otherwise flood
//     inside the VLAN (never back out the ingress port).
//   * Egress tagging: access ports send untagged; trunks send tagged
//     (native VLAN untagged).
//
// The crucial emergent property for HARMLESS: when every access port
// has a *unique* PVID and one trunk carries them all, no two access
// ports share a VLAN, so the switch can never locally bridge host
// traffic — every frame is tagged with its ingress port's VLAN and
// hairpins through the trunk. §2 of the paper in ~20 lines of config.
#pragma once

#include <cstdint>

#include "legacy/config.hpp"
#include "legacy/mac_table.hpp"
#include "net/parse.hpp"
#include "sim/node.hpp"

namespace harmless::legacy {

/// Per-packet hardware costs. A store-and-forward ASIC does lookup +
/// rewrite in effectively constant time; values are representative of
/// a 2017 1G access switch and only matter *relative* to the software
/// switch costs in softswitch/soft_switch.hpp.
struct AsicCosts {
  sim::SimNanos classify_ns;  // VLAN classification + ingress filter
  sim::SimNanos lookup_ns;    // FDB lookup + learning
  sim::SimNanos rewrite_ns;   // tag push/pop on egress
};
/// 30 ns/packet in all (~33 Mpps), i.e. above 10G line rate for
/// minimum-size frames: the ASIC is never the bottleneck, as on real
/// store-and-forward access silicon.
constexpr AsicCosts kAsicCosts{.classify_ns = 10, .lookup_ns = 15, .rewrite_ns = 5};

class LegacySwitch : public sim::ServicedNode {
 public:
  /// `config` port numbers are 1-based; sim port index = number - 1.
  LegacySwitch(sim::Engine& engine, std::string name, SwitchConfig config);

  /// Replace the running config (what a mgmt commit ultimately calls).
  /// Flushes learned MACs on ports whose VLAN membership changed.
  void apply_config(SwitchConfig config);
  [[nodiscard]] const SwitchConfig& config() const { return config_; }

  [[nodiscard]] const MacTable& mac_table() const { return mac_table_; }

  struct Counters {
    std::uint64_t forwarded = 0;          // known-unicast forwards
    std::uint64_t flooded = 0;            // unknown-unicast/broadcast floods
    std::uint64_t flood_copies = 0;       // total copies emitted by floods
    std::uint64_t ingress_filtered = 0;   // dropped by VLAN ingress rules
    std::uint64_t no_member_egress = 0;   // frame had nowhere to go
    std::uint64_t link_down_flushes = 0;  // MAC entries flushed by port link-down
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Link state change on a port: a down transition flushes the FDB
  /// entries learned on that port (802.1D topology-change behaviour —
  /// stations behind a dead link must not black-hole unicast; they
  /// flood and re-learn wherever the station reappears).
  void on_port_link(int port_index, bool up) override;

 protected:
  /// Frame by frame (burst_size 1): the per-frame costs sum.
  sim::SimNanos service_burst(sim::Burst&& burst) override;

 private:
  /// Classify, learn, and forward or flood one frame; returns its cost.
  sim::SimNanos forward(int in_port, net::Packet&& packet);
  struct Classified {
    net::VlanId vlan;
    bool had_tag;
  };

  /// Ingress VLAN classification; nullopt means "filter the frame".
  [[nodiscard]] std::optional<Classified> classify(int port_number,
                                                   const net::ParsedPacket& parsed) const;

  /// Emit `packet` out of `port_number` with correct egress tagging.
  void egress(int port_number, net::VlanId vlan, net::Packet&& packet);

  SwitchConfig config_;
  MacTable mac_table_;
  Counters counters_;
};

}  // namespace harmless::legacy
