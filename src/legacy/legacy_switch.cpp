#include "legacy/legacy_switch.hpp"

#include <algorithm>
#include <utility>

namespace harmless::legacy {

LegacySwitch::LegacySwitch(sim::Engine& engine, std::string name, SwitchConfig config)
    // burst_size 1: the ASIC forwards per packet at line rate; burst
    // amortization is a software-datapath technique (SoftSwitch). The
    // ingress stays FCFS over per-port queues — store-and-forward
    // access silicon arbitrates in arrival order.
    : ServicedNode(engine, std::move(name), sim::IngressSpec{}, /*burst_size=*/1),
      mac_table_(config.mac_aging) {
  apply_config(std::move(config));
}

void LegacySwitch::apply_config(SwitchConfig config) {
  config.validate().check();
  // Conservative and correct: any config change invalidates learned
  // state (real switches flush per-VLAN; the distinction is invisible
  // to our tests and the Manager reconfigures rarely).
  mac_table_.clear();
  mac_table_.set_aging(config.mac_aging);
  config_ = std::move(config);
  int max_port = 0;
  for (const auto& [number, port] : config_.ports) max_port = std::max(max_port, number);
  ensure_ports(static_cast<std::size_t>(max_port));
  ensure_rx_queues(static_cast<std::size_t>(max_port));
}

void LegacySwitch::on_port_link(int port_index, bool up) {
  if (up) return;
  counters_.link_down_flushes += mac_table_.flush_port(port_index + 1);
}

std::optional<LegacySwitch::Classified> LegacySwitch::classify(
    int port_number, const net::ParsedPacket& parsed) const {
  const auto it = config_.ports.find(port_number);
  if (it == config_.ports.end() || !it->second.enabled) return std::nullopt;
  const PortConfig& port = it->second;

  if (port.mode == PortMode::kAccess) {
    // 802.1Q access ports drop tagged frames (no VLAN leaking).
    if (parsed.has_vlan()) return std::nullopt;
    return Classified{port.pvid, false};
  }

  // Trunk.
  if (parsed.has_vlan()) {
    const net::VlanId vid = parsed.vlan_vid();
    if (!port.allowed_vlans.contains(vid)) return std::nullopt;
    return Classified{vid, true};
  }
  if (port.native_vlan) return Classified{*port.native_vlan, false};
  return std::nullopt;
}

void LegacySwitch::egress(int port_number, net::VlanId vlan, net::Packet&& packet) {
  const PortConfig& port = config_.ports.at(port_number);
  // as_const: a mutable frame() would invalidate the interned parse
  // even on the no-rewrite path (access egress of an untagged frame).
  const bool tagged = net::vlan_peek(std::as_const(packet).frame()).has_value();

  if (port.mode == PortMode::kAccess) {
    // Access egress is always untagged.
    if (tagged) net::vlan_pop(packet);
  } else {
    const bool send_untagged = port.native_vlan && *port.native_vlan == vlan;
    if (send_untagged) {
      if (tagged) net::vlan_pop(packet);
    } else if (!tagged) {
      net::vlan_push(packet, net::VlanTag{vlan, 0, false});
    } else {
      net::vlan_set_vid(packet, vlan);
    }
  }
  packet.charge(kAsicCosts.rewrite_ns);
  emit(static_cast<std::size_t>(port_number - 1), std::move(packet));
}

sim::SimNanos LegacySwitch::service_burst(sim::Burst&& burst) {
  sim::SimNanos cost = 0;
  for (auto& [in_port, packet] : burst) cost += forward(in_port, std::move(packet));
  return cost;
}

sim::SimNanos LegacySwitch::forward(int in_port, net::Packet&& packet) {
  const int port_number = in_port + 1;
  const net::ParsedPacket& parsed = net::parse_cached(packet).parsed;
  sim::SimNanos cost = kAsicCosts.classify_ns;

  packet.add_hop();

  const auto classified = classify(port_number, parsed);
  if (!classified || !parsed.l2_valid) {
    ++counters_.ingress_filtered;
    packet.charge(cost);
    return cost;
  }
  const net::VlanId vlan = classified->vlan;

  cost += kAsicCosts.lookup_ns;
  const MacTable::Decision decision =
      mac_table_.bridge(vlan, parsed.eth_src, parsed.eth_dst, port_number, engine_.now());
  packet.charge(cost);

  if (decision.verdict == MacTable::Verdict::kForward) {
    ++counters_.forwarded;
    egress(decision.port, vlan, std::move(packet));
    return cost + kAsicCosts.rewrite_ns;
  }
  if (decision.verdict == MacTable::Verdict::kFilter) return cost;

  // Flood within the VLAN.
  ++counters_.flooded;
  std::size_t copies = 0;
  for (const int member : config_.ports_in_vlan(vlan)) {
    if (member == port_number) continue;
    ++copies;
    egress(member, vlan, packet.clone());  // copy per member
  }
  counters_.flood_copies += copies;
  if (copies == 0) ++counters_.no_member_egress;
  return cost + static_cast<sim::SimNanos>(copies) * kAsicCosts.rewrite_ns;
}

}  // namespace harmless::legacy
