#include "openflow/action.hpp"

#include "net/ethernet.hpp"
#include "net/ip.hpp"
#include "net/l4.hpp"
#include "net/parse.hpp"
#include "util/strings.hpp"

namespace harmless::openflow {

namespace {

/// Offset of the IPv4 header in the frame, accounting for one tag.
std::size_t l3_offset(const net::Bytes& frame) {
  return net::vlan_peek(frame) ? net::kEthHeaderSize + 4 : net::kEthHeaderSize;
}

/// Recompute the IPv4 header checksum in place.
void refresh_ip_checksum(net::Bytes& frame, std::size_t l3) {
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  net::wr16(bytes, l3 + 10, 0);
  const std::uint16_t checksum =
      net::internet_checksum(net::BytesView(frame).subspan(l3, net::kIpv4HeaderSize));
  net::wr16(bytes, l3 + 10, checksum);
}

/// Recompute the TCP/UDP checksum after an address/port rewrite.
void refresh_l4_checksum(net::Bytes& frame, std::size_t l3) {
  const net::BytesView view(frame);
  const auto proto = static_cast<net::IpProto>(frame[l3 + 9]);
  const std::uint16_t total_length = net::rd16(view, l3 + 2);
  const std::size_t l4 = l3 + net::kIpv4HeaderSize;
  if (total_length < net::kIpv4HeaderSize) return;
  const std::size_t l4_size =
      std::min<std::size_t>(total_length - net::kIpv4HeaderSize, frame.size() - l4);
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  const net::Ipv4Addr src(net::rd32(view, l3 + 12));
  const net::Ipv4Addr dst(net::rd32(view, l3 + 16));

  if (proto == net::IpProto::kTcp && l4_size >= net::kTcpHeaderSize) {
    net::wr16(bytes, l4 + 16, 0);
    const std::uint16_t checksum =
        net::l4_checksum(src, dst, proto, view.subspan(l4, l4_size));
    net::wr16(bytes, l4 + 16, checksum);
  } else if (proto == net::IpProto::kUdp && l4_size >= net::kUdpHeaderSize) {
    net::wr16(bytes, l4 + 6, 0);
    std::uint16_t checksum = net::l4_checksum(src, dst, proto, view.subspan(l4, l4_size));
    if (checksum == 0) checksum = 0xffff;
    net::wr16(bytes, l4 + 6, checksum);
  }
}

/// Write an IPv4 address or a TCP/UDP port, then refresh both checksums.
bool set_l3l4(const SetFieldAction& action, net::Packet& packet) {
  net::Bytes& frame = packet.frame_keeping_intern();
  const std::size_t l3 = l3_offset(frame);
  if (frame.size() < l3 + net::kIpv4HeaderSize) return false;
  if ((frame[l3] >> 4) != 4) return false;
  const std::size_t l4 = l3 + net::kIpv4HeaderSize;
  const bool port = action.field == Field::kL4Src || action.field == Field::kL4Dst;
  if (port) {
    const auto proto = static_cast<net::IpProto>(frame[l3 + 9]);
    if (proto != net::IpProto::kTcp && proto != net::IpProto::kUdp) return false;
    if (frame.size() < l4 + 4) return false;
  }

  // An intern that parsed this header as IPv4 describes the rewrite
  // exactly. One that did not cannot: the checksum refresh below may
  // repair a header its parse rejected.
  net::PacketParse* intern = packet.intern();
  if (intern != nullptr && !intern->parsed.ipv4) {
    packet.drop_intern();
    intern = nullptr;
  }
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  const bool src = action.field == Field::kIpSrc || action.field == Field::kL4Src;
  if (port) {
    const auto value = static_cast<std::uint16_t>(action.value);
    net::wr16(bytes, src ? l4 : l4 + 2, value);
    // A TCP/UDP header the intern did not parse stays unparsable: the
    // port and checksum writes touch neither its length nor offset.
    if (intern != nullptr && intern->parsed.tcp)
      (src ? intern->parsed.tcp->src_port : intern->parsed.tcp->dst_port) = value;
    if (intern != nullptr && intern->parsed.udp)
      (src ? intern->parsed.udp->src_port : intern->parsed.udp->dst_port) = value;
  } else {
    const auto value = static_cast<std::uint32_t>(action.value);
    net::wr32(bytes, l3 + (src ? 12 : 16), value);
    if (intern != nullptr)
      (src ? intern->parsed.ipv4->src : intern->parsed.ipv4->dst) = net::Ipv4Addr(value);
  }
  refresh_ip_checksum(frame, l3);
  refresh_l4_checksum(frame, l3);
  if (intern != nullptr) intern->projection_valid = false;
  return true;
}

bool set_field(const SetFieldAction& action, net::Packet& packet) {
  if (packet.size() < net::kEthHeaderSize) return false;

  switch (action.field) {
    case Field::kEthDst:
    case Field::kEthSrc: {
      const bool dst = action.field == Field::kEthDst;
      const auto mac = net::MacAddr::from_u64(action.value);
      net::Bytes& frame = packet.frame_keeping_intern();
      std::copy(mac.octets().begin(), mac.octets().end(), frame.begin() + (dst ? 0 : 6));
      // The frame holds an Ethernet header, so any intern parsed one.
      if (net::PacketParse* intern = packet.intern(); intern != nullptr) {
        (dst ? intern->parsed.eth_dst : intern->parsed.eth_src) = mac;
        intern->projection_valid = false;
      }
      return true;
    }
    case Field::kVlanVid:
      return net::vlan_set_vid(packet, static_cast<net::VlanId>(action.value & 0x0fff));
    case Field::kVlanPcp:
      return net::vlan_set_pcp(packet, static_cast<std::uint8_t>(action.value & 0x7));
    case Field::kIpSrc:
    case Field::kIpDst:
    case Field::kL4Src:
    case Field::kL4Dst:
      return set_l3l4(action, packet);
    default:
      return false;
  }
}

}  // namespace

bool apply_header_action(const Action& action, net::Packet& packet) {
  if (std::holds_alternative<PushVlanAction>(action)) {
    net::vlan_push(packet, net::VlanTag{0, 0, false});
    return true;
  }
  if (std::holds_alternative<PopVlanAction>(action)) {
    return net::vlan_pop(packet).has_value();
  }
  if (const auto* set = std::get_if<SetFieldAction>(&action)) {
    return set_field(*set, packet);
  }
  return true;  // Output/Group/Ct handled by the pipeline
}

std::string to_string(const Action& action) {
  if (const auto* out = std::get_if<OutputAction>(&action)) {
    switch (out->port) {
      case kPortController: return "output:CONTROLLER";
      case kPortFlood: return "output:FLOOD";
      case kPortAll: return "output:ALL";
      case kPortInPort: return "output:IN_PORT";
      default: return "output:" + std::to_string(out->port);
    }
  }
  if (const auto* grp = std::get_if<GroupAction>(&action))
    return "group:" + std::to_string(grp->group_id);
  if (std::holds_alternative<PushVlanAction>(action)) return "push_vlan";
  if (std::holds_alternative<PopVlanAction>(action)) return "pop_vlan";
  if (const auto* ct = std::get_if<CtAction>(&action)) {
    switch (ct->nat) {
      case CtAction::Nat::kSource:
        return util::format("ct(commit,snat=%s:%u-%u)",
                            net::Ipv4Addr(ct->nat_ip).to_string().c_str(), ct->port_min,
                            ct->port_max);
      case CtAction::Nat::kDest:
        if (ct->port_min != 0)
          return util::format("ct(commit,dnat=%s:%u)",
                              net::Ipv4Addr(ct->nat_ip).to_string().c_str(), ct->port_min);
        return util::format("ct(commit,dnat=%s)", net::Ipv4Addr(ct->nat_ip).to_string().c_str());
      case CtAction::Nat::kNone: break;
    }
    return "ct(commit)";
  }
  const auto& set = std::get<SetFieldAction>(action);
  switch (set.field) {
    case Field::kEthDst:
    case Field::kEthSrc:
      return util::format("set_%s:%s", field_name(set.field),
                          net::MacAddr::from_u64(set.value).to_string().c_str());
    case Field::kIpSrc:
    case Field::kIpDst:
      return util::format(
          "set_%s:%s", field_name(set.field),
          net::Ipv4Addr(static_cast<std::uint32_t>(set.value)).to_string().c_str());
    case Field::kVlanVid:
      return util::format("set_vlan_vid:%llu",
                          static_cast<unsigned long long>(set.value & 0x0fff));
    default:
      return util::format("set_%s:%llu", field_name(set.field),
                          static_cast<unsigned long long>(set.value));
  }
}

std::string to_string(const ActionList& actions) {
  if (actions.empty()) return "drop";
  std::string out;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) out += ',';
    out += to_string(actions[i]);
  }
  return out;
}

}  // namespace harmless::openflow
