#include "net/parse.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace harmless::net {

std::uint16_t ParsedPacket::src_port() const {
  if (tcp) return tcp->src_port;
  if (udp) return udp->src_port;
  return 0;
}

std::uint16_t ParsedPacket::dst_port() const {
  if (tcp) return tcp->dst_port;
  if (udp) return udp->dst_port;
  return 0;
}

ParsedPacket parse_packet(BytesView frame) {
  ParsedPacket out;
  const auto eth = EthernetHeader::parse(frame);
  if (!eth) return out;
  out.l2_valid = true;
  out.eth_dst = eth->dst;
  out.eth_src = eth->src;
  out.eth_type = eth->ether_type;

  std::size_t l3_offset = kEthHeaderSize;
  if (eth->ether_type == static_cast<std::uint16_t>(EtherType::kVlan)) {
    if (frame.size() < kEthHeaderSize + 4) return out;
    out.vlan = VlanTag::from_tci(rd16(frame, 14));
    out.eth_type = rd16(frame, 16);
    l3_offset += 4;
    // Q-in-Q inner tags are left unparsed by design: the HARMLESS data
    // path never stacks more than one tag on the trunk.
  }

  const BytesView l3 = frame.subspan(std::min(l3_offset, frame.size()));
  if (out.eth_type == static_cast<std::uint16_t>(EtherType::kArp)) {
    out.arp = ArpPacket::parse(l3);
    return out;
  }
  if (out.eth_type != static_cast<std::uint16_t>(EtherType::kIpv4)) return out;

  out.ipv4 = Ipv4Header::parse(l3);
  if (!out.ipv4) return out;

  // The IP total_length may be shorter than the frame (Ethernet pads
  // runts to 60 bytes): use it to bound the L4 segment.
  const std::size_t ip_payload_size =
      std::min<std::size_t>(out.ipv4->total_length, l3.size()) - kIpv4HeaderSize;
  const BytesView l4 = l3.subspan(kIpv4HeaderSize, ip_payload_size);
  const std::size_t l4_offset = l3_offset + kIpv4HeaderSize;

  switch (static_cast<IpProto>(out.ipv4->protocol)) {
    case IpProto::kUdp:
      out.udp = UdpHeader::parse(l4);
      if (out.udp) {
        out.l4_payload_offset = l4_offset + kUdpHeaderSize;
        out.l4_payload_size = out.udp->length - kUdpHeaderSize;
      }
      break;
    case IpProto::kTcp:
      out.tcp = TcpHeader::parse(l4);
      if (out.tcp) {
        // The data offset (options included), which parse() checked
        // fits the segment.
        const std::size_t header_size = static_cast<std::size_t>(l4[12] >> 4) * 4;
        out.l4_payload_offset = l4_offset + header_size;
        out.l4_payload_size = l4.size() - header_size;
      }
      break;
    case IpProto::kIcmp:
      out.icmp = IcmpHeader::parse(l4);
      if (out.icmp) {
        out.l4_payload_offset = l4_offset + kIcmpHeaderSize;
        out.l4_payload_size = l4.size() - kIcmpHeaderSize;
      }
      break;
  }
  return out;
}

std::string_view l4_payload(const ParsedPacket& parsed, BytesView frame) {
  if (parsed.l4_payload_size == 0 ||
      parsed.l4_payload_offset + parsed.l4_payload_size > frame.size())
    return {};
  return {reinterpret_cast<const char*>(frame.data()) + parsed.l4_payload_offset,
          parsed.l4_payload_size};
}

namespace {

constexpr std::size_t kParsePoolCap = 4096;
std::uint64_t g_parses = 0;

/// Leaked on purpose, like net::FramePool's freelist: static-storage
/// Packets may release interns during shutdown, after a function-local
/// thread_local would already be gone.
std::vector<PacketParse*>& parse_pool() {
  thread_local auto* pool = new std::vector<PacketParse*>();
  return *pool;
}

}  // namespace

PacketParse* PacketParse::acquire() {
  auto& pool = parse_pool();
  if (pool.empty()) return new PacketParse();
  PacketParse* parse = pool.back();
  pool.pop_back();
  return parse;
}

void PacketParse::release(PacketParse* parse) {
  if (parse == nullptr) return;
  auto& pool = parse_pool();
  if (pool.size() >= kParsePoolCap) {
    delete parse;
    return;
  }
  pool.push_back(parse);
}

std::uint64_t PacketParse::parses() { return g_parses; }
void PacketParse::reset_parses() { g_parses = 0; }

PacketParse& parse_cached(Packet& packet) {
  if (PacketParse* intern = packet.intern()) return *intern;
  ++g_parses;
  PacketParse* parse = PacketParse::acquire();
  parse->parsed = parse_packet(std::as_const(packet).frame());
  parse->projection_valid = false;
  packet.set_intern(parse);
  return *parse;
}

std::string ParsedPacket::to_string() const {
  if (!l2_valid) return "<malformed frame>";
  std::ostringstream os;
  os << eth_src.to_string() << " > " << eth_dst.to_string();
  if (vlan) os << " vlan " << vlan->vid;
  if (arp) {
    os << ' ' << arp->to_string();
  } else if (ipv4) {
    os << ' ' << ipv4->src.to_string() << " > " << ipv4->dst.to_string();
    if (tcp)
      os << " tcp " << tcp->src_port << ">" << tcp->dst_port;
    else if (udp)
      os << " udp " << udp->src_port << ">" << udp->dst_port;
    else if (icmp)
      os << (icmp->type == IcmpType::kEchoRequest ? " icmp echo-req" : " icmp echo-rep");
  } else {
    os << util::format(" type=0x%04x", eth_type);
  }
  return os.str();
}

}  // namespace harmless::net
