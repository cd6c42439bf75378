// Header rewrites patch a packet's interned parse instead of dropping
// it. This suite holds them to the byte-level rewrites they replaced:
// `namespace before` keeps the previous set_field, checksum refreshers,
// VLAN helpers and l4_checksum verbatim (they ran on a frame whose
// intern was always dropped). Over random well-formed and malformed
// frames and random action sequences, with and without an intern, every
// rewrite must leave the bytes the old code leaves and return what it
// returned, and every intern it keeps must equal a fresh parse of the
// new bytes — the FieldView served from it too.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/build.hpp"
#include "net/ethernet.hpp"
#include "net/parse.hpp"
#include "openflow/action.hpp"
#include "openflow/fields.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

using openflow::Field;
using openflow::SetFieldAction;

// ---- the replaced code, verbatim (calls qualified: net:: overloads are
// found by argument-dependent lookup) ---------------------------------------
namespace before {

std::uint16_t internet_checksum(net::BytesView data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) sum += net::rd16(data, i);
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;  // odd trailing byte
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::uint16_t l4_checksum(net::Ipv4Addr src, net::Ipv4Addr dst, net::IpProto proto,
                          net::BytesView l4_segment) {
  net::Bytes pseudo;
  pseudo.reserve(12 + l4_segment.size());
  net::put32(pseudo, src.value());
  net::put32(pseudo, dst.value());
  net::put8(pseudo, 0);
  net::put8(pseudo, static_cast<std::uint8_t>(proto));
  net::put16(pseudo, static_cast<std::uint16_t>(l4_segment.size()));
  pseudo.insert(pseudo.end(), l4_segment.begin(), l4_segment.end());
  return internet_checksum(pseudo);
}

void vlan_push(net::Bytes& frame, net::VlanTag tag) {
  // Insert TPID+TCI at offset 12 (after dst+src MAC); the original
  // EtherType slides to offset 16 and becomes the inner type.
  std::uint8_t tag_bytes[4];
  net::wr16(std::span<std::uint8_t>(tag_bytes, 4), 0,
            static_cast<std::uint16_t>(net::EtherType::kVlan));
  net::wr16(std::span<std::uint8_t>(tag_bytes, 4), 2, tag.tci());
  frame.insert(frame.begin() + 12, tag_bytes, tag_bytes + 4);
}

std::optional<net::VlanTag> vlan_pop(net::Bytes& frame) {
  const auto tag = net::vlan_peek(frame);
  if (!tag) return std::nullopt;
  frame.erase(frame.begin() + 12, frame.begin() + 16);
  return tag;
}

bool vlan_set_vid(net::Bytes& frame, net::VlanId vid) {
  if (!net::vlan_peek(frame)) return false;
  auto tag = net::VlanTag::from_tci(net::rd16(frame, 14));
  tag.vid = vid & 0x0fff;
  net::wr16(std::span<std::uint8_t>(frame.data(), frame.size()), 14, tag.tci());
  return true;
}

/// Offset of the IPv4 header in the frame, accounting for one tag.
std::size_t l3_offset(const net::Bytes& frame) {
  return net::vlan_peek(frame) ? net::kEthHeaderSize + 4 : net::kEthHeaderSize;
}

/// Recompute the IPv4 header checksum in place.
void refresh_ip_checksum(net::Bytes& frame, std::size_t l3) {
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  net::wr16(bytes, l3 + 10, 0);
  const std::uint16_t checksum =
      internet_checksum(net::BytesView(frame).subspan(l3, net::kIpv4HeaderSize));
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
    const std::uint16_t checksum = before::l4_checksum(src, dst, proto, view.subspan(l4, l4_size));
    net::wr16(bytes, l4 + 16, checksum);
  } else if (proto == net::IpProto::kUdp && l4_size >= net::kUdpHeaderSize) {
    net::wr16(bytes, l4 + 6, 0);
    std::uint16_t checksum = before::l4_checksum(src, dst, proto, view.subspan(l4, l4_size));
    if (checksum == 0) checksum = 0xffff;
    net::wr16(bytes, l4 + 6, checksum);
  }
}

bool set_field(const SetFieldAction& action, net::Packet& packet) {
  net::Bytes& frame = packet.frame();
  if (frame.size() < net::kEthHeaderSize) return false;
  std::span<std::uint8_t> bytes(frame.data(), frame.size());

  switch (action.field) {
    case Field::kEthDst: {
      const auto mac = net::MacAddr::from_u64(action.value).octets();
      std::copy(mac.begin(), mac.end(), frame.begin());
      return true;
    }
    case Field::kEthSrc: {
      const auto mac = net::MacAddr::from_u64(action.value).octets();
      std::copy(mac.begin(), mac.end(), frame.begin() + 6);
      return true;
    }
    case Field::kVlanVid:
      return before::vlan_set_vid(frame, static_cast<net::VlanId>(action.value & 0x0fff));
    case Field::kVlanPcp: {
      if (!net::vlan_peek(frame)) return false;
      auto tag = net::VlanTag::from_tci(net::rd16(net::BytesView(frame), 14));
      tag.pcp = static_cast<std::uint8_t>(action.value & 0x7);
      net::wr16(bytes, 14, tag.tci());
      return true;
    }
    default: break;
  }

  // IP/L4 rewrites need an IPv4 packet.
  const std::size_t l3 = l3_offset(frame);
  if (frame.size() < l3 + net::kIpv4HeaderSize) return false;
  if ((frame[l3] >> 4) != 4) return false;

  switch (action.field) {
    case Field::kIpSrc:
      net::wr32(bytes, l3 + 12, static_cast<std::uint32_t>(action.value));
      break;
    case Field::kIpDst:
      net::wr32(bytes, l3 + 16, static_cast<std::uint32_t>(action.value));
      break;
    case Field::kL4Src:
    case Field::kL4Dst: {
      const auto proto = static_cast<net::IpProto>(frame[l3 + 9]);
      if (proto != net::IpProto::kTcp && proto != net::IpProto::kUdp) return false;
      const std::size_t l4 = l3 + net::kIpv4HeaderSize;
      if (frame.size() < l4 + 4) return false;
      const std::size_t offset = (action.field == Field::kL4Src) ? l4 : l4 + 2;
      net::wr16(bytes, offset, static_cast<std::uint16_t>(action.value));
      break;
    }
    default:
      return false;
  }
  refresh_ip_checksum(frame, l3);
  refresh_l4_checksum(frame, l3);
  return true;
}

bool apply_header_action(const openflow::Action& action, net::Packet& packet) {
  if (std::holds_alternative<openflow::PushVlanAction>(action)) {
    before::vlan_push(packet.frame(), net::VlanTag{0, 0, false});
    return true;
  }
  if (std::holds_alternative<openflow::PopVlanAction>(action)) {
    return before::vlan_pop(packet.frame()).has_value();
  }
  if (const auto* set = std::get_if<SetFieldAction>(&action)) {
    return set_field(*set, packet);
  }
  return true;
}

}  // namespace before

// ---- frames --------------------------------------------------------------

net::FlowKey random_flow(util::Rng& rng) {
  net::FlowKey key;
  key.eth_src = net::MacAddr::from_u64(rng.next());
  key.eth_dst = net::MacAddr::from_u64(rng.next());
  key.ip_src = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  key.ip_dst = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  key.src_port = static_cast<std::uint16_t>(rng.next());
  key.dst_port = static_cast<std::uint16_t>(rng.next());
  return key;
}

/// Offset of the IPv4 header, or 0 when the frame has none.
std::size_t ip_offset(const net::Bytes& frame) {
  const std::size_t l3 = before::l3_offset(frame);
  if (frame.size() < l3 + net::kIpv4HeaderSize || (frame[l3] >> 4) != 4) return 0;
  return l3;
}

/// Grow a TCP header by `words` 4-byte option words of NOPs, fixing the
/// lengths and both checksums: a well-formed segment that carries options.
void add_tcp_options(net::Bytes& frame, std::size_t words) {
  const std::size_t l3 = ip_offset(frame);
  const std::size_t l4 = l3 + net::kIpv4HeaderSize;
  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(l4 + net::kTcpHeaderSize), words * 4,
               0x01);
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  bytes[l4 + 12] = static_cast<std::uint8_t>((5 + words) << 4);
  net::wr16(bytes, l3 + 2, static_cast<std::uint16_t>(net::rd16(bytes, l3 + 2) + words * 4));
  before::refresh_ip_checksum(frame, l3);
  before::refresh_l4_checksum(frame, l3);
}

net::Packet base_frame(util::Rng& rng) {
  const net::FlowKey flow = random_flow(rng);
  switch (rng.below(6)) {
    case 0:
    case 1: return net::make_udp(flow, 60 + rng.below(200), static_cast<std::uint8_t>(rng.next()));
    case 2: {
      std::string payload(rng.below(40), 'x');
      for (char& c : payload) c = static_cast<char>(rng.next());
      return net::make_tcp(flow, static_cast<std::uint8_t>(rng.next()), payload);
    }
    case 3: return net::make_icmp_echo(flow, rng.chance(0.5), 7, 9);
    case 4:
      return rng.chance(0.5) ? net::make_arp_request(flow.eth_src, flow.ip_src, flow.ip_dst)
                             : net::make_arp_reply(flow.eth_src, flow.ip_src, flow.eth_dst,
                                                   flow.ip_dst);
    default: {
      // 12-17 bytes, EtherType (when present) 0x8100: runts a tag
      // rewrite must neither misparse nor overrun.
      net::Bytes frame(12 + rng.below(6));
      for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng.next());
      if (frame.size() >= 14) net::wr16(std::span<std::uint8_t>(frame), 12, 0x8100);
      return net::Packet(std::move(frame));
    }
  }
}

/// A random frame, tagged 0-2 times and possibly malformed.
net::Packet random_frame(util::Rng& rng) {
  net::Packet packet = base_frame(rng);
  net::Bytes& frame = packet.frame();
  if (frame.size() < 14) return packet;
  if (ip_offset(frame) != 0 && frame[ip_offset(frame) + 9] == 6 && rng.chance(0.3))
    add_tcp_options(frame, 1 + rng.below(3));
  const std::size_t tags = rng.below(4) == 0 ? 2 : rng.below(2);
  for (std::size_t i = 0; i < tags; ++i) {
    const net::VlanTag tag{static_cast<net::VlanId>(rng.below(4096)),
                           static_cast<std::uint8_t>(rng.below(8)), rng.chance(0.2)};
    before::vlan_push(frame, tag);
  }

  const std::size_t l3 = ip_offset(frame);
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  if (l3 != 0) {
    const std::size_t l4 = l3 + net::kIpv4HeaderSize;
    switch (rng.below(9)) {
      case 0: bytes[l3 + 10] ^= static_cast<std::uint8_t>(1 + rng.below(255)); break;  // bad IP sum
      case 1:  // bad L4 checksum
        if (frame.size() >= l4 + 18) bytes[l4 + (frame[l3 + 9] == 6 ? 16 : 6)] ^= 0x5a;
        break;
      case 2:  // UDP "no checksum"
        if (frame[l3 + 9] == 17 && frame.size() >= l4 + 8) net::wr16(bytes, l4 + 6, 0);
        break;
      case 3:    // odd or truncated total_length, header checksum kept valid
      case 4: {
        const std::uint16_t length = rng.chance(0.5)
                                         ? static_cast<std::uint16_t>(rng.below(60) | 1)
                                         : static_cast<std::uint16_t>(rng.below(2000));
        net::wr16(bytes, l3 + 2, length);
        before::refresh_ip_checksum(frame, l3);
        break;
      }
      case 5: bytes[l3] = static_cast<std::uint8_t>(0x40 | rng.below(16)); break;  // ihl
      default: break;
    }
  }
  if (rng.chance(0.05)) bytes[rng.below(frame.size())] ^= static_cast<std::uint8_t>(rng.next());
  return packet;
}

openflow::Action random_action(util::Rng& rng) {
  const std::uint64_t value = rng.chance(0.5) ? rng.next() : rng.below(5000);
  switch (rng.below(12)) {
    case 0: return openflow::push_vlan();
    case 1:
    case 2: return openflow::pop_vlan();
    case 3: return SetFieldAction{Field::kVlanVid, value};
    case 4: return SetFieldAction{Field::kVlanPcp, value};
    case 5: return SetFieldAction{Field::kEthDst, value};
    case 6: return SetFieldAction{Field::kEthSrc, value};
    case 7: return SetFieldAction{Field::kIpSrc, value};
    case 8: return SetFieldAction{Field::kIpDst, value};
    case 9: return SetFieldAction{Field::kL4Src, value};
    case 10: return SetFieldAction{Field::kL4Dst, value};
    default: return SetFieldAction{Field::kIpDscp, value};  // unsupported: a no-op
  }
}

/// The packet's kept intern (if any) must be what a fresh parse of its
/// bytes gives, and the FieldView served from it what a fresh build does.
void expect_intern_exact(net::Packet& packet, std::uint32_t in_port, const std::string& where) {
  if (packet.intern() == nullptr) return;
  const net::ParsedPacket fresh = net::parse_packet(std::as_const(packet).frame());
  ASSERT_TRUE(packet.intern()->parsed == fresh)
      << where << ": kept " << packet.intern()->parsed.to_string() << " payload@"
      << packet.intern()->parsed.l4_payload_offset << ", fresh " << fresh.to_string()
      << " payload@" << fresh.l4_payload_offset << "\n"
      << packet.hexdump(64);
  const openflow::FieldView cached = openflow::cached_field_view(packet, in_port);
  const openflow::FieldView built = openflow::build_field_view(fresh, in_port);
  ASSERT_EQ(cached.present, built.present) << where;
  ASSERT_EQ(cached.values, built.values) << where;
}

std::string describe(const openflow::Action& action, const net::Packet& packet) {
  return openflow::to_string(action) + " on\n" + packet.hexdump(64);
}

TEST(RewriteEquivalence, RandomActionSequencesMatchTheReplacedRewrites) {
  util::Rng rng(2017);
  std::size_t kept = 0;
  std::size_t rewrites = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    net::Packet packet = random_frame(rng);
    net::Packet reference = packet.clone();
    const auto in_port = static_cast<std::uint32_t>(1 + rng.below(8));
    for (int step = 0; step < 6; ++step) {
      // Sometimes an intern (with or without its projection) rides in.
      if (rng.chance(0.7)) {
        if (rng.chance(0.5))
          (void)openflow::cached_field_view(packet, in_port);
        else
          (void)net::parse_cached(packet);
      }
      const openflow::Action action = random_action(rng);
      const std::string where = describe(action, reference);
      const bool want = before::apply_header_action(action, reference);
      const bool got = openflow::apply_header_action(action, packet);
      ASSERT_EQ(got, want) << where;
      ASSERT_EQ(std::as_const(packet).frame(), std::as_const(reference).frame()) << where;
      ++rewrites;
      if (packet.intern() != nullptr) ++kept;
      expect_intern_exact(packet, in_port, where);
      if (HasFatalFailure()) return;
    }
  }
  // The patches must actually keep interns, not just drop them safely.
  EXPECT_GT(kept, rewrites / 3);
}

TEST(RewriteEquivalence, HairpinTagRewritesKeepTheIntern) {
  // The HARMLESS hairpin: tag toward the trunk, pop toward SS_2, push
  // back, retag, pop toward the host — one parse for the whole trip.
  util::Rng rng(3);
  net::Packet packet = net::make_udp(random_flow(rng), 128);
  (void)openflow::cached_field_view(packet, 1);
  net::PacketParse::reset_parses();
  net::vlan_push(packet, net::VlanTag{101, 0, false});
  expect_intern_exact(packet, 2, "push");
  ASSERT_TRUE(net::vlan_pop(packet));
  expect_intern_exact(packet, 3, "pop");
  net::vlan_push(packet, net::VlanTag{0, 0, false});
  ASSERT_TRUE(net::vlan_set_vid(packet, 102));
  expect_intern_exact(packet, 4, "set_vid");
  ASSERT_TRUE(net::vlan_pop(packet));
  expect_intern_exact(packet, 5, "pop");
  EXPECT_NE(packet.intern(), nullptr);
  EXPECT_EQ(net::PacketParse::parses(), 0u);
}

TEST(RewriteEquivalence, QinQPopDropsTheIntern) {
  util::Rng rng(5);
  net::Packet packet = net::make_udp(random_flow(rng), 100);
  net::vlan_push(packet.frame(), net::VlanTag{10, 0, false});
  net::vlan_push(packet.frame(), net::VlanTag{20, 0, false});
  ASSERT_EQ(net::parse_cached(packet).parsed.eth_type, 0x8100);
  ASSERT_TRUE(net::vlan_pop(packet));
  EXPECT_EQ(packet.intern(), nullptr);
  EXPECT_EQ(net::parse_cached(packet).parsed.vlan_vid(), 10);
  EXPECT_TRUE(net::parse_cached(packet).parsed.udp);
}

TEST(RewriteEquivalence, L4ChecksumMatchesThePseudoHeaderCopy) {
  util::Rng rng(1071);
  for (int trial = 0; trial < 3000; ++trial) {
    net::Bytes segment(rng.below(trial < 100 ? 8 : 1600));  // odd lengths included
    for (auto& byte : segment) byte = static_cast<std::uint8_t>(rng.next());
    const net::Ipv4Addr src(static_cast<std::uint32_t>(rng.next()));
    const net::Ipv4Addr dst(static_cast<std::uint32_t>(rng.next()));
    const auto proto = rng.chance(0.5) ? net::IpProto::kTcp : net::IpProto::kUdp;
    ASSERT_EQ(net::l4_checksum(src, dst, proto, segment),
              before::l4_checksum(src, dst, proto, segment))
        << "segment of " << segment.size() << " bytes";
    ASSERT_EQ(net::internet_checksum(segment), before::internet_checksum(segment));
  }
}

}  // namespace
}  // namespace harmless
