// Full-stack parser tests over built packets, including malformed and
// truncated frames.
#include <gtest/gtest.h>

#include "net/build.hpp"
#include "net/parse.hpp"

namespace harmless::net {
namespace {

FlowKey flow() {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000001);
  key.eth_dst = MacAddr::from_u64(0x020000000002);
  key.ip_src = Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = Ipv4Addr(10, 0, 0, 2);
  key.src_port = 12345;
  key.dst_port = 80;
  return key;
}

TEST(Parse, UdpPacketAllLayers) {
  const Packet packet = make_udp(flow(), 128);
  EXPECT_EQ(packet.size(), 128u);
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.l2_valid);
  EXPECT_EQ(parsed.eth_src, flow().eth_src);
  EXPECT_EQ(parsed.eth_dst, flow().eth_dst);
  EXPECT_FALSE(parsed.has_vlan());
  ASSERT_TRUE(parsed.ipv4);
  EXPECT_EQ(parsed.ipv4->src, flow().ip_src);
  EXPECT_EQ(parsed.ipv4->dst, flow().ip_dst);
  ASSERT_TRUE(parsed.udp);
  EXPECT_EQ(parsed.src_port(), 12345);
  EXPECT_EQ(parsed.dst_port(), 80);
  EXPECT_FALSE(parsed.tcp);
  EXPECT_FALSE(parsed.arp);
}

TEST(Parse, MinimumSizeFramePadsCorrectly) {
  const Packet packet = make_udp(flow(), 10);  // clamped to 60
  EXPECT_EQ(packet.size(), kMinFrameSize);
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.udp);
}

TEST(Parse, TaggedPacketExposesVlanAndInnerLayers) {
  Packet packet = make_udp(flow(), 100);
  vlan_push(packet.frame(), VlanTag{101, 0, false});
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.has_vlan());
  EXPECT_EQ(parsed.vlan_vid(), 101);
  ASSERT_TRUE(parsed.ipv4);  // inner layers still reachable
  EXPECT_EQ(parsed.dst_port(), 80);
  EXPECT_EQ(parsed.eth_type, 0x0800);  // effective type after tag
}

TEST(Parse, ArpRequest) {
  const Packet packet =
      make_arp_request(flow().eth_src, flow().ip_src, flow().ip_dst);
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.arp);
  EXPECT_EQ(parsed.arp->op, ArpOp::kRequest);
  EXPECT_EQ(parsed.eth_dst, MacAddr::broadcast());
  EXPECT_EQ(parsed.arp->target_ip, flow().ip_dst);
}

TEST(Parse, IcmpEcho) {
  const Packet packet = make_icmp_echo(flow(), /*request=*/true, 3, 14);
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.icmp);
  EXPECT_EQ(parsed.icmp->type, IcmpType::kEchoRequest);
  EXPECT_EQ(parsed.icmp->sequence, 14);
}

TEST(Parse, HttpGetPayloadExtractable) {
  const Packet packet = make_http_get(flow(), "example.com", "/index.html");
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.tcp);
  const std::string_view payload = l4_payload(parsed, packet.frame());
  EXPECT_NE(payload.find("GET /index.html HTTP/1.1"), std::string_view::npos);
  EXPECT_NE(payload.find("Host: example.com"), std::string_view::npos);
}

/// Grow an untagged TCP frame's header by `words` 4-byte words of NOP
/// options (IP total_length and header checksum fixed up).
Packet with_tcp_options(Packet packet, std::size_t words, std::uint8_t data_offset = 0) {
  Bytes& frame = packet.frame();
  const std::size_t l3 = kEthHeaderSize;
  const std::size_t l4 = l3 + kIpv4HeaderSize;
  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(l4 + kTcpHeaderSize), words * 4, 0x01);
  std::span<std::uint8_t> bytes(frame.data(), frame.size());
  const std::size_t offset = data_offset != 0 ? data_offset : 5 + words;
  bytes[l4 + 12] = static_cast<std::uint8_t>(offset << 4);
  wr16(bytes, l3 + 2, static_cast<std::uint16_t>(rd16(bytes, l3 + 2) + words * 4));
  wr16(bytes, l3 + 10, 0);
  wr16(bytes, l3 + 10, internet_checksum(BytesView(frame).subspan(l3, kIpv4HeaderSize)));
  return packet;
}

TEST(Parse, TcpOptionsAreNotPayload) {
  // One NOP word, and the 12 bytes every Linux segment carries.
  for (const std::size_t words : {1u, 3u}) {
    const Packet packet = with_tcp_options(make_tcp(flow(), kTcpAck | kTcpPsh, "GET /"), words);
    const ParsedPacket parsed = parse_packet(packet);
    ASSERT_TRUE(parsed.tcp) << words;
    EXPECT_EQ(parsed.dst_port(), 80);
    EXPECT_EQ(l4_payload(parsed, packet.frame()), "GET /") << words;
    EXPECT_EQ(parsed.l4_payload_offset, kEthHeaderSize + kIpv4HeaderSize + 20 + words * 4);
  }
  const Packet http = with_tcp_options(make_http_get(flow(), "example.com", "/"), 3);
  const std::string_view payload = l4_payload(parse_packet(http), http.frame());
  EXPECT_EQ(payload.substr(0, 6), "GET / ");
}

TEST(Parse, TcpHeaderLongerThanItsSegmentIsNotTcp) {
  // The segment holds 20 header bytes + 5 payload bytes; a data offset
  // of 7 words (28 bytes) claims more than that.
  const Packet packet = with_tcp_options(make_tcp(flow(), kTcpAck, "GET /"), 0, 7);
  const ParsedPacket parsed = parse_packet(packet);
  ASSERT_TRUE(parsed.ipv4);
  EXPECT_FALSE(parsed.tcp);
  EXPECT_EQ(parsed.l4_payload_offset, 0u);
  EXPECT_TRUE(l4_payload(parsed, packet.frame()).empty());
  // A data offset that exactly fills the segment is a TCP header with
  // no payload.
  const Packet full = with_tcp_options(make_tcp(flow(), kTcpAck, "12345678"), 0, 7);
  const ParsedPacket full_parsed = parse_packet(full);
  EXPECT_TRUE(full_parsed.tcp);
  EXPECT_EQ(full_parsed.l4_payload_size, 0u);
}

TEST(Parse, TruncatedFramesAreSafe) {
  const Packet packet = make_udp(flow(), 128);
  for (std::size_t keep = 0; keep < packet.size(); keep += 7) {
    Bytes truncated(packet.frame().begin(), packet.frame().begin() + keep);
    const ParsedPacket parsed = parse_packet(truncated);  // must not crash
    if (keep < kEthHeaderSize) {
      EXPECT_FALSE(parsed.l2_valid);
    }
  }
}

TEST(Parse, CorruptIpChecksumDropsL3) {
  Packet packet = make_udp(flow(), 100);
  packet.frame()[kEthHeaderSize + 8] ^= 0x5a;  // mangle TTL
  const ParsedPacket parsed = parse_packet(packet);
  EXPECT_TRUE(parsed.l2_valid);
  EXPECT_FALSE(parsed.ipv4);
  EXPECT_FALSE(parsed.udp);
}

TEST(Parse, UnknownEtherTypeLeavesL3Empty) {
  const Packet packet = make_raw(flow().eth_src, flow().eth_dst, 0x88b5, Bytes(46, 1));
  const ParsedPacket parsed = parse_packet(packet);
  EXPECT_TRUE(parsed.l2_valid);
  EXPECT_EQ(parsed.eth_type, 0x88b5);
  EXPECT_FALSE(parsed.ipv4);
  EXPECT_FALSE(parsed.arp);
}

TEST(Parse, ToStringMentionsLayers) {
  const Packet udp = make_udp(flow(), 64);
  EXPECT_NE(parse_packet(udp).to_string().find("udp"), std::string::npos);
  Packet tagged = make_udp(flow(), 64);
  vlan_push(tagged.frame(), VlanTag{55, 0, false});
  EXPECT_NE(parse_packet(tagged).to_string().find("vlan 55"), std::string::npos);
}

TEST(Parse, HexdumpContainsOffsets) {
  const Packet packet = make_udp(flow(), 64);
  const std::string dump = packet.hexdump();
  EXPECT_NE(dump.find("0000:"), std::string::npos);
  EXPECT_NE(dump.find("0030:"), std::string::npos);
}

TEST(Parse, HexdumpBoundedTruncates) {
  const Packet packet = make_udp(flow(), 256);
  const std::string dump = packet.hexdump(32);
  EXPECT_NE(dump.find("0000:"), std::string::npos);
  EXPECT_EQ(dump.find("0020:"), std::string::npos);  // bytes past the bound are elided
  EXPECT_NE(dump.find("32 of 256 bytes"), std::string::npos);
  // The unbounded form dumps everything and adds no truncation note.
  const std::string full = packet.hexdump();
  EXPECT_NE(full.find("00f0:"), std::string::npos);
  EXPECT_EQ(full.find("bytes)"), std::string::npos);
}

}  // namespace
}  // namespace harmless::net
