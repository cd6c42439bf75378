#include "net/l4.hpp"

namespace harmless::net {

std::optional<UdpHeader> UdpHeader::parse(BytesView segment) {
  if (segment.size() < kUdpHeaderSize) return std::nullopt;
  UdpHeader header;
  header.src_port = rd16(segment, 0);
  header.dst_port = rd16(segment, 2);
  header.length = rd16(segment, 4);
  if (header.length < kUdpHeaderSize || header.length > segment.size()) return std::nullopt;
  return header;
}

Bytes UdpHeader::serialize(std::uint16_t src_port, std::uint16_t dst_port, BytesView payload,
                           Ipv4Addr ip_src, Ipv4Addr ip_dst) {
  Bytes out;
  out.reserve(kUdpHeaderSize + payload.size());
  put16(out, src_port);
  put16(out, dst_port);
  put16(out, static_cast<std::uint16_t>(kUdpHeaderSize + payload.size()));
  put16(out, 0);  // checksum placeholder
  out.insert(out.end(), payload.begin(), payload.end());
  std::uint16_t checksum = l4_checksum(ip_src, ip_dst, IpProto::kUdp, out);
  if (checksum == 0) checksum = 0xffff;  // RFC 768: 0 means "no checksum"
  wr16(std::span<std::uint8_t>(out.data(), out.size()), 6, checksum);
  return out;
}

std::optional<TcpHeader> TcpHeader::parse(BytesView segment) {
  if (segment.size() < kTcpHeaderSize) return std::nullopt;
  // data_offset counts 32-bit words, options included; a header that
  // claims more bytes than the segment holds is not TCP.
  const std::uint8_t data_offset = segment[12] >> 4;
  if (data_offset < 5 || data_offset * 4u > segment.size()) return std::nullopt;
  TcpHeader header;
  header.src_port = rd16(segment, 0);
  header.dst_port = rd16(segment, 2);
  header.seq = rd32(segment, 4);
  header.ack = rd32(segment, 8);
  header.flags = segment[13];
  header.window = rd16(segment, 14);
  return header;
}

Bytes TcpHeader::serialize(const TcpHeader& header, BytesView payload, Ipv4Addr ip_src,
                           Ipv4Addr ip_dst) {
  Bytes out;
  out.reserve(kTcpHeaderSize + payload.size());
  put16(out, header.src_port);
  put16(out, header.dst_port);
  put32(out, header.seq);
  put32(out, header.ack);
  put8(out, 5 << 4);  // data offset 5 words, no options
  put8(out, header.flags);
  put16(out, header.window);
  put16(out, 0);  // checksum placeholder
  put16(out, 0);  // urgent pointer
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t checksum = l4_checksum(ip_src, ip_dst, IpProto::kTcp, out);
  wr16(std::span<std::uint8_t>(out.data(), out.size()), 16, checksum);
  return out;
}

std::optional<IcmpHeader> IcmpHeader::parse(BytesView segment) {
  if (segment.size() < kIcmpHeaderSize) return std::nullopt;
  const std::uint8_t type = segment[0];
  if (type != 0 && type != 8) return std::nullopt;
  IcmpHeader header;
  header.type = static_cast<IcmpType>(type);
  header.identifier = rd16(segment, 4);
  header.sequence = rd16(segment, 6);
  return header;
}

Bytes IcmpHeader::serialize(const IcmpHeader& header, BytesView payload) {
  Bytes out;
  out.reserve(kIcmpHeaderSize + payload.size());
  put8(out, static_cast<std::uint8_t>(header.type));
  put8(out, 0);   // code
  put16(out, 0);  // checksum placeholder
  put16(out, header.identifier);
  put16(out, header.sequence);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t checksum = internet_checksum(out);
  wr16(std::span<std::uint8_t>(out.data(), out.size()), 2, checksum);
  return out;
}

}  // namespace harmless::net
