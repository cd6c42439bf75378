// net/l4.hpp — UDP, TCP and ICMP headers (minimal but checksummed).
//
// TCP is header-only (no sequencing/state machine): HARMLESS use cases
// match on ports and flags, the simulator's "HTTP" client/server layer
// carries requests in single segments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/bytes.hpp"
#include "net/ip.hpp"

namespace harmless::net {

constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::size_t kTcpHeaderSize = 20;  // without options
constexpr std::size_t kIcmpHeaderSize = 8;

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload

  static std::optional<UdpHeader> parse(BytesView segment);
  /// Serialize header+payload with checksum over the pseudo-header.
  [[nodiscard]] static Bytes serialize(std::uint16_t src_port, std::uint16_t dst_port,
                                       BytesView payload, Ipv4Addr ip_src, Ipv4Addr ip_dst);

  friend bool operator==(const UdpHeader&, const UdpHeader&) = default;
};

/// TCP flag bits (subset).
enum : std::uint8_t {
  kTcpFin = 0x01,
  kTcpSyn = 0x02,
  kTcpRst = 0x04,
  kTcpPsh = 0x08,
  kTcpAck = 0x10,
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;

  /// Rejects a data offset below 5 words or past the segment's end.
  static std::optional<TcpHeader> parse(BytesView segment);
  [[nodiscard]] static Bytes serialize(const TcpHeader& header, BytesView payload,
                                       Ipv4Addr ip_src, Ipv4Addr ip_dst);

  friend bool operator==(const TcpHeader&, const TcpHeader&) = default;
};

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kEchoRequest = 8,
};

struct IcmpHeader {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;

  static std::optional<IcmpHeader> parse(BytesView segment);
  [[nodiscard]] static Bytes serialize(const IcmpHeader& header, BytesView payload);

  friend bool operator==(const IcmpHeader&, const IcmpHeader&) = default;
};

}  // namespace harmless::net
