// net/ip.hpp — IPv4 header (RFC 791 subset: no options, no fragments).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/bytes.hpp"
#include "net/ipv4.hpp"

namespace harmless::net {

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

constexpr std::size_t kIpv4HeaderSize = 20;

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  Ipv4Addr src;
  Ipv4Addr dst;

  /// Parse a 20-byte header from `payload` (bytes after Ethernet/VLAN).
  /// Rejects version != 4, ihl < 5 and checksum mismatches.
  static std::optional<Ipv4Header> parse(BytesView payload);

  /// Serialize a 20-byte header with a freshly computed checksum.
  [[nodiscard]] Bytes serialize() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Ipv4Header&, const Ipv4Header&) = default;
};

/// RFC 1071 internet checksum over an arbitrary byte range.
std::uint16_t internet_checksum(BytesView data);

/// TCP/UDP checksum with the IPv4 pseudo-header, summed in place (no
/// pseudo-header buffer is built or segment copied).
std::uint16_t l4_checksum(Ipv4Addr src, Ipv4Addr dst, IpProto proto, BytesView l4_segment);

}  // namespace harmless::net
