// net/arp.hpp — ARP for IPv4-over-Ethernet (RFC 826 subset).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/bytes.hpp"
#include "net/ipv4.hpp"
#include "net/mac.hpp"

namespace harmless::net {

enum class ArpOp : std::uint16_t {
  kRequest = 1,
  kReply = 2,
};

struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  MacAddr sender_mac;
  Ipv4Addr sender_ip;
  MacAddr target_mac;  // zero in requests
  Ipv4Addr target_ip;

  /// Parse an ARP payload (the bytes after the Ethernet header).
  /// Validates htype/ptype/hlen/plen for Ethernet/IPv4.
  static std::optional<ArpPacket> parse(BytesView payload);

  /// Serialize the 28-byte ARP payload.
  [[nodiscard]] Bytes serialize() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ArpPacket&, const ArpPacket&) = default;
};

constexpr std::size_t kArpPayloadSize = 28;

}  // namespace harmless::net
