// net/parse.hpp — one-pass full-stack packet parser.
//
// `ParsedPacket` is the flat field view every lookup path consumes: the
// legacy switch reads the VLAN tag and MACs, the OpenFlow pipeline
// matches on all of it. Parsing is strict about lengths but tolerant of
// unknown EtherTypes/protocols (fields stay unset, `l2_valid` alone).
//
// The view holds copies of the fields (not pointers into the frame), so
// a by-value copy stays valid while actions rewrite the frame. An
// interned parse (PacketParse) is kept exact instead: header rewrites
// patch it in place, tag push/pop included.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/arp.hpp"
#include "net/bytes.hpp"
#include "net/ethernet.hpp"
#include "net/ip.hpp"
#include "net/l4.hpp"
#include "net/packet.hpp"
#include "net/vlan.hpp"

namespace harmless::net {

struct ParsedPacket {
  // L2 — always present when l2_valid.
  bool l2_valid = false;
  MacAddr eth_dst;
  MacAddr eth_src;
  /// EtherType after any VLAN tags (the "effective" type).
  std::uint16_t eth_type = 0;

  // Outermost 802.1Q tag, if any.
  std::optional<VlanTag> vlan;

  // ARP (when eth_type == kArp and payload parses).
  std::optional<ArpPacket> arp;

  // IPv4 (when eth_type == kIpv4 and header parses).
  std::optional<Ipv4Header> ipv4;

  // L4 over IPv4.
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::optional<IcmpHeader> icmp;

  /// Byte offset of the L4 payload within the frame (0 when absent);
  /// used by the parental-control app to inspect HTTP request lines.
  std::size_t l4_payload_offset = 0;
  std::size_t l4_payload_size = 0;

  [[nodiscard]] bool has_vlan() const { return vlan.has_value(); }
  [[nodiscard]] VlanId vlan_vid() const { return vlan ? vlan->vid : kVlanNone; }

  /// L4 source/destination ports (TCP or UDP), 0 when neither.
  [[nodiscard]] std::uint16_t src_port() const;
  [[nodiscard]] std::uint16_t dst_port() const;

  /// tcpdump-ish one-liner.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ParsedPacket&, const ParsedPacket&) = default;
};

/// Parse a frame. Never throws; missing/garbled layers simply leave the
/// corresponding optionals empty.
ParsedPacket parse_packet(BytesView frame);

/// Convenience overload.
inline ParsedPacket parse_packet(const Packet& packet) { return parse_packet(packet.frame()); }

/// An interned parse riding on a Packet (Packet::intern()): the
/// ParsedPacket plus one opaque projection slot a higher layer may
/// cache its own flattened view in (openflow keeps its FieldView here
/// without net/ depending on openflow/). Instances recycle through a
/// thread-local pool. A header rewrite patches `parsed` to match the
/// bytes it wrote and invalidates only the projection; where a patch
/// would be wrong it drops the intern, as any other mutable frame()
/// access does, so a cached parse never describes stale bytes.
class PacketParse {
 public:
  ParsedPacket parsed;

  /// Opaque, trivially-copyable projection slot (openflow::FieldView is
  /// the one user). `projection_valid` is reset whenever the parse is
  /// (re)built.
  static constexpr std::size_t kProjectionBytes = 160;
  alignas(16) unsigned char projection[kProjectionBytes];
  bool projection_valid = false;

  /// Pool a released instance (called by Packet when the intern drops).
  static void release(PacketParse* parse);
  /// A pooled (or fresh) instance; parsed/projection state undefined.
  [[nodiscard]] static PacketParse* acquire();

  /// Full parses run by parse_cached() (its cache misses) since the
  /// last reset — the parse-counting fixture, as Packet::frame_copies()
  /// counts clones.
  [[nodiscard]] static std::uint64_t parses();
  static void reset_parses();
};

/// The interned parse of `packet`, parsing (once) on a cache miss. The
/// reference travels with moves and stays valid until the intern is
/// dropped (a mutable frame() access, or a rewrite that cannot patch
/// it) or the packet is destroyed. Repeated calls are O(1) — this is
/// the once-per-packet parse the pipeline, hosts and the legacy switch
/// share.
PacketParse& parse_cached(Packet& packet);

/// Extract the L4 payload of a parsed packet as a string_view into the
/// original frame (empty if none). The frame must outlive the view.
std::string_view l4_payload(const ParsedPacket& parsed, BytesView frame);

}  // namespace harmless::net
