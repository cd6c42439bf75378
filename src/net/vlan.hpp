// net/vlan.hpp — IEEE 802.1Q VLAN tagging.
//
// The 4-byte tag sits between the source MAC and the EtherType:
//   [12..13] TPID = 0x8100
//   [14..15] TCI: PCP(3) | DEI(1) | VID(12)
//
// push/pop/rewrite operate on raw frames and are the primitive HARMLESS
// relies on: the legacy switch pushes the access-port VLAN on ingress,
// SS_1 pops it toward the patch ports and pushes the output port's VLAN
// on the way back. Each has a Packet form as well, which keeps the
// packet's interned parse (net/parse.hpp) exact instead of dropping it,
// so the next hop does not parse the frame again.
#pragma once

#include <cstdint>
#include <optional>

#include "net/bytes.hpp"

namespace harmless::net {

class Packet;

/// 12-bit VLAN identifier. 0 = priority tag (no VLAN), 4095 = reserved.
using VlanId = std::uint16_t;

constexpr VlanId kVlanNone = 0;
constexpr VlanId kVlanMax = 4094;

/// True for usable VLAN ids (1..4094).
constexpr bool vlan_id_valid(VlanId vid) { return vid >= 1 && vid <= kVlanMax; }

struct VlanTag {
  VlanId vid = 0;
  std::uint8_t pcp = 0;  // 802.1p priority, 3 bits
  bool dei = false;      // drop-eligible indicator

  [[nodiscard]] std::uint16_t tci() const {
    return static_cast<std::uint16_t>((pcp & 0x7) << 13) |
           static_cast<std::uint16_t>(dei ? 0x1000 : 0) | (vid & 0x0fff);
  }
  static VlanTag from_tci(std::uint16_t tci) {
    return VlanTag{static_cast<VlanId>(tci & 0x0fff), static_cast<std::uint8_t>(tci >> 13),
                   (tci & 0x1000) != 0};
  }

  friend bool operator==(const VlanTag&, const VlanTag&) = default;
};

/// The outermost tag, if the frame is 802.1Q-tagged. nullopt otherwise
/// (including runt frames).
std::optional<VlanTag> vlan_peek(BytesView frame);

/// Insert a tag after the source MAC. Frame must hold an Ethernet
/// header. Q-in-Q stacking is permitted (new tag becomes outermost).
void vlan_push(Bytes& frame, VlanTag tag);

/// Remove the outermost tag. Returns the removed tag, or nullopt (frame
/// unchanged) if the frame was untagged.
std::optional<VlanTag> vlan_pop(Bytes& frame);

/// Overwrite the VID of the outermost tag in place. Returns false if
/// the frame is untagged.
bool vlan_set_vid(Bytes& frame, VlanId vid);

/// Overwrite the priority (PCP) of the outermost tag in place. Returns
/// false if the frame is untagged.
bool vlan_set_pcp(Bytes& frame, std::uint8_t pcp);

/// The same rewrites on a Packet's frame, patching its interned parse
/// to match: the tag is set or reset, the L4 payload offset moves by 4,
/// and only the cached projection is invalidated. Without an intern,
/// on a frame too short for Ethernet, and where the patch would be
/// wrong — a push onto a tagged frame, a pop exposing an inner 0x8100
/// tag — they drop the intern instead, as a mutable frame() access does.
void vlan_push(Packet& packet, VlanTag tag);
std::optional<VlanTag> vlan_pop(Packet& packet);
bool vlan_set_vid(Packet& packet, VlanId vid);
bool vlan_set_pcp(Packet& packet, std::uint8_t pcp);

}  // namespace harmless::net
