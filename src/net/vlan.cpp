#include "net/vlan.hpp"

#include "net/ethernet.hpp"
#include "net/parse.hpp"

namespace harmless::net {

std::optional<VlanTag> vlan_peek(BytesView frame) {
  if (frame.size() < kEthHeaderSize + 4) return std::nullopt;
  if (rd16(frame, 12) != static_cast<std::uint16_t>(EtherType::kVlan)) return std::nullopt;
  return VlanTag::from_tci(rd16(frame, 14));
}

void vlan_push(Bytes& frame, VlanTag tag) {
  // Insert TPID+TCI at offset 12 (after dst+src MAC); the original
  // EtherType slides to offset 16 and becomes the inner type.
  std::uint8_t tag_bytes[4];
  wr16(std::span<std::uint8_t>(tag_bytes, 4), 0, static_cast<std::uint16_t>(EtherType::kVlan));
  wr16(std::span<std::uint8_t>(tag_bytes, 4), 2, tag.tci());
  frame.insert(frame.begin() + 12, tag_bytes, tag_bytes + 4);
}

std::optional<VlanTag> vlan_pop(Bytes& frame) {
  const auto tag = vlan_peek(frame);
  if (!tag) return std::nullopt;
  frame.erase(frame.begin() + 12, frame.begin() + 16);
  return tag;
}

bool vlan_set_vid(Bytes& frame, VlanId vid) {
  if (!vlan_peek(frame)) return false;
  auto tag = VlanTag::from_tci(rd16(frame, 14));
  tag.vid = vid & 0x0fff;
  wr16(std::span<std::uint8_t>(frame.data(), frame.size()), 14, tag.tci());
  return true;
}

bool vlan_set_pcp(Bytes& frame, std::uint8_t pcp) {
  if (!vlan_peek(frame)) return false;
  auto tag = VlanTag::from_tci(rd16(frame, 14));
  tag.pcp = pcp & 0x7;
  wr16(std::span<std::uint8_t>(frame.data(), frame.size()), 14, tag.tci());
  return true;
}

namespace {

constexpr auto kTpid = static_cast<std::uint16_t>(EtherType::kVlan);

/// The intern a tag rewrite may patch: present and describing a full
/// Ethernet header (nullptr otherwise).
PacketParse* patchable_intern(const Packet& packet) {
  PacketParse* intern = packet.intern();
  return intern != nullptr && intern->parsed.l2_valid ? intern : nullptr;
}

}  // namespace

void vlan_push(Packet& packet, VlanTag tag) {
  PacketParse* intern = patchable_intern(packet);
  // An untagged frame keeps its layers: its EtherType becomes the inner
  // type and L3 moves 4 bytes right unchanged. A push onto a tagged
  // frame (or a runt carrying the TPID) makes Q-in-Q: left to a parse.
  if (intern == nullptr || intern->parsed.vlan || intern->parsed.eth_type == kTpid) {
    vlan_push(packet.frame(), tag);
    return;
  }
  vlan_push(packet.frame_keeping_intern(), tag);
  ParsedPacket& parsed = intern->parsed;
  parsed.vlan = VlanTag::from_tci(tag.tci());
  if (parsed.l4_payload_offset != 0) parsed.l4_payload_offset += 4;
  intern->projection_valid = false;
}

std::optional<VlanTag> vlan_pop(Packet& packet) {
  PacketParse* intern = patchable_intern(packet);
  if (intern == nullptr) return vlan_pop(packet.frame());
  ParsedPacket& parsed = intern->parsed;
  if (!parsed.vlan) return std::nullopt;  // untagged (or a runt): nothing to pop
  // Q-in-Q: the inner tag becomes the outer one and the layers under
  // it appear, which only a fresh parse can tell.
  if (parsed.eth_type == kTpid) return vlan_pop(packet.frame());
  const auto tag = vlan_pop(packet.frame_keeping_intern());
  parsed.vlan.reset();
  if (parsed.l4_payload_offset != 0) parsed.l4_payload_offset -= 4;
  intern->projection_valid = false;
  return tag;
}

bool vlan_set_vid(Packet& packet, VlanId vid) {
  PacketParse* intern = patchable_intern(packet);
  if (intern == nullptr) return vlan_set_vid(packet.frame(), vid);
  ParsedPacket& parsed = intern->parsed;
  if (!parsed.vlan) return false;
  vlan_set_vid(packet.frame_keeping_intern(), vid);
  parsed.vlan->vid = vid & 0x0fff;
  intern->projection_valid = false;
  return true;
}

bool vlan_set_pcp(Packet& packet, std::uint8_t pcp) {
  PacketParse* intern = patchable_intern(packet);
  if (intern == nullptr) return vlan_set_pcp(packet.frame(), pcp);
  ParsedPacket& parsed = intern->parsed;
  if (!parsed.vlan) return false;
  vlan_set_pcp(packet.frame_keeping_intern(), pcp);
  parsed.vlan->pcp = pcp & 0x7;
  intern->projection_valid = false;
  return true;
}

}  // namespace harmless::net
