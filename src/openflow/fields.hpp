// openflow/fields.hpp — OXM-style match fields and the per-packet
// field view.
//
// A FieldView is the flattened, numeric projection of a parsed packet
// that lookups consume: one u64 slot per field plus a presence bitmap.
// Building it once per pipeline entry (not per table) is the first of
// the ESwitch-style specializations the paper's software switch [9]
// relies on.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/parse.hpp"
#include "util/hash.hpp"

namespace harmless::openflow {

enum class Field : std::uint8_t {
  kInPort = 0,
  kEthDst,
  kEthSrc,
  kEthType,
  kVlanVid,  // OF1.3 semantics: OFPVID_PRESENT(0x1000)|vid when tagged, 0 when untagged
  kVlanPcp,
  kIpProto,
  kIpSrc,
  kIpDst,
  kIpDscp,
  kL4Src,
  kL4Dst,
  kArpOp,
  kIcmpType,
  kTcpFlags,
  kCtState,  // conntrack classification bits; present only when ct is enabled
};

constexpr std::size_t kFieldCount = 16;

/// OFPVID_PRESENT: set in kVlanVid for any tagged frame.
constexpr std::uint64_t kVlanPresent = 0x1000;

/// kCtState bit values (OVS ct_state naming). The conntrack prelude
/// classifies every IPv4 TCP/UDP packet *before* any cache probe and
/// stamps these into the FieldView, so both flow-cache tiers key on
/// the connection state by construction — a NEW→ESTABLISHED transition
/// can never be masked by a stale cached decision.
///   kCtNew:         no entry exists; a `ct` commit would create one.
///   kCtTracked:     an entry exists for the tuple (either direction).
///   kCtEstablished: entry exists and a reply-direction packet was seen.
///   kCtReply:       this packet travels in the entry's reply direction.
///   kCtRelated:     reserved for ALG/related-flow support (never set yet).
///   kCtInvalid:     unclassifiable (e.g. mid-stream TCP with no entry).
constexpr std::uint64_t kCtNew = 0x01;
constexpr std::uint64_t kCtTracked = 0x02;
constexpr std::uint64_t kCtEstablished = 0x04;
constexpr std::uint64_t kCtReply = 0x08;
constexpr std::uint64_t kCtRelated = 0x10;
constexpr std::uint64_t kCtInvalid = 0x20;
constexpr std::uint64_t kCtStateMask = 0x3f;

[[nodiscard]] constexpr std::uint32_t field_bit(Field field) {
  return 1u << static_cast<unsigned>(field);
}

/// Field width in bits (used to derive "exact match" masks).
[[nodiscard]] std::uint64_t field_all_ones(Field field);
[[nodiscard]] const char* field_name(Field field);

/// The shared project mix (util/hash.hpp), under its historical local
/// names: the specialized matcher's shape keys, the flow cache's
/// microflow keys / subtable probes, and RSS ingress steering all key
/// packed values through the same function, so the paths cannot drift.
constexpr std::uint64_t kFieldHashSeed = util::kHashSeed;
[[nodiscard]] constexpr std::uint64_t hash_u64s(std::uint64_t seed, std::uint64_t value) {
  return util::hash_u64(seed, value);
}

/// Accumulates which (field, mask bits) a slow-path traversal actually
/// consulted — the unwildcarding record a learned megaflow cache entry
/// is built from (see openflow/flow_cache.hpp). Once an action rewrites
/// a field, its value no longer depends on the original packet, so
/// later examinations of it are not recorded.
struct FieldUse {
  std::array<std::uint64_t, kFieldCount> masks{};
  std::uint32_t examined = 0;     // fields consulted (value or presence)
  std::uint32_t overwritten = 0;  // fields rewritten by an action so far

  void note(Field field, std::uint64_t mask) {
    const std::uint32_t bit = field_bit(field);
    if ((overwritten & bit) != 0) return;
    examined |= bit;
    masks[static_cast<std::size_t>(field)] |= mask;
  }
  void mark_overwritten(Field field) { overwritten |= field_bit(field); }
};

struct FieldView {
  std::array<std::uint64_t, kFieldCount> values{};
  std::uint32_t present = 0;
  /// When non-null (only during a learning slow-path traversal), every
  /// consultation of the view is recorded here. Matchers that bypass
  /// has()/get() for speed call note() with their precise masks.
  FieldUse* use = nullptr;

  void note(Field field, std::uint64_t mask) const {
    if (use != nullptr) use->note(field, mask);
  }
  [[nodiscard]] bool has(Field field) const {
    note(field, 0);  // presence alone can decide a lookup
    return (present & field_bit(field)) != 0;
  }
  [[nodiscard]] std::uint64_t get(Field field) const {
    note(field, field_all_ones(field));
    return values[static_cast<std::size_t>(field)];
  }
  void set(Field field, std::uint64_t value) {
    values[static_cast<std::size_t>(field)] = value;
    present |= field_bit(field);
  }
};

/// Project a parsed packet (plus its ingress port) into a FieldView.
[[nodiscard]] FieldView build_field_view(const net::ParsedPacket& parsed, std::uint32_t in_port);

/// The interned once-per-hop projection: parse `packet` (or reuse its
/// cached parse), build the FieldView once (or copy it out of the
/// intern's projection slot), then patch kInPort for this lookup. The
/// returned view is an independent by-value copy with `use` unset, so
/// callers record learning exactly as with build_field_view. Header
/// rewrites patch the intern and invalidate only the projection; any
/// other mutable Packet::frame() access drops the whole intern.
[[nodiscard]] FieldView cached_field_view(net::Packet& packet, std::uint32_t in_port);

/// As cached_field_view, but writes into caller-owned storage — the
/// burst path projects straight into its per-burst view array instead
/// of copying a 160-byte return value twice.
void cached_field_view_into(net::Packet& packet, std::uint32_t in_port, FieldView* out);

}  // namespace harmless::openflow
