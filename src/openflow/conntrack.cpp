#include "openflow/conntrack.hpp"

#include <algorithm>
#include <atomic>

#include "net/ip.hpp"
#include "net/l4.hpp"

namespace harmless::openflow {

namespace {

constexpr std::uint8_t kProtoTcp = static_cast<std::uint8_t>(net::IpProto::kTcp);

std::uint64_t classify_entry(const ConnEntry& entry, bool reply_dir) {
  std::uint64_t bits = kCtTracked;
  if (reply_dir) {
    // A valid reply-direction packet proves bidirectionality, so it is
    // already ESTABLISHED from the classifier's point of view (the
    // entry's seen_reply flips when it traverses a ct action).
    bits |= kCtReply | kCtEstablished;
  } else if (entry.seen_reply) {
    bits |= kCtEstablished;
  }
  return bits;
}

/// The rewrite a packet of `entry` gets: the stored NAT mapping in the
/// original direction, its inverse on replies (un-SNAT sends the reply
/// back to the inside host, un-DNAT restores the virtual destination as
/// source). Neither flag is set for an untranslated connection.
CtRewrite translation(const ConnEntry& entry, bool reply_dir) {
  CtRewrite t;
  const CtNat& nat = entry.nat;
  if (nat.kind == CtAction::Nat::kSource) {
    if (reply_dir) {
      t.dst = true;
      t.dst_ip = entry.orig.src_ip;
      t.dst_port = entry.orig.src_port;
    } else {
      t.src = true;
      t.src_ip = nat.ip;
      t.src_port = nat.port;
    }
  } else if (nat.kind == CtAction::Nat::kDest) {
    if (reply_dir) {
      t.src = true;
      t.src_ip = entry.orig.dst_ip;
      t.src_port = entry.orig.dst_port;
    } else {
      t.dst = true;
      t.dst_ip = nat.ip;
      t.dst_port = nat.port;
    }
  }
  return t;
}

/// The one ConnEntry -> checkpoint row conversion (images, checkpoints
/// and deltas); the row's deadline is the entry's expires_at.
CtImage::Row to_row(const ConnEntry& entry, std::uint32_t slot) {
  return CtImage::Row{entry.orig, entry.reply, entry.nat, entry.seen_reply, entry.closing, slot};
}

/// A row with deadline `deadline` as carried at `taken_at`:
/// deadline-relative, so the receiver re-arms on its own clock.
CtSnapshotEntry entry_of(const CtImage::Row& row, sim::SimNanos deadline,
                         sim::SimNanos taken_at) {
  return CtSnapshotEntry{row.orig, row.reply, row.nat, row.seen_reply, row.closing,
                         deadline > taken_at ? deadline - taken_at : 0};
}

/// The one CtSnapshotEntry -> ConnEntry conversion: a confirmed entry
/// re-armed at `now`, packet counters zero.
ConnEntry from_image(const CtSnapshotEntry& e, sim::SimNanos now) {
  ConnEntry entry;
  entry.orig = e.orig;
  entry.reply = e.reply;
  entry.nat = e.nat;
  entry.seen_reply = e.seen_reply;
  entry.closing = e.closing;
  entry.last_seen = now;
  entry.expires_at = now + e.remaining_ns;
  return entry;
}

}  // namespace

// --- connection table -----------------------------------------------

std::uint64_t ConnTracker::classify(const CtTuple& tuple, std::uint8_t tcp_flags,
                                    sim::SimNanos now) {
  ++stats_.lookups;
  for (const bool reply_dir : {false, true}) {
    const std::uint32_t id = (reply_dir ? reply_map_ : orig_map_).find(tuple);
    if (id == kNil) continue;
    const ConnEntry& entry = slots_[id].entry;
    if (entry.expires_at > now) {
      ++stats_.hits;
      return classify_entry(entry, reply_dir);
    }
  }
  if (tuple.proto == kProtoTcp && (tcp_flags & net::kTcpSyn) == 0) {
    // Mid-stream TCP with no entry: unclassifiable, never NEW.
    ++stats_.invalid;
    return kCtInvalid;
  }
  return kCtNew;
}

sim::SimNanos ConnTracker::timeout_for(const ConnEntry& entry) const {
  if (entry.orig.proto != kProtoTcp) return config_.udp_timeout;
  // Unconfirmed (restored/demoted) entries get the transient timeout
  // even when seen_reply: real traffic must re-confirm them before the
  // full established idle budget applies.
  if (entry.closing || !entry.seen_reply || !entry.confirmed) return config_.tcp_transient_timeout;
  return config_.tcp_established_timeout;
}

std::uint32_t ConnTracker::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ConnTracker::lru_unlink(std::uint32_t id) {
  Slot& slot = slots_[id];
  if (slot.lru_prev != kNil) slots_[slot.lru_prev].lru_next = slot.lru_next;
  if (slot.lru_next != kNil) slots_[slot.lru_next].lru_prev = slot.lru_prev;
  if (lru_head_ == id) lru_head_ = slot.lru_next;
  if (lru_tail_ == id) lru_tail_ = slot.lru_prev;
  slot.lru_prev = slot.lru_next = kNil;
}

void ConnTracker::lru_push_front(std::uint32_t id) {
  Slot& slot = slots_[id];
  slot.lru_prev = kNil;
  slot.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = id;
  lru_head_ = id;
  if (lru_tail_ == kNil) lru_tail_ = id;
}

void ConnTracker::lru_touch(std::uint32_t id) {
  if (lru_head_ == id) return;
  lru_unlink(id);
  lru_push_front(id);
}

void ConnTracker::file_deadline(std::uint32_t id, const Slot& slot) {
  const sim::SimNanos q = config_.sweep_interval > 0 ? config_.sweep_interval : 1;
  const sim::SimNanos bucket = ((slot.entry.expires_at + q - 1) / q) * q;
  wheel_[bucket].emplace_back(id, slot.generation);
}

void ConnTracker::emit_delta(CtDelta::Kind kind, const ConnEntry& entry, sim::SimNanos now) {
  if (!delta_sink_) return;
  CtDelta delta;
  delta.kind = kind;
  delta.entry = entry_of(to_row(entry, kNil), entry.expires_at, now);
  ++stats_.deltas_emitted;
  delta_sink_(delta);
}

std::uint32_t ConnTracker::insert(const ConnEntry& entry) {
  const std::uint32_t id = allocate_slot();
  Slot& slot = slots_[id];
  slot.entry = entry;
  slot.live = true;
  orig_map_.insert(entry.orig, id);
  reply_map_.insert(entry.reply, id);
  lru_push_front(id);
  file_deadline(id, slot);
  mark(id);
  return id;
}

void ConnTracker::make_room(sim::SimNanos now) {
  if (orig_map_.size() < config_.max_connections || lru_tail_ == kNil) return;
  kill(lru_tail_, now);
  ++stats_.evicted;
}

void ConnTracker::adopt(std::uint32_t id, const CtSnapshotEntry& e, sim::SimNanos now) {
  Slot& slot = slots_[id];
  slot.entry.nat = e.nat;
  slot.entry.seen_reply = e.seen_reply;
  slot.entry.closing = e.closing;
  slot.entry.confirmed = true;  // the live active vouches for it
  slot.entry.last_seen = now;
  slot.entry.expires_at = now + e.remaining_ns;
  lru_touch(id);
  file_deadline(id, slot);
  mark(id);
}

bool ConnTracker::demote(ConnEntry& entry, sim::SimNanos now) const {
  entry.confirmed = false;
  const sim::SimNanos cap = now + timeout_for(entry);
  if (entry.expires_at <= cap) return false;
  entry.expires_at = cap;
  return true;
}

void ConnTracker::kill(std::uint32_t id, sim::SimNanos now) {
  Slot& slot = slots_[id];
  mark(id);
  emit_delta(CtDelta::Kind::kClose, slot.entry, now);
  orig_map_.erase(slot.entry.orig);
  reply_map_.erase(slot.entry.reply);
  lru_unlink(id);
  slot.live = false;
  ++slot.generation;  // invalidates any wheel references
  free_slots_.push_back(id);
}

void ConnTracker::refresh(Slot& slot, std::uint32_t id, bool reply_dir, std::uint8_t tcp_flags,
                          sim::SimNanos now) {
  ConnEntry& entry = slot.entry;
  const bool was_reply = entry.seen_reply;
  const bool was_closing = entry.closing;
  const bool was_confirmed = entry.confirmed;
  entry.confirmed = true;  // real traffic re-confirms a restored entry
  if (reply_dir) {
    entry.seen_reply = true;
    ++entry.packets_reply;
  } else {
    ++entry.packets_orig;
  }
  if (entry.orig.proto == kProtoTcp && (tcp_flags & (net::kTcpFin | net::kTcpRst)) != 0) {
    entry.closing = true;
  }
  entry.last_seen = now;
  entry.expires_at = now + timeout_for(entry);
  lru_touch(id);
  mark(id);
  ++stats_.refreshed;
  // Replicate state *advances* only — per-packet refreshes stay local,
  // so the sync stream scales with connection churn, not with traffic.
  if ((entry.seen_reply && !was_reply) || (entry.closing && !was_closing) || !was_confirmed) {
    emit_delta(CtDelta::Kind::kUpdate, entry, now);
  }
  // The wheel reference filed at creation (or at the last sweep) stays
  // put; the sweep re-files the entry when its stale bucket comes due.
}

std::optional<std::uint16_t> ConnTracker::allocate_snat_port(const CtTuple& orig,
                                                             const CtAction& spec) const {
  if (spec.port_min == 0 || spec.port_max < spec.port_min) return std::nullopt;
  const std::uint32_t range =
      static_cast<std::uint32_t>(spec.port_max - spec.port_min) + 1;
  // Both directions of the translated connection must steer to the
  // shard the *original* direction already landed on (symmetric RSS of
  // the pre-NAT tuple) — otherwise reverse traffic would need
  // cross-core state. The virtual-shard formulation (hash % shards,
  // not "this shard's index") makes the allocation independent of
  // which physical shard runs it, so a single-core run with the same
  // nat_steer_shards reproduces an N-core run's ports exactly.
  const std::uint64_t h = orig.symmetric_hash();
  const std::uint64_t want = h % steer_shards_;
  const std::uint32_t start = static_cast<std::uint32_t>((h >> 17) % range);
  for (std::uint32_t i = 0; i < range; ++i) {
    const std::uint16_t port =
        static_cast<std::uint16_t>(spec.port_min + (start + i) % range);
    const CtTuple reply{orig.dst_ip, spec.nat_ip, orig.dst_port, port, orig.proto};
    if (reply.symmetric_hash() % steer_shards_ != want) continue;
    if (claimed(reply)) continue;  // endpoint-dependent uniqueness
    return port;
  }
  return std::nullopt;
}

CtOutcome ConnTracker::process(const CtTuple& tuple, std::uint8_t tcp_flags, sim::SimNanos now,
                               const CtAction& spec) {
  CtOutcome out;

  // Lazy expiry: an entry past its deadline is dead even if the sweep
  // has not reaped it yet — identical behavior to the classifier
  // prelude, which already treats it as missing.
  for (const bool reply_dir : {false, true}) {
    const std::uint32_t id = (reply_dir ? reply_map_ : orig_map_).find(tuple);
    if (id == kNil) continue;
    Slot& slot = slots_[id];
    if (slot.entry.expires_at <= now) {
      kill(id, now);
      ++stats_.expired;
      continue;
    }
    out.state = classify_entry(slot.entry, reply_dir);
    refresh(slot, id, reply_dir, tcp_flags, now);
    out.translation = translation(slot.entry, reply_dir);
    out.rewrite = out.translation.src || out.translation.dst;
    return out;
  }

  // Miss: commit a new connection. A fenced shard (lease lost) must
  // not mint state — no new entries, no NAT allocations — or a
  // partitioned ex-active and a promoted standby could hand the same
  // external port to two different connections.
  if (fenced_) {
    ++stats_.fenced_rejects;
    out.state = kCtInvalid;
    return out;
  }
  if (tuple.proto == kProtoTcp && (tcp_flags & net::kTcpSyn) == 0) {
    ++stats_.invalid;
    out.state = kCtInvalid;
    return out;
  }
  out.state = kCtNew;

  ConnEntry entry;
  entry.orig = tuple;
  entry.reply = tuple.reversed();
  if (spec.nat == CtAction::Nat::kSource) {
    if (const std::optional<std::uint16_t> port = allocate_snat_port(tuple, spec)) {
      entry.nat = CtNat{CtAction::Nat::kSource, spec.nat_ip, *port};
      entry.reply = CtTuple{tuple.dst_ip, spec.nat_ip, tuple.dst_port, *port, tuple.proto};
    }
  } else if (spec.nat == CtAction::Nat::kDest) {
    const std::uint16_t port = spec.port_min != 0 ? spec.port_min : tuple.dst_port;
    entry.nat = CtNat{CtAction::Nat::kDest, spec.nat_ip, port};
    entry.reply = CtTuple{spec.nat_ip, tuple.src_ip, port, tuple.src_port, tuple.proto};
  }
  // The original tuple missed both maps above. Refuse an exhausted SNAT
  // range (no mapping was stored) and a reply tuple another connection
  // already claims, as its reply or as its original direction (a DNAT
  // target that is a live connection's source), so that one tuple
  // never names two connections.
  if (entry.nat.kind != spec.nat || claimed(entry.reply)) {
    ++stats_.nat_failures;
    out.state |= kCtInvalid;
    return out;
  }
  if (entry.nat.kind != CtAction::Nat::kNone) ++stats_.nat_allocated;
  entry.last_seen = now;
  entry.packets_orig = 1;
  entry.expires_at = now + timeout_for(entry);

  make_room(now);
  insert(entry);
  ++stats_.created;
  out.committed = true;
  out.translation = translation(entry, false);
  out.rewrite = out.translation.src || out.translation.dst;
  emit_delta(CtDelta::Kind::kCommit, entry, now);
  return out;
}

std::size_t ConnTracker::expire(sim::SimNanos now) {
  std::size_t expired = 0;
  while (!wheel_.empty() && wheel_.begin()->first <= now) {
    const auto node = wheel_.extract(wheel_.begin());
    for (const auto& [id, generation] : node.mapped()) {
      Slot& slot = slots_[id];
      if (!slot.live || slot.generation != generation) continue;
      if (slot.entry.expires_at <= now) {
        kill(id, now);
        ++stats_.expired;
        ++expired;
      } else {
        file_deadline(id, slot);  // refreshed since filing: re-file
      }
    }
  }
  return expired;
}

std::optional<sim::SimNanos> ConnTracker::next_deadline() const {
  if (wheel_.empty()) return std::nullopt;
  return wheel_.begin()->first;
}

std::vector<ConnEntry> ConnTracker::snapshot() const {
  std::vector<ConnEntry> out;
  out.reserve(orig_map_.size());
  for (const Slot& slot : slots_) {
    if (slot.live) out.push_back(slot.entry);
  }
  return out;
}

std::uint64_t ConnTracker::next_id() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

void ConnTracker::mark_all() {
  for (const std::uint32_t id : changed_) slots_[id].changed = false;
  changed_.clear();
  all_changed_ = true;
}

void ConnTracker::clear() {
  mark_all();  // a wiped table differs from its last checkpoint
  slots_.clear();
  free_slots_.clear();
  orig_map_.clear();
  reply_map_.clear();
  wheel_.clear();
  lru_head_ = lru_tail_ = kNil;
  // Stats survive a clear — a datapath crash wipes state, not counters.
  // The delta sink and fencing latch survive too: wiring and role,
  // not connection state.
}

// --- checkpoint/restore ---------------------------------------------

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4354534e;  // "CTSN"
constexpr std::uint16_t kSnapshotVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(v >> (b * 8)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (b * 8)));
}
void put_tuple(std::vector<std::uint8_t>& out, const CtTuple& t) {
  put_u32(out, t.src_ip);
  put_u32(out, t.dst_ip);
  put_u16(out, t.src_port);
  put_u16(out, t.dst_port);
  out.push_back(t.proto);
}

struct Reader {
  const std::vector<std::uint8_t>& bytes;
  std::size_t at = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (at + 1 > bytes.size()) return ok = false, 0;
    return bytes[at++];
  }
  std::uint16_t u16() {
    std::uint16_t v = u8();
    return static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(u8()) << 8));
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(u8()) << (b * 8);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(u8()) << (b * 8);
    return v;
  }
  CtTuple tuple() {
    CtTuple t;
    t.src_ip = u32();
    t.dst_ip = u32();
    t.src_port = u16();
    t.dst_port = u16();
    t.proto = u8();
    return t;
  }
};

}  // namespace

std::vector<std::uint8_t> CtSnapshot::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(wire_bytes());
  put_u32(out, kSnapshotMagic);
  put_u16(out, kSnapshotVersion);
  put_u64(out, static_cast<std::uint64_t>(taken_at));
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const CtSnapshotEntry& e : entries) {
    put_tuple(out, e.orig);
    put_tuple(out, e.reply);
    out.push_back(static_cast<std::uint8_t>(e.nat.kind));
    put_u32(out, e.nat.ip);
    put_u16(out, e.nat.port);
    out.push_back(static_cast<std::uint8_t>((e.seen_reply ? 1 : 0) | (e.closing ? 2 : 0)));
    put_u64(out, static_cast<std::uint64_t>(e.remaining_ns));
  }
  return out;
}

std::optional<CtSnapshot> CtSnapshot::parse(const std::vector<std::uint8_t>& bytes) {
  Reader in{bytes};
  if (in.u32() != kSnapshotMagic) return std::nullopt;
  if (in.u16() != kSnapshotVersion) return std::nullopt;
  CtSnapshot snap;
  snap.taken_at = static_cast<sim::SimNanos>(in.u64());
  const std::uint32_t count = in.u32();
  if (!in.ok) return std::nullopt;
  // The count must account for exactly the bytes that follow (no
  // truncation, no trailing garbage) — checked before reserving, so a
  // forged count cannot drive the allocation.
  if (static_cast<std::uint64_t>(count) * kEntryBytes != bytes.size() - in.at) return std::nullopt;
  snap.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CtSnapshotEntry e;
    e.orig = in.tuple();
    e.reply = in.tuple();
    // Unknown NAT kinds and flag bits are refused rather than carried:
    // whatever parses must re-serialize to the same bytes.
    const std::uint8_t nat_kind = in.u8();
    if (nat_kind > static_cast<std::uint8_t>(CtAction::Nat::kDest)) return std::nullopt;
    e.nat.kind = static_cast<CtAction::Nat>(nat_kind);
    e.nat.ip = in.u32();
    e.nat.port = in.u16();
    const std::uint8_t flags = in.u8();
    if ((flags & ~3u) != 0) return std::nullopt;
    e.seen_reply = (flags & 1) != 0;
    e.closing = (flags & 2) != 0;
    e.remaining_ns = static_cast<sim::SimNanos>(in.u64());
    snap.entries.push_back(e);
  }
  return snap;
}

// --- the held checkpoint image -----------------------------------------

void CtImage::reset(std::size_t slots) {
  rows_.clear();
  deadlines_.clear();
  row_of_.assign(slots, kNoRow);
}

void CtImage::put(const Row& row, sim::SimNanos deadline) {
  std::uint32_t& at = row_of_[row.slot];
  if (at == kNoRow) {
    // Grow by an eighth, not by doubling: an image is as large as its
    // table, and a table that grows slowly must not hold twice its rows.
    if (rows_.size() == rows_.capacity()) {
      rows_.reserve(rows_.size() + rows_.size() / 8 + 64);
      deadlines_.reserve(rows_.capacity());
    }
    at = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(row);
    deadlines_.push_back(deadline);
  } else {
    rows_[at] = row;
    deadlines_[at] = deadline;
  }
}

void CtImage::erase(std::uint32_t slot) {
  const std::uint32_t at = row_of_[slot];
  if (at == kNoRow) return;
  row_of_[slot] = kNoRow;
  if (at + 1 != rows_.size()) {
    rows_[at] = rows_.back();
    deadlines_[at] = deadlines_.back();
    row_of_[rows_[at].slot] = at;
  }
  rows_.pop_back();
  deadlines_.pop_back();
}

std::size_t CtImage::live_at(sim::SimNanos now) const {
  return static_cast<std::size_t>(std::count_if(deadlines_.begin(), deadlines_.end(),
                                                [now](sim::SimNanos d) { return d > now; }));
}

CtSnapshot CtImage::snapshot() const {
  CtSnapshot snap;
  snap.taken_at = taken_at_;
  snap.entries.reserve(rows_.size());
  for (const std::uint32_t at : row_of_) {
    if (at == kNoRow) continue;
    // Past its deadline at capture: already dead, just unswept.
    if (deadlines_[at] > taken_at_)
      snap.entries.push_back(entry_of(rows_[at], deadlines_[at], taken_at_));
  }
  return snap;
}

CtSnapshot ConnTracker::checkpoint(sim::SimNanos now) {
  CtSnapshot snap;
  snap.taken_at = now;
  snap.entries.reserve(orig_map_.size());
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    // Past its deadline is already dead, just unswept.
    if (!slot.live || slot.entry.expires_at <= now) continue;
    snap.entries.push_back(entry_of(to_row(slot.entry, id), slot.entry.expires_at, now));
  }
  ++stats_.checkpoints;
  return snap;
}

std::size_t ConnTracker::capture(CtImage& image, sim::SimNanos now, bool incremental) {
  if (incremental && !all_changed_ && image.source_ == id_) {
    if (image.row_of_.size() < slots_.size()) image.row_of_.resize(slots_.size(), CtImage::kNoRow);
    for (const std::uint32_t id : changed_) {
      Slot& slot = slots_[id];
      slot.changed = false;
      if (slot.live) {
        image.put(to_row(slot.entry, id), slot.entry.expires_at);
      } else {
        image.erase(id);
      }
    }
    image.rows_written_ = changed_.size();
  } else {
    for (const std::uint32_t id : changed_) slots_[id].changed = false;
    image.reset(slots_.size());
    image.rows_.reserve(orig_map_.size());
    image.deadlines_.reserve(orig_map_.size());
    for (std::uint32_t id = 0; id < slots_.size(); ++id) {
      const Slot& slot = slots_[id];
      if (slot.live) image.put(to_row(slot.entry, id), slot.entry.expires_at);
    }
    image.rows_written_ = image.rows_.size();
  }
  changed_.clear();
  all_changed_ = false;
  image.source_ = id_;
  image.taken_at_ = now;
  // A table that shrank (a takeover ages out most connections) must not
  // keep its peak row capacity for the rest of the run.
  if (image.rows_.capacity() > 4 * image.rows_.size() + 1024) {
    image.rows_.shrink_to_fit();
    image.deadlines_.shrink_to_fit();
  }
  ++stats_.checkpoints;
  return image.live_at(now);
}

CtRestoreResult ConnTracker::restore(const CtSnapshot& snapshot, sim::SimNanos now) {
  CtRestoreResult result;
  for (const CtSnapshotEntry& e : snapshot.entries) {
    // Mid-handshake TCP (never saw a reply): the peer will retransmit
    // its SYN and re-commit cleanly; restoring a half-open entry only
    // risks resurrecting a connection that never completed. Live state
    // wins over a stale image, and a full table takes no more.
    const bool half_open = e.orig.proto == kProtoTcp && !e.seen_reply;
    if (half_open || e.remaining_ns <= 0 || claimed(e.orig) || claimed(e.reply) ||
        orig_map_.size() >= config_.max_connections) {
      ++result.dropped;
      ++stats_.restore_dropped;
      continue;
    }
    ConnEntry entry = from_image(e, now);
    demote(entry, now);  // unconfirmed until traffic re-confirms
    insert(entry);
    ++result.restored;
    ++stats_.restored;
  }
  if (result.restored != 0) mark_all();
  return result;
}

// --- active→standby replication -------------------------------------

void ConnTracker::apply_delta(const CtDelta& delta, sim::SimNanos now) {
  ++stats_.deltas_applied;
  const CtSnapshotEntry& e = delta.entry;
  if (const std::uint32_t id = orig_map_.find(e.orig); id != kNil) {
    // A connection we already mirror. A reply-tuple mismatch means a
    // different connection owns the key: drop rather than corrupt the
    // reverse map.
    if (!(slots_[id].entry.reply == e.reply)) return;
    if (delta.kind == CtDelta::Kind::kClose) {
      kill(id, now);
    } else {
      adopt(id, e, now);
    }
    return;
  }
  // New to this replica (a commit, or an update whose commit was lost):
  // insert, unless it collides with live local state.
  if (delta.kind == CtDelta::Kind::kClose || e.remaining_ns <= 0 || claimed(e.orig) ||
      claimed(e.reply)) {
    return;
  }
  make_room(now);
  insert(from_image(e, now));
}

std::size_t ConnTracker::demote_all(sim::SimNanos now) {
  std::size_t demoted = 0;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.live) continue;
    if (demote(slot.entry, now)) file_deadline(id, slot);
    ++demoted;
  }
  if (demoted != 0) mark_all();
  return demoted;
}

std::size_t ConnTracker::resync(const CtSnapshot& snapshot, sim::SimNanos now) {
  std::size_t upserts = 0;
  // Slot ids the snapshot vouches for. Each entry inserts at most one
  // new slot, so the flags cover every id the loop can hand out.
  std::vector<bool> covered(slots_.size() + snapshot.entries.size());

  for (const CtSnapshotEntry& e : snapshot.entries) {
    if (e.remaining_ns <= 0) continue;
    // The snapshot is authoritative: evict any local connection that
    // claims either of this entry's tuples but is not this connection.
    // (kill() may emit a kClose delta; the HA layer's sink is
    // role/fence-gated, so a resyncing box never echoes these out.)
    for (const CtTuple* t : {&e.orig, &e.reply}) {
      for (const TupleIndex* map : {&orig_map_, &reply_map_}) {
        const std::uint32_t id = map->find(*t);
        if (id == kNil) continue;
        const ConnEntry& local = slots_[id].entry;
        if (!(local.orig == e.orig && local.reply == e.reply)) kill(id, now);
      }
    }
    // Same connection survives locally: take the active's view.
    if (const std::uint32_t id = orig_map_.find(e.orig); id != kNil) {
      adopt(id, e, now);
      covered[id] = true;
    } else {
      make_room(now);
      covered[insert(from_image(e, now))] = true;
    }
    ++upserts;
  }

  // Anything the snapshot did not vouch for is suspect ex-active state:
  // demote it so it either re-confirms through traffic or ages out on
  // the transient timeout.
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.live || covered[id]) continue;
    if (demote(slot.entry, now)) file_deadline(id, slot);
  }
  mark_all();
  return upserts;
}

}  // namespace harmless::openflow
