// ConnTracker refactor equivalence: the tracker that inserts, evicts,
// adopts and demotes through one helper each must behave exactly like
// the tracker it replaced, which had a copy of each body per caller.
//
// The replaced tracker is kept below verbatim (in namespace `before`;
// it shares every value type with the live one). Both run the same
// seeded random sequences of process, classify, expire, checkpoint,
// HA checkpoint cadences, restore, apply_delta, resync, demote_all,
// set_fenced and clear on two replicas that exchange their delta
// streams, with a small table so eviction runs and SNAT/DNAT/plain
// commits mixed.
// A cadence runs as HaAgent runs it, in incremental or full mode: the
// replaced tracker holds checkpoint() + clear_dirty() as its image, the
// live one patches a CtImage through capture(). Each capture's image
// must serialize byte-equal to the held snapshot, with the same entry
// count, and a crash restores the same table from either. Captures land
// between sweeps, so images hold connections past their deadline.
// The replaced tracker keys its tuples in std::unordered_map, so it is
// also the reference for the flat tuple indexes of the live one. A
// second, large-table run fills 1,024-connection tables from wide
// tuple pools between its random steps: the indexes double from 64 to
// 2,048 cells, shift deletions back across the wrap, and are cleared
// while full.
// After every step the test compares the outcome, CtStats, the emitted
// delta logs, next_deadline(), dirty() and snapshot() in slot order
// (checkpoint order depends on slot reuse).
//
// One behaviour changed on purpose and is kept out of the draws: the
// replaced tracker accepted a commit whose reply tuple was another
// connection's original tuple (conntrack_test's
// CommitRefusesAReplyTupleClaimedAsAnOriginal pins the fix).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ip.hpp"
#include "net/l4.hpp"
#include "openflow/conntrack.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {
namespace before {

/// The hash functor the replaced tracker's maps used (conntrack.hpp
/// dropped it with the maps).
struct CtTupleHash {
  std::size_t operator()(const CtTuple& t) const { return static_cast<std::size_t>(t.key_hash()); }
};

// ---- the replaced ConnTracker, verbatim --------------------------------

/// One conntrack shard. Not thread-safe by design — ownership is
/// per-core, like FlowCache.
class ConnTracker {
 public:
  ConnTracker(const CtConfig& config, std::size_t shard_count)
      : config_(config),
        steer_shards_(config.nat_steer_shards != 0 ? config.nat_steer_shards
                                                   : (shard_count != 0 ? shard_count : 1)) {}

  /// Read-only classification for the pipeline prelude: the kCt* bits
  /// Field::kCtState gets for a packet with this tuple right now.
  /// Counts lookups/hits/invalid; never mutates connection state.
  std::uint64_t classify(const CtTuple& tuple, std::uint8_t tcp_flags, sim::SimNanos now);

  /// Execute one `ct` action traversal: create or refresh the entry,
  /// advance TCP state off `tcp_flags`, resolve the NAT translation to
  /// apply to this packet's direction. `spec` carries the action's NAT
  /// request; it only matters at first commit (the stored mapping wins
  /// afterwards).
  CtOutcome process(const CtTuple& tuple, std::uint8_t tcp_flags, sim::SimNanos now,
                    const CtAction& spec);

  /// Kill every connection idle past its deadline. Returns the number
  /// expired. Lazily revalidates wheel buckets (refreshes do not
  /// re-file entries eagerly).
  std::size_t expire(sim::SimNanos now);

  /// Earliest wheel deadline, if any connection is live (may be stale
  /// early — a sweep at that time is then simply a no-op).
  [[nodiscard]] std::optional<sim::SimNanos> next_deadline() const;

  [[nodiscard]] std::size_t size() const { return orig_map_.size(); }
  [[nodiscard]] const CtStats& stats() const { return stats_; }
  [[nodiscard]] const CtConfig& config() const { return config_; }

  /// Stable per-connection snapshot for tests: every live entry,
  /// unordered (callers sort by tuple).
  [[nodiscard]] std::vector<ConnEntry> snapshot() const;

  void clear();

  // --- stateful HA: checkpoint/restore ---

  /// Serialize every still-live connection into a restorable image
  /// (entries already past their deadline are left out). Counts
  /// stats().checkpoints.
  CtSnapshot checkpoint(sim::SimNanos now);

  /// Rebuild connections from a snapshot taken before a crash. Per
  /// entry, in snapshot order:
  ///   * TCP entries that never saw a reply are dropped — a snapshot
  ///     mid-handshake must not resurrect a half-open connection.
  ///   * Entries whose remaining timeout already ran out are dropped.
  ///   * Entries colliding with live state (either tuple, either map)
  ///     are dropped — live state wins over a stale image.
  ///   * Survivors are inserted *unconfirmed*: they classify as before
  ///     (ESTABLISHED for seen_reply entries) but their deadline is
  ///     re-armed at min(remaining, transient timeout) until real
  ///     traffic re-confirms them through `ct`.
  /// The timer wheel is re-filed for every accepted entry.
  CtRestoreResult restore(const CtSnapshot& snapshot, sim::SimNanos now);

  // --- stateful HA: active→standby replication ---

  /// Install the incremental replication stream: the sink fires on
  /// every commit, state advance, and removal. Pass nullptr to stop
  /// publishing. Restore/apply paths never echo into the sink.
  void set_delta_sink(CtDeltaSink sink) { delta_sink_ = std::move(sink); }

  /// Consume one replication event on the standby side: upsert for
  /// kCommit/kUpdate (collisions with live local state are dropped),
  /// removal for kClose. Entries land *confirmed* — freshness comes
  /// from the live stream itself, not from traffic.
  void apply_delta(const CtDelta& delta, sim::SimNanos now);

  /// Takeover hygiene: mark every live entry unconfirmed and clamp its
  /// deadline to the transient timeout, so connections that died while
  /// the replication stream was lagging expire quickly while surviving
  /// flows re-confirm through their own traffic. Returns entries
  /// demoted.
  std::size_t demote_all(sim::SimNanos now);

  // --- stateful HA: fencing + warm failback + dirty tracking ---

  /// Fencing gate: while fenced, process() refuses to commit *new*
  /// connections (NAT allocations included) — the miss path returns
  /// kCtInvalid and counts stats().fenced_rejects. Established entries
  /// keep being served and refreshed, so live flows survive a fencing
  /// window; only state *minting* stops. classify() is unaffected (it
  /// never mutates).
  void set_fenced(bool fenced) { fenced_ = fenced; }
  [[nodiscard]] bool fenced() const { return fenced_; }

  /// Dirty-shard tracking for incremental checkpoints: set by any
  /// mutation (commit/refresh/kill/apply/restore/resync/demote/clear),
  /// cleared only by the checkpointing layer once it has captured an
  /// image. checkpoint() itself does NOT clear — it is also used for
  /// failback streaming, which must not perturb the cadence.
  [[nodiscard]] bool dirty() const { return dirty_; }
  void clear_dirty() { dirty_ = false; }

  /// Warm failback: reconcile this shard against an authoritative
  /// snapshot from the current active. Unlike restore(), the snapshot
  /// *wins* collisions: local entries claiming either tuple of a
  /// snapshot entry are killed, matching connections are updated in
  /// place (confirmed), new ones inserted confirmed, and live entries
  /// the snapshot does not cover are demoted (unconfirmed + transient
  /// deadline) so stale ex-active state ages out fast. Returns the
  /// number of entries upserted.
  std::size_t resync(const CtSnapshot& snapshot, sim::SimNanos now);

 private:
  struct Slot {
    ConnEntry entry;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::uint32_t generation = 0;
    bool live = false;
  };
  static constexpr std::uint32_t kNil = 0xffffffff;

  [[nodiscard]] sim::SimNanos timeout_for(const ConnEntry& entry) const;
  [[nodiscard]] std::uint64_t classify_entry(const Slot& slot, bool reply_dir) const;

  std::uint32_t allocate_slot();
  void kill(std::uint32_t id, bool expired, sim::SimNanos now);
  void emit_delta(CtDelta::Kind kind, const ConnEntry& entry, sim::SimNanos now);
  void lru_touch(std::uint32_t id);
  void lru_unlink(std::uint32_t id);
  void lru_push_front(std::uint32_t id);
  void refresh(Slot& slot, std::uint32_t id, bool reply_dir, std::uint8_t tcp_flags,
               sim::SimNanos now);
  void file_deadline(std::uint32_t id, const Slot& slot);

  /// SNAT external-port allocation with shard affinity: the first port
  /// in [port_min, port_max] (probed from a tuple-derived offset) whose
  /// translated reply tuple (a) hashes to this connection's symmetric
  /// steering shard and (b) is not already claimed in reply_map_.
  [[nodiscard]] std::optional<std::uint16_t> allocate_snat_port(const CtTuple& orig,
                                                                const CtAction& spec) const;

  CtConfig config_;
  std::size_t steer_shards_ = 1;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<CtTuple, std::uint32_t, CtTupleHash> orig_map_;
  std::unordered_map<CtTuple, std::uint32_t, CtTupleHash> reply_map_;
  /// Coarse timer wheel: deadline bucket -> (slot id, generation).
  /// Buckets are swept lazily; a refreshed entry is re-filed when its
  /// stale bucket comes due.
  std::map<sim::SimNanos, std::vector<std::pair<std::uint32_t, std::uint32_t>>> wheel_;
  std::uint32_t lru_head_ = kNil;  // most recently seen
  std::uint32_t lru_tail_ = kNil;  // least recently seen (eviction victim)
  CtStats stats_;
  CtDeltaSink delta_sink_;  // replication stream; null when not an active
  bool fenced_ = false;     // lease lost: no new commits (survives clear())
  bool dirty_ = false;      // mutated since last clear_dirty()
};

namespace {
constexpr std::uint8_t kProtoTcp = static_cast<std::uint8_t>(net::IpProto::kTcp);
}  // namespace

std::uint64_t ConnTracker::classify_entry(const Slot& slot, bool reply_dir) const {
  std::uint64_t bits = kCtTracked;
  if (reply_dir) {
    // A valid reply-direction packet proves bidirectionality, so it is
    // already ESTABLISHED from the classifier's point of view (the
    // entry's seen_reply flips when it traverses a ct action).
    bits |= kCtReply | kCtEstablished;
  } else if (slot.entry.seen_reply) {
    bits |= kCtEstablished;
  }
  return bits;
}

std::uint64_t ConnTracker::classify(const CtTuple& tuple, std::uint8_t tcp_flags,
                                    sim::SimNanos now) {
  ++stats_.lookups;
  if (auto it = orig_map_.find(tuple); it != orig_map_.end()) {
    const Slot& slot = slots_[it->second];
    if (slot.entry.expires_at > now) {
      ++stats_.hits;
      return classify_entry(slot, false);
    }
  }
  if (auto it = reply_map_.find(tuple); it != reply_map_.end()) {
    const Slot& slot = slots_[it->second];
    if (slot.entry.expires_at > now) {
      ++stats_.hits;
      return classify_entry(slot, true);
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
  delta.entry = CtSnapshotEntry{entry.orig, entry.reply, entry.nat, entry.seen_reply,
                                entry.closing,
                                entry.expires_at > now ? entry.expires_at - now : 0};
  ++stats_.deltas_emitted;
  delta_sink_(delta);
}

void ConnTracker::kill(std::uint32_t id, bool /*expired*/, sim::SimNanos now) {
  Slot& slot = slots_[id];
  dirty_ = true;
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
  dirty_ = true;
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
    if (reply_map_.contains(reply)) continue;  // endpoint-dependent uniqueness
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
  if (auto it = orig_map_.find(tuple); it != orig_map_.end()) {
    const std::uint32_t id = it->second;
    if (slots_[id].entry.expires_at <= now) {
      kill(id, true, now);
      ++stats_.expired;
    } else {
      Slot& slot = slots_[id];
      out.state = classify_entry(slot, false);
      refresh(slot, id, false, tcp_flags, now);
      const CtNat& nat = slot.entry.nat;
      if (nat.kind == CtAction::Nat::kSource) {
        out.rewrite = true;
        out.translation.src = true;
        out.translation.src_ip = nat.ip;
        out.translation.src_port = nat.port;
      } else if (nat.kind == CtAction::Nat::kDest) {
        out.rewrite = true;
        out.translation.dst = true;
        out.translation.dst_ip = nat.ip;
        out.translation.dst_port = nat.port;
      }
      return out;
    }
  }
  if (auto it = reply_map_.find(tuple); it != reply_map_.end()) {
    const std::uint32_t id = it->second;
    if (slots_[id].entry.expires_at <= now) {
      kill(id, true, now);
      ++stats_.expired;
    } else {
      Slot& slot = slots_[id];
      out.state = classify_entry(slot, true);
      refresh(slot, id, true, tcp_flags, now);
      const ConnEntry& entry = slot.entry;
      if (entry.nat.kind == CtAction::Nat::kSource) {
        // Un-SNAT: send the reply back to the original inside host.
        out.rewrite = true;
        out.translation.dst = true;
        out.translation.dst_ip = entry.orig.src_ip;
        out.translation.dst_port = entry.orig.src_port;
      } else if (entry.nat.kind == CtAction::Nat::kDest) {
        // Un-DNAT: restore the original (virtual) destination as source.
        out.rewrite = true;
        out.translation.src = true;
        out.translation.src_ip = entry.orig.dst_ip;
        out.translation.src_port = entry.orig.dst_port;
      }
      return out;
    }
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

  CtNat nat{};
  CtTuple reply = tuple.reversed();
  if (spec.nat == CtAction::Nat::kSource) {
    const std::optional<std::uint16_t> port = allocate_snat_port(tuple, spec);
    if (!port) {
      ++stats_.nat_failures;
      out.state |= kCtInvalid;
      return out;
    }
    nat = CtNat{CtAction::Nat::kSource, spec.nat_ip, *port};
    reply = CtTuple{tuple.dst_ip, spec.nat_ip, tuple.dst_port, *port, tuple.proto};
    ++stats_.nat_allocated;
    out.rewrite = true;
    out.translation.src = true;
    out.translation.src_ip = nat.ip;
    out.translation.src_port = nat.port;
  } else if (spec.nat == CtAction::Nat::kDest) {
    const std::uint16_t port = spec.port_min != 0 ? spec.port_min : tuple.dst_port;
    nat = CtNat{CtAction::Nat::kDest, spec.nat_ip, port};
    reply = CtTuple{spec.nat_ip, tuple.src_ip, port, tuple.src_port, tuple.proto};
    if (reply_map_.contains(reply)) {
      ++stats_.nat_failures;
      out.state |= kCtInvalid;
      return out;
    }
    ++stats_.nat_allocated;
    out.rewrite = true;
    out.translation.dst = true;
    out.translation.dst_ip = nat.ip;
    out.translation.dst_port = nat.port;
  } else if (reply_map_.contains(reply)) {
    // Degenerate self-conflict (e.g. a palindromic tuple already
    // tracked the other way): refuse rather than corrupt the maps.
    ++stats_.nat_failures;
    out.state |= kCtInvalid;
    return out;
  }

  if (orig_map_.size() >= config_.max_connections && lru_tail_ != kNil) {
    kill(lru_tail_, false, now);
    ++stats_.evicted;
  }

  const std::uint32_t id = allocate_slot();
  Slot& slot = slots_[id];
  slot.entry = ConnEntry{};
  slot.entry.orig = tuple;
  slot.entry.reply = reply;
  slot.entry.nat = nat;
  slot.entry.last_seen = now;
  slot.entry.packets_orig = 1;
  slot.entry.expires_at = now + timeout_for(slot.entry);
  slot.live = true;
  orig_map_.emplace(tuple, id);
  reply_map_.emplace(reply, id);
  lru_push_front(id);
  file_deadline(id, slot);
  dirty_ = true;
  ++stats_.created;
  out.committed = true;
  emit_delta(CtDelta::Kind::kCommit, slot.entry, now);
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
        kill(id, true, now);
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

void ConnTracker::clear() {
  slots_.clear();
  free_slots_.clear();
  orig_map_.clear();
  reply_map_.clear();
  wheel_.clear();
  lru_head_ = lru_tail_ = kNil;
  dirty_ = true;  // a wiped table differs from its last checkpoint
  // Stats survive a clear — a datapath crash wipes state, not counters.
  // The delta sink and fencing latch survive too: wiring and role,
  // not connection state.
}

CtSnapshot ConnTracker::checkpoint(sim::SimNanos now) {
  CtSnapshot snap;
  snap.taken_at = now;
  snap.entries.reserve(orig_map_.size());
  for (const Slot& slot : slots_) {
    if (!slot.live) continue;
    const ConnEntry& e = slot.entry;
    if (e.expires_at <= now) continue;  // already dead, just unswept
    snap.entries.push_back(CtSnapshotEntry{e.orig, e.reply, e.nat, e.seen_reply, e.closing,
                                           e.expires_at - now});
  }
  ++stats_.checkpoints;
  return snap;
}

CtRestoreResult ConnTracker::restore(const CtSnapshot& snapshot, sim::SimNanos now) {
  CtRestoreResult result;
  for (const CtSnapshotEntry& e : snapshot.entries) {
    // Mid-handshake TCP (never saw a reply): the peer will retransmit
    // its SYN and re-commit cleanly; restoring a half-open entry only
    // risks resurrecting a connection that never completed.
    const bool half_open = e.orig.proto == kProtoTcp && !e.seen_reply;
    const bool collides = orig_map_.contains(e.orig) || reply_map_.contains(e.reply) ||
                          reply_map_.contains(e.orig) || orig_map_.contains(e.reply);
    if (half_open || e.remaining_ns <= 0 || collides ||
        orig_map_.size() >= config_.max_connections) {
      ++result.dropped;
      ++stats_.restore_dropped;
      continue;
    }
    const std::uint32_t id = allocate_slot();
    Slot& slot = slots_[id];
    slot.entry = ConnEntry{};
    slot.entry.orig = e.orig;
    slot.entry.reply = e.reply;
    slot.entry.nat = e.nat;
    slot.entry.seen_reply = e.seen_reply;
    slot.entry.closing = e.closing;
    slot.entry.confirmed = false;  // demoted until traffic re-confirms
    slot.entry.last_seen = now;
    const sim::SimNanos cap = timeout_for(slot.entry);  // transient for TCP
    slot.entry.expires_at = now + (e.remaining_ns < cap ? e.remaining_ns : cap);
    slot.live = true;
    orig_map_.emplace(e.orig, id);
    reply_map_.emplace(e.reply, id);
    lru_push_front(id);
    file_deadline(id, slot);
    dirty_ = true;
    ++result.restored;
    ++stats_.restored;
  }
  return result;
}

// --- active→standby replication -------------------------------------

void ConnTracker::apply_delta(const CtDelta& delta, sim::SimNanos now) {
  ++stats_.deltas_applied;
  const CtSnapshotEntry& e = delta.entry;
  const auto it = orig_map_.find(e.orig);

  if (delta.kind == CtDelta::Kind::kClose) {
    if (it != orig_map_.end() && slots_[it->second].entry.reply == e.reply) {
      kill(it->second, false, now);
    }
    return;
  }

  if (it != orig_map_.end()) {
    // In-place advance of a connection we already mirror. A reply-tuple
    // mismatch means a different connection owns the key: drop rather
    // than corrupt the reverse map.
    Slot& slot = slots_[it->second];
    if (!(slot.entry.reply == e.reply)) return;
    slot.entry.seen_reply = e.seen_reply;
    slot.entry.closing = e.closing;
    slot.entry.nat = e.nat;
    slot.entry.confirmed = true;
    slot.entry.last_seen = now;
    slot.entry.expires_at = now + e.remaining_ns;
    lru_touch(it->second);
    file_deadline(it->second, slot);
    dirty_ = true;
    return;
  }

  // New to this replica (a commit, or an update whose commit was lost):
  // insert, unless it collides with live local state.
  if (e.remaining_ns <= 0 || reply_map_.contains(e.reply) || orig_map_.contains(e.reply) ||
      reply_map_.contains(e.orig)) {
    return;
  }
  if (orig_map_.size() >= config_.max_connections && lru_tail_ != kNil) {
    kill(lru_tail_, false, now);
    ++stats_.evicted;
  }
  const std::uint32_t id = allocate_slot();
  Slot& slot = slots_[id];
  slot.entry = ConnEntry{};
  slot.entry.orig = e.orig;
  slot.entry.reply = e.reply;
  slot.entry.nat = e.nat;
  slot.entry.seen_reply = e.seen_reply;
  slot.entry.closing = e.closing;
  slot.entry.confirmed = true;  // the live stream itself vouches for it
  slot.entry.last_seen = now;
  slot.entry.expires_at = now + e.remaining_ns;
  slot.live = true;
  orig_map_.emplace(e.orig, id);
  reply_map_.emplace(e.reply, id);
  lru_push_front(id);
  file_deadline(id, slot);
  dirty_ = true;
}

std::size_t ConnTracker::demote_all(sim::SimNanos now) {
  std::size_t demoted = 0;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.live) continue;
    slot.entry.confirmed = false;
    const sim::SimNanos cap = now + timeout_for(slot.entry);
    if (slot.entry.expires_at > cap) {
      slot.entry.expires_at = cap;
      file_deadline(id, slot);
    }
    ++demoted;
  }
  if (demoted != 0) dirty_ = true;
  return demoted;
}

std::size_t ConnTracker::resync(const CtSnapshot& snapshot, sim::SimNanos now) {
  std::size_t upserts = 0;
  std::unordered_map<std::uint32_t, bool> covered;  // slot id -> authoritative
  covered.reserve(snapshot.entries.size());

  for (const CtSnapshotEntry& e : snapshot.entries) {
    if (e.remaining_ns <= 0) continue;
    // The snapshot is authoritative: evict any local connection that
    // claims either of this entry's tuples but is not this connection.
    // (kill() may emit a kClose delta; the HA layer's sink is
    // role/fence-gated, so a resyncing box never echoes these out.)
    for (const CtTuple* t : {&e.orig, &e.reply}) {
      if (auto it = orig_map_.find(*t); it != orig_map_.end()) {
        const Slot& s = slots_[it->second];
        if (!(s.entry.orig == e.orig && s.entry.reply == e.reply)) kill(it->second, false, now);
      }
      if (auto it = reply_map_.find(*t); it != reply_map_.end()) {
        const Slot& s = slots_[it->second];
        if (!(s.entry.orig == e.orig && s.entry.reply == e.reply)) kill(it->second, false, now);
      }
    }

    if (auto it = orig_map_.find(e.orig); it != orig_map_.end()) {
      // Same connection survives locally: take the active's view.
      const std::uint32_t id = it->second;
      Slot& slot = slots_[id];
      slot.entry.nat = e.nat;
      slot.entry.seen_reply = e.seen_reply;
      slot.entry.closing = e.closing;
      slot.entry.confirmed = true;
      slot.entry.last_seen = now;
      slot.entry.expires_at = now + e.remaining_ns;
      lru_touch(id);
      file_deadline(id, slot);
      covered.emplace(id, true);
      ++upserts;
      continue;
    }
    if (orig_map_.size() >= config_.max_connections && lru_tail_ != kNil) {
      kill(lru_tail_, false, now);
      ++stats_.evicted;
    }
    const std::uint32_t id = allocate_slot();
    Slot& slot = slots_[id];
    slot.entry = ConnEntry{};
    slot.entry.orig = e.orig;
    slot.entry.reply = e.reply;
    slot.entry.nat = e.nat;
    slot.entry.seen_reply = e.seen_reply;
    slot.entry.closing = e.closing;
    slot.entry.confirmed = true;  // streamed by the live active
    slot.entry.last_seen = now;
    slot.entry.expires_at = now + e.remaining_ns;
    slot.live = true;
    orig_map_.emplace(e.orig, id);
    reply_map_.emplace(e.reply, id);
    lru_push_front(id);
    file_deadline(id, slot);
    covered.emplace(id, true);
    ++upserts;
  }

  // Anything the snapshot did not vouch for is suspect ex-active state:
  // demote it so it either re-confirms through traffic or ages out on
  // the transient timeout.
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.live || covered.contains(id)) continue;
    slot.entry.confirmed = false;
    const sim::SimNanos cap = now + timeout_for(slot.entry);
    if (slot.entry.expires_at > cap) {
      slot.entry.expires_at = cap;
      file_deadline(id, slot);
    }
  }
  dirty_ = true;
  return upserts;
}

}  // namespace before

namespace {

constexpr std::uint8_t kTcp = static_cast<std::uint8_t>(net::IpProto::kTcp);
constexpr std::uint8_t kUdp = static_cast<std::uint8_t>(net::IpProto::kUdp);

constexpr std::uint32_t kNatIp = 0x1e000001;  // SNAT external address
constexpr std::uint32_t kVip = 0x28000001;    // DNAT virtual address
constexpr std::uint16_t kSnatMin = 5000;

/// The table and the tuple pools of one run.
struct Scale {
  CtConfig config;
  std::uint32_t client_ips = 0;
  std::uint16_t client_ports = 0;
  std::uint16_t snat_ports = 0;  // from kSnatMin
  /// Fresh connections committed before every `fill_every` random
  /// steps (0: none, the table only grows through the draws).
  std::size_t fill = 0;
  std::size_t fill_every = 0;
};

Scale small_scale() {
  Scale scale;
  scale.config.max_connections = 8;  // eviction runs constantly
  scale.config.tcp_established_timeout = 60'000;
  scale.config.tcp_transient_timeout = 12'000;
  scale.config.udp_timeout = 25'000;
  scale.config.sweep_interval = 1'000;
  scale.config.nat_steer_shards = 2;  // SNAT steering skips half the ports
  scale.client_ips = 3;
  scale.client_ports = 3;
  scale.snat_ports = 2;  // the range runs dry
  return scale;
}

/// Tables that outgrow the tuple indexes' first 64 cells several times
/// over; timeouts long enough that filled connections outlive a block.
Scale large_scale() {
  Scale scale = small_scale();
  scale.config.max_connections = 1024;
  scale.config.tcp_established_timeout = 60'000'000;
  scale.config.tcp_transient_timeout = 12'000'000;
  scale.config.udp_timeout = 25'000'000;
  scale.client_ips = 64;
  scale.client_ports = 256;
  scale.snat_ports = 32;  // still runs dry per destination
  scale.fill = 1'200;
  scale.fill_every = 600;
  return scale;
}

// ---- field-wise comparisons (the value types have no operator==) ----

void expect_same(const CtSnapshotEntry& a, const CtSnapshotEntry& b) {
  EXPECT_EQ(a.orig, b.orig);
  EXPECT_EQ(a.reply, b.reply);
  EXPECT_EQ(a.nat.kind, b.nat.kind);
  EXPECT_EQ(a.nat.ip, b.nat.ip);
  EXPECT_EQ(a.nat.port, b.nat.port);
  EXPECT_EQ(a.seen_reply, b.seen_reply);
  EXPECT_EQ(a.closing, b.closing);
  EXPECT_EQ(a.remaining_ns, b.remaining_ns);
}

void expect_same(const CtSnapshot& a, const CtSnapshot& b) {
  EXPECT_EQ(a.taken_at, b.taken_at);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) expect_same(a.entries[i], b.entries[i]);
}

void expect_same(const ConnEntry& a, const ConnEntry& b) {
  EXPECT_EQ(a.orig, b.orig);
  EXPECT_EQ(a.reply, b.reply);
  EXPECT_EQ(a.nat.kind, b.nat.kind);
  EXPECT_EQ(a.nat.ip, b.nat.ip);
  EXPECT_EQ(a.nat.port, b.nat.port);
  EXPECT_EQ(a.seen_reply, b.seen_reply);
  EXPECT_EQ(a.closing, b.closing);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.last_seen, b.last_seen);
  EXPECT_EQ(a.expires_at, b.expires_at);
  EXPECT_EQ(a.packets_orig, b.packets_orig);
  EXPECT_EQ(a.packets_reply, b.packets_reply);
}

void expect_same(const CtOutcome& a, const CtOutcome& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.rewrite, b.rewrite);
  EXPECT_EQ(a.translation.src, b.translation.src);
  EXPECT_EQ(a.translation.dst, b.translation.dst);
  EXPECT_EQ(a.translation.src_ip, b.translation.src_ip);
  EXPECT_EQ(a.translation.dst_ip, b.translation.dst_ip);
  EXPECT_EQ(a.translation.src_port, b.translation.src_port);
  EXPECT_EQ(a.translation.dst_port, b.translation.dst_port);
}

void expect_same(const CtStats& a, const CtStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.refreshed, b.refreshed);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.invalid, b.invalid);
  EXPECT_EQ(a.nat_allocated, b.nat_allocated);
  EXPECT_EQ(a.nat_failures, b.nat_failures);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.restored, b.restored);
  EXPECT_EQ(a.restore_dropped, b.restore_dropped);
  EXPECT_EQ(a.deltas_emitted, b.deltas_emitted);
  EXPECT_EQ(a.deltas_applied, b.deltas_applied);
  EXPECT_EQ(a.fenced_rejects, b.fenced_rejects);
}

/// One replica, run twice: by the replaced tracker and by the live one.
/// Each side also holds its HA checkpoint: a snapshot, or an image.
struct Replica {
  explicit Replica(const CtConfig& config) : old_ct(config, 1), new_ct(config, 1) {
    old_ct.set_delta_sink([this](const CtDelta& d) { old_log.push_back(d); });
    new_ct.set_delta_sink([this](const CtDelta& d) { new_log.push_back(d); });
  }

  void expect_in_step() {
    expect_same(old_ct.stats(), new_ct.stats());
    EXPECT_EQ(old_ct.size(), new_ct.size());
    EXPECT_EQ(old_ct.dirty(), new_ct.dirty());
    EXPECT_EQ(old_ct.fenced(), new_ct.fenced());
    EXPECT_EQ(old_ct.next_deadline(), new_ct.next_deadline());
    const std::vector<ConnEntry> a = old_ct.snapshot();
    const std::vector<ConnEntry> b = new_ct.snapshot();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) expect_same(a[i], b[i]);
    ASSERT_EQ(old_log.size(), new_log.size());
    for (; compared < old_log.size(); ++compared) {  // the logs only grow
      EXPECT_EQ(old_log[compared].kind, new_log[compared].kind);
      EXPECT_EQ(old_log[compared].epoch, new_log[compared].epoch);
      expect_same(old_log[compared].entry, new_log[compared].entry);
    }
  }

  before::ConnTracker old_ct;
  ConnTracker new_ct;
  CtSnapshot held;     // the replaced tracker's last checkpoint
  CtImage image;       // the live tracker's patched image
  bool captured = false;
  std::vector<CtDelta> old_log;
  std::vector<CtDelta> new_log;
  std::size_t compared = 0;   // log entries already found equal
  std::size_t forwarded = 0;  // deltas of this replica the peer applied
};

/// Coverage of one seeded run, so a draw that stops reaching a path
/// fails the test instead of passing vacuously.
struct Coverage {
  std::size_t steps = 0;
  std::size_t skipped = 0;  // draws that hit the deliberately changed case
  std::size_t peak_size = 0;  // most connections one tracker held
  std::size_t full_clears = 0;  // clear() draws on a table above half capacity
  std::size_t patched = 0;      // captures that rewrote fewer rows than the image holds
  std::size_t rebuilt = 0;      // captures that rewrote every row of a non-empty image
  std::size_t unswept = 0;      // captures whose image holds connections past their deadline
  std::size_t image_restores = 0;  // crash restores from an image that restored something
};

class RandomRun {
 public:
  RandomRun(std::uint64_t seed, const Scale& scale) : scale_(scale), rng_(seed) {}

  Coverage run(std::size_t steps) {
    Coverage coverage;
    for (std::size_t i = 0; i < steps; ++i) {
      if (scale_.fill != 0 && i % scale_.fill_every == 0) {
        fill(coverage);
        if (::testing::Test::HasFailure()) return coverage;
      }
      now_ += static_cast<sim::SimNanos>(rng_.below(1'500));
      Replica& r = *replicas_[rng_.below(2)];
      Replica& peer = &r == replicas_[0].get() ? *replicas_[1] : *replicas_[0];
      if (!step(r, peer, coverage)) ++coverage.skipped;
      ++coverage.steps;
      for (const auto& replica : replicas_) {
        replica->expect_in_step();
        coverage.peak_size = std::max(coverage.peak_size, replica->new_ct.size());
        if (::testing::Test::HasFailure()) return coverage;
      }
    }
    return coverage;
  }

  [[nodiscard]] const Replica& replica(std::size_t i) const { return *replicas_[i]; }

 private:
  std::uint32_t client_ip() {
    return 0x0a000001 + static_cast<std::uint32_t>(rng_.below(scale_.client_ips));
  }
  std::uint16_t client_port() {
    return static_cast<std::uint16_t>(1000 + rng_.below(scale_.client_ports));
  }
  std::uint32_t server_ip() { return 0x14000001 + static_cast<std::uint32_t>(rng_.below(2)); }
  std::uint16_t server_port() { return rng_.below(2) == 0 ? 80 : 443; }
  std::uint8_t proto() { return rng_.below(4) == 0 ? kUdp : kTcp; }

  std::uint8_t flags() {
    static constexpr std::array<std::uint8_t, 6> kFlags{
        net::kTcpSyn, net::kTcpSyn, net::kTcpAck, net::kTcpSyn | net::kTcpAck,
        net::kTcpFin | net::kTcpAck, net::kTcpRst};
    return kFlags[rng_.below(kFlags.size())];
  }

  /// A client's original-direction tuple, to a server or the VIP.
  CtTuple outbound() {
    const bool to_vip = rng_.below(3) == 0;
    return CtTuple{client_ip(), to_vip ? kVip : server_ip(), client_port(),
                   to_vip ? std::uint16_t{80} : server_port(), proto()};
  }

  CtAction spec() {
    CtAction action;
    switch (rng_.below(3)) {
      case 0: break;  // plain commit
      case 1:
        action.nat = CtAction::Nat::kSource;
        action.nat_ip = kNatIp;
        action.port_min = kSnatMin;
        action.port_max = static_cast<std::uint16_t>(kSnatMin + scale_.snat_ports - 1);
        break;
      default:
        action.nat = CtAction::Nat::kDest;
        action.nat_ip = 0x32000001 + static_cast<std::uint32_t>(rng_.below(2));  // backend
        action.port_min = rng_.below(2) == 0 ? 8080 : 0;  // 0 keeps the destination port
        break;
    }
    return action;
  }

  /// Some tuple a live packet might carry: a fresh outbound one, or
  /// either tuple of a connection the replica holds (or held: the
  /// pick runs before the expiry/kill the step may do).
  CtTuple packet_tuple(const Replica& r) {
    const std::vector<ConnEntry> entries = r.old_ct.snapshot();
    if (entries.empty() || rng_.below(3) == 0) return outbound();
    const ConnEntry& e = entries[rng_.below(entries.size())];
    return rng_.below(2) == 0 ? e.orig : e.reply;
  }

  /// True when process(tuple, ..., spec) could commit a connection
  /// whose reply tuple another connection holds as its original tuple:
  /// the one case the refactor changes on purpose. Conservative: any
  /// held original tuple that the commit's reply could equal counts.
  bool commits_onto_a_claimed_original(const Replica& r, const CtTuple& tuple,
                                       const CtAction& action) const {
    const std::vector<ConnEntry> entries = r.old_ct.snapshot();
    for (const ConnEntry& e : entries) {
      if ((e.orig == tuple || e.reply == tuple) && e.expires_at > now_) return false;  // a hit
    }
    for (const ConnEntry& e : entries) {
      const CtTuple& o = e.orig;
      switch (action.nat) {
        case CtAction::Nat::kNone:
          if (o == tuple.reversed()) return true;
          break;
        case CtAction::Nat::kDest: {
          const std::uint16_t port = action.port_min != 0 ? action.port_min : tuple.dst_port;
          if (o == CtTuple{action.nat_ip, tuple.src_ip, port, tuple.src_port, tuple.proto})
            return true;
          break;
        }
        case CtAction::Nat::kSource:
          if (o.src_ip == tuple.dst_ip && o.dst_ip == action.nat_ip &&
              o.src_port == tuple.dst_port && o.proto == tuple.proto &&
              o.dst_port >= action.port_min && o.dst_port <= action.port_max)
            return true;
          break;
      }
    }
    return false;
  }

  /// A replication record the peer never sent: random kind, tuples
  /// drawn from the same pools (so it collides with live state often).
  CtDelta random_delta(const Replica& r) {
    CtDelta delta;
    delta.kind = static_cast<CtDelta::Kind>(rng_.below(3));
    const CtTuple orig = packet_tuple(r);
    delta.entry.orig = orig;
    delta.entry.reply = rng_.below(4) == 0 ? packet_tuple(r) : orig.reversed();
    delta.entry.seen_reply = rng_.below(2) == 0;
    delta.entry.closing = rng_.below(5) == 0;
    delta.entry.remaining_ns = static_cast<sim::SimNanos>(rng_.below(70'000)) - 5'000;
    return delta;
  }

  /// An image to restore or resync from: a checkpoint either replica
  /// took (maybe stale), or one assembled from random records, which
  /// can repeat a connection or collide with itself.
  CtSnapshot image_for(const Replica& r) {
    if (!saved_.empty() && rng_.below(3) != 0) return saved_[rng_.below(saved_.size())];
    CtSnapshot snap;
    snap.taken_at = now_;
    for (std::uint64_t n = rng_.below(6); n != 0; --n) snap.entries.push_back(random_delta(r).entry);
    return snap;
  }

  /// Unfence both replicas and commit `scale_.fill` fresh outbound
  /// connections, each on a random replica: the tables fill to
  /// capacity and keep evicting.
  void fill(Coverage& coverage) {
    for (const auto& replica : replicas_) {
      replica->old_ct.set_fenced(false);
      replica->new_ct.set_fenced(false);
    }
    for (std::size_t i = 0; i < scale_.fill; ++i) {
      Replica& r = *replicas_[rng_.below(2)];
      const CtTuple tuple = outbound();
      const CtAction action = spec();
      if (commits_onto_a_claimed_original(r, tuple, action)) continue;
      expect_same(r.old_ct.process(tuple, net::kTcpSyn, now_, action),
                  r.new_ct.process(tuple, net::kTcpSyn, now_, action));
    }
    for (const auto& replica : replicas_) {
      replica->expect_in_step();
      coverage.peak_size = std::max(coverage.peak_size, replica->new_ct.size());
    }
  }

  /// One random operation on replica `r`, run on both trackers.
  /// Returns false when the draw was skipped.
  bool step(Replica& r, Replica& peer, Coverage& coverage) {
    const std::uint64_t op = rng_.below(100);
    if (op < 40) {  // a ct traversal
      const CtTuple tuple = packet_tuple(r);
      const CtAction action = spec();
      const std::uint8_t tcp_flags = flags();
      if (commits_onto_a_claimed_original(r, tuple, action)) return false;
      const CtOutcome a = r.old_ct.process(tuple, tcp_flags, now_, action);
      const CtOutcome b = r.new_ct.process(tuple, tcp_flags, now_, action);
      expect_same(a, b);
    } else if (op < 55) {  // the prelude
      const CtTuple tuple = packet_tuple(r);
      const std::uint8_t tcp_flags = flags();
      EXPECT_EQ(r.old_ct.classify(tuple, tcp_flags, now_),
                r.new_ct.classify(tuple, tcp_flags, now_));
    } else if (op < 63) {  // the sweep
      EXPECT_EQ(r.old_ct.expire(now_), r.new_ct.expire(now_));
    } else if (op < 73) {  // replication, mostly the peer's stream
      CtDelta delta;  // a copy: applying may append to the logs
      if (peer.forwarded < peer.old_log.size() && rng_.below(4) != 0) {
        delta = peer.old_log[peer.forwarded++];
      } else {
        delta = random_delta(r);
      }
      r.old_ct.apply_delta(delta, now_);
      r.new_ct.apply_delta(delta, now_);
    } else if (op < 80) {
      if (rng_.below(2) == 0) {  // checkpoint (failback streaming)
        const CtSnapshot a = r.old_ct.checkpoint(now_);
        const CtSnapshot b = r.new_ct.checkpoint(now_);
        expect_same(a, b);
        saved_.push_back(a);
      } else {
        cadence(r, coverage);
      }
    } else if (op < 85) {  // restore after a crash
      if (r.captured && rng_.below(2) == 0) {
        restore_held(r, coverage);
        return true;
      }
      const CtSnapshot snap = image_for(r);
      const CtRestoreResult a = r.old_ct.restore(snap, now_);
      const CtRestoreResult b = r.new_ct.restore(snap, now_);
      EXPECT_EQ(a.restored, b.restored);
      EXPECT_EQ(a.dropped, b.dropped);
    } else if (op < 90) {  // warm failback
      const CtSnapshot snap = image_for(r);
      EXPECT_EQ(r.old_ct.resync(snap, now_), r.new_ct.resync(snap, now_));
    } else if (op < 93) {  // takeover hygiene
      EXPECT_EQ(r.old_ct.demote_all(now_), r.new_ct.demote_all(now_));
    } else if (op < 97) {  // lease lost / regained
      const bool fenced = rng_.below(3) == 0;
      r.old_ct.set_fenced(fenced);
      r.new_ct.set_fenced(fenced);
    } else if (op < 99) {
      cadence(r, coverage);
    } else {  // a datapath crash
      if (2 * r.new_ct.size() > scale_.config.max_connections) ++coverage.full_clears;
      r.old_ct.clear();
      r.new_ct.clear();
    }
    return true;
  }

  /// One HA checkpoint cadence of `r`'s shard, as HaAgent runs it: the
  /// first is full, later ones incremental or full, and an incremental
  /// cadence skips a clean shard, which keeps its image.
  void cadence(Replica& r, Coverage& coverage) {
    const bool incremental = r.captured && rng_.below(4) != 0;
    EXPECT_EQ(r.old_ct.dirty(), r.new_ct.dirty());
    if (incremental && !r.old_ct.dirty()) return;
    r.held = r.old_ct.checkpoint(now_);
    r.old_ct.clear_dirty();
    const std::size_t entries = r.new_ct.capture(r.image, now_, incremental);
    r.captured = true;
    EXPECT_EQ(entries, r.held.entries.size());
    EXPECT_EQ(r.image.snapshot().serialize(), r.held.serialize());
    if (r.image.rows_written() < r.image.rows()) ++coverage.patched;
    if (r.image.rows() != 0 && r.image.rows_written() == r.image.rows()) ++coverage.rebuilt;
    if (entries < r.image.rows()) ++coverage.unswept;
  }

  /// Restore `r` from its held checkpoint, mostly after a crash wiped
  /// its table, sometimes over live state (collisions): the replaced
  /// tracker from its snapshot, the live one from its image's.
  void restore_held(Replica& r, Coverage& coverage) {
    if (rng_.below(4) != 0) {
      r.old_ct.clear();
      r.new_ct.clear();
    }
    const CtRestoreResult a = r.old_ct.restore(r.held, now_);
    const CtRestoreResult b = r.new_ct.restore(r.image.snapshot(), now_);
    EXPECT_EQ(a.restored, b.restored);
    EXPECT_EQ(a.dropped, b.dropped);
    if (b.restored != 0) ++coverage.image_restores;
  }

  Scale scale_;
  util::Rng rng_;
  sim::SimNanos now_ = 0;
  std::array<std::unique_ptr<Replica>, 2> replicas_{std::make_unique<Replica>(scale_.config),
                                                    std::make_unique<Replica>(scale_.config)};
  std::vector<CtSnapshot> saved_;
};

/// Every checkpoint path ran.
void expect_every_capture_ran(const Coverage& coverage) {
  EXPECT_GT(coverage.patched, 0u);
  EXPECT_GT(coverage.rebuilt, 0u);
  EXPECT_GT(coverage.unswept, 0u);
  EXPECT_GT(coverage.image_restores, 0u);
}

/// Every mutation path ran, on the sum of both replicas.
void expect_every_path_ran(const RandomRun& sequence) {
  CtStats total;
  for (std::size_t i = 0; i < 2; ++i) total += sequence.replica(i).new_ct.stats();
  EXPECT_GT(total.created, 0u);
  EXPECT_GT(total.evicted, 0u);
  EXPECT_GT(total.expired, 0u);
  EXPECT_GT(total.nat_allocated, 0u);
  EXPECT_GT(total.nat_failures, 0u);
  EXPECT_GT(total.restored, 0u);
  EXPECT_GT(total.restore_dropped, 0u);
  EXPECT_GT(total.deltas_applied, 0u);
  EXPECT_GT(total.fenced_rejects, 0u);
}

class ConnTrackerRefactorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConnTrackerRefactorEquivalence, RandomSequencesMatchTheReplacedTracker) {
  RandomRun sequence(GetParam(), small_scale());
  const Coverage coverage = sequence.run(4'000);
  ASSERT_FALSE(HasFailure());
  EXPECT_LT(coverage.skipped * 20, coverage.steps);  // < 5% of draws skipped
  expect_every_path_ran(sequence);
  expect_every_capture_ran(coverage);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnTrackerRefactorEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

class ConnTrackerLargeTableEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConnTrackerLargeTableEquivalence, GrownIndexesMatchTheReplacedTracker) {
  const Scale scale = large_scale();
  RandomRun sequence(GetParam(), scale);
  const Coverage coverage = sequence.run(2'400);
  ASSERT_FALSE(HasFailure());
  EXPECT_LT(coverage.skipped * 20, coverage.steps);
  expect_every_path_ran(sequence);
  expect_every_capture_ran(coverage);
  // A full table: the indexes grew from 64 cells to 2,048.
  EXPECT_EQ(coverage.peak_size, scale.config.max_connections);
  EXPECT_GT(coverage.full_clears, 0u);  // clear() ran on a grown index
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnTrackerLargeTableEquivalence,
                         ::testing::Range<std::uint64_t>(1, 5));

}  // namespace
}  // namespace harmless::openflow
