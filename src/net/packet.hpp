// net/packet.hpp — the unit of work that flows through the simulator.
//
// A Packet owns its frame bytes (ground truth) plus simulator metadata:
// a unique id, the creation timestamp (for end-to-end latency) and an
// accumulated processing-cost account (see sim/ and softswitch/ for who
// charges it). Header mutation goes through the byte-level helpers in
// net/vlan.hpp and net/parse.hpp so the bytes always stay canonical.
//
// Packets are move-only: the fast path (RxQueue -> scheduler burst ->
// pipeline -> emit -> link -> peer handle) moves one handle end to end
// and never copies frame bytes. Duplication is explicit via clone() —
// flood fan-out, group buckets, controller punts — and counted, which
// is what the zero-copy property test asserts against. Frame buffers
// recycle through a thread-local pool on destruction, and a Packet can
// carry an interned parse (net::PacketParse) that header rewrites keep
// exact: the Packet forms of the VLAN helpers (net/vlan.hpp) and
// openflow's set_field patch it in place, and any other non-const
// frame() access drops it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "net/bytes.hpp"

namespace harmless::net {

class PacketParse;

/// Simulated nanoseconds (duplicated from sim/time.hpp to keep net/
/// independent of sim/).
using SimNanos = std::int64_t;

/// Thread-local freelist of frame buffers: Packet destruction returns
/// its Bytes here, packet builders (net/build.cpp) draw from it, so a
/// steady-state simulation stops allocating frame storage entirely.
class FramePool {
 public:
  /// An empty buffer, with recycled capacity when available.
  [[nodiscard]] static Bytes acquire();
  /// Return a buffer (cleared and kept, or dropped when the pool is
  /// full). Zero-capacity buffers are ignored.
  static void release(Bytes&& frame);
  /// Buffers currently pooled (test/bench introspection).
  [[nodiscard]] static std::size_t pooled();
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes frame) : frame_(std::move(frame)) {}

  Packet(Packet&& other) noexcept
      : frame_(std::move(other.frame_)),
        id_(other.id_),
        created_at_(other.created_at_),
        processing_ns_(other.processing_ns_),
        hops_(other.hops_),
        intern_(std::exchange(other.intern_, nullptr)) {}

  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      recycle();
      frame_ = std::move(other.frame_);
      id_ = other.id_;
      created_at_ = other.created_at_;
      processing_ns_ = other.processing_ns_;
      hops_ = other.hops_;
      intern_ = std::exchange(other.intern_, nullptr);
    }
    return *this;
  }

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  ~Packet() { recycle(); }

  /// Explicit deep copy: fresh (pooled) frame storage, same metadata,
  /// no interned parse. Every call counts toward frame_copies() — the
  /// datapath's fast path must never need one.
  [[nodiscard]] Packet clone() const;

  /// Frame copies performed via clone() since the last reset — the
  /// copy-counting fixture for the zero-copy property test.
  [[nodiscard]] static std::uint64_t frame_copies();
  static void reset_frame_copies();

  [[nodiscard]] const Bytes& frame() const { return frame_; }
  /// Mutable frame access invalidates any interned parse, so a writer
  /// that knows nothing of the intern can never leave it stale.
  [[nodiscard]] Bytes& frame() {
    drop_intern();
    return frame_;
  }
  /// Mutable frame access that keeps the interned parse, for the header
  /// writers that keep it exact themselves (the Packet forms in
  /// net/vlan.hpp, openflow's set_field): each patches intern() to
  /// describe the bytes it wrote.
  [[nodiscard]] Bytes& frame_keeping_intern() { return frame_; }
  [[nodiscard]] std::size_t size() const { return frame_.size(); }

  /// Monotone per-process id, assigned at first call; used to correlate
  /// send/receive events in tests and latency recorders.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  void set_id(std::uint64_t id) { id_ = id; }

  [[nodiscard]] SimNanos created_at() const { return created_at_; }
  void set_created_at(SimNanos t) { created_at_ = t; }

  /// Cumulative simulated processing cost charged by every element the
  /// packet traversed (ns of CPU/ASIC time, distinct from wire time).
  [[nodiscard]] SimNanos processing_ns() const { return processing_ns_; }
  void charge(SimNanos ns) { processing_ns_ += ns; }

  /// Number of switching elements traversed (legacy, SS_1, SS_2...).
  [[nodiscard]] int hops() const { return hops_; }
  void add_hop() { ++hops_; }

  /// The interned parse riding on this packet, if any (owned; see
  /// net/parse.hpp). Travels with moves, never with clones.
  [[nodiscard]] PacketParse* intern() const { return intern_; }
  /// Adopt `parse` (releasing any previous intern back to its pool).
  void set_intern(PacketParse* parse);
  /// Release the interned parse (mutable frame() access, and a rewrite
  /// that cannot patch it, call this). Inline test first: every hand-off
  /// destroys or overwrites a moved-from packet, which holds none.
  void drop_intern() {
    if (intern_ != nullptr) release_intern();
  }

  /// classic "offset: xx xx .. ascii" dump for debugging and examples.
  [[nodiscard]] std::string hexdump() const { return hexdump(frame_.size()); }
  /// Bounded dump: at most `max_bytes` of the frame (callers that log a
  /// prefix must not pay for the whole frame).
  [[nodiscard]] std::string hexdump(std::size_t max_bytes) const;

 private:
  void release_intern();
  void recycle() {
    drop_intern();
    if (frame_.capacity() != 0) FramePool::release(std::move(frame_));
  }

  Bytes frame_;
  std::uint64_t id_ = 0;
  SimNanos created_at_ = 0;
  SimNanos processing_ns_ = 0;
  int hops_ = 0;
  PacketParse* intern_ = nullptr;
};

}  // namespace harmless::net
