// sim/scheduler.hpp — per-port RX queues and the pluggable burst
// scheduler they feed.
//
// A ServicedNode owns one bounded RxQueue per ingress port (the
// software model of a NIC RX ring). Every service burst, a
// BurstScheduler decides which queues the burst drains and in what
// order — the seam where head-of-line blocking across ports is won or
// lost. Three policies ship:
//
//   * Fcfs       — global arrival order across all queues. Bit-exact
//                  with the pre-refactor shared FIFO; the ablation
//                  baseline (and what an unscheduled datapath does).
//   * RoundRobin — packet sweep: one packet per non-empty queue per
//                  visit, cursor persists across bursts.
//   * Drr        — deficit round-robin (Shreedhar & Varghese): each
//                  visited queue banks kDrrQuantumBytes of credit
//                  and sends while its head frame fits; byte-fair
//                  regardless of frame-size mix, so an elephant port
//                  cannot starve a mouse port.
//
// Scheduling state (cursors, deficits) lives in the scheduler object,
// one per worker core; the queues themselves belong to the node. The
// (queue -> burst) hand-off defined here is the unit a worker core
// pulls: a multi-core node (CoreSpec) steers each RX queue to one core
// RSS-style and gives every core its own scheduler instance over its
// own queue subset, so next_burst takes the core's QueueView (a
// stable-ordered vector of queue pointers plus a ready bitmap over its
// positions), not the node's whole array. Per-view state (cursors,
// deficits) indexes positions in that view; a single-core node's view
// is the full array in port order, which keeps the one-core datapath
// bit-exact with the pre-multi-core code.
//
// The modelled NIC polls every queue of the core each burst, and the
// node bills that sweep (`queues_polled()` is the view size). The host
// does not repeat it: each queue flips its ready bit when it fills or
// empties, so FCFS walks only the set bits. RoundRobin and Drr still
// step through every position, because their cursor and credit rules
// are defined over empty queues too.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/hash.hpp"

namespace harmless::sim {

/// One bit per queue of a core's view, set while that queue holds
/// packets. The queues keep it current themselves (RxQueue::bind), so
/// FCFS finds the backlogged queues without visiting the empty ones.
class ReadyBits {
 public:
  /// Make room for bit positions [0, bits); existing bits keep.
  void resize(std::size_t bits) {
    if (words_.size() * 64 < bits) words_.resize((bits + 63) / 64, 0);
  }
  void set(std::size_t position) { words_[position >> 6] |= bit(position); }
  void reset(std::size_t position) { words_[position >> 6] &= ~bit(position); }
  [[nodiscard]] bool test(std::size_t position) const {
    return position >> 6 < words_.size() && (words_[position >> 6] & bit(position)) != 0;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  static std::uint64_t bit(std::size_t position) { return std::uint64_t{1} << (position & 63); }

  std::vector<std::uint64_t> words_;
};

/// One ingress port's bounded RX queue. Packets are stamped with a
/// node-global arrival sequence number so FCFS can reconstruct the
/// exact shared-FIFO order across queues.
///
/// The queue is a power-of-two ring over a vector that doubles when
/// full and never shrinks, so a queue that has reached its high-water
/// depth enqueues and dequeues without allocating. The node's shared
/// bound (`IngressSpec::queue_capacity`) caps the depth, and with it the
/// ring. A queue bound to a core's ReadyBits sets its bit when it goes
/// from empty to non-empty and clears it when it goes back.
class RxQueue {
 public:
  struct Item {
    std::uint64_t seq = 0;
    net::Packet packet;
  };

  explicit RxQueue(int in_port = 0) : in_port_(in_port) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t depth() const { return size_; }
  [[nodiscard]] const Item& front() const { return ring_[head_]; }
  [[nodiscard]] int in_port() const { return in_port_; }

  /// Report this queue's backlog as bit `position` of `ready` from now
  /// on (sets the bit at once when the queue already holds packets).
  void bind(ReadyBits& ready, std::size_t position) {
    ready.resize(position + 1);
    ready_ = &ready;
    position_ = position;
    if (size_ != 0) mark_ready();
  }

  void push(std::uint64_t seq, net::Packet&& packet) {
    if (size_ == ring_.size()) grow();
    Item& slot = ring_[(head_ + size_) & (ring_.size() - 1)];
    slot.seq = seq;
    slot.packet = std::move(packet);
    if (size_++ == 0) mark_ready();
    ++enqueued_;
    if (size_ > peak_depth_) peak_depth_ = size_;
  }
  net::Packet pop() {
    net::Packet packet = std::move(ring_[head_].packet);
    head_ = (head_ + 1) & (ring_.size() - 1);
    if (--size_ == 0) mark_idle();
    return packet;
  }
  void count_drop() { ++drops_; }

  /// Tail drops charged to this port (per-port bound or the shared
  /// bound — either way the arriving port pays).
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t enqueued() const { return enqueued_; }
  /// High-water mark of the queue depth over the run.
  [[nodiscard]] std::size_t peak_depth() const { return peak_depth_; }

 private:
  /// Double the ring (8 slots the first time), unwrapping it so the
  /// head lands at slot 0.
  void grow();
  void mark_ready() {
    if (ready_ != nullptr) ready_->set(position_);
  }
  void mark_idle() {
    if (ready_ != nullptr) ready_->reset(position_);
  }

  int in_port_;
  std::vector<Item> ring_;  // size 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  ReadyBits* ready_ = nullptr;
  std::size_t position_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t enqueued_ = 0;
  std::size_t peak_depth_ = 0;
};

/// One worker core's queues in a stable order, plus the ready bitmap
/// over their positions: bit i is set while `queues[i]` holds packets.
struct QueueView {
  std::vector<RxQueue*> queues;
  ReadyBits ready;
};

/// One (in_port, packet) unit of a service burst, in the order the
/// scheduler drained them.
using Burst = std::vector<std::pair<int, net::Packet>>;

enum class SchedulerKind : std::uint8_t { kFcfs, kRoundRobin, kDrr };
[[nodiscard]] const char* to_string(SchedulerKind kind);

/// Drr: bytes of credit banked per queue visit — one MTU, the classic
/// choice (one full-size frame per round).
constexpr std::size_t kDrrQuantumBytes = 1500;

/// How a multi-core node spreads per-port RX queues over worker cores.
enum class RssPolicy : std::uint8_t {
  /// RSS-style: hash the port id through the shared project mix
  /// (util/hash.hpp — the same mix the flow cache keys with) and take
  /// it modulo the core count. What a NIC's indirection table does.
  kHash,
  /// Stride the ports across cores (port % cores): deterministic exact
  /// balance, the hand-tuned comparison point for the hash policy.
  kStride,
  /// Symmetric per-flow steering for the stateful tier: the node keeps
  /// one RX queue per (port, core) — queue index = port * cores + core
  /// — and steers each *packet* by util::symmetric_flow_hash over its
  /// sorted 5-tuple endpoints, so both directions of a connection land
  /// on the same core (and thus the same conntrack shard). Non-TCP/UDP
  /// traffic falls back to a symmetric hash of the IP (or MAC) pair.
  /// With cores == 1 the queue grid collapses to one queue per port,
  /// bit-exact with the other policies.
  kSymmetric,
};
[[nodiscard]] const char* to_string(RssPolicy policy);

/// Worker-core layout of a ServicedNode: how many run-to-completion
/// cores service the RX queues, and how queues are steered to them.
/// cores == 1 is the single-core datapath (bit-exact with the
/// pre-multi-core code); each core owns its own BurstScheduler
/// instance (and, in SoftSwitch, its own flow-cache shard).
struct CoreSpec {
  /// At least 1 (ServicedNode refuses 0).
  std::size_t cores = 1;
  RssPolicy rss = RssPolicy::kHash;

  /// The steering decision: which core services queue `queue_index`.
  [[nodiscard]] std::size_t core_of(std::size_t queue_index) const {
    // kSymmetric queues form a (port, core) grid — the queue index
    // already encodes its core, which per-packet steering picked; the
    // same modulo is kStride's whole policy.
    if (rss == RssPolicy::kSymmetric || rss == RssPolicy::kStride) return queue_index % cores;
    // Two extra finalizer rounds fold the high bits down: one round of
    // the FNV-style mix barely diffuses a small port id, leaving the
    // low bits (what `% cores` reads) a pure rotation of the id — i.e.
    // stride in disguise. Finalized, the map behaves like a real NIC's
    // indirection table: hash-random spread, visible imbalance
    // included (that honesty is what the stride policy is the
    // counterfactual for).
    std::uint64_t h = util::hash_u64(util::kHashSeed, queue_index);
    h = util::hash_u64(h, h >> 32);
    h = util::hash_u64(h, h >> 32);
    return static_cast<std::size_t>(h) % cores;
  }
};

/// The pluggable ingress-scheduling API: given one worker core's view
/// of the per-port queues and a packet budget, drain the next burst.
class BurstScheduler {
 public:
  virtual ~BurstScheduler() = default;
  BurstScheduler() = default;
  BurstScheduler(const BurstScheduler&) = delete;
  BurstScheduler& operator=(const BurstScheduler&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Move up to `budget` packets from `view` into `out` (appended in
  /// service order). `view` is the calling core's queue view; its
  /// order must be stable across calls (cursor/deficit state indexes
  /// positions in it). Must take exactly min(budget, total backlog)
  /// packets: a scheduler may reorder ports, never idle the datapath
  /// while work is queued (all shipped policies are work-conserving).
  virtual void next_burst(const QueueView& view, std::size_t budget, Burst& out) = 0;
};

/// Global arrival order (lowest sequence stamp first) — the shared
/// FIFO of the pre-refactor datapath, reconstructed across queues.
/// Visits only the queues whose ready bit is set.
class FcfsScheduler final : public BurstScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "fcfs"; }
  void next_burst(const QueueView& view, std::size_t budget, Burst& out) override;
};

/// One packet per non-empty queue per visit, with a cursor that
/// persists across bursts. Sweeps the whole view: the cursor steps
/// over empty queues too.
class RoundRobinScheduler final : public BurstScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "rr"; }
  void next_burst(const QueueView& view, std::size_t budget, Burst& out) override;

 private:
  std::size_t cursor_ = 0;
};

/// Byte-quantum deficit round-robin (Shreedhar & Varghese, SIGCOMM
/// '95): every visit banks kDrrQuantumBytes; per-queue deficit counters
/// persist across bursts; a queue that goes empty forfeits its credit,
/// so idle ports cannot bank bandwidth. Sweeps the whole view: visiting
/// an empty queue is what forfeits its credit.
class DrrScheduler final : public BurstScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "drr"; }
  void next_burst(const QueueView& view, std::size_t budget, Burst& out) override;

 private:
  std::vector<std::size_t> deficit_;
  std::size_t cursor_ = 0;
  /// True when the previous burst's budget ran out mid-visit: the
  /// cursor queue resumes on its remaining credit without banking a
  /// fresh quantum.
  bool mid_visit_ = false;
};

[[nodiscard]] std::unique_ptr<BurstScheduler> make_scheduler(SchedulerKind kind);

/// Ingress configuration of a ServicedNode: queue bounds plus the
/// scheduling policy. `queue_capacity` bounds the sum across all port
/// queues (the shared packet buffer); `port_queue_capacity`, when
/// non-zero, additionally bounds each port's queue — the partitioned
/// buffer that lets a scheduler actually isolate ports (with only the
/// shared bound, an elephant port's backlog crowds out everyone's
/// admissions no matter how fairly service is scheduled).
struct IngressSpec {
  std::size_t queue_capacity = 1024;
  std::size_t port_queue_capacity = 0;
  SchedulerKind scheduler = SchedulerKind::kFcfs;
  /// Worker-core layout: queue -> core steering plus the core count.
  /// Every core gets its own scheduler instance of kind `scheduler`.
  CoreSpec cores{};
};

}  // namespace harmless::sim
