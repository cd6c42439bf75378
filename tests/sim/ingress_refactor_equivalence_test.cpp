// The ring-buffer RxQueue, the per-core ready bitmap and the
// bitmap-walking FcfsScheduler against the code they replaced.
//
// The parent's deque RxQueue and its three schedulers are kept verbatim
// in `namespace before`. Two ingress models, one per implementation,
// manage their queues the way ServicedNode does: queues are created on
// demand (one per port, or a (port, core) grid under symmetric RSS),
// steered to a core by CoreSpec::core_of, and each core's view is
// rebuilt lazily after the queue array grows. The new model binds each
// queue's ready bit when it creates the queue, as the node does.
//
// Random pushes (under a shared and a per-port bound, so drops happen)
// and random bursts (budgets 1-64) drive both models. Every burst's
// (in_port, packet id) sequence must agree, and so must every queue's
// depth, drops, enqueued and peak depth; the new model's ready bits
// must equal "queue non-empty" after every step. The layouts include
// more than 64 queues per core (two bitmap words), deep backlogs that
// wrap and grow the ring, and new, higher ports arriving while other
// queues hold packets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace harmless::sim {
namespace before {

/// One ingress port's bounded RX queue. Packets are stamped with a
/// node-global arrival sequence number so FCFS can reconstruct the
/// exact shared-FIFO order across queues.
class RxQueue {
 public:
  struct Item {
    std::uint64_t seq;
    net::Packet packet;
  };

  explicit RxQueue(int in_port = 0) : in_port_(in_port) {}

  // Explicitly noexcept moves: deque's move constructor is not noexcept
  // in libstdc++ (the moved-from map is reallocated), and Packet is
  // move-only, so vector growth must be allowed to relocate queues by
  // move rather than falling back to the deleted copy.
  RxQueue(RxQueue&& other) noexcept
      : in_port_(other.in_port_),
        items_(std::move(other.items_)),
        drops_(other.drops_),
        enqueued_(other.enqueued_),
        peak_depth_(other.peak_depth_) {}
  RxQueue& operator=(RxQueue&& other) noexcept {
    in_port_ = other.in_port_;
    items_ = std::move(other.items_);
    drops_ = other.drops_;
    enqueued_ = other.enqueued_;
    peak_depth_ = other.peak_depth_;
    return *this;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t depth() const { return items_.size(); }
  [[nodiscard]] const Item& front() const { return items_.front(); }
  [[nodiscard]] int in_port() const { return in_port_; }

  void push(std::uint64_t seq, net::Packet&& packet) {
    items_.push_back(Item{seq, std::move(packet)});
    ++enqueued_;
    if (items_.size() > peak_depth_) peak_depth_ = items_.size();
  }
  net::Packet pop() {
    net::Packet packet = std::move(items_.front().packet);
    items_.pop_front();
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
  int in_port_;
  std::deque<Item> items_;
  std::uint64_t drops_ = 0;
  std::uint64_t enqueued_ = 0;
  std::size_t peak_depth_ = 0;
};

/// One (in_port, packet) unit of a service burst, in the order the
/// scheduler drained them.
using Burst = std::vector<std::pair<int, net::Packet>>;

/// The pluggable ingress-scheduling API: given one worker core's view
/// of the per-port queues and a packet budget, drain the next burst.
class BurstScheduler {
 public:
  virtual ~BurstScheduler() = default;
  BurstScheduler() = default;
  BurstScheduler(const BurstScheduler&) = delete;
  BurstScheduler& operator=(const BurstScheduler&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Move up to `budget` packets from `queues` into `out` (appended in
  /// service order). `queues` is the calling core's queue view; its
  /// order must be stable across calls (cursor/deficit state indexes
  /// positions in it). Must take exactly min(budget, total backlog)
  /// packets: a scheduler may reorder ports, never idle the datapath
  /// while work is queued (all shipped policies are work-conserving).
  virtual void next_burst(const std::vector<RxQueue*>& queues, std::size_t budget,
                          Burst& out) = 0;
};

/// Global arrival order (lowest sequence stamp first) — the shared
/// FIFO of the pre-refactor datapath, reconstructed across queues.
class FcfsScheduler final : public BurstScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "fcfs"; }
  void next_burst(const std::vector<RxQueue*>& queues, std::size_t budget, Burst& out) override;

 private:
  std::vector<RxQueue*> backlogged_;  // reused scratch, cleared per burst
};

/// One packet per non-empty queue per visit, with a cursor that
/// persists across bursts.
class RoundRobinScheduler final : public BurstScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "rr"; }
  void next_burst(const std::vector<RxQueue*>& queues, std::size_t budget, Burst& out) override;

 private:
  std::size_t cursor_ = 0;
};

/// Byte-quantum deficit round-robin (Shreedhar & Varghese, SIGCOMM
/// '95): every visit banks kDrrQuantumBytes; per-queue deficit counters
/// persist across bursts; a queue that goes empty forfeits its credit,
/// so idle ports cannot bank bandwidth.
class DrrScheduler final : public BurstScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "drr"; }
  void next_burst(const std::vector<RxQueue*>& queues, std::size_t budget, Burst& out) override;

 private:
  std::vector<std::size_t> deficit_;
  std::size_t cursor_ = 0;
  /// True when the previous burst's budget ran out mid-visit: the
  /// cursor queue resumes on its remaining credit without banking a
  /// fresh quantum.
  bool mid_visit_ = false;
};

void FcfsScheduler::next_burst(const std::vector<RxQueue*>& queues, std::size_t budget,
                               Burst& out) {
  // One sweep collects the backlogged queues; the pop loop then only
  // touches those. The common case — a single busy port — drains at
  // deque speed instead of rescanning the whole port array per packet.
  backlogged_.clear();
  for (RxQueue* queue : queues)
    if (!queue->empty()) backlogged_.push_back(queue);
  if (backlogged_.size() == 1) {
    RxQueue& queue = *backlogged_.front();
    while (out.size() < budget && !queue.empty())
      out.emplace_back(queue.in_port(), queue.pop());
    return;
  }
  while (out.size() < budget && !backlogged_.empty()) {
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < backlogged_.size(); ++i)
      if (backlogged_[i]->front().seq < backlogged_[oldest]->front().seq) oldest = i;
    out.emplace_back(backlogged_[oldest]->in_port(), backlogged_[oldest]->pop());
    if (backlogged_[oldest]->empty())
      backlogged_.erase(backlogged_.begin() + static_cast<std::ptrdiff_t>(oldest));
  }
}

void RoundRobinScheduler::next_burst(const std::vector<RxQueue*>& queues, std::size_t budget,
                                     Burst& out) {
  if (queues.empty()) return;
  if (cursor_ >= queues.size()) cursor_ = 0;
  std::size_t empty_streak = 0;
  while (out.size() < budget && empty_streak < queues.size()) {
    RxQueue& queue = *queues[cursor_];
    if (queue.empty()) {
      ++empty_streak;
      cursor_ = (cursor_ + 1) % queues.size();
      continue;
    }
    empty_streak = 0;
    out.emplace_back(queue.in_port(), queue.pop());  // one packet per visit
    cursor_ = (cursor_ + 1) % queues.size();
  }
}

void DrrScheduler::next_burst(const std::vector<RxQueue*>& queues, std::size_t budget,
                              Burst& out) {
  if (queues.empty()) return;
  if (deficit_.size() < queues.size()) deficit_.resize(queues.size(), 0);
  if (cursor_ >= queues.size()) {
    cursor_ = 0;
    mid_visit_ = false;
  }
  std::size_t empty_streak = 0;
  while (out.size() < budget && empty_streak < queues.size()) {
    RxQueue& queue = *queues[cursor_];
    if (queue.empty()) {
      deficit_[cursor_] = 0;  // an idle port forfeits banked credit
      mid_visit_ = false;
      ++empty_streak;
      cursor_ = (cursor_ + 1) % queues.size();
      continue;
    }
    empty_streak = 0;
    if (!mid_visit_) deficit_[cursor_] += kDrrQuantumBytes;
    mid_visit_ = false;
    while (!queue.empty() && out.size() < budget &&
           queue.front().packet.size() <= deficit_[cursor_]) {
      deficit_[cursor_] -= queue.front().packet.size();
      out.emplace_back(queue.in_port(), queue.pop());
    }
    if (queue.empty()) {
      deficit_[cursor_] = 0;
      cursor_ = (cursor_ + 1) % queues.size();
      continue;
    }
    if (out.size() >= budget && queue.front().packet.size() <= deficit_[cursor_]) {
      // The burst budget, not the deficit, ended this visit: resume
      // the same queue on its remaining credit next burst.
      mid_visit_ = true;
      return;
    }
    cursor_ = (cursor_ + 1) % queues.size();
  }
}

std::unique_ptr<BurstScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kRoundRobin: return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kDrr: return std::make_unique<DrrScheduler>();
  }
  return std::make_unique<FcfsScheduler>();
}

}  // namespace before

namespace {

/// What a burst served, comparably: (in_port, packet id) in order.
using Served = std::vector<std::pair<int, std::uint64_t>>;

Served served(const Burst& burst) {
  Served out;
  for (const auto& [in_port, packet] : burst) out.emplace_back(in_port, packet.id());
  return out;
}

/// The parent's queue management: views are vectors of queue pointers,
/// rebuilt after the queue array grows.
struct BeforeIngress {
  struct Core {
    std::unique_ptr<before::BurstScheduler> scheduler;
    std::vector<std::size_t> queue_indices;
    std::vector<before::RxQueue*> view;
  };
  std::vector<before::RxQueue> queues;
  std::vector<Core> cores;
  bool dirty = false;

  BeforeIngress(std::size_t core_count, SchedulerKind kind) : cores(core_count) {
    for (Core& core : cores) core.scheduler = before::make_scheduler(kind);
  }
  void add_queue(int in_port, std::size_t core) {
    cores[core].queue_indices.push_back(queues.size());
    queues.emplace_back(in_port);
    dirty = true;
  }
  Served burst(std::size_t core_index, std::size_t budget) {
    if (dirty) {
      dirty = false;
      for (Core& core : cores) {
        core.view.clear();
        for (const std::size_t index : core.queue_indices) core.view.push_back(&queues[index]);
      }
    }
    Burst out;
    cores[core_index].scheduler->next_burst(cores[core_index].view, budget, out);
    return served(out);
  }
};

/// The new queue management, as ServicedNode does it: each queue's
/// ready bit is bound when the queue is created; the view's pointers
/// are rebuilt lazily after the queue array grows.
struct AfterIngress {
  struct Core {
    std::unique_ptr<BurstScheduler> scheduler;
    std::vector<std::size_t> queue_indices;
    QueueView view;
  };
  std::vector<RxQueue> queues;
  std::vector<Core> cores;
  bool dirty = false;

  AfterIngress(std::size_t core_count, SchedulerKind kind) : cores(core_count) {
    for (Core& core : cores) core.scheduler = make_scheduler(kind);
  }
  void add_queue(int in_port, std::size_t core) {
    Core& owner = cores[core];
    queues.emplace_back(in_port);
    queues.back().bind(owner.view.ready, owner.queue_indices.size());
    owner.queue_indices.push_back(queues.size() - 1);
    dirty = true;
  }
  Served burst(std::size_t core_index, std::size_t budget) {
    if (dirty) {
      dirty = false;
      for (Core& core : cores) {
        core.view.queues.clear();
        for (const std::size_t index : core.queue_indices)
          core.view.queues.push_back(&queues[index]);
      }
    }
    Burst out;
    cores[core_index].scheduler->next_burst(cores[core_index].view, budget, out);
    return served(out);
  }
  /// Every ready bit says whether its queue holds packets.
  void expect_ready_bits_exact(const std::string& where) const {
    for (const Core& core : cores)
      for (std::size_t position = 0; position < core.queue_indices.size(); ++position)
        ASSERT_EQ(core.view.ready.test(position), !queues[core.queue_indices[position]].empty())
            << where << " position " << position;
  }
};

struct Layout {
  std::size_t cores;
  RssPolicy rss;
};

std::string describe(const Layout& layout, SchedulerKind kind, std::uint64_t seed) {
  return std::string(to_string(kind)) + " cores=" + std::to_string(layout.cores) + " rss=" +
         to_string(layout.rss) + " seed=" + std::to_string(seed);
}

/// Drives both models with the same random arrivals and bursts.
class Driver {
 public:
  Driver(Layout layout, SchedulerKind kind, std::size_t capacity, std::size_t port_capacity)
      : layout_(layout),
        spec_{layout.cores, layout.rss},
        before_(layout.cores, kind),
        after_(layout.cores, kind),
        capacity_(capacity),
        port_capacity_(port_capacity) {}

  [[nodiscard]] std::size_t stride() const {
    return layout_.rss == RssPolicy::kSymmetric ? layout_.cores : 1;
  }
  [[nodiscard]] std::size_t total_depth() const { return total_depth_; }

  /// One arrival on `port`, steered to `steer` under the symmetric grid.
  void arrive(std::size_t port, std::size_t steer, std::size_t bytes) {
    const std::size_t stride = this->stride();
    while (after_.queues.size() < (port + 1) * stride) {
      const std::size_t index = after_.queues.size();
      const int in_port = static_cast<int>(index / stride);
      before_.add_queue(in_port, spec_.core_of(index));
      after_.add_queue(in_port, spec_.core_of(index));
    }
    const std::size_t index = port * stride + (stride == 1 ? 0 : steer % stride);
    std::size_t port_depth = 0;
    for (std::size_t q = port * stride; q < (port + 1) * stride; ++q)
      port_depth += after_.queues[q].depth();
    if (total_depth_ >= capacity_ || (port_capacity_ > 0 && port_depth >= port_capacity_)) {
      before_.queues[index].count_drop();
      after_.queues[index].count_drop();
      return;
    }
    net::Packet a{net::Bytes(bytes)};
    net::Packet b{net::Bytes(bytes)};
    a.set_id(next_id_);
    b.set_id(next_id_++);
    before_.queues[index].push(seq_, std::move(a));
    after_.queues[index].push(seq_++, std::move(b));
    ++total_depth_;
  }

  /// One burst on `core`; both models must serve the same packets.
  void burst(std::size_t core, std::size_t budget, const std::string& where) {
    const Served old_burst = before_.burst(core, budget);
    const Served new_burst = after_.burst(core, budget);
    ASSERT_EQ(new_burst, old_burst) << where << " core " << core << " budget " << budget;
    total_depth_ -= new_burst.size();
  }

  void expect_same_queues(const std::string& where) const {
    ASSERT_EQ(after_.queues.size(), before_.queues.size()) << where;
    for (std::size_t q = 0; q < after_.queues.size(); ++q) {
      const RxQueue& now = after_.queues[q];
      const before::RxQueue& then = before_.queues[q];
      ASSERT_EQ(now.in_port(), then.in_port()) << where << " queue " << q;
      ASSERT_EQ(now.depth(), then.depth()) << where << " queue " << q;
      ASSERT_EQ(now.drops(), then.drops()) << where << " queue " << q;
      ASSERT_EQ(now.enqueued(), then.enqueued()) << where << " queue " << q;
      ASSERT_EQ(now.peak_depth(), then.peak_depth()) << where << " queue " << q;
      if (!now.empty()) {
        ASSERT_EQ(now.front().seq, then.front().seq) << where << " queue " << q;
      }
    }
    after_.expect_ready_bits_exact(where);
  }

  [[nodiscard]] std::size_t queue_count() const { return after_.queues.size(); }
  [[nodiscard]] std::size_t max_queues_per_core() const {
    std::size_t most = 0;
    for (const auto& core : after_.cores) most = std::max(most, core.queue_indices.size());
    return most;
  }
  [[nodiscard]] std::uint64_t drops() const {
    std::uint64_t total = 0;
    for (const RxQueue& queue : after_.queues) total += queue.drops();
    return total;
  }
  [[nodiscard]] std::size_t max_peak() const {
    std::size_t most = 0;
    for (const RxQueue& queue : after_.queues) most = std::max(most, queue.peak_depth());
    return most;
  }

 private:
  Layout layout_;
  CoreSpec spec_;
  BeforeIngress before_;
  AfterIngress after_;
  std::size_t capacity_;
  std::size_t port_capacity_;
  std::size_t total_depth_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t next_id_ = 1;
};

const Layout kLayouts[] = {
    {1, RssPolicy::kHash},   {2, RssPolicy::kStride},    {3, RssPolicy::kHash},
    {4, RssPolicy::kStride}, {2, RssPolicy::kSymmetric}, {4, RssPolicy::kSymmetric},
};
const SchedulerKind kKinds[] = {SchedulerKind::kFcfs, SchedulerKind::kRoundRobin,
                                SchedulerKind::kDrr};

TEST(IngressRefactorEquivalence, RandomArrivalsAndBurstsServeTheSamePackets) {
  for (const Layout& layout : kLayouts) {
    for (const SchedulerKind kind : kKinds) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string where = describe(layout, kind, seed);
        util::Rng rng(seed * 7919 + layout.cores * 31 + static_cast<std::uint64_t>(kind));
        // Up to 300 ports: more than 64 queues per core on every layout,
        // so each core's bitmap spans two words or more.
        // Seed 1 lets backlogs grow; seed 2 hits the shared bound and
        // seed 3 the per-port bound, so both drop paths run.
        Driver driver(layout, kind, /*capacity=*/seed == 2 ? 40 : 400,
                      /*port_capacity=*/seed == 3 ? 12 : 0);
        std::size_t ports = 4;
        for (int phase = 0; phase < 60; ++phase) {
          // Alternate arrival-heavy and service-heavy phases: deep
          // backlogs grow rings that earlier service has wrapped.
          const bool filling = phase % 2 == 0;
          if (filling && ports < 300) ports += rng.below(24);  // new, higher ports
          const int steps = 40 + static_cast<int>(rng.below(80));
          for (int step = 0; step < steps; ++step) {
            if (rng.chance(filling ? 0.9 : 0.25)) {
              // Skewed: port 0 is an elephant, ports 1-3 are warm.
              const std::size_t port = rng.chance(0.4)   ? 0
                                       : rng.chance(0.3) ? 1 + rng.below(3)
                                                         : rng.below(ports);
              // Under the symmetric grid most flows steer to core 0.
              driver.arrive(port, rng.chance(0.7) ? 0 : rng.below(8), 60 + rng.below(1455));
            } else {
              // Small bursts while filling let backlogs build up.
              driver.burst(rng.below(layout.cores), 1 + rng.below(filling ? 8 : 64), where);
            }
            if (HasFatalFailure()) return;
          }
          driver.expect_same_queues(where + " phase " + std::to_string(phase));
          if (HasFatalFailure()) return;
        }
        // Drain everything: the models must agree to the last packet.
        while (driver.total_depth() > 0) {
          for (std::size_t core = 0; core < layout.cores; ++core) driver.burst(core, 64, where);
          if (HasFatalFailure()) return;
        }
        driver.expect_same_queues(where + " drained");
        if (HasFatalFailure()) return;
        EXPECT_GT(driver.max_queues_per_core(), 64u) << where;
        if (seed == 1) {
          EXPECT_GT(driver.max_peak(), 16u) << where << ": no ring grew twice";
        } else {
          EXPECT_GT(driver.drops(), 0u) << where << ": the bound never bit";
        }
      }
    }
  }
}

TEST(IngressRefactorEquivalence, GrowthWhileWrappedKeepsFifoOrder) {
  // One port: fill 8, serve 5 (head at slot 5), refill past the ring's
  // end and beyond its size, so the ring doubles while wrapped.
  for (const SchedulerKind kind : kKinds) {
    Driver driver({1, RssPolicy::kHash}, kind, 1024, 0);
    for (int i = 0; i < 8; ++i) driver.arrive(0, 0, 100);
    driver.burst(0, 5, "serve 5");
    for (int i = 0; i < 30; ++i) driver.arrive(0, 0, 100);
    driver.expect_same_queues("grown while wrapped");
    for (int budget : {3, 1, 7, 64}) driver.burst(0, static_cast<std::size_t>(budget), "drain");
    driver.expect_same_queues("drained");
    EXPECT_EQ(driver.total_depth(), 0u);
  }
}

TEST(IngressRefactorEquivalence, NewHigherPortWhileOthersBacklogged) {
  // Ports 0-2 hold packets; a packet on port 130 grows the queue array
  // (relocating every queue) and the bitmap to a third word before the
  // next burst rebuilds the views. FCFS must still serve by arrival.
  for (const Layout& layout : kLayouts) {
    for (const SchedulerKind kind : kKinds) {
      const std::string where = describe(layout, kind, 0);
      Driver driver(layout, kind, 1024, 0);
      for (std::size_t i = 0; i < 9; ++i) driver.arrive(i % 3, i, 200);
      driver.burst(0, 2, where);
      driver.arrive(130, 1, 200);
      driver.arrive(1, 3, 200);
      driver.expect_same_queues(where + " after growth");
      while (driver.total_depth() > 0 && !HasFatalFailure())
        for (std::size_t core = 0; core < layout.cores; ++core) driver.burst(core, 3, where);
      driver.expect_same_queues(where + " drained");
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace harmless::sim
