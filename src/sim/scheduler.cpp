#include "sim/scheduler.hpp"

#include <bit>

namespace harmless::sim {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kRoundRobin: return "rr";
    case SchedulerKind::kDrr: return "drr";
  }
  return "?";
}

const char* to_string(RssPolicy policy) {
  switch (policy) {
    case RssPolicy::kHash: return "hash";
    case RssPolicy::kStride: return "stride";
    case RssPolicy::kSymmetric: return "symmetric";
  }
  return "?";
}

std::unique_ptr<BurstScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kRoundRobin: return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kDrr: return std::make_unique<DrrScheduler>();
  }
  return std::make_unique<FcfsScheduler>();
}

void RxQueue::grow() {
  std::vector<Item> ring(ring_.empty() ? 8 : ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i)
    ring[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  ring_ = std::move(ring);
  head_ = 0;
}

void FcfsScheduler::next_burst(const QueueView& view, std::size_t budget, Burst& out) {
  // Each packet goes to the ready queue with the oldest head. A pop
  // that empties a queue clears its bit, so the next walk skips it.
  const std::vector<std::uint64_t>& words = view.ready.words();
  while (out.size() < budget) {
    RxQueue* oldest = nullptr;
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        RxQueue* queue =
            view.queues[(w << 6) + static_cast<std::size_t>(std::countr_zero(bits))];
        if (oldest == nullptr || queue->front().seq < oldest->front().seq) oldest = queue;
      }
    }
    if (oldest == nullptr) return;
    out.emplace_back(oldest->in_port(), oldest->pop());
  }
}

void RoundRobinScheduler::next_burst(const QueueView& view, std::size_t budget, Burst& out) {
  const std::vector<RxQueue*>& queues = view.queues;
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

void DrrScheduler::next_burst(const QueueView& view, std::size_t budget, Burst& out) {
  const std::vector<RxQueue*>& queues = view.queues;
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

}  // namespace harmless::sim
