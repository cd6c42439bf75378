#include "sim/scheduler.hpp"

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

}  // namespace harmless::sim
