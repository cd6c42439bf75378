#include "sim/event.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace harmless::sim {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

Engine::Engine(const CalendarConfig& config) : config_(config) {
  config_.bucket_bits = std::min(config_.bucket_bits, 40u);
  config_.bucket_count = round_up_pow2(std::max<std::size_t>(2, config_.bucket_count));
  heads_.assign(config_.bucket_count, kNil);
  occupied_.assign((config_.bucket_count + 63) / 64, 0);
  bucket_mask_ = config_.bucket_count - 1;
}

void Engine::reserve(std::size_t expected_pending) {
  while (fn_chunks_.size() * kChunkSize < expected_pending) {
    fn_chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
  }
  nodes_.reserve(expected_pending);
  free_fns_.reserve(expected_pending);
}

std::uint32_t Engine::grow_slot() {
  const auto slot = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if ((slot >> kChunkShift) == fn_chunks_.size()) {
    fn_chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
  }
  return slot;
}

void Engine::push_calendar(Event event) {
  const std::size_t index = day_of(event.at) & bucket_mask_;
  std::uint32_t& head = heads_[index];
  const std::uint32_t slot = event.fn;
  Node& node = nodes_[slot];
  node.at = event.at;
  node.seq = event.seq;
  ++calendar_size_;
  if (head == kNil) {
    occupied_[index >> 6] |= 1ull << (index & 63);
    node.next = kNil;
    node.tail = slot;
    head = slot;
    return;
  }
  Node& first = nodes_[head];
  Node& last = nodes_[first.tail];
  if (Later{}(node, last)) {
    // The common case: nearly-FIFO keys arrive in order.
    node.next = kNil;
    last.next = slot;
    first.tail = slot;
  } else if (Later{}(first, node)) {
    node.next = head;
    node.tail = first.tail;
    head = slot;
  } else {
    // Between head and tail (an older claimed key, or a migrating
    // overflow event): walk to the last node that precedes it.
    std::uint32_t prev = head;
    while (Later{}(node, nodes_[nodes_[prev].next])) prev = nodes_[prev].next;
    node.next = nodes_[prev].next;
    nodes_[prev].next = slot;
  }
}

void Engine::enqueue(Event event) {
  if (day_of(event.at) < cursor_day_ + config_.bucket_count) {
    push_calendar(event);
  } else {
    // Far-future events append to the staging area unsorted; they are
    // sorted (once) into overflow_sorted_ only when one becomes due.
    // Pre-scheduled arrival streams therefore cost O(1) per event here
    // and one O(n log n) sort at run start, instead of a heap sift per
    // push and another per migration.
    if (overflow_staging_.empty() || Later{}(staging_min_, event)) staging_min_ = event;
    overflow_staging_.push_back(event);
  }
}

const Engine::Event* Engine::overflow_min() const {
  const Event* min = overflow_sorted_.empty() ? nullptr : &overflow_sorted_.back();
  if (!overflow_staging_.empty() && (min == nullptr || Later{}(*min, staging_min_))) {
    min = &staging_min_;
  }
  return min;
}

void Engine::flush_overflow() {
  std::sort(overflow_staging_.begin(), overflow_staging_.end(), Later{});
  const auto mid = static_cast<std::ptrdiff_t>(overflow_sorted_.size());
  overflow_sorted_.insert(overflow_sorted_.end(), overflow_staging_.begin(),
                          overflow_staging_.end());
  std::inplace_merge(overflow_sorted_.begin(), overflow_sorted_.begin() + mid,
                     overflow_sorted_.end(), Later{});
  overflow_staging_.clear();
}

void Engine::migrate_overflow() {
  const std::uint64_t admit_below = cursor_day_ + config_.bucket_count;
  for (;;) {
    const Event* min = overflow_min();
    if (min == nullptr || day_of(min->at) >= admit_below) return;
    if (min == &staging_min_) {
      flush_overflow();
      continue;
    }
    push_calendar(*min);
    overflow_sorted_.pop_back();
  }
}

std::uint32_t* Engine::scan_ring() {
  const std::size_t start = static_cast<std::size_t>(cursor_day_) & bucket_mask_;
  std::size_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  // At most one full lap (plus the masked start word, revisited whole
  // at the end for the wrapped-around low bits).
  for (std::size_t i = 0; i <= occupied_.size(); ++i) {
    if (bits != 0) {
      return &heads_[(word << 6) + static_cast<std::size_t>(std::countr_zero(bits))];
    }
    word = word + 1 == occupied_.size() ? 0 : word + 1;
    bits = occupied_[word];
  }
  return nullptr;  // unreachable while calendar_size_ > 0
}

std::uint32_t* Engine::next_bucket(SimNanos deadline) {
  for (;;) {
    std::uint32_t* ring = calendar_size_ > 0 ? scan_ring() : nullptr;
    if (ring == nullptr) {
      const Event* top = overflow_min();
      if (top == nullptr || top->at > deadline) return nullptr;
      cursor_day_ = std::max(cursor_day_, day_of(top->at));
      migrate_overflow();
      continue;
    }
    const Node& front = nodes_[*ring];
    const Event* top = overflow_min();
    if (top != nullptr && day_of(top->at) <= day_of(front.at)) {
      // The overflow minimum may precede the ring minimum (run_until
      // can leave the window behind newly due overflow; an equal day
      // is settled by the bucket list after migration). Admit, then
      // rescan.
      if (top->at > deadline && front.at > deadline) return nullptr;
      cursor_day_ = std::max(cursor_day_, day_of(top->at));
      migrate_overflow();
      continue;
    }
    if (front.at > deadline) return nullptr;
    cursor_day_ = day_of(front.at);
    return ring;
  }
}

void Engine::dispatch_from(std::uint32_t& head) {
  const std::uint32_t slot = head;
  const Node& node = nodes_[slot];
  head = node.next;
  if (head == kNil) {
    const auto index = static_cast<std::size_t>(&head - heads_.data());
    occupied_[index >> 6] &= ~(1ull << (index & 63));
  } else {
    nodes_[head].tail = node.tail;
  }
  --calendar_size_;
  now_ = node.at;
  const std::uint64_t seq = node.seq;  // nodes_ may grow while fn runs
  ++events_dispatched_;
  // Invoke in place: slab chunks never move, so the closure's address
  // stays valid even when running it schedules more events. The slot is
  // recycled only afterwards, so a reschedule cannot overwrite it.
  EventFn& fn = fn_slot(slot);
  dispatch_seq_ = seq;
  fn();
  dispatch_seq_ = seq + 1;
  fn.reset();
  free_fns_.push_back(slot);
}

bool Engine::step() {
  std::uint32_t* head = next_bucket(std::numeric_limits<SimNanos>::max());
  if (head == nullptr) {
    // The eager engine would have dispatched every claimed no-op by now.
    now_ = std::max(now_, latest_claim_);
    dispatch_seq_ = next_seq_;
    return false;
  }
  dispatch_from(*head);
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimNanos deadline) {
  for (;;) {
    std::uint32_t* head = next_bucket(deadline);
    if (head == nullptr) break;
    dispatch_from(*head);
  }
  if (deadline >= now_) {
    now_ = deadline;
    dispatch_seq_ = next_seq_;
  }
}

}  // namespace harmless::sim
