// sim/event.hpp — the discrete-event engine.
//
// Events are (time, sequence)-ordered closures; sequence numbers break
// ties FIFO, which together with the seeded Rng makes every run fully
// deterministic. The dispatch order is therefore a total order, and
// the queue below is free to change *how* it finds the minimum as long
// as it never changes *which* event is the minimum.
//
// Claimed keys. Much of a fabric's bookkeeping is an event that would
// only flip a counter or find nothing to do: a link slot freeing at its
// departure instant, a drain re-arm that finds its node empty. Instead
// of queueing such a closure, a component takes its place in the total
// order: claim(at) returns the (at, seq) key schedule_at(at, ...) would
// have assigned and uses up that seq, so every later seq — and with it
// every tie-break — is what it would have been had the event been
// queued. The component then asks passed(key): true once an event under
// that key would already have run, i.e.
//
//   key.at < now()  ||  (key.at == now() && key.seq < dispatch_seq)
//
// where dispatch_seq is the seq of the event now running, one past the
// last dispatched seq between events, and the next unissued seq after
// run_until(d) (d >= now) and after run() — both of which would have
// run every claimed no-op due by then, so run() also leaves now() at
// the latest claimed time when that is later than the last real event.
// If the component finds it does need the event after all (a packet
// arrived before the key passed), schedule_claimed(key, fn) queues the
// closure under the claimed key, where it dispatches exactly where the
// eager event would have. Claimed keys never enter the queue, so they
// cost no heap work and do not count in events_dispatched().
//
// The store is a calendar queue (Brown 1988), tuned for the dominant
// event shape — service completions and link deliveries tens to
// hundreds of nanoseconds out, i.e. nearly-FIFO:
//
//   * A ring of `bucket_count` buckets, each `1 << bucket_bits` ns
//     wide. An event at time t belongs to day t >> bucket_bits and
//     lives in bucket (day & (bucket_count - 1)). The defaults (4 ns
//     buckets, a ~64 us ring) put average occupancy near one event per
//     bucket, so the per-bucket "heaps" degenerate to push_back /
//     pop_back and enqueue/dequeue are O(1) with almost no
//     data-dependent branches.
//   * Each bucket is a binary heap under the same (at, seq) comparator
//     the historical priority_queue used, so within a bucket events
//     dispatch in exactly the historical order.
//   * The cursor only advances when an event is actually dispatched,
//     which (with schedule_at clamping to now()) guarantees every
//     pending day is at or after the cursor — so a bucket holds at
//     most one distinct day at a time and the ring is a true sliding
//     window.
//   * Dequeue finds the earliest non-empty bucket through an occupancy
//     bitmap (one bit per bucket) scanned word-at-a-time with
//     count-trailing-zeros from the cursor position: a dense schedule
//     hits the first word, and a gap is skipped at 64 buckets per
//     compare — no per-event day bookkeeping at all.
//   * Events beyond the ring's window (far-future timers: expiry
//     sweeps, pacing starts, pre-scheduled arrival streams) wait in an
//     overflow heap keyed by the same comparator and migrate into the
//     ring as the window advances past their admission day. The
//     dequeue path dispatches min(earliest ring event, earliest
//     overflow event), migrating first when overflow is due, so the
//     total order is preserved exactly.
//
// Closures are stored as util::InlineFunction: no per-event heap
// allocation, and move-only captures (a pooled net::Packet) are legal.
// The closures live in a chunked slab with a free list, off to the
// side of the heaps: heap elements are 24-byte {at, seq, slot} PODs,
// so a sift moves three words instead of a 128-byte Event through an
// indirect relocate call. Chunks never move once allocated, so a
// closure is relocated exactly once (into its slot at schedule time)
// and then *invoked in place* at dispatch — even if running it
// schedules more events and grows the slab.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/inline_function.hpp"

namespace harmless::sim {

/// An event closure: anything invocable as void(). Move-only captures
/// are fine; captures up to ~100 bytes are stored without allocating.
using EventFn = util::InlineFunction;

/// Calendar-queue tuning (EXPERIMENTS.md "engine profiling" documents
/// the trade-offs). Events farther than bucket_width * bucket_count ns
/// ahead of the cursor overflow into the fallback heap — that product
/// is the implicit overflow threshold.
struct CalendarConfig {
  /// log2 of the bucket width in ns (2 -> 4 ns per bucket — the scale
  /// of the inter-event gap in a loaded fabric, keeping occupancy ~1).
  unsigned bucket_bits = 2;
  /// Ring size; rounded up to a power of two. Defaults span ~64 us,
  /// which covers service completions and link deliveries; ms-scale
  /// timers ride the overflow heap.
  std::size_t bucket_count = 16384;
};

class Engine {
 public:
  Engine() : Engine(CalendarConfig{}) {}
  explicit Engine(const CalendarConfig& config);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimNanos now() const { return now_; }
  [[nodiscard]] const CalendarConfig& calendar() const { return config_; }

  /// Schedule `fn` at absolute time `at` (clamped to now, never in the
  /// past).
  void schedule_at(SimNanos at, EventFn fn) {
    const std::uint32_t slot = alloc_slot();
    fn_slot(slot) = std::move(fn);
    commit(at, slot);
  }

  /// Callable overload: constructs the closure directly in its slab
  /// slot (no intermediate EventFn, no relocation — a captured Packet
  /// is moved exactly once).
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>, int> = 0>
  void schedule_at(SimNanos at, F&& fn) {
    const std::uint32_t slot = alloc_slot();
    fn_slot(slot).emplace(std::forward<F>(fn));
    commit(at, slot);
  }

  /// A position in the total order: what schedule_at assigns an event.
  struct Key {
    SimNanos at;
    std::uint64_t seq;
  };

  /// Take the key schedule_at(at, ...) would assign now (time clamped
  /// to now) and use up its seq, without queueing anything.
  [[nodiscard]] Key claim(SimNanos at) {
    const Key key{std::max(at, now_), next_seq_++};
    latest_claim_ = std::max(latest_claim_, key.at);
    return key;
  }

  /// Queue `fn` under a key claimed earlier. Requires !passed(key): the
  /// event then runs exactly where an event scheduled at claim time
  /// would have.
  template <typename F>
  void schedule_claimed(Key key, F&& fn) {
    const std::uint32_t slot = alloc_slot();
    fn_slot(slot).emplace(std::forward<F>(fn));
    enqueue(Event{key.at, key.seq, slot});
  }

  /// True once an event under `key` would already have run (an event
  /// running under `key` right now has not passed).
  [[nodiscard]] bool passed(Key key) const {
    return key.at < now_ || (key.at == now_ && key.seq < dispatch_seq_);
  }

  /// Schedule `fn` `delay` ns from now.
  template <typename F>
  void schedule_after(SimNanos delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run the next event. Returns false when the queue is empty; every
  /// claimed key has passed then, and now() is at least the latest
  /// claimed time.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run events with time <= `deadline`; leaves later events queued and
  /// advances now() to the deadline (every key claimed at or before it
  /// has passed then).
  void run_until(SimNanos deadline);

  [[nodiscard]] std::size_t pending() const {
    return calendar_size_ + overflow_sorted_.size() + overflow_staging_.size();
  }

  /// Capacity hint: the expected number of concurrently pending events
  /// (FabricSpec wires its own estimate through). Pre-sizes the closure
  /// slab so steady state never grows it mid-run; buckets keep their
  /// (small) capacity across steps regardless.
  void reserve(std::size_t expected_pending);

  /// Monotone packet-id source shared by every generator in a network.
  std::uint64_t next_packet_id() { return ++last_packet_id_; }

  /// Total events dispatched (engine work metric for benches).
  [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  /// A heap element: the ordering key plus the index of the closure in
  /// `fns_`. Kept POD-small so heap sifts are three-word moves.
  struct Event {
    SimNanos at;
    std::uint64_t seq;
    std::uint32_t fn;
  };
  /// The historical comparator, verbatim: min-(at, seq) under the
  /// priority-queue convention. Bucket heaps and the overflow heap both
  /// order with it, so dispatch order is bit-identical to the old
  /// single-heap engine (tests/property/engine_equivalence_test.cpp).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  using Bucket = std::vector<Event>;

  /// Closures per slab chunk. Chunk addresses are stable, so dispatch
  /// can invoke a closure in place while it schedules new events.
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  [[nodiscard]] std::uint64_t day_of(SimNanos at) const {
    return static_cast<std::uint64_t>(at) >> config_.bucket_bits;
  }
  [[nodiscard]] EventFn& fn_slot(std::uint32_t slot) {
    return fn_chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  /// Claim a free slab slot (fast path: pop the free list).
  std::uint32_t alloc_slot() {
    if (!free_fns_.empty()) {
      const std::uint32_t slot = free_fns_.back();
      free_fns_.pop_back();
      return slot;
    }
    return grow_slot();
  }
  /// Cold path: append a fresh slot (and chunk, when needed).
  std::uint32_t grow_slot();
  /// Assign `slot` its (time, seq) key and enqueue it.
  void commit(SimNanos at, std::uint32_t slot) {
    enqueue(Event{std::max(at, now_), next_seq_++, slot});
  }
  /// Queue a keyed event: into the ring, or overflow when far ahead.
  void enqueue(Event event);
  void push_calendar(Event event);
  /// The earliest far-future event across the sorted store and the
  /// staging area (nullptr when both are empty).
  [[nodiscard]] const Event* overflow_min() const;
  /// Sort the staging area into overflow_sorted_ (descending, minimum
  /// at the back).
  void flush_overflow();
  /// Pull every overflow event whose day the ring now covers.
  void migrate_overflow();
  /// First non-empty bucket at or after the cursor in day order (the
  /// occupancy-bitmap scan). Requires calendar_size_ > 0.
  [[nodiscard]] Bucket* scan_ring();
  /// The bucket holding the next event to dispatch, with its admission
  /// window advanced — or nullptr when the engine is empty or the next
  /// event is past `deadline` (in which case no state changes, so the
  /// cursor never overruns an undispatched event).
  [[nodiscard]] Bucket* next_bucket(SimNanos deadline);
  /// Pop the minimum of the cursor bucket and dispatch it.
  void dispatch_from(Bucket& bucket);

  CalendarConfig config_;
  SimNanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// passed()'s tie-break at now_ (see the file comment).
  std::uint64_t dispatch_seq_ = 0;
  /// The latest time any key was claimed at; run() ends no earlier.
  SimNanos latest_claim_ = 0;
  std::uint64_t last_packet_id_ = 0;
  std::uint64_t events_dispatched_ = 0;

  std::vector<Bucket> buckets_;
  /// One bit per bucket: set while the bucket is non-empty. The dequeue
  /// scan jumps empty stretches 64 buckets at a time.
  std::vector<std::uint64_t> occupied_;
  std::uint64_t bucket_mask_ = 0;
  /// The ring's admission window floor: schedule_at sends days at or
  /// beyond cursor_day_ + bucket_count to overflow_. Advanced only when
  /// an event is dispatched (to that event's day) or overflow is
  /// migrated (to the overflow minimum's day), so every pending day is
  /// >= cursor_day_ and each bucket holds at most one day.
  std::uint64_t cursor_day_ = 0;
  std::size_t calendar_size_ = 0;
  /// Far-future store: descending (at, seq) order, minimum at the
  /// back, so migration is pop_back. New far-future events append to
  /// the unsorted staging area (with a running minimum) and merge in
  /// lazily — a pre-scheduled arrival stream costs one sort at run
  /// start instead of a heap sift per push and per pop.
  std::vector<Event> overflow_sorted_;
  std::vector<Event> overflow_staging_;
  Event staging_min_{};
  /// Closure slab: heap elements reference slots here by index. Fixed
  /// chunks (never reallocated) keep slot addresses stable across
  /// growth, so dispatch runs the closure in its slot and recycles the
  /// slot through `free_fns_` afterwards — no move-out per event.
  std::vector<std::unique_ptr<EventFn[]>> fn_chunks_;
  std::size_t fn_count_ = 0;
  std::vector<std::uint32_t> free_fns_;
};

}  // namespace harmless::sim
