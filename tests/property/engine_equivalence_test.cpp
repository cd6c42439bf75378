// Property: the calendar-queue Engine dispatches the exact total order
// the historical single-heap engine did. A reference engine (one
// std::priority_queue of closures under the same (time, seq)
// comparator) runs the same randomized self-expanding workload; the
// dispatch log, now() trajectory, events_dispatched and pending counts
// must match event for event — across same-timestamp bursts,
// far-future timers (the overflow path), run_until deadlines, and
// deliberately mis-sized calendar rings.
//
// Claimed keys get the same treatment: the reference queues every
// claim as a real no-op event, so its "already ran" flag is the ground
// truth for Engine::passed(), and a claim materialised later must
// dispatch exactly where its no-op would have.
//
// Crowded rings (64 ns to 1 us buckets) put tens of events in one
// bucket. The claim workloads run on them too, and scripted scenarios
// reach each insert path of a bucket's list: tail append, new head,
// mid-list walk, overflow migration into an occupied bucket, and a
// bucket that empties and refills in one day.
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.hpp"

namespace harmless::sim {
namespace {

/// splitmix64: per-event deterministic decisions, so both engines make
/// identical choices without sharing a mutable generator.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The historical engine, reduced to its essence: one binary heap of
/// (time, seq, closure) under the min-(at, seq) comparator.
class ReferenceEngine {
 public:
  [[nodiscard]] SimNanos now() const { return now_; }

  void schedule_at(SimNanos at, std::function<void()> fn) {
    queue_.push(Ev{std::max(at, now_), next_seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Ev ev = queue_.top();
    queue_.pop();
    now_ = ev.at;
    ++events_dispatched_;
    ev.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(SimNanos deadline) {
    while (!queue_.empty() && queue_.top().at <= deadline) step();
    now_ = std::max(now_, deadline);
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  struct Ev {
    SimNanos at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  SimNanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
};

/// A child event's delay, drawn from `h`: same-timestamp (0, the FIFO
/// tie-break), nearly-FIFO, mid-range, or far-future (overflow-sized).
SimNanos child_delta(std::uint64_t h) {
  switch (h % 4) {
    case 0: return 0;
    case 1: return static_cast<SimNanos>((h >> 8) % 500);
    case 2: return static_cast<SimNanos>(1'000 + (h >> 8) % 60'000);
    default: return static_cast<SimNanos>(1'000'000 + (h >> 8) % 10'000'000);
  }
}

/// Drives an engine with a self-expanding workload: each dispatched
/// event logs (id, now) and schedules 0-2 children at deltas drawn
/// deterministically from its id — same-timestamp (0), nearly-FIFO,
/// mid-range, and far-future (overflow-sized) jumps.
template <typename EngineT>
struct Driver {
  EngineT& engine;
  std::uint64_t seed;
  int max_depth;
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, SimNanos>> log;

  void spawn(int depth, SimNanos at) {
    const std::uint64_t id = next_id++;
    engine.schedule_at(at, [this, id, depth] { fire(id, depth); });
  }

  void fire(std::uint64_t id, int depth) {
    log.emplace_back(id, engine.now());
    if (depth >= max_depth) return;
    std::uint64_t h = mix(id ^ seed);
    const int children = static_cast<int>(h % 3);
    for (int c = 0; c < children; ++c) {
      h = mix(h);
      spawn(depth + 1, engine.now() + child_delta(h));
    }
  }
};

template <typename DriverT>
void seed_initial(DriverT& driver, std::uint64_t seed, std::size_t count) {
  std::uint64_t h = mix(seed);
  for (std::size_t i = 0; i < count; ++i) {
    h = mix(h);
    driver.spawn(0, static_cast<SimNanos>(h % 5'000));
  }
}

template <typename EngineT>
Driver<EngineT> drain_workload(EngineT& engine, std::uint64_t seed, std::size_t initial,
                               int max_depth) {
  Driver<EngineT> driver{engine, seed, max_depth, 0, {}};
  seed_initial(driver, seed, initial);
  engine.run();
  return driver;
}

void expect_logs_equal(const std::vector<std::pair<std::uint64_t, SimNanos>>& calendar,
                       const std::vector<std::pair<std::uint64_t, SimNanos>>& reference) {
  ASSERT_EQ(calendar.size(), reference.size());
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i].first, reference[i].first) << "dispatch order diverged at " << i;
    ASSERT_EQ(calendar[i].second, reference[i].second) << "timestamp diverged at " << i;
  }
}

TEST(EngineEquivalence, DrainMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Engine calendar;
    ReferenceEngine reference;
    auto got = drain_workload(calendar, seed, 64, 8);
    auto want = drain_workload(reference, seed, 64, 8);
    expect_logs_equal(got.log, want.log);
    EXPECT_EQ(calendar.now(), reference.now());
    EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
    EXPECT_EQ(calendar.pending(), 0u);
  }
}

TEST(EngineEquivalence, SameTimestampBurstsDispatchFifo) {
  // Every initial event lands on one of two instants; children include
  // delta-0 chains. The FIFO tie-break must match the reference heap.
  Engine calendar;
  ReferenceEngine reference;
  Driver<Engine> got{calendar, 99, 6, 0, {}};
  Driver<ReferenceEngine> want{reference, 99, 6, 0, {}};
  for (int i = 0; i < 200; ++i) {
    got.spawn(0, i % 2 == 0 ? 1'000 : 2'000);
    want.spawn(0, i % 2 == 0 ? 1'000 : 2'000);
  }
  calendar.run();
  reference.run();
  expect_logs_equal(got.log, want.log);
  EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
}

TEST(EngineEquivalence, RunUntilDeadlinesWithInterleavedScheduling) {
  Engine calendar;
  ReferenceEngine reference;
  Driver<Engine> got{calendar, 7, 5, 0, {}};
  Driver<ReferenceEngine> want{reference, 7, 5, 0, {}};
  seed_initial(got, 7, 32);
  seed_initial(want, 7, 32);

  std::uint64_t h = mix(424242);
  SimNanos deadline = 0;
  for (int round = 0; round < 40; ++round) {
    h = mix(h);
    deadline += static_cast<SimNanos>(1 + h % 500'000);
    calendar.run_until(deadline);
    reference.run_until(deadline);
    ASSERT_EQ(calendar.now(), reference.now()) << "round " << round;
    ASSERT_EQ(calendar.pending(), reference.pending()) << "round " << round;
    // Mid-run arrivals: some land right at now(), some past the next
    // few deadlines, some far enough to overflow the ring.
    for (int extra = 0; extra < 3; ++extra) {
      h = mix(h);
      const auto delta = static_cast<SimNanos>(h % 3'000'000);
      got.spawn(0, calendar.now() + delta);
      want.spawn(0, reference.now() + delta);
    }
  }
  calendar.run();
  reference.run();
  expect_logs_equal(got.log, want.log);
  EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
}

TEST(EngineEquivalence, FarFutureTimersRideTheOverflow) {
  // Deltas far beyond the default ring window (4 ns * 16384 = ~64 us):
  // everything funnels through staging + sorted overflow + migration.
  Engine calendar;
  ReferenceEngine reference;
  Driver<Engine> got{calendar, 31, 4, 0, {}};
  Driver<ReferenceEngine> want{reference, 31, 4, 0, {}};
  std::uint64_t h = mix(31);
  for (int i = 0; i < 128; ++i) {
    h = mix(h);
    const auto at = static_cast<SimNanos>(h % 50'000'000);
    got.spawn(0, at);
    want.spawn(0, at);
  }
  calendar.run();
  reference.run();
  expect_logs_equal(got.log, want.log);
  EXPECT_EQ(calendar.now(), reference.now());
}

TEST(EngineEquivalence, MisfitCalendarKnobsStillExact) {
  // Pathological configs — a 2-bucket ring, giant buckets, 1 ns
  // buckets — must change performance only, never order.
  const CalendarConfig configs[] = {
      {.bucket_bits = 0, .bucket_count = 2},
      {.bucket_bits = 12, .bucket_count = 4},
      {.bucket_bits = 0, .bucket_count = 65536},
      {.bucket_bits = 6, .bucket_count = 64},
  };
  for (const CalendarConfig& config : configs) {
    Engine calendar(config);
    ReferenceEngine reference;
    auto got = drain_workload(calendar, 1234, 48, 7);
    auto want = drain_workload(reference, 1234, 48, 7);
    expect_logs_equal(got.log, want.log);
    EXPECT_EQ(calendar.now(), reference.now());
    EXPECT_EQ(calendar.events_dispatched(), reference.events_dispatched());
  }
}

/// Crowded rings: 64 ns to 1 us buckets put tens of events in one
/// bucket, so every insert path of its list runs.
const CalendarConfig kCrowdedConfigs[] = {
    {.bucket_bits = 6, .bucket_count = 4},    {.bucket_bits = 6, .bucket_count = 64},
    {.bucket_bits = 7, .bucket_count = 16},   {.bucket_bits = 8, .bucket_count = 2},
    {.bucket_bits = 9, .bucket_count = 256},  {.bucket_bits = 10, .bucket_count = 8},
    {.bucket_bits = 10, .bucket_count = 16384},
};

/// The default ring, a 2-bucket ring, and every crowded ring.
std::vector<CalendarConfig> claim_configs() {
  std::vector<CalendarConfig> configs = {CalendarConfig{}, {.bucket_bits = 0, .bucket_count = 2}};
  configs.insert(configs.end(), std::begin(kCrowdedConfigs), std::end(kCrowdedConfigs));
  return configs;
}

// ---- claimed keys ---------------------------------------------------

/// Claims on the calendar engine: the key itself, never queued unless
/// materialised.
struct EngineClaims {
  Engine& engine;
  using Handle = Engine::Key;
  Handle claim(SimNanos at) { return engine.claim(at); }
  [[nodiscard]] bool passed(const Handle& key) const { return engine.passed(key); }
  void materialise(const Handle& key, std::function<void()> fn) {
    engine.schedule_claimed(key, std::move(fn));
  }
};

/// Claims on the reference: a queued no-op that records that it ran, or
/// runs the materialised closure in its place.
struct ReferenceClaims {
  ReferenceEngine& engine;
  struct Slot {
    bool ran = false;
    std::function<void()> fn;
  };
  using Handle = std::shared_ptr<Slot>;
  Handle claim(SimNanos at) {
    auto slot = std::make_shared<Slot>();
    engine.schedule_at(at, [slot] {
      if (slot->fn) slot->fn();
      slot->ran = true;
    });
    return slot;
  }
  [[nodiscard]] bool passed(const Handle& slot) const { return slot->ran; }
  void materialise(const Handle& slot, std::function<void()> fn) { slot->fn = std::move(fn); }
};

/// Driver's workload with a third of all spawns claimed instead of
/// scheduled. Every dispatched event logs passed() for each open claim
/// and materialises some of the claims that have not passed; passed
/// claims can never run, so they leave the open list.
template <typename EngineT, typename Claims>
struct ClaimDriver {
  EngineT& engine;
  Claims claims;
  std::uint64_t seed;
  int max_depth;
  std::uint64_t next_id = 0;
  std::vector<std::pair<std::uint64_t, SimNanos>> log{};
  std::vector<bool> passed_log{};
  std::uint64_t claimed = 0;
  std::uint64_t materialised = 0;

  struct Open {
    std::uint64_t id;
    int depth;
    typename Claims::Handle handle;
  };
  std::vector<Open> open{};

  void spawn(int depth, SimNanos at) {
    const std::uint64_t id = next_id++;
    if (mix(id ^ seed ^ 0xC1A1u) % 3 == 0) {
      ++claimed;
      open.push_back(Open{id, depth, claims.claim(at)});
    } else {
      engine.schedule_at(at, [this, id, depth] { fire(id, depth); });
    }
  }

  /// Log passed() for every open claim, then forget the passed ones.
  void check_passed() {
    std::size_t kept = 0;
    for (Open& claim : open) {
      const bool passed = claims.passed(claim.handle);
      passed_log.push_back(passed);
      if (!passed) open[kept++] = std::move(claim);
    }
    open.resize(kept);
  }

  void fire(std::uint64_t id, int depth) {
    log.emplace_back(id, engine.now());
    check_passed();
    std::size_t kept = 0;
    for (Open& claim : open) {
      if (mix((id * 31 + claim.id) ^ seed) % 5 == 0) {
        ++materialised;
        claims.materialise(claim.handle, [this, cid = claim.id, cdepth = claim.depth] {
          fire(cid, cdepth);
        });
      } else {
        open[kept++] = std::move(claim);
      }
    }
    open.resize(kept);
    if (depth >= max_depth) return;
    std::uint64_t h = mix(id ^ seed);
    const int children = static_cast<int>(h % 3);
    for (int c = 0; c < children; ++c) {
      h = mix(h);
      spawn(depth + 1, engine.now() + child_delta(h));
    }
  }
};

using CalendarClaimDriver = ClaimDriver<Engine, EngineClaims>;
using ReferenceClaimDriver = ClaimDriver<ReferenceEngine, ReferenceClaims>;

void expect_claim_runs_equal(const CalendarClaimDriver& got, const ReferenceClaimDriver& want) {
  expect_logs_equal(got.log, want.log);
  ASSERT_EQ(got.passed_log.size(), want.passed_log.size());
  for (std::size_t i = 0; i < got.passed_log.size(); ++i)
    ASSERT_EQ(got.passed_log[i], want.passed_log[i]) << "passed() diverged at check " << i;
  EXPECT_EQ(got.claimed, want.claimed);
  EXPECT_EQ(got.materialised, want.materialised);
}

TEST(EngineEquivalence, ClaimedKeysKeepTheReferenceOrder) {
  // On crowded rings old claimed keys walk their buckets, same-time
  // bursts append, and overflow migrates into occupied buckets.
  for (const CalendarConfig& config : claim_configs()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << "bucket_bits " << config.bucket_bits << ", bucket_count "
                                      << config.bucket_count << ", seed " << seed);
      Engine calendar(config);
      ReferenceEngine reference;
      CalendarClaimDriver got{calendar, EngineClaims{calendar}, seed, 8};
      ReferenceClaimDriver want{reference, ReferenceClaims{reference}, seed, 8};
      seed_initial(got, seed, 64);
      seed_initial(want, seed, 64);
      calendar.run();
      reference.run();
      expect_claim_runs_equal(got, want);
      EXPECT_GT(got.claimed, got.materialised) << "seed " << seed;
      EXPECT_GT(got.materialised, 0u) << "seed " << seed;
      // After run() every claim has passed, as every no-op has run.
      got.check_passed();
      want.check_passed();
      expect_claim_runs_equal(got, want);
      EXPECT_TRUE(got.open.empty());
      EXPECT_EQ(calendar.now(), reference.now()) << "seed " << seed;
      EXPECT_EQ(calendar.events_dispatched(),
                reference.events_dispatched() - (got.claimed - got.materialised))
          << "seed " << seed;
      EXPECT_EQ(calendar.pending(), 0u);
    }
  }
}

TEST(EngineEquivalence, ClaimedKeysPassAtRunUntilDeadlines) {
  // Crowded rings make the deadlines stop mid-bucket.
  for (const CalendarConfig& config : claim_configs()) {
    SCOPED_TRACE(testing::Message() << "bucket_bits " << config.bucket_bits << ", bucket_count "
                                    << config.bucket_count);
    Engine calendar(config);
    ReferenceEngine reference;
    CalendarClaimDriver got{calendar, EngineClaims{calendar}, 11, 5};
    ReferenceClaimDriver want{reference, ReferenceClaims{reference}, 11, 5};
    seed_initial(got, 11, 32);
    seed_initial(want, 11, 32);

    std::uint64_t h = mix(171717);
    SimNanos deadline = 0;
    for (int round = 0; round < 60; ++round) {
      h = mix(h);
      // Deadlines often land exactly on a pending claim's time.
      if (h % 3 == 0 && !got.open.empty()) {
        deadline = std::max(deadline, got.open[(h >> 8) % got.open.size()].handle.at);
      } else {
        deadline += static_cast<SimNanos>(1 + h % 500'000);
      }
      calendar.run_until(deadline);
      reference.run_until(deadline);
      ASSERT_EQ(calendar.now(), reference.now()) << "round " << round;
      got.check_passed();
      want.check_passed();
      // Claims and events spawned between deadlines, some right at now().
      for (int extra = 0; extra < 3; ++extra) {
        h = mix(h);
        const auto delta = static_cast<SimNanos>(h % 3 == 0 ? 0 : h % 3'000'000);
        got.spawn(0, calendar.now() + delta);
        want.spawn(0, reference.now() + delta);
      }
    }
    calendar.run();
    reference.run();
    got.check_passed();
    want.check_passed();
    expect_claim_runs_equal(got, want);
    EXPECT_EQ(calendar.now(), reference.now());
  }
}

// ---- bucket lists on crowded rings -----------------------------------
//
// Scripted scenarios, one per insert path of a bucket's list: the tail
// append, a new minimum that takes the head (and must keep the tail), a
// walk to the middle (an older claimed key, an overflow event migrating
// into an occupied bucket), and pops that hand the tail on to the next
// head.

/// Scripted events for one engine: each logs (id, now()) and then runs
/// its follow-up, which schedules more of the script.
template <typename EngineT, typename Claims>
struct Script {
  EngineT& engine;
  Claims claims;
  std::vector<std::pair<std::uint64_t, SimNanos>> log{};

  void event(std::uint64_t id, SimNanos at, std::function<void()> then = {}) {
    engine.schedule_at(at, [this, id, then = std::move(then)] {
      log.emplace_back(id, engine.now());
      if (then) then();
    });
  }
  void materialise(std::uint64_t id, const typename Claims::Handle& key) {
    claims.materialise(key, [this, id] { log.emplace_back(id, engine.now()); });
  }
};

/// Runs `scenario` on the calendar engine under every crowded config and
/// on the reference, and requires the same dispatch log and final now().
template <typename Scenario>
void expect_scenario_matches(const Scenario& scenario) {
  for (const CalendarConfig& config : kCrowdedConfigs) {
    SCOPED_TRACE(testing::Message() << "bucket_bits " << config.bucket_bits << ", bucket_count "
                                    << config.bucket_count);
    Engine calendar(config);
    ReferenceEngine reference;
    Script<Engine, EngineClaims> got{calendar, EngineClaims{calendar}};
    Script<ReferenceEngine, ReferenceClaims> want{reference, ReferenceClaims{reference}};
    scenario(got);
    scenario(want);
    calendar.run();
    reference.run();
    expect_logs_equal(got.log, want.log);
    EXPECT_EQ(calendar.now(), reference.now());
    EXPECT_EQ(calendar.pending(), 0u);
  }
}

TEST(EngineEquivalence, BucketListAppendsInOrderKeys) {
  expect_scenario_matches([](auto& s) {
    // Ascending keys, ties included: every insert is a tail append.
    for (std::uint64_t i = 0; i < 40; ++i) s.event(i, static_cast<SimNanos>(i / 2));
    // Appends onto a bucket that has already dispatched some events.
    s.event(100, 19, [&s] {
      for (std::uint64_t i = 0; i < 8; ++i) s.event(101 + i, 20 + static_cast<SimNanos>(i));
    });
  });
}

TEST(EngineEquivalence, BucketListNewMinimumKeepsTheTail) {
  expect_scenario_matches([](auto& s) {
    s.event(0, 40);
    s.event(1, 50);
    s.event(2, 10);  // new head: the tail must stay at 50
    s.event(3, 60);  // append after 50, through the new head's tail
    s.event(4, 5);   // new head again
    s.event(5, 45);  // walks to the middle
    s.event(6, 60);  // ties 3: append
    s.event(7, 5);   // ties the head at a later seq: walks one node
    s.event(8, 61);
  });
}

TEST(EngineEquivalence, BucketListWalksForAnOlderClaimedKey) {
  expect_scenario_matches([](auto& s) {
    s.event(0, 10);
    const auto mid = s.claims.claim(20);
    const auto first = s.claims.claim(10);
    const auto last = s.claims.claim(30);
    s.event(1, 20);
    s.event(2, 25);
    s.event(3, 30);
    s.event(4, 30);
    // Each older key lands between events queued after its claim.
    s.materialise(10, mid);
    s.materialise(11, first);
    s.materialise(12, last);
    s.event(5, 31);  // and the tail is still the last node
  });
}

TEST(EngineEquivalence, BucketListTakesMigratingOverflowEvents) {
  expect_scenario_matches([](auto& s) {
    // Far-future events, scheduled while the window is at day 0: on a
    // 4-bucket ring of 64 ns they wait in overflow.
    s.event(0, 100'000);
    s.event(1, 100'010);
    s.event(2, 100'040);
    s.event(3, 99'990);
    // Step the cursor toward them, then queue ring events into the very
    // bucket the overflow events migrate into.
    s.event(4, 50'000, [&s] {
      s.event(5, 99'900, [&s] {
        s.event(6, 99'995);
        s.event(7, 100'005);
        s.event(8, 100'020);
        s.event(9, 100'050);
      });
    });
  });
}

TEST(EngineEquivalence, BucketListEmptiesAndRefillsWithinADay) {
  expect_scenario_matches([](auto& s) {
    s.event(0, 0);
    s.event(1, 0, [&s] {
      // Popping 0 and 1 emptied the bucket; refill it at now().
      s.event(2, 0, [&s] { s.event(5, 2); });  // walks past 8
      s.event(3, 1);
      s.event(4, 3, [&s] {
        s.event(6, 3);  // new head before 9
        s.event(7, 4);  // walks between 6 and 9
      });
      s.event(8, 2, [&s] {
        // Pops have handed the tail on through heads 3, 8 and 5: the
        // append must land after 4.
        s.event(9, 6);
        s.event(10, 2);  // walks between 5 and 4
      });
    });
  });
}

TEST(EngineEquivalence, RunEndsAtTheLatestClaim) {
  Engine engine;
  engine.schedule_at(100, [] {});
  const Engine::Key late = engine.claim(5'000);
  const Engine::Key early = engine.claim(50);
  EXPECT_FALSE(engine.passed(early));
  engine.run();
  EXPECT_EQ(engine.now(), 5'000);
  EXPECT_TRUE(engine.passed(late));
  EXPECT_TRUE(engine.passed(early));
  EXPECT_EQ(engine.events_dispatched(), 1u);
  // A claim after run() is in the future of the order again.
  EXPECT_FALSE(engine.passed(engine.claim(5'000)));
}

TEST(EngineEquivalence, ScheduleAtInThePastClampsToNow) {
  Engine calendar;
  ReferenceEngine reference;
  std::vector<SimNanos> got_times;
  std::vector<SimNanos> want_times;
  calendar.schedule_at(1'000, [&] {
    calendar.schedule_at(10, [&] { got_times.push_back(calendar.now()); });
  });
  reference.schedule_at(1'000, [&] {
    reference.schedule_at(10, [&] { want_times.push_back(reference.now()); });
  });
  calendar.run();
  reference.run();
  EXPECT_EQ(got_times, want_times);
  EXPECT_EQ(got_times.size(), 1u);
  EXPECT_EQ(got_times[0], 1'000);
}

}  // namespace
}  // namespace harmless::sim
