// Claimed keys against the eager events they replace.
//
// Channel frees a queue slot when the engine passes the packet's
// claimed departure key, and ServicedNode claims its drain re-arm when a
// step empties the node. Each is run here against a verbatim copy of
// the event-based code it replaced (a slot-release event per packet; a
// drain re-arm event after every step), on its own engine under the
// same script. Everything observable must match: admissions, drops,
// queue depth, delivery and output times, and which packets share a
// burst. The scripts put transmits and arrivals at exactly the instant
// a slot frees or a re-arm is due, both from events ordered before
// that key and from events ordered after it.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "net/build.hpp"
#include "sim/event.hpp"
#include "sim/link.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace harmless::sim {
namespace {

net::Packet tagged_packet(std::uint64_t id, std::size_t bytes) {
  net::FlowKey key;
  key.eth_src = net::MacAddr::from_u64(1);
  key.eth_dst = net::MacAddr::from_u64(2);
  key.ip_src = net::Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = net::Ipv4Addr(10, 0, 0, 2);
  net::Packet packet = net::make_udp(key, bytes);
  packet.set_id(id);
  return packet;
}

// ---- Channel ------------------------------------------------------------

/// The event-based Channel, verbatim apart from the parts no script
/// here touches (taps, link state): one release event per packet at
/// its departure, one arrival event. It also records, for coverage,
/// whether a transmit met a slot freeing at its own instant before or
/// after that release ran.
class EagerChannel {
 public:
  EagerChannel(Engine& engine, LinkSpec spec, const std::string& /*label*/)
      : engine_(engine), spec_(spec) {}

  void set_sink(std::function<void(net::Packet&&)> sink) { sink_ = std::move(sink); }

  void transmit(net::Packet&& packet) {
    if (pending_releases_.count(engine_.now()) > 0) ++transmits_before_release;
    if (last_release_at_ == engine_.now()) ++transmits_after_release;
    if (queued_ >= spec_.queue_capacity_packets) {
      ++drops_overflow_;
      return;
    }
    ++queued_;

    const SimNanos start = std::max(engine_.now(), transmitter_free_);
    const SimNanos serialization = spec_.rate.serialization_ns(packet.size());
    const SimNanos departs = start + serialization;
    const SimNanos arrives = departs + spec_.propagation_delay;
    transmitter_free_ = departs;

    pending_releases_.insert(departs);
    engine_.schedule_at(departs, [this, departs] {
      --queued_;
      pending_releases_.erase(pending_releases_.find(departs));
      last_release_at_ = departs;
    });

    engine_.schedule_at(arrives, [this, packet = std::move(packet)]() mutable {
      if (sink_) sink_(std::move(packet));
    });
  }

  [[nodiscard]] std::uint64_t drops_overflow() const { return drops_overflow_; }
  [[nodiscard]] std::size_t queue_depth() const { return queued_; }

  std::uint64_t transmits_before_release = 0;
  std::uint64_t transmits_after_release = 0;

 private:
  Engine& engine_;
  LinkSpec spec_;
  std::function<void(net::Packet&&)> sink_;
  SimNanos transmitter_free_ = 0;
  std::size_t queued_ = 0;
  std::uint64_t drops_overflow_ = 0;
  std::multiset<SimNanos> pending_releases_;
  SimNanos last_release_at_ = -1;
};

/// One observation: (kind, time, packet id or 0, value).
using Record = std::tuple<char, SimNanos, std::uint64_t, std::uint64_t>;

/// 1 Gb/s with frames of 64, 128 or 192 bytes: every serialization is a
/// multiple of 512 ns, and every scripted instant is on that grid, so
/// transmits and probes keep landing on departure instants.
constexpr SimNanos kGrid = 512;

template <typename ChannelT>
struct ChannelScript {
  Engine engine;
  ChannelT channel;
  std::uint64_t seed;
  std::vector<Record> log;
  std::uint64_t next_id = 1;

  ChannelScript(std::size_t capacity, std::uint64_t seed_value)
      : channel(engine, LinkSpec{Rate::gbps(1), 100, capacity}, "probe"), seed(seed_value) {
    channel.set_sink([this](net::Packet&& packet) {
      log.emplace_back('D', engine.now(), packet.id(), 0);
    });
  }

  void probe() { log.emplace_back('Q', engine.now(), 0, channel.queue_depth()); }

  void transmit(std::size_t bytes, int follow_ups) {
    const std::uint64_t id = next_id++;
    channel.transmit(tagged_packet(id, bytes));
    log.emplace_back('T', engine.now(), id, channel.drops_overflow());
    log.emplace_back('Q', engine.now(), id, channel.queue_depth());
    // Follow-ups scheduled from inside this event sort after every key
    // claimed so far at their instant, including this packet's own.
    util::Rng rng(seed ^ id);
    for (int i = 0; i < follow_ups; ++i) {
      const SimNanos at = engine.now() + kGrid * static_cast<SimNanos>(rng.below(4));
      if (rng.chance(0.3)) {
        engine.schedule_at(at, [this] { probe(); });
      } else {
        const std::size_t size = 64 * (1 + rng.below(3));
        engine.schedule_at(at, [this, size, follow_ups] { transmit(size, follow_ups - 1); });
      }
    }
  }

  void run() {
    // Pre-scheduled events sort before every key claimed at run time.
    util::Rng rng(seed);
    for (int i = 0; i < 120; ++i) {
      const SimNanos at = kGrid * static_cast<SimNanos>(rng.below(60));
      if (rng.chance(0.25)) {
        engine.schedule_at(at, [this] { probe(); });
      } else {
        const std::size_t size = 64 * (1 + rng.below(3));
        engine.schedule_at(at, [this, size] { transmit(size, 2); });
      }
    }
    engine.run();
    log.emplace_back('E', engine.now(), 0, channel.queue_depth());
  }
};

TEST(ClaimedKeys, ChannelMatchesTheEventBasedChannel) {
  std::uint64_t before_release = 0;
  std::uint64_t after_release = 0;
  std::uint64_t drops = 0;
  for (std::size_t capacity = 1; capacity <= 4; ++capacity) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      ChannelScript<Channel> got(capacity, seed);
      ChannelScript<EagerChannel> want(capacity, seed);
      got.run();
      want.run();
      ASSERT_EQ(got.log.size(), want.log.size()) << "capacity " << capacity << " seed " << seed;
      for (std::size_t i = 0; i < got.log.size(); ++i)
        ASSERT_EQ(got.log[i], want.log[i])
            << "capacity " << capacity << " seed " << seed << " record " << i;
      EXPECT_EQ(got.channel.drops_overflow(), want.channel.drops_overflow());
      // One event per packet instead of two.
      EXPECT_LT(got.engine.events_dispatched(), want.engine.events_dispatched());
      before_release += want.channel.transmits_before_release;
      after_release += want.channel.transmits_after_release;
      drops += want.channel.drops_overflow();
    }
  }
  // The scripts reached both orders at a shared instant, and the
  // queue bound bit.
  EXPECT_GT(before_release, 0u);
  EXPECT_GT(after_release, 0u);
  EXPECT_GT(drops, 0u);
}

// ---- ServicedNode ---------------------------------------------------------

struct ServedBurst {
  SimNanos at;
  std::vector<std::uint64_t> ids;
  friend bool operator==(const ServedBurst&, const ServedBurst&) = default;
};
struct Output {
  SimNanos at;
  std::uint64_t id;
  friend bool operator==(const Output&, const Output&) = default;
};

/// Service cost per packet: the size picks it, so a step's end depends
/// on what the burst held.
SimNanos cost_of(const net::Packet& packet) { return packet.size() >= 128 ? 200 : 100; }

/// The single-core drain loop with an eager re-arm after every step,
/// verbatim: the drain that finds the node empty is a real event.
class EagerNode final : public Node {
 public:
  EagerNode(Engine& engine, std::size_t burst) : Node(engine, "eager"), burst_(burst) {}

  std::vector<ServedBurst> bursts;
  std::vector<Output> outputs;
  std::function<void(std::uint64_t)> on_output;

  void handle(int, net::Packet&& packet) override {
    queue_.push_back(std::move(packet));
    if (!draining_) {
      draining_ = true;
      engine_.schedule_at(std::max(engine_.now(), busy_until_), [this] { drain(); });
    }
  }

 private:
  void drain() {
    if (queue_.empty()) {
      draining_ = false;
      return;
    }
    const SimNanos step_start = engine_.now();
    ServedBurst burst{step_start, {}};
    std::vector<net::Packet> out;
    SimNanos cost = 0;
    while (!queue_.empty() && burst.ids.size() < burst_) {
      cost += cost_of(queue_.front());
      burst.ids.push_back(queue_.front().id());
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    bursts.push_back(std::move(burst));
    engine_.schedule_at(step_start + cost, [this, out = std::move(out)]() mutable {
      for (net::Packet& packet : out) {
        outputs.push_back(Output{engine_.now(), packet.id()});
        if (on_output) on_output(packet.id());
      }
    });
    busy_until_ = step_start + cost;
    engine_.schedule_at(busy_until_, [this] { drain(); });
  }

  std::size_t burst_;
  std::deque<net::Packet> queue_;
  bool draining_ = false;
  SimNanos busy_until_ = 0;
};

/// The production node, logging the same observables.
class ProbeNode final : public ServicedNode {
 public:
  ProbeNode(Engine& engine, std::size_t burst)
      : ServicedNode(engine, "probe", IngressSpec{}, burst) {
    ensure_ports(1);
  }

  std::vector<ServedBurst> bursts;
  std::vector<Output> outputs;
  std::function<void(std::uint64_t)> on_output;

 protected:
  SimNanos service_burst(sim::Burst&& burst) override {
    ServedBurst logged{engine_.now(), {}};
    for (const auto& entry : burst) logged.ids.push_back(entry.second.id());
    bursts.push_back(std::move(logged));
    SimNanos cost = 0;
    for (auto& entry : burst) {
      cost += cost_of(entry.second);
      emit(0, std::move(entry.second));
    }
    return cost;
  }
  void transmit(std::size_t, net::Packet&& packet) override {
    outputs.push_back(Output{engine_.now(), packet.id()});
    if (on_output) on_output(packet.id());
  }
};

/// A node's input: arrivals pre-scheduled before the run (they sort
/// before every key the run claims); relays, events at `at` that
/// schedule an arrival at `arrive_at` (sorting after every key claimed
/// before `at`); and late arrivals, scheduled `delay` after packet `id`
/// leaves the node — a delay of 0 lands at the very instant its step
/// ended, the re-arm's time, but after the re-arm key.
struct NodeInput {
  struct Relay {
    SimNanos at;
    SimNanos arrive_at;
    std::size_t bytes;
  };
  std::vector<std::pair<SimNanos, std::size_t>> arrivals;
  std::vector<Relay> relays;
  std::function<std::vector<std::pair<SimNanos, std::size_t>>(std::uint64_t)> late =
      [](std::uint64_t) { return std::vector<std::pair<SimNanos, std::size_t>>{}; };
};

template <typename NodeT>
struct NodeScript {
  Engine engine;
  NodeT node;
  std::uint64_t next_id = 1;

  explicit NodeScript(std::size_t burst) : node(engine, burst) {}

  void arrive_at(SimNanos at, std::size_t bytes) {
    engine.schedule_at(at, [this, bytes] { node.handle(0, tagged_packet(next_id++, bytes)); });
  }

  void run(const NodeInput& input) {
    for (const auto& [at, bytes] : input.arrivals) arrive_at(at, bytes);
    for (const NodeInput::Relay& relay : input.relays)
      engine.schedule_at(relay.at, [this, relay] { arrive_at(relay.arrive_at, relay.bytes); });
    node.on_output = [this, &input](std::uint64_t id) {
      for (const auto& [delay, bytes] : input.late(id)) arrive_at(engine.now() + delay, bytes);
    };
    engine.run();
  }
};

void expect_same_service(const NodeInput& input, std::size_t burst,
                         const std::vector<ServedBurst>& expected = {}) {
  NodeScript<ProbeNode> got(burst);
  NodeScript<EagerNode> want(burst);
  got.run(input);
  want.run(input);
  EXPECT_EQ(got.node.bursts, want.node.bursts);
  EXPECT_EQ(got.node.outputs, want.node.outputs);
  EXPECT_EQ(got.engine.now(), want.engine.now());
  if (!expected.empty()) {
    EXPECT_EQ(got.node.bursts, expected);
  }
}

TEST(ClaimedKeys, ArrivalBeforeTheRearmKeyJoinsTheRearmedStep) {
  // Packet 1's step at t=0 ends at t=100 and claims its re-arm key
  // there. Packet 2 was scheduled at t=100 before the run, so it sorts
  // before that key: the drain runs under the key and serves packet 2
  // alone. Packet 3 (relayed at t=50) and packets 4 and 5 (sent when
  // packet 1 leaves at t=100) also arrive at t=100 but sort after the
  // key, so they wait for the next step.
  NodeInput input;
  input.arrivals = {{0, 64}, {100, 64}};
  input.relays = {{50, 100, 64}};
  input.late = [](std::uint64_t id) {
    return id == 1 ? std::vector<std::pair<SimNanos, std::size_t>>{{0, 64}, {0, 64}}
                   : std::vector<std::pair<SimNanos, std::size_t>>{};
  };
  expect_same_service(input, 8, {{0, {1}}, {100, {2}}, {200, {3, 4, 5}}});
}

TEST(ClaimedKeys, ArrivalAfterTheRearmKeyStartsAFreshStep) {
  // Nothing arrives before the key at t=100 passes; packets 2 and 3
  // arrive at t=100 right after it and share one fresh step.
  NodeInput input;
  input.arrivals = {{0, 64}};
  input.late = [](std::uint64_t id) {
    return id == 1 ? std::vector<std::pair<SimNanos, std::size_t>>{{0, 128}, {0, 64}}
                   : std::vector<std::pair<SimNanos, std::size_t>>{};
  };
  expect_same_service(input, 8, {{0, {1}}, {100, {2, 3}}});
}

TEST(ClaimedKeys, ServicedNodeMatchesTheEagerRearmUnderRandomArrivals) {
  for (const std::size_t burst : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      // Everything lands on the 100 ns grid every step ends on.
      util::Rng rng(seed);
      NodeInput input;
      for (int i = 0; i < 60; ++i)
        input.arrivals.emplace_back(100 * static_cast<SimNanos>(rng.below(80)),
                                    rng.chance(0.5) ? 64 : 128);
      for (int i = 0; i < 30; ++i) {
        const SimNanos at = 50 * static_cast<SimNanos>(rng.below(160));
        input.relays.push_back({at, (at / 100 + 1 + static_cast<SimNanos>(rng.below(2))) * 100,
                                rng.chance(0.5) ? std::size_t{64} : std::size_t{128}});
      }
      // A third of all departures send one more packet, mostly at once.
      input.late = [seed](std::uint64_t id) {
        util::Rng pick(seed * 1000 + id);
        if (!pick.chance(0.33)) return std::vector<std::pair<SimNanos, std::size_t>>{};
        const SimNanos delay = pick.chance(0.7) ? 0 : 100;
        return std::vector<std::pair<SimNanos, std::size_t>>{
            {delay, pick.chance(0.5) ? std::size_t{64} : std::size_t{128}}};
      };
      SCOPED_TRACE("burst " + std::to_string(burst) + " seed " + std::to_string(seed));
      expect_same_service(input, burst);
    }
  }
}

}  // namespace
}  // namespace harmless::sim
