// common.hpp — what every bench_suite workload shares: the rep result,
// the delivery ledger (digest, latency, conservation), the generators'
// send path and the counter snapshots the per-layer metrics are
// computed from.
//
// A workload run ("rep") is: setup (topology, migration, rule install,
// conntrack preload, warm-up — all timed as setup_s), then the measured
// phase driven in 1 ms run_until slices, then a drain until the last
// in-flight operation finishes. Traffic is open loop in simulated time:
// every source is one self-rescheduling generator event that sends at
// its due instant, so nothing is pre-queued and latency is measured
// from the due send time (Host::send stamps created_at = now).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "controller/controller.hpp"
#include "legacy/legacy_switch.hpp"
#include "net/packet.hpp"
#include "sim/network.hpp"
#include "softswitch/replication.hpp"
#include "softswitch/soft_switch.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace harmless::suite {

constexpr sim::SimNanos kUs = 1'000;
constexpr sim::SimNanos kMs = 1'000'000;

struct RepConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured-phase length multiplier (--smoke runs at 1/20).
  double scale = 1.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Everything one rep measured and checked.
struct RepResult {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;  // traced reps only
  std::vector<std::string> check_failures;
  std::uint64_t digest = 0;
  /// Operations the workload attempted and how many failed (packets
  /// for the stateless workloads, connections for the stateful ones).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t offered = 0;  // packets sent in the measured phase (drain included)
  double measured_wall_s = 0;
  /// Per 1 ms measured slice: (host ns, packets sent). Slice k holds the
  /// same simulated work in every rep of one seed.
  std::vector<std::pair<std::int64_t, std::uint64_t>> slices;
  /// Host ns of the reference chunks run before the rep (reference.hpp).
  std::vector<std::int64_t> reference;
  std::string chrome_trace;  // traced reps only

  void add(std::string name, std::string unit, double value) {
    e2e.push_back({std::move(name), std::move(unit), value});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Stable 64-bit mixing fold (the digests and seed derivation).
std::uint64_t mix(std::uint64_t h, std::uint64_t value);
/// Hash of a frame's first 64 bytes plus its length (headers identify
/// every generated packet; payloads are constant fill).
std::uint64_t frame_hash(const net::Packet& packet);
/// Independent per-source generator seed.
std::uint64_t source_seed(std::uint64_t seed, std::uint64_t source);

/// Delivery bookkeeping shared by every workload. Generators report
/// each send; hosts report each delivery. Packets are identified by the
/// engine-assigned id, so duplicates (a flooded copy reaching its
/// destination twice) are caught, and packets created at or after the
/// measured-phase start are the measured population.
class Ledger {
 public:
  explicit Ledger(sim::Engine& engine) : engine_(engine) {}

  /// A generator sent one packet due at `due` (call right after send).
  void sent(sim::SimNanos due);
  /// `host` accepted `packet`.
  void delivered(std::size_t host, const net::Packet& packet);

  void set_measure_window(sim::SimNanos begin, sim::SimNanos end) {
    measure_begin_ = begin;
    measure_end_ = end;
  }
  [[nodiscard]] sim::SimNanos measure_begin() const { return measure_begin_; }

  [[nodiscard]] std::uint64_t offered_total() const { return offered_total_; }
  [[nodiscard]] std::uint64_t delivered_total() const { return delivered_total_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  /// Sent at or after the measured-phase start.
  [[nodiscard]] std::uint64_t offered_measured() const { return offered_measured_; }
  /// Created at or after the measured-phase start and delivered.
  [[nodiscard]] std::uint64_t delivered_measured() const { return delivered_measured_; }
  /// Created inside [begin, end) and delivered: the goodput population.
  [[nodiscard]] std::uint64_t delivered_window() const { return delivered_window_; }
  [[nodiscard]] std::uint64_t offered_window() const { return offered_window_; }
  [[nodiscard]] sim::SimNanos max_lateness() const { return max_lateness_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] const util::Histogram& latency_ns() const { return latency_ns_; }

 private:
  sim::Engine& engine_;
  sim::SimNanos measure_begin_ = 0;
  sim::SimNanos measure_end_ = 0;
  std::uint64_t offered_total_ = 0;
  std::uint64_t offered_measured_ = 0;
  std::uint64_t offered_window_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t delivered_measured_ = 0;
  std::uint64_t delivered_window_ = 0;
  std::uint64_t duplicates_ = 0;
  sim::SimNanos max_lateness_ = 0;
  std::uint64_t digest_ = 0x6a09e667f3bcc908ULL;
  std::vector<std::uint64_t> seen_;  // delivered-id bitmap
  util::Histogram latency_ns_{std::size_t{1} << 21};
};

/// Every generated packet goes out through here: the ledger counts it,
/// and a traced rep times the stamp + Host::send pair (net.stamp_ns),
/// sampling one call in 1024 as a span.
class Sender {
 public:
  explicit Sender(Ledger& ledger) : ledger_(ledger) {}

  template <typename Build>
  void send(sim::Host& host, sim::SimNanos due, Build&& build) {
    if (tracer() == nullptr) {
      host.send(build());
    } else {
      const std::int64_t start = host_ns();
      host.send(build());
      note(host_ns() - start, start);
    }
    ledger_.sent(due);
  }

  [[nodiscard]] std::int64_t stamp_ns() const { return stamp_ns_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  void note(std::int64_t ns, std::int64_t start_ns);

  Ledger& ledger_;
  std::int64_t stamp_ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// The parts of a workload's network the per-layer metrics read.
struct Components {
  std::vector<std::pair<std::string, softswitch::SoftSwitch*>> switches;  // role, switch
  legacy::LegacySwitch* legacy = nullptr;
  std::vector<openflow::ControlChannel*> control;
  std::vector<softswitch::ReplicationChannel*> replication;
  controller::Controller* controller = nullptr;
};

/// Public-counter snapshot taken at the measured-phase start and end.
struct Snapshot {
  struct Switch {
    std::uint64_t pipeline_runs = 0;
    std::uint64_t bursts = 0;
    std::uint64_t replay_groups = 0;
    std::uint64_t rx_polls = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t invalidations = 0;
    sim::SimNanos busy_ns = 0;
    std::vector<sim::SimNanos> core_busy_ns;
    openflow::FlowCache::Stats cache;
    openflow::CtStats ct;
  };
  std::vector<Switch> switches;
  legacy::LegacySwitch::Counters legacy;
  std::uint64_t legacy_queue_drops = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t events = 0;
  std::uint64_t frame_copies = 0;

  static Snapshot take(sim::Network& network, const Components& parts);
};

/// Frames every channel of `network` dropped (whole run).
std::uint64_t link_drops(const sim::Network& network);

}  // namespace harmless::suite
