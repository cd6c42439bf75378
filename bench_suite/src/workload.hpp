// workload.hpp — the fixed shape of one bench_suite rep.
//
// Workload::run() owns the sequence every workload shares; subclasses
// build their network, generate traffic and add their own checks and
// metrics. Only the suite's own calls into the simulator's public API
// are timed or traced.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace harmless::suite {

/// Frames captured at one switch's ingress for the post-run replays:
/// (OF in_port, frame) in arrival order, the last `capacity` of them.
struct Capture {
  std::string role;
  std::size_t capacity = 0;
  std::size_t next = 0;
  std::vector<std::pair<std::uint32_t, net::Bytes>> frames;

  void add(std::uint32_t in_port, const net::Packet& packet);
  /// Frames in arrival order (oldest first).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, net::Bytes>> ordered() const;
};

/// Host time and packet count of one pipeline replay.
struct ReplayCost {
  std::int64_t ns = 0;
  std::uint64_t packets = 0;
  [[nodiscard]] double ns_per_packet() const {
    return packets == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(packets);
  }
};

class Workload {
 public:
  explicit Workload(const RepConfig& config) : config_(config), ledger_(network_.engine()) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  RepResult run();

 protected:
  /// Topology, migration / rule install, conntrack preload.
  virtual void build() = 0;
  /// Arm the generators: first sends at `start`, no new operation at or
  /// after `stop`.
  virtual void start_traffic(sim::SimNanos start, sim::SimNanos stop) = 0;
  /// True once every operation started before the stop time finished.
  [[nodiscard]] virtual bool operations_idle() const { return true; }
  /// Operations idle and every generated packet delivered or dropped:
  /// the drain ends then (or at the drain cap).
  [[nodiscard]] bool drained() const {
    return operations_idle() &&
           ledger_.offered_total() == ledger_.delivered_total() + accounted_drops();
  }
  /// Sum of every public drop counter that can account for a lost
  /// generated packet (whole run).
  [[nodiscard]] virtual std::uint64_t accounted_drops() const = 0;
  /// Workload-specific checks and end-to-end metrics, and the
  /// operations attempted/failed; `result` already holds the shared
  /// ones. `before`/`after` bracket the measured phase.
  virtual void finish(RepResult& result, const Snapshot& before, const Snapshot& after) = 0;
  /// Traced reps: run the captured frames through the switches'
  /// pipelines (and conntrack) and report openflow.pipeline.* /
  /// openflow.ct.* / softswitch.ha.snapshot_* values into `layers`.
  /// Default: each capture through the pipeline of the switch whose
  /// role it carries.
  virtual void replay_layers(std::vector<Metric>& layers);

  /// Tap every channel into `tap_switch` so the frames it delivers are
  /// captured for `role` (trace only), recorded with in_port = the
  /// receiving sim port + 1 (its OF port). Patch-fed switches have no
  /// channels; they are captured at the wired switch in front of them.
  void capture_ingress(const std::string& role, sim::Node& tap_switch, std::size_t capacity);
  [[nodiscard]] Capture* capture(const std::string& role) const;

  /// Run `frames` through `pipeline` in bursts of 32 (per conntrack /
  /// cache shard, steered like the datapath's symmetric RSS); returns
  /// the host time of the run_burst calls alone. Outputs are handed to
  /// `on_output` (OF out_port, frame) when given.
  ReplayCost replay_pipeline(
      openflow::Pipeline& pipeline, const std::vector<std::pair<std::uint32_t, net::Bytes>>& frames,
      const std::function<void(std::uint32_t, const net::Packet&)>& on_output = {});
  /// Conntrack classify/process on a fresh shard over the captured
  /// tuple sequence (`action_for` gives the `ct` action the gateway's
  /// rules apply to a frame arriving on an OF port), and a checkpoint +
  /// serialize/parse round trip of the live shards of `sw`.
  void replay_conntrack(const Capture& capture, softswitch::SoftSwitch& sw,
                        const std::function<openflow::CtAction(std::uint32_t)>& action_for,
                        std::vector<Metric>& layers);

  [[nodiscard]] sim::SimNanos scaled(sim::SimNanos base) const {
    return static_cast<sim::SimNanos>(static_cast<double>(base) * config_.scale);
  }

  RepConfig config_;
  sim::Network network_;
  Ledger ledger_;
  Sender sender_{ledger_};
  Components parts_;
  std::vector<std::unique_ptr<Capture>> captures_;
  sim::SimNanos warmup_ns_ = 2 * kMs;
  sim::SimNanos measure_ns_ = 100 * kMs;
  sim::SimNanos drain_cap_ns_ = 5 * kMs;
  /// Host time of HarmlessManager::migrate (hairpin only).
  double migrate_ms_ = 0;
  /// Flows the controller apps installed (learned + static + churn).
  std::uint64_t controller_flows_ = 0;

 private:
  std::vector<Metric> layer_metrics(const Snapshot& before, const Snapshot& after,
                                    std::int64_t wall_ns);
  void sample_ct_live();

  std::uint64_t ct_live_peak_ = 0;
  /// Folds replayed results in so the timed calls stay observable.
  std::uint64_t parse_sink_ = 0;
  /// Checks only a traced rep can make (replay round trips, generator share).
  std::vector<std::string> trace_failures_;
};

std::unique_ptr<Workload> make_workload(const RepConfig& config);
const std::vector<std::string>& workload_names();

std::unique_ptr<Workload> make_hairpin_imix(const RepConfig& config);
std::unique_ptr<Workload> make_acl_churn(const RepConfig& config);
std::unique_ptr<Workload> make_nat_conn_churn(const RepConfig& config);
std::unique_ptr<Workload> make_ha_failover(const RepConfig& config);

/// Host ns per event of a fixed Engine::schedule_after/run churn — the
/// same-run machine reference.
double engine_churn_ns_per_event();

/// Drop counters of every soft switch in `parts` (queue, no-match,
/// port-down, dropped while rebooting).
std::uint64_t switch_drops(const Components& parts);
/// The non-zero drop counters of `parts` and `network`, for messages.
std::string describe_drops(const Components& parts, const sim::Network& network);

}  // namespace harmless::suite
