// bench_engine — wall-clock speed of the simulation engine itself.
//
// Every other bench in this directory reports *simulated* time; this
// one reports how fast the host executes the simulator — the number
// that bounds every fabric-scale study (thousands of switches, 10^6
// hosts, conntrack at millions of connections). Four scenarios:
//
//   timer_churn      — pure event-scheduler stress: K concurrent
//                      self-rescheduling timers with nearly-FIFO
//                      deadlines (the dominant service/link event
//                      shape) plus a slice of far-future timers (the
//                      expiry-sweep shape). Measures events/sec with
//                      no datapath work at all. Tens of events share
//                      each 4 ns calendar bucket: the densest load the
//                      engine's bucket lists see.
//   sparse_timers    — 256 self-rescheduling timers with 1-20 us
//                      steps: the bench_suite shape, a few hundred
//                      pending events spread thinly over the calendar
//                      ring, nearly all inside its window. Measures
//                      what one schedule plus one dispatch costs when
//                      the queue itself should stay in cache.
//   table1_native    — the Table 1 native soft-switch stream (64B
//                      back-to-back on a 10G feed): the single-core
//                      end-to-end datapath. Measures events/sec and
//                      host-Mpps (simulated packets per wall second).
//   table7_overload  — the Table 7 four-core overload (8 ports x 1G of
//                      64B frames into the deliberately slowed
//                      burst-32 datapath, stride steering): the
//                      acceptance scenario for the engine-speed work.
//
// Each scenario runs five times; its row reports the median run's
// wall_ms, events/sec and (for the packet scenarios) host-Mpps, with
// the min and max of both rates across the five. Everything is written
// to BENCH_engine.json. The CI perf-smoke job runs `--quick` and gates
// each packet scenario's host-Mpps as a ratio to the same run's
// timer_churn events/sec, which cancels the runner's speed; the floor
// is deliberately conservative so only real regressions (an accidental
// O(n) queue, a per-event allocation storm) trip it, not jitter. Event
// counts measure engine work, not behaviour: an engine that stops
// dispatching no-op events lowers them, and events/sec with them, while
// host-Mpps rises.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct EngineRun {
  double wall_ms = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  /// Simulated packets the datapath processed per wall-clock second
  /// (0 for the pure timer scenario).
  double host_mpps = 0;
  std::uint64_t packets = 0;
};

/// A scenario's repetitions: the median run (by wall time; events and
/// packets are the same in every run) and the spread of both rates.
struct EngineSummary {
  EngineRun median;
  int reps = 0;
  double events_per_sec_min = 0;
  double events_per_sec_max = 0;
  double host_mpps_min = 0;
  double host_mpps_max = 0;
};

EngineSummary summarize(std::vector<EngineRun> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const EngineRun& a, const EngineRun& b) { return a.wall_ms < b.wall_ms; });
  EngineSummary summary;
  summary.median = runs[runs.size() / 2];
  summary.reps = static_cast<int>(runs.size());
  // Sorted by wall time, so the rates run from max to min.
  summary.events_per_sec_min = runs.back().events_per_sec;
  summary.events_per_sec_max = runs.front().events_per_sec;
  summary.host_mpps_min = runs.back().host_mpps;
  summary.host_mpps_max = runs.front().host_mpps;
  return summary;
}

// ---- scenarios 1 and 2: pure event churn -----------------------------

/// `timers` concurrent self-rescheduling events, each advancing by its
/// own fixed step drawn by `draw_step`. Runs until `total_events`
/// dispatches.
template <typename DrawStep>
EngineRun run_timers(std::size_t timers, std::uint64_t total_events, DrawStep draw_step) {
  sim::Engine engine;
  util::Rng rng(7);
  std::uint64_t remaining = total_events;

  // Timer steps must outlive the lambdas; index into a flat vector.
  std::vector<sim::SimNanos> steps(timers);
  std::function<void(std::size_t)> fire = [&](std::size_t index) {
    if (remaining == 0) return;
    --remaining;
    engine.schedule_after(steps[index], [&fire, index] { fire(index); });
  };
  for (std::size_t i = 0; i < timers; ++i) {
    steps[i] = draw_step(rng);
    engine.schedule_at(static_cast<sim::SimNanos>(rng.below(1'000)), [&fire, i] { fire(i); });
  }

  const auto start = Clock::now();
  engine.run();
  const double wall = seconds_since(start);

  EngineRun run;
  run.wall_ms = wall * 1e3;
  run.events = engine.events_dispatched();
  run.events_per_sec = static_cast<double>(run.events) / wall;
  return run;
}

/// Most timers advance by a small nearly-FIFO delta (service/link
/// shape), a few jump far ahead (expiry-sweep shape).
EngineRun timer_churn(std::size_t timers, std::uint64_t total_events) {
  return run_timers(timers, total_events, [](util::Rng& rng) {
    // 90% short nearly-FIFO steps, 10% far-future (the two event
    // populations a calendar queue must serve at once).
    return rng.chance(0.9) ? static_cast<sim::SimNanos>(50 + rng.below(500))
                           : static_cast<sim::SimNanos>(100'000 + rng.below(10'000'000));
  });
}

/// Every timer steps 1-20 us: the few hundred pending events of a
/// bench_suite workload, all inside the ~64 us calendar window.
EngineRun sparse_timers(std::size_t timers, std::uint64_t total_events) {
  return run_timers(timers, total_events, [](util::Rng& rng) {
    return static_cast<sim::SimNanos>(1'000 + rng.below(19'001));
  });
}

// ---- scenario 3: Table 1 native datapath stream ----------------------

/// h1 -> h2 at the 10G line rate, 64B frames, through the batched
/// native soft switch (the Table 1 configuration).
EngineRun table1_native(std::size_t packets) {
  RigOptions options;
  options.access_link = sim::LinkSpec::gbps(10);
  NativeRig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, packets, 64, options.access_link.rate.serialization_ns(64));

  const std::uint64_t events_before = rig.network.engine().events_dispatched();
  const auto start = Clock::now();
  rig.network.run();
  const double wall = seconds_since(start);

  EngineRun run;
  run.wall_ms = wall * 1e3;
  run.events = rig.network.engine().events_dispatched() - events_before;
  run.events_per_sec = static_cast<double>(run.events) / wall;
  run.packets = rig.datapath->counters().pipeline_runs;
  run.host_mpps = static_cast<double>(run.packets) / wall / 1e6;
  return run;
}

// ---- scenario 4: Table 7 four-core overload --------------------------

/// One prebuilt frame per (src, dst) host pair; per-packet ports are
/// stamped in (net::UdpTemplate), so the generator costs a 64-byte
/// copy plus a checksum fold instead of a full header serialization.
net::UdpTemplate tuple_template(int src, int dst) {
  net::FlowKey key;
  key.eth_src = host_mac(src);
  key.eth_dst = host_mac(dst);
  key.ip_src = host_ip(src);
  key.ip_dst = host_ip(dst);
  return net::UdpTemplate(key, 64);
}

/// The Table 7 multi-core overload, verbatim (bench_throughput
/// core_scaling_run): every port offers its 1G line rate of 64B frames
/// to its neighbor against the deliberately slowed (rx_tx_pkt_ns=600)
/// burst-32 four-core datapath with partitioned ingress buffers. The
/// skewed workload keeps 90% of each port on its hot five-tuple.
EngineRun table7_overload(std::size_t cores, int ports, std::size_t packets_per_port) {
  RigOptions options;
  options.host_count = ports;
  options.access_link = sim::LinkSpec::gbps(1);
  options.sw.burst_size = 32;
  options.sw.ingress.cores.cores = cores;
  options.sw.ingress.cores.rss = sim::RssPolicy::kStride;
  options.sw.ingress.port_queue_capacity = 256;
  options.sw.ingress.queue_capacity = static_cast<std::size_t>(ports) * 256;
  options.sw.costs.rx_tx_pkt_ns = 600;  // ~1.6 Mpps per core: the ports overload it
  NativeRig rig(options);

  sim::LatencyRecorder recorder;
  for (sim::Host* host : rig.hosts) host->set_recorder(&recorder);

  util::Rng rng(13);
  std::vector<net::UdpTemplate> templates;
  templates.reserve(static_cast<std::size_t>(ports));
  for (int p = 0; p < ports; ++p) templates.push_back(tuple_template(p, (p + 1) % ports));
  const sim::SimNanos line = options.access_link.rate.serialization_ns(64);
  for (int p = 0; p < ports; ++p) {
    for (std::size_t i = 0; i < packets_per_port; ++i) {
      const std::uint16_t sport = rng.chance(0.9)
                                      ? static_cast<std::uint16_t>(10'000 + p)
                                      : static_cast<std::uint16_t>(1024 + rng.below(40'000));
      rig.network.engine().schedule_at(
          static_cast<sim::SimNanos>(i) * line, [&rig, &templates, p, sport] {
            rig.hosts[static_cast<std::size_t>(p)]->send(
                templates[static_cast<std::size_t>(p)].stamp(sport, 443));
          });
    }
  }

  const std::uint64_t events_before = rig.network.engine().events_dispatched();
  const auto start = Clock::now();
  rig.network.run();
  const double wall = seconds_since(start);

  EngineRun run;
  run.wall_ms = wall * 1e3;
  run.events = rig.network.engine().events_dispatched() - events_before;
  run.events_per_sec = static_cast<double>(run.events) / wall;
  run.packets = rig.datapath->counters().pipeline_runs;
  run.host_mpps = static_cast<double>(run.packets) / wall / 1e6;
  return run;
}

Json to_json(const std::string& scenario, const EngineSummary& summary) {
  const EngineRun& run = summary.median;
  Json row = Json::object();
  row.set("scenario", scenario);
  row.set("reps", summary.reps);
  row.set("wall_ms", run.wall_ms);
  row.set("events", run.events);
  row.set("events_per_sec", run.events_per_sec);
  row.set("events_per_sec_min", summary.events_per_sec_min);
  row.set("events_per_sec_max", summary.events_per_sec_max);
  row.set("packets", run.packets);
  row.set("host_mpps", run.host_mpps);
  row.set("host_mpps_min", summary.host_mpps_min);
  row.set("host_mpps_max", summary.host_mpps_max);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage: bench_engine [--quick] [scenario-substring]
  // The optional filter runs only matching scenarios — handy under a
  // profiler (gprofng collect app ./bench_engine table7).
  bool quick = false;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      filter = argv[i];
    }
  }

  // Wall-clock runs are noisy: report the median of five with min/max.
  const int reps = 5;
  const std::uint64_t churn_events = quick ? 400'000 : 4'000'000;
  const std::size_t churn_timers = 4'096;
  const std::size_t sparse_timer_count = 256;
  const std::size_t table1_packets = quick ? 20'000 : 200'000;
  const std::size_t table7_packets = quick ? 2'000 : 6'000;  // per port

  std::cout << "bench_engine - wall-clock engine speed (events/sec, host-Mpps)"
            << (quick ? " [QUICK]" : "") << "\n\n";

  struct Scenario {
    std::string name;
    std::function<EngineRun()> run;
  };
  const std::vector<Scenario> scenarios = {
      {"timer_churn", [&] { return timer_churn(churn_timers, churn_events); }},
      {"sparse_timers", [&] { return sparse_timers(sparse_timer_count, churn_events); }},
      {"table1_native_10g", [&] { return table1_native(table1_packets); }},
      {"table7_4core_overload", [&] { return table7_overload(4, 8, table7_packets); }},
  };

  util::Table table({"scenario", "wall_ms", "events", "Mev/s [min-max]", "host_Mpps [min-max]"});
  Json rows = Json::array();
  for (const Scenario& scenario : scenarios) {
    if (!filter.empty() && scenario.name.find(filter) == std::string::npos) continue;
    std::vector<EngineRun> runs;
    for (int rep = 0; rep < reps; ++rep) runs.push_back(scenario.run());
    const EngineSummary summary = summarize(std::move(runs));
    const EngineRun& median = summary.median;
    table.add_row(
        {scenario.name, util::format("%.1f", median.wall_ms),
         util::format("%llu", static_cast<unsigned long long>(median.events)),
         util::format("%.2f [%.2f-%.2f]", median.events_per_sec / 1e6,
                      summary.events_per_sec_min / 1e6, summary.events_per_sec_max / 1e6),
         median.packets == 0 ? std::string("-")
                             : util::format("%.2f [%.2f-%.2f]", median.host_mpps,
                                            summary.host_mpps_min, summary.host_mpps_max)});
    rows.push(to_json(scenario.name, summary));
  }
  std::cout << table.to_string() << '\n';

  Json report = Json::object();
  report.set("engine", std::move(rows));
  write_bench_json("BENCH_engine.json", report);
  return 0;
}
