#include "workload.hpp"

#include <algorithm>
#include <sys/resource.h>

#include "net/parse.hpp"
#include "openflow/conntrack.hpp"
#include "reference.hpp"
#include "util/hash.hpp"

namespace harmless::suite {

namespace {

double safe_ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// The cache/conntrack shard a frame's flow steers to on a switch with
/// `shards` cores (the datapath's symmetric RSS hash).
std::size_t steer_shard(const net::ParsedPacket& parsed, std::size_t shards) {
  if (shards <= 1) return 0;
  std::uint64_t h = 0;
  if (parsed.ipv4 && (parsed.tcp || parsed.udp))
    h = util::symmetric_flow_hash(parsed.ipv4->src.value(), parsed.src_port(),
                                  parsed.ipv4->dst.value(), parsed.dst_port(),
                                  parsed.ipv4->protocol);
  else if (parsed.ipv4)
    h = util::symmetric_pair_hash(parsed.ipv4->src.value(), parsed.ipv4->dst.value());
  else if (parsed.l2_valid)
    h = util::symmetric_pair_hash(parsed.eth_src.to_u64(), parsed.eth_dst.to_u64());
  return static_cast<std::size_t>(h) % shards;
}

double find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& metric : metrics)
    if (metric.name == name) return metric.value;
  return 0.0;
}

}  // namespace

std::string describe_drops(const Components& parts, const sim::Network& network) {
  std::string out;
  const auto note = [&out](const std::string& what, std::uint64_t count) {
    if (count != 0) out += " " + what + "=" + std::to_string(count);
  };
  for (const auto& [role, sw] : parts.switches) {
    const softswitch::SoftSwitch::Counters& counters = sw->counters();
    note(role + ".queue", sw->queue_drops());
    note(role + ".no_match", counters.drops_no_match);
    note(role + ".port_down", counters.drops_port_down);
    note(role + ".rebooting", sw->failover_stats().dropped_restarting);
  }
  if (parts.legacy != nullptr) {
    note("legacy.queue", parts.legacy->queue_drops());
    note("legacy.ingress_filtered", parts.legacy->counters().ingress_filtered);
    note("legacy.no_member_egress", parts.legacy->counters().no_member_egress);
  }
  for (const auto& channel : network.channels()) note("link[" + channel->label() + "]", channel->drops());
  return out.empty() ? " none" : out;
}

std::uint64_t switch_drops(const Components& parts) {
  std::uint64_t drops = 0;
  for (const auto& [role, sw] : parts.switches) {
    const softswitch::SoftSwitch::Counters& counters = sw->counters();
    drops += sw->queue_drops() + counters.drops_no_match + counters.drops_port_down +
             sw->failover_stats().dropped_restarting;
  }
  return drops;
}

// ---- captures ----------------------------------------------------------

void Capture::add(std::uint32_t in_port, const net::Packet& packet) {
  if (frames.size() < capacity) {
    frames.emplace_back(in_port, packet.frame());
    return;
  }
  frames[next] = {in_port, packet.frame()};
  next = (next + 1) % capacity;
}

std::vector<std::pair<std::uint32_t, net::Bytes>> Capture::ordered() const {
  std::vector<std::pair<std::uint32_t, net::Bytes>> out;
  out.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) out.push_back(frames[(next + i) % frames.size()]);
  return out;
}

void Workload::capture_ingress(const std::string& role, sim::Node& tap_switch,
                               std::size_t capacity) {
  auto owned = std::make_unique<Capture>();
  owned->role = role;
  owned->capacity = capacity;
  Capture* capture = owned.get();
  captures_.push_back(std::move(owned));
  // Channel labels read "<from>:<port>-><to>". Port p's outgoing channel
  // names its peer; the peer's channel back into this switch is the
  // one feeding port p (one cable per node pair in every workload).
  const std::string& self = tap_switch.name();
  for (std::size_t p = 0; p < tap_switch.port_count(); ++p) {
    const sim::Channel* out = tap_switch.port(p).channel();
    if (out == nullptr) continue;
    const std::string peer = out->label().substr(out->label().find("->") + 2);
    for (const auto& channel : network_.channels()) {
      const std::string& label = channel->label();
      if (label.rfind(peer + ":", 0) != 0 || label.substr(label.find("->") + 2) != self) continue;
      const auto of_port = static_cast<std::uint32_t>(p + 1);
      channel->set_tap([capture, of_port](sim::SimNanos, const net::Packet& packet) {
        capture->add(of_port, packet);
      });
    }
  }
}

Capture* Workload::capture(const std::string& role) const {
  for (const auto& capture : captures_)
    if (capture->role == role) return capture.get();
  return nullptr;
}

void Workload::sample_ct_live() {
  std::uint64_t live = 0;
  for (const auto& [role, sw] : parts_.switches)
    if (sw->pipeline().conntrack_enabled()) live += sw->pipeline().ct_connection_count();
  ct_live_peak_ = std::max(ct_live_peak_, live);
}

// ---- the rep -------------------------------------------------------------

RepResult Workload::run() {
  std::unique_ptr<Tracer> trace;
  if (config_.trace) {
    trace = std::make_unique<Tracer>(
        mix(config_.seed, std::hash<std::string>{}(config_.workload)));
    set_tracer(trace.get());
  }
  RepResult result;
  result.workload = config_.workload;
  result.seed = config_.seed;
  // The machine's speed right before the setup (reference.hpp).
  result.reference = reference_chunks();
  double reference_ms = 0;
  for (const std::int64_t ns : result.reference) reference_ms += static_cast<double>(ns) / 1e6;

  const std::int64_t setup_start = host_ns();
  sim::SimNanos measure_begin = 0;
  sim::SimNanos measure_end = 0;
  {
    ScopedSpan setup("setup");
    build();
    const sim::SimNanos traffic_start = network_.now() + kMs;
    measure_begin = traffic_start + warmup_ns_;
    measure_end = measure_begin + std::max<sim::SimNanos>(kMs, measure_ns_);
    ledger_.set_measure_window(measure_begin, measure_end);
    start_traffic(traffic_start, measure_end);
    ScopedSpan warmup("warmup");
    network_.run_until(measure_begin);
  }
  const double setup_s = static_cast<double>(host_ns() - setup_start) / 1e9;

  const Snapshot before = Snapshot::take(network_, parts_);
  const std::int64_t wall_start = host_ns();
  {
    ScopedSpan measured("measured");
    // 1 ms slices, traced or not, so tracing adds only the spans.
    const sim::SimNanos drain_end = measure_end + drain_cap_ns_;
    for (sim::SimNanos at = measure_begin; at < drain_end;) {
      at = std::min(at + kMs, drain_end);
      const std::uint64_t events = network_.engine().events_dispatched();
      const std::uint64_t sent = ledger_.offered_total();
      const std::int64_t slice_start = host_ns();
      ScopedSpan slice("slice");
      network_.run_until(at);
      result.slices.push_back({host_ns() - slice_start, ledger_.offered_total() - sent});
      slice.set_count(network_.engine().events_dispatched() - events);
      sample_ct_live();
      if (at >= measure_end && drained()) break;
    }
  }
  const std::int64_t wall_ns = host_ns() - wall_start;
  const Snapshot after = Snapshot::take(network_, parts_);

  // ---- checks every workload shares ----
  result.check(ledger_.max_lateness() == 0,
               "generator lateness " + std::to_string(ledger_.max_lateness()) + " ns (want 0)");
  result.check(ledger_.duplicates() == 0,
               std::to_string(ledger_.duplicates()) + " duplicate deliveries");
  result.check(drained(), "drain cap reached with operations still in flight");
  const std::uint64_t drops = accounted_drops();
  result.check(ledger_.offered_total() == ledger_.delivered_total() + drops,
               "conservation: offered " + std::to_string(ledger_.offered_total()) +
                   " != delivered " + std::to_string(ledger_.delivered_total()) +
                   " + accounted drops " + std::to_string(drops) + " (drops:" +
                   describe_drops(parts_, network_) + ")");

  // ---- end-to-end metrics every workload shares ----
  const std::uint64_t offered = ledger_.offered_measured();
  result.offered = offered;
  result.measured_wall_s = static_cast<double>(wall_ns) / 1e9;
  // This rep's own throughput; the run-level host_mpps (main.cpp) filters
  // co-tenant noise across reps slice by slice.
  result.add("host_mpps_rep", "Mpkt/s",
             safe_ratio(static_cast<double>(offered), static_cast<double>(wall_ns) / 1e3));
  // Scaled to the nominal machine speed by the reference just before it.
  result.add("setup_s", "s", setup_s * kNominalReferenceMs / reference_ms);
  result.add("setup_s_raw", "s", setup_s);
  const double window_s = static_cast<double>(measure_end - measure_begin) / 1e9;
  result.add("sim_goodput_mpps", "Mpkt/s",
             static_cast<double>(ledger_.delivered_window()) / window_s / 1e6);
  const util::Histogram& latency = ledger_.latency_ns();
  result.latency_samples = latency.count();
  result.add("sim_latency_p50_us", "us", latency.empty() ? 0 : latency.quantile(0.5) / 1e3);
  result.add("sim_latency_p999_us", "us", latency.empty() ? 0 : latency.quantile(0.999) / 1e3);
  result.add("drop_ratio", "ratio",
             safe_ratio(static_cast<double>(ledger_.offered_window() - ledger_.delivered_window()),
                        static_cast<double>(ledger_.offered_window())));
  result.check(latency.count() >= 100'000 || config_.scale < 1.0,
               "only " + std::to_string(latency.count()) + " latency samples (want >= 1e5)");

  finish(result, before, after);
  result.add("peak_rss_mib", "MiB", peak_rss_mib());
  result.digest = ledger_.digest();

  if (trace) {
    result.layers = layer_metrics(before, after, wall_ns);
    for (const auto& [name, ns] : trace->self_ns())
      result.layers.push_back({"span." + name + ".self_ms", "ms", static_cast<double>(ns) / 1e6});
    for (const std::string& failure : trace_failures_) result.check_failures.push_back(failure);
    result.chrome_trace = trace->chrome_json(config_.workload);
    set_tracer(nullptr);
  }
  return result;
}

// ---- post-run replays ------------------------------------------------------

void Workload::replay_layers(std::vector<Metric>& layers) {
  for (const auto& frames : captures_) {
    for (const auto& [role, sw] : parts_.switches) {
      if (role != frames->role) continue;
      ScopedSpan span("replay.pipeline");
      const ReplayCost cost = replay_pipeline(sw->pipeline(), frames->ordered());
      span.set_count(cost.packets);
      layers.push_back(
          {"openflow.pipeline.run_burst_ns_per_pkt." + role, "ns", cost.ns_per_packet()});
    }
  }
}

ReplayCost Workload::replay_pipeline(
    openflow::Pipeline& pipeline, const std::vector<std::pair<std::uint32_t, net::Bytes>>& frames,
    const std::function<void(std::uint32_t, const net::Packet&)>& on_output) {
  ReplayCost cost;
  const std::size_t shards = pipeline.shard_count();
  std::vector<std::vector<openflow::BurstPacket>> pending(shards);
  openflow::BurstResult result;
  const sim::SimNanos now = network_.now();
  const auto flush = [&](std::size_t shard) {
    std::vector<openflow::BurstPacket>& items = pending[shard];
    if (items.empty()) return;
    const std::size_t count = items.size();
    const std::int64_t start = host_ns();
    pipeline.run_burst(items, now, shard, result);
    cost.ns += host_ns() - start;
    cost.packets += count;
    if (on_output)
      for (openflow::PipelineResult& packet_result : result.results)
        for (const auto& [port, packet] : packet_result.outputs) on_output(port, packet);
    items.clear();
  };
  for (const auto& [in_port, frame] : frames) {
    const std::size_t shard = steer_shard(net::parse_packet(frame), shards);
    pending[shard].push_back(openflow::BurstPacket{net::Packet(net::Bytes(frame)), in_port});
    if (pending[shard].size() == 32) flush(shard);
  }
  for (std::size_t shard = 0; shard < shards; ++shard) flush(shard);
  return cost;
}

void Workload::replay_conntrack(const Capture& capture, softswitch::SoftSwitch& sw,
                                const std::function<openflow::CtAction(std::uint32_t)>& action_for,
                                std::vector<Metric>& layers) {
  struct Item {
    openflow::CtTuple tuple;
    std::uint8_t flags = 0;
    openflow::CtAction action;
  };
  std::vector<Item> items;
  for (const auto& [in_port, frame] : capture.ordered()) {
    const net::ParsedPacket parsed = net::parse_packet(frame);
    if (!parsed.ipv4 || (!parsed.tcp && !parsed.udp)) continue;
    items.push_back({openflow::CtTuple{parsed.ipv4->src.value(), parsed.ipv4->dst.value(),
                                       parsed.src_port(), parsed.dst_port(),
                                       parsed.ipv4->protocol},
                     static_cast<std::uint8_t>(parsed.tcp ? parsed.tcp->flags : 0),
                     action_for(in_port)});
  }
  const sim::SimNanos now = network_.now();
  const openflow::CtConfig config = sw.pipeline().conntrack(0).config();
  {
    // A fresh shard sees the workload's tuple sequence cold.
    openflow::ConnTracker fresh(config, sw.pipeline().shard_count());
    ScopedSpan span("replay.ct.process");
    const std::int64_t start = host_ns();
    for (const Item& item : items) fresh.process(item.tuple, item.flags, now, item.action);
    const std::int64_t ns = host_ns() - start;
    span.set_count(items.size());
    layers.push_back({"openflow.ct.process_ns", "ns",
                      safe_ratio(static_cast<double>(ns), static_cast<double>(items.size()))});
    ScopedSpan classify_span("replay.ct.classify");
    const std::int64_t classify_start = host_ns();
    for (const Item& item : items) parse_sink_ += fresh.classify(item.tuple, item.flags, now);
    const std::int64_t classify_ns = host_ns() - classify_start;
    classify_span.set_count(items.size());
    layers.push_back({"openflow.ct.classify_ns", "ns",
                      safe_ratio(static_cast<double>(classify_ns),
                                 static_cast<double>(items.size()))});
  }
  // Checkpoint + wire round trip of the live shards.
  ScopedSpan span("replay.ct.snapshot");
  std::int64_t ns = 0;
  std::uint64_t entries = 0;
  for (std::size_t shard = 0; shard < sw.pipeline().shard_count(); ++shard) {
    openflow::ConnTracker& tracker = sw.pipeline().conntrack(shard);
    const std::int64_t start = host_ns();
    const openflow::CtSnapshot snapshot = tracker.checkpoint(now);
    const std::vector<std::uint8_t> bytes = snapshot.serialize();
    const std::optional<openflow::CtSnapshot> parsed = openflow::CtSnapshot::parse(bytes);
    ns += host_ns() - start;
    entries += snapshot.entries.size();
    if (!parsed || parsed->entries.size() != snapshot.entries.size())
      trace_failures_.push_back(sw.name() + ": conntrack snapshot round trip lost entries");
  }
  span.set_count(entries);
  layers.push_back({"softswitch.ha.snapshot_roundtrip_ns_per_entry", "ns",
                    safe_ratio(static_cast<double>(ns), static_cast<double>(entries))});
}

// ---- per-layer metrics ------------------------------------------------------

std::vector<Metric> Workload::layer_metrics(const Snapshot& before, const Snapshot& after,
                                            std::int64_t wall_ns) {
  std::vector<Metric> m;
  const auto put = [&m](const std::string& name, const std::string& unit, double value) {
    m.push_back({name, unit, value});
  };
  const double pkts = static_cast<double>(ledger_.offered_measured());
  const double events = static_cast<double>(after.events - before.events);

  // sim
  put("sim.events_per_pkt", "count", safe_ratio(events, pkts));
  put("sim.host_ns_per_event", "ns", safe_ratio(static_cast<double>(wall_ns), events));
  put("sim.engine.churn_ns_per_event", "ns", engine_churn_ns_per_event());
  std::uint64_t queue_drops = after.legacy_queue_drops - before.legacy_queue_drops;
  std::size_t peak_depth = 0;
  double busy_ratio = 1.0;
  for (std::size_t i = 0; i < after.switches.size(); ++i) {
    const Snapshot::Switch& a = after.switches[i];
    const Snapshot::Switch& b = before.switches[i];
    queue_drops += a.queue_drops - b.queue_drops;
    const softswitch::SoftSwitch& sw = *parts_.switches[i].second;
    for (std::uint32_t port = 1; port <= sw.of_port_count(); ++port)
      peak_depth = std::max(peak_depth, sw.rx_queue_peak_depth(port));
    double max_busy = 0;
    double sum_busy = 0;
    for (std::size_t core = 0; core < a.core_busy_ns.size(); ++core) {
      const double busy = static_cast<double>(a.core_busy_ns[core] - b.core_busy_ns[core]);
      max_busy = std::max(max_busy, busy);
      sum_busy += busy;
    }
    const double cores = static_cast<double>(a.core_busy_ns.size());
    if (cores > 1 && sum_busy > 0) busy_ratio = std::max(busy_ratio, max_busy / (sum_busy / cores));
  }
  if (parts_.legacy != nullptr)
    for (std::size_t port = 0; port < parts_.legacy->port_count(); ++port)
      peak_depth = std::max(peak_depth, parts_.legacy->port_queue_peak_depth(port));
  put("sim.queue_drops", "count", static_cast<double>(queue_drops));
  put("sim.queue_peak_depth", "count", static_cast<double>(peak_depth));
  put("sim.link_drops", "count", static_cast<double>(after.link_drops - before.link_drops));
  put("sim.core_busy_max_over_mean", "ratio", busy_ratio);

  // net
  put("net.frame_copies_per_pkt", "ratio",
      safe_ratio(static_cast<double>(after.frame_copies - before.frame_copies), pkts));
  std::vector<Metric> replayed;
  replay_layers(replayed);
  std::int64_t parse_ns = 0;
  std::uint64_t parses = 0;
  for (const auto& capture : captures_) {
    ScopedSpan span("replay.parse");
    for (const auto& [in_port, frame] : capture->frames) {
      const std::int64_t start = host_ns();
      const net::ParsedPacket parsed = net::parse_packet(frame);
      parse_ns += host_ns() - start;
      parse_sink_ += parsed.eth_type + in_port;
    }
    parses += capture->frames.size();
    span.set_count(capture->frames.size());
  }
  const double parse_ns_per = safe_ratio(static_cast<double>(parse_ns), static_cast<double>(parses));
  put("net.parse_ns", "ns", parse_ns_per);
  const double stamp_ns_per =
      safe_ratio(static_cast<double>(sender_.stamp_ns()), static_cast<double>(sender_.calls()));
  put("net.stamp_ns", "ns", stamp_ns_per);
  // The generator must stay a small share of the work it drives.
  const double traced_ns_per_pkt = safe_ratio(static_cast<double>(wall_ns), pkts);
  if (stamp_ns_per >= 0.1 * traced_ns_per_pkt)
    trace_failures_.push_back("generator share: net.stamp_ns " + std::to_string(stamp_ns_per) +
                              " ns is >= 10% of the traced rep's " +
                              std::to_string(traced_ns_per_pkt) + " host ns/pkt");

  // openflow.cache, softswitch burst shape (all soft switches, measured phase)
  openflow::FlowCache::Stats cache;
  openflow::CtStats ct;
  std::uint64_t invalidations = 0;
  std::uint64_t runs = 0;
  std::uint64_t bursts = 0;
  std::uint64_t groups = 0;
  std::uint64_t polls = 0;
  for (std::size_t i = 0; i < after.switches.size(); ++i) {
    const Snapshot::Switch& a = after.switches[i];
    const Snapshot::Switch& b = before.switches[i];
    cache.microflow_hits += a.cache.microflow_hits - b.cache.microflow_hits;
    cache.megaflow_hits += a.cache.megaflow_hits - b.cache.megaflow_hits;
    cache.misses += a.cache.misses - b.cache.misses;
    cache.insertions += a.cache.insertions - b.cache.insertions;
    cache.evictions += a.cache.evictions - b.cache.evictions;
    cache.subtable_probes += a.cache.subtable_probes - b.cache.subtable_probes;
    invalidations += a.invalidations - b.invalidations;
    ct.lookups += a.ct.lookups - b.ct.lookups;
    ct.hits += a.ct.hits - b.ct.hits;
    ct.created += a.ct.created - b.ct.created;
    ct.expired += a.ct.expired - b.ct.expired;
    ct.evicted += a.ct.evicted - b.ct.evicted;
    ct.invalid += a.ct.invalid - b.ct.invalid;
    ct.nat_failures += a.ct.nat_failures - b.ct.nat_failures;
    runs += a.pipeline_runs - b.pipeline_runs;
    bursts += a.bursts - b.bursts;
    groups += a.replay_groups - b.replay_groups;
    polls += a.rx_polls - b.rx_polls;
  }
  const double lookups =
      static_cast<double>(cache.microflow_hits + cache.megaflow_hits + cache.misses);
  put("openflow.cache.microflow_hit_ratio", "ratio",
      safe_ratio(static_cast<double>(cache.microflow_hits), lookups));
  put("openflow.cache.megaflow_hit_ratio", "ratio",
      safe_ratio(static_cast<double>(cache.megaflow_hits), lookups));
  put("openflow.cache.miss_ratio", "ratio", safe_ratio(static_cast<double>(cache.misses), lookups));
  put("openflow.cache.probes_per_t2_lookup", "count",
      safe_ratio(static_cast<double>(cache.subtable_probes),
                 static_cast<double>(cache.megaflow_hits + cache.misses)));
  put("openflow.cache.insertions", "count", static_cast<double>(cache.insertions));
  put("openflow.cache.evictions", "count", static_cast<double>(cache.evictions));
  put("openflow.cache.invalidations", "count", static_cast<double>(invalidations));

  // openflow.pipeline: host ns per packet of run_burst, per switch role
  // (zero for roles the workload lacks). The attribution multiplies
  // each by the pipeline passes per offered packet.
  double attributed = stamp_ns_per;
  for (const char* role : {"ss1", "ss2", "acl", "gw"}) {
    const std::string name = std::string("openflow.pipeline.run_burst_ns_per_pkt.") + role;
    const double value = find(replayed, name);
    put(name, "ns", value);
    for (std::size_t i = 0; i < parts_.switches.size(); ++i)
      if (parts_.switches[i].first == role)
        attributed += value * safe_ratio(static_cast<double>(after.switches[i].pipeline_runs -
                                                             before.switches[i].pipeline_runs),
                                         pkts);
  }
  // Parses outside the replayed pipelines: one per host delivery and
  // one per legacy-switch hop.
  double other_parses = safe_ratio(static_cast<double>(ledger_.delivered_window()),
                                   static_cast<double>(ledger_.offered_window()));
  if (parts_.legacy != nullptr)
    other_parses += safe_ratio(
        static_cast<double>((after.legacy.forwarded + after.legacy.flooded) -
                            (before.legacy.forwarded + before.legacy.flooded)),
        pkts);
  attributed += parse_ns_per * other_parses;

  // openflow.ct
  put("openflow.ct.hit_ratio", "ratio",
      safe_ratio(static_cast<double>(ct.hits), static_cast<double>(ct.lookups)));
  put("openflow.ct.created", "count", static_cast<double>(ct.created));
  put("openflow.ct.expired", "count", static_cast<double>(ct.expired));
  put("openflow.ct.evicted", "count", static_cast<double>(ct.evicted));
  put("openflow.ct.invalid", "count", static_cast<double>(ct.invalid));
  put("openflow.ct.nat_failures", "count", static_cast<double>(ct.nat_failures));
  put("openflow.ct.live_peak", "count", static_cast<double>(ct_live_peak_));
  put("openflow.ct.classify_ns", "ns", find(replayed, "openflow.ct.classify_ns"));
  put("openflow.ct.process_ns", "ns", find(replayed, "openflow.ct.process_ns"));

  // openflow.control (whole run)
  std::uint64_t to_switch = 0;
  std::uint64_t to_controller = 0;
  for (const openflow::ControlChannel* channel : parts_.control) {
    to_switch += channel->to_switch().sent;
    to_controller += channel->to_controller().sent;
  }
  put("openflow.control.msgs_to_switch", "count", static_cast<double>(to_switch));
  put("openflow.control.msgs_to_controller", "count", static_cast<double>(to_controller));

  // softswitch
  put("softswitch.pkts_per_burst", "count",
      safe_ratio(static_cast<double>(runs), static_cast<double>(bursts)));
  put("softswitch.replay_groups_per_burst", "count",
      safe_ratio(static_cast<double>(groups), static_cast<double>(bursts)));
  put("softswitch.rx_polls_per_burst", "count",
      safe_ratio(static_cast<double>(polls), static_cast<double>(bursts)));
  for (const char* role : {"ss1", "ss2", "acl", "gw", "mux"}) {
    sim::SimNanos busy = 0;
    std::uint64_t role_runs = 0;
    for (std::size_t i = 0; i < parts_.switches.size(); ++i) {
      if (parts_.switches[i].first != role) continue;
      busy += after.switches[i].busy_ns - before.switches[i].busy_ns;
      role_runs += after.switches[i].pipeline_runs - before.switches[i].pipeline_runs;
    }
    put(std::string("softswitch.sim_busy_ns_per_pkt.") + role, "ns",
        safe_ratio(static_cast<double>(busy), static_cast<double>(role_runs)));
  }
  std::uint64_t deltas = 0;
  std::uint64_t dropped = 0;
  for (const softswitch::ReplicationChannel* channel : parts_.replication) {
    deltas += channel->stats().deltas_delivered;
    dropped += channel->stats().batches_dropped_down + channel->stats().batches_dropped_loss;
  }
  put("softswitch.repl.deltas_delivered", "count", static_cast<double>(deltas));
  put("softswitch.repl.batches_dropped", "count", static_cast<double>(dropped));
  softswitch::FailoverStats ha;
  for (const auto& [role, sw] : parts_.switches) {
    const softswitch::FailoverStats& f = sw->failover_stats();
    ha.checkpoint_bytes += f.checkpoint_bytes;
    ha.checkpoint_shards_skipped += f.checkpoint_shards_skipped;
    ha.takeovers += f.takeovers;
    ha.ha_fences += f.ha_fences;
    ha.ha_failback_entries += f.ha_failback_entries;
  }
  put("softswitch.ha.checkpoint_bytes", "count", static_cast<double>(ha.checkpoint_bytes));
  put("softswitch.ha.checkpoint_shards_skipped", "count",
      static_cast<double>(ha.checkpoint_shards_skipped));
  put("softswitch.ha.takeovers", "count", static_cast<double>(ha.takeovers));
  put("softswitch.ha.fences", "count", static_cast<double>(ha.ha_fences));
  put("softswitch.ha.failback_entries", "count", static_cast<double>(ha.ha_failback_entries));
  put("softswitch.ha.snapshot_roundtrip_ns_per_entry", "ns",
      find(replayed, "softswitch.ha.snapshot_roundtrip_ns_per_entry"));

  // legacy, harmless, controller
  put("legacy.forwarded", "count",
      static_cast<double>(after.legacy.forwarded - before.legacy.forwarded));
  put("legacy.flood_copies", "count",
      static_cast<double>(after.legacy.flood_copies - before.legacy.flood_copies));
  put("harmless.migrate_ms", "ms", migrate_ms_);
  put("controller.packet_ins", "count",
      parts_.controller != nullptr ? static_cast<double>(parts_.controller->stats().packet_ins)
                                   : 0.0);
  put("controller.flows_installed", "count", static_cast<double>(controller_flows_));

  // Inputs the parent turns into residual.host_ns_per_pkt and
  // trace.overhead against its untraced reps.
  put("trace.attributed_ns_per_pkt", "ns", attributed);
  put("trace.traced_host_ns_per_pkt", "ns", traced_ns_per_pkt);
  return m;
}

// ---- engine reference ---------------------------------------------------------

double engine_churn_ns_per_event() {
  // 1024 self-rescheduling timers, 90% nearly-FIFO steps and 10% far
  // ones (the service/link and expiry-sweep shapes), a fixed 400k
  // dispatches: the same work on every run.
  constexpr std::size_t kTimers = 1024;
  constexpr std::uint64_t kEvents = 400'000;
  struct Churn {
    sim::Engine engine;
    std::uint64_t remaining = kEvents;
    std::vector<sim::SimNanos> step = std::vector<sim::SimNanos>(kTimers);
    void fire(std::size_t index) {
      if (remaining == 0) return;
      --remaining;
      engine.schedule_after(step[index], [this, index] { fire(index); });
    }
  };
  Churn churn;
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (std::size_t i = 0; i < kTimers; ++i) {
    churn.step[i] = next() % 10 != 0 ? static_cast<sim::SimNanos>(50 + next() % 500)
                                     : static_cast<sim::SimNanos>(100'000 + next() % 5'000'000);
    churn.engine.schedule_at(static_cast<sim::SimNanos>(next() % 1000),
                             [&churn, i] { churn.fire(i); });
  }
  ScopedSpan span("engine.churn");
  const std::int64_t start = host_ns();
  churn.engine.run();
  const std::int64_t ns = host_ns() - start;
  span.set_count(churn.engine.events_dispatched());
  return safe_ratio(static_cast<double>(ns), static_cast<double>(churn.engine.events_dispatched()));
}

// ---- registry -------------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hairpin_imix", "acl_churn", "nat_conn_churn",
                                                 "ha_failover"};
  return names;
}

std::unique_ptr<Workload> make_workload(const RepConfig& config) {
  if (config.workload == "hairpin_imix") return make_hairpin_imix(config);
  if (config.workload == "acl_churn") return make_acl_churn(config);
  if (config.workload == "nat_conn_churn") return make_nat_conn_churn(config);
  if (config.workload == "ha_failover") return make_ha_failover(config);
  return nullptr;
}

}  // namespace harmless::suite
