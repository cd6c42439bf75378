// E5 — flow-table lookup scaling: linear vs ESwitch-style specialized
// matching (the dataplane-specialization idea of the software switch
// the demo runs, Molnár et al. [9]).
//
// google-benchmark microbenchmarks over real wall-clock time, swept
// over table size and rule shape:
//   * exact  — pure exact-match L2 rules (compiles to one hash probe)
//   * acl    — prefix/wildcard ACL rules (one shape per prefix length)
//   * mixed  — 90% exact + 10% ACL (the realistic enterprise table)
// On wall-clock time the specialized matcher costs one hash probe per
// shape for every rule shape, so it stops growing once the table has
// all its shapes; the linear matcher is the scan. For wildcard shapes
// `entries_scanned/lookup` still reports the priority-list scan the
// model bills, unchanged, so for acl and mixed it grows with the table.
//
// A second family, datapath/*, runs whole packets through a Pipeline
// with the two-tier flow cache on vs off over a skewed workload and
// reports the measured hit rates — the wall-clock counterpart of
// bench_throughput's simulated Table 3.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string_view>

#include "net/build.hpp"
#include "openflow/pipeline.hpp"
#include "util/rng.hpp"

using namespace harmless;
using namespace harmless::openflow;

namespace {

enum class RuleShape { kExact, kAcl, kMixed };

std::vector<std::unique_ptr<FlowEntry>> make_rules(RuleShape shape, std::size_t count,
                                                   util::Rng& rng) {
  std::vector<std::unique_ptr<FlowEntry>> rules;
  rules.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto entry = std::make_unique<FlowEntry>();
    entry->priority = 10;
    const bool acl = shape == RuleShape::kAcl || (shape == RuleShape::kMixed && i % 10 == 0);
    if (acl) {
      entry->priority = 20;
      entry->match.eth_type(0x0800)
          .ip_dst_prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng.below(1u << 24)) << 8),
                         static_cast<int>(8 + rng.below(17)));
    } else {
      entry->match.eth_dst(net::MacAddr::from_u64(0x020000000000ULL + i));
    }
    entry->instructions = apply({output(static_cast<std::uint32_t>(1 + i % 8))});
    rules.push_back(std::move(entry));
  }
  return rules;
}

std::vector<FieldView> make_probe_views(std::size_t rule_count, std::size_t probes,
                                        util::Rng& rng) {
  std::vector<FieldView> views;
  views.reserve(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    net::FlowKey key;
    key.eth_src = net::MacAddr::from_u64(0x02ff);
    // Mostly hits spread over the rule space, some misses.
    key.eth_dst = net::MacAddr::from_u64(0x020000000000ULL + rng.below(rule_count + 16));
    key.ip_src = net::Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    key.ip_dst = net::Ipv4Addr(static_cast<std::uint32_t>(rng.below(UINT32_MAX)));
    key.src_port = 1234;
    key.dst_port = 80;
    views.push_back(build_field_view(net::parse_packet(net::make_udp(key, 64)), 1));
  }
  return views;
}

void lookup_benchmark(benchmark::State& state, RuleShape shape, bool specialized) {
  const auto rule_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(42);
  auto rules = make_rules(shape, rule_count, rng);
  std::vector<FlowEntry*> raw;
  raw.reserve(rules.size());
  for (const auto& rule : rules) raw.push_back(rule.get());

  auto matcher = make_matcher(specialized);
  matcher->rebuild(raw);
  const auto views = make_probe_views(rule_count, 1024, rng);

  std::size_t index = 0;
  std::uint64_t scanned = 0, probes = 0, lookups = 0;
  for (auto _ : state) {
    LookupCost cost;
    FlowEntry* hit = matcher->lookup(views[index], cost);
    benchmark::DoNotOptimize(hit);
    scanned += cost.entries_scanned;
    probes += cost.hash_probes;
    ++lookups;
    index = (index + 1) & 1023;
  }
  state.counters["entries_scanned/lookup"] =
      benchmark::Counter(static_cast<double>(scanned) / static_cast<double>(lookups));
  state.counters["hash_probes/lookup"] =
      benchmark::Counter(static_cast<double>(probes) / static_cast<double>(lookups));
}

/// Whole-datapath benchmark: a mixed-rule pipeline fed a skewed
/// workload (90% elephants), cache on vs off.
void datapath_benchmark(benchmark::State& state, bool flow_cache) {
  const auto rule_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(42);
  Pipeline pipeline(/*table_count=*/1, /*specialized=*/true, flow_cache);
  {
    auto rules = make_rules(RuleShape::kMixed, rule_count, rng);
    for (auto& rule : rules) pipeline.table(0).add(std::move(*rule), 0).check();
  }

  // Pre-built packet pool: 8 elephant flows + a mice tail with random
  // destinations and ports (distinct microflows, shared megaflows).
  std::vector<net::Packet> pool;
  pool.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    net::FlowKey key;
    key.eth_src = net::MacAddr::from_u64(0x02ff);
    const bool elephant = rng.chance(0.9);
    const std::uint64_t dst =
        elephant ? i % 8 : rng.below(rule_count > 16 ? rule_count : 16);
    key.eth_dst = net::MacAddr::from_u64(0x020000000000ULL + dst);
    key.ip_src = net::Ipv4Addr(0x0a000001u);
    key.ip_dst = net::Ipv4Addr(0x0a000002u + static_cast<std::uint32_t>(dst));
    key.src_port = elephant ? static_cast<std::uint16_t>(10'000 + dst)
                            : static_cast<std::uint16_t>(1024 + rng.below(50'000));
    key.dst_port = 443;
    pool.push_back(net::make_udp(key, 64));
  }

  std::size_t index = 0;
  std::uint64_t lookups = 0;
  sim::SimNanos now = 0;
  for (auto _ : state) {
    net::Packet packet = pool[index].clone();  // copy: run() consumes
    now += 50;
    auto result = pipeline.run(std::move(packet), 1, now);
    benchmark::DoNotOptimize(result);
    ++lookups;
    index = (index + 1) & 1023;
  }
  const auto& stats = pipeline.cache().stats();
  state.counters["hit_rate"] = benchmark::Counter(
      lookups > 0 ? static_cast<double>(stats.hits) / static_cast<double>(lookups) : 0);
  state.counters["megaflows"] = benchmark::Counter(static_cast<double>(pipeline.cache().megaflow_count()));
}

void register_all() {
  for (const bool flow_cache : {false, true}) {
    const std::string name =
        std::string("datapath/skewed/") + (flow_cache ? "cached" : "uncached");
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [flow_cache](benchmark::State& state) { datapath_benchmark(state, flow_cache); });
    bench->RangeMultiplier(10)->Range(10, 10000);
  }
  static const struct {
    const char* name;
    RuleShape shape;
  } kShapes[] = {{"exact", RuleShape::kExact}, {"acl", RuleShape::kAcl},
                 {"mixed", RuleShape::kMixed}};
  for (const auto& shape : kShapes) {
    for (const bool specialized : {false, true}) {
      const std::string name = std::string("lookup/") + shape.name + "/" +
                               (specialized ? "specialized" : "linear");
      auto* bench = benchmark::RegisterBenchmark(
          name.c_str(),
          [shape = shape.shape, specialized](benchmark::State& state) {
            lookup_benchmark(state, shape, specialized);
          });
      bench->RangeMultiplier(10)->Range(1, 10000);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E5 - flow-table lookup: linear vs specialized (ESwitch-style) matcher\n");
  register_all();
  // Keep the default sweep quick (~30 s); pass your own
  // --benchmark_min_time to override for tighter confidence intervals.
  // A bare number of seconds: google-benchmark 1.7 rejects the "0.05s"
  // suffix form that later releases accept.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.05";
  const bool user_set_min_time = std::any_of(args.begin(), args.end(), [](const char* arg) {
    return std::string_view(arg).find("--benchmark_min_time") != std::string_view::npos;
  });
  if (!user_set_min_time) args.push_back(min_time.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "\nShape check: specialized/exact stays flat (one hash probe) while\n"
      "linear/exact grows with the table. specialized/acl and /mixed make one\n"
      "masked-key probe per shape (one shape per prefix length), so their\n"
      "wall-clock time stops growing once every prefix length has a shape,\n"
      "while their entries_scanned/lookup still reports the modelled\n"
      "priority-list scan; the linear matcher is the wall-clock scan. That\n"
      "crossover motivates dataplane specialization in the software switch\n"
      "HARMLESS deploys.\n"
      "datapath/skewed/cached should beat uncached on wall-clock ns/packet\n"
      "with a hit_rate near 1.0, and stay flat as the table grows (the cache\n"
      "decouples per-packet cost from rule count).\n");
  return 0;
}
