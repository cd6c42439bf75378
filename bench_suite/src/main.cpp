// bench_suite — one end-to-end and per-layer benchmark of the HARMLESS
// simulator over four workloads (see README.md for the metric
// dictionary, the workloads' rationale and how to compare two runs).
//
//   bench_suite [--seed N] [--reps R] [--out DIR] [--trace] [--workload W]...
//       Runs every workload (or the named ones) R times (default 3),
//       each rep a fresh child process, one after another. Prints every
//       end-to-end metric with its unit, median, quartiles and sample
//       count, checks outputs, writes DIR/suite_seed<N>.json (default
//       DIR: bench_out) and exits non-zero on any failed check. --trace
//       adds one traced rep per workload: per-layer metrics plus a
//       Chrome trace (DIR/trace_<workload>_seed<N>.json).
//   bench_suite --smoke [--seed N]
//       Every workload at 1/20 scale in-process, all checks, plus the
//       determinism check: seed N twice gives one digest, N+1 another.
//   bench_suite --workload W --seed N --seconds S --trace 0|1
//       The benchmark protocol: reps of W for about S seconds, then one
//       JSON line {correct, attempted, failed, metrics}.
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "reference.hpp"
#include "stats.hpp"
#include "workload.hpp"

extern char** environ;

using namespace harmless::suite;

namespace {

struct Args {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  int reps = 3;
  std::string out = "bench_out";
  bool trace = false;
  bool smoke = false;
  bool child = false;
  double seconds = -1;  // > 0: the benchmark protocol
  std::string trace_file;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite [--seed N] [--reps R] [--out DIR] [--trace] "
               "[--workload W]...\n"
               "       bench_suite --smoke [--seed N]\n"
               "       bench_suite --workload W --seed N --seconds S --trace 0|1\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workloads.push_back(value());
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--reps") {
        args.reps = std::stoi(value());
      } else if (flag == "--out") {
        args.out = value();
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace-file") {
        args.trace_file = value();
      } else if (flag == "--trace") {
        // `--trace` alone or the protocol's `--trace 0|1`.
        if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0))
          args.trace = value() == "1";
        else
          args.trace = true;
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--child") {
        args.child = true;
      } else {
        usage(("unknown argument " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.reps < 1) usage("--reps must be >= 1");
  for (const std::string& name : args.workloads) {
    bool known = false;
    for (const std::string& w : workload_names()) known = known || w == name;
    if (!known) usage(("unknown workload " + name).c_str());
  }
  if (args.workloads.empty())
    for (const std::string& w : workload_names()) args.workloads.push_back(w);
  return args;
}

// ---- child protocol -----------------------------------------------------
//
// A child runs one rep and prints one fact per line; the parent reads
// them back. Values carry all 17 significant digits.

void print_rep(const RepResult& rep, std::FILE* out) {
  for (const Metric& m : rep.e2e)
    std::fprintf(out, "e2e %s %s %.17g\n", m.name.c_str(), m.unit.c_str(), m.value);
  for (const Metric& m : rep.layers)
    std::fprintf(out, "layer %s %s %.17g\n", m.name.c_str(), m.unit.c_str(), m.value);
  for (const std::string& failure : rep.check_failures) std::fprintf(out, "check %s\n", failure.c_str());
  std::fprintf(out, "digest %016" PRIx64 "\n", rep.digest);
  std::fprintf(out, "attempted %" PRIu64 "\nfailed %" PRIu64 "\n", rep.attempted, rep.failed);
  std::fprintf(out, "latency_samples %" PRIu64 "\noffered %" PRIu64 "\n", rep.latency_samples,
               rep.offered);
  std::fprintf(out, "wall_s %.17g\n", rep.measured_wall_s);
  std::fprintf(out, "slices");
  for (const auto& [ns, packets] : rep.slices)
    std::fprintf(out, " %" PRId64 ":%" PRIu64, ns, packets);
  std::fprintf(out, "\nreference");
  for (const std::int64_t ns : rep.reference) std::fprintf(out, " %" PRId64, ns);
  std::fprintf(out, "\n");
}

RepResult parse_rep(const std::string& text) {
  RepResult rep;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string rest = line.substr(space + 1);
    if (key == "e2e" || key == "layer") {
      char name[256] = {};
      char unit[64] = {};
      double value = 0;
      if (std::sscanf(rest.c_str(), "%255s %63s %lf", name, unit, &value) != 3) continue;
      (key == "e2e" ? rep.e2e : rep.layers).push_back({name, unit, value});
    } else if (key == "check") {
      rep.check_failures.push_back(rest);
    } else if (key == "digest") {
      rep.digest = std::strtoull(rest.c_str(), nullptr, 16);
    } else if (key == "attempted") {
      rep.attempted = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "failed") {
      rep.failed = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "latency_samples") {
      rep.latency_samples = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "offered") {
      rep.offered = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "wall_s") {
      rep.measured_wall_s = std::strtod(rest.c_str(), nullptr);
    } else if (key == "slices") {
      const char* cursor = rest.c_str();
      char* end = nullptr;
      while (*cursor != '\0') {
        const std::int64_t ns = std::strtoll(cursor, &end, 10);
        if (end == cursor || *end != ':') break;
        const std::uint64_t packets = std::strtoull(end + 1, &end, 10);
        rep.slices.push_back({ns, packets});
        cursor = end;
      }
    } else if (key == "reference") {
      const char* cursor = rest.c_str();
      char* end = nullptr;
      for (std::int64_t ns = std::strtoll(cursor, &end, 10); end != cursor;
           ns = std::strtoll(cursor, &end, 10)) {
        rep.reference.push_back(ns);
        cursor = end;
      }
    }
  }
  return rep;
}

/// Run one rep in a fresh child process of this binary and wait for it.
RepResult run_child(const std::string& workload, std::uint64_t seed, bool trace,
                    const std::string& trace_file) {
  std::vector<std::string> argv_s = {"bench_suite", "--child", "--workload", workload, "--seed",
                                     std::to_string(seed)};
  if (trace) {
    argv_s.push_back("--trace");
    argv_s.push_back("--trace-file");
    argv_s.push_back(trace_file);
  }
  std::vector<char*> argv;
  for (std::string& arg : argv_s) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    RepResult failed;
    failed.check_failures.push_back("pipe() failed");
    return failed;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  int status = 0;
  if (spawned == 0) {
    char buffer[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buffer, sizeof buffer);
      if (n > 0) {
        text.append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  close(fds[0]);
  RepResult rep = parse_rep(text);
  rep.workload = workload;
  rep.seed = seed;
  if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    rep.check_failures.push_back("rep child process failed (status " + std::to_string(status) + ")");
  if (rep.e2e.empty()) rep.check_failures.push_back("rep child reported no metrics");
  return rep;
}

int child_main(const Args& args) {
  // A rep never outlives the suite process that spawned it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  RepConfig config;
  config.workload = args.workloads.front();
  config.seed = args.seed;
  config.trace = args.trace;
  RepResult rep = make_workload(config)->run();
  if (args.trace && !args.trace_file.empty()) {
    std::ofstream out(args.trace_file);
    out << rep.chrome_trace;
    if (!out) rep.check_failures.push_back("could not write " + args.trace_file);
  }
  print_rep(rep, stdout);
  return 0;
}

// ---- aggregation ------------------------------------------------------------

struct Series {
  std::string unit;
  std::vector<double> values;
};

/// End-to-end metric name -> values across reps, in first-seen order.
std::vector<std::pair<std::string, Series>> collect(const std::vector<RepResult>& reps) {
  std::vector<std::pair<std::string, Series>> out;
  for (const RepResult& rep : reps) {
    for (const Metric& m : rep.e2e) {
      auto it = std::find_if(out.begin(), out.end(), [&m](const auto& e) { return e.first == m.name; });
      if (it == out.end()) {
        out.push_back({m.name, Series{m.unit, {}}});
        it = out.end() - 1;
      }
      it->second.values.push_back(m.value);
    }
  }
  return out;
}

/// Σ over k of the smallest `time(rep, k)` any rep recorded for k.
template <typename Time>
double sum_of_minima(const std::vector<RepResult>& reps, std::size_t count, Time time) {
  double total = 0;
  for (std::size_t k = 0; k < count; ++k) {
    std::int64_t fastest = time(reps.front(), k);
    for (const RepResult& rep : reps) fastest = std::min(fastest, time(rep, k));
    total += static_cast<double>(fastest);
  }
  return total;
}

/// What the reps of one run tell together.
struct RunSummary {
  std::vector<std::string> failures;
  /// Packets per host µs with co-tenants' noise filtered out: slice k of
  /// the measured phase is the same simulated work in every rep of one
  /// seed, so its fastest host time across the reps is the closest to
  /// an uncontended one, and the minima summed time the whole phase.
  double filtered_mpps = 0;
  /// The reference chunks timed the same way: how fast the machine's
  /// quiet moments were during this run.
  double reference_ms = 0;
  /// filtered_mpps at the nominal machine speed — the slow drift of the
  /// shared host scaled out by the same-run reference.
  [[nodiscard]] double host_mpps() const {
    return filtered_mpps * reference_ms / kNominalReferenceMs;
  }
};

RunSummary summarize(const std::vector<RepResult>& reps) {
  RunSummary run;
  std::set<std::uint64_t> digests;
  for (const RepResult& rep : reps) {
    digests.insert(rep.digest);
    for (const std::string& f : rep.check_failures) run.failures.push_back(f);
  }
  if (digests.size() != 1)
    run.failures.push_back("determinism: " + std::to_string(digests.size()) +
                           " distinct digests across reps of one seed");
  const RepResult& first = reps.front();
  for (const RepResult& rep : reps) {
    bool same = rep.slices.size() == first.slices.size() &&
                rep.reference.size() == first.reference.size();
    for (std::size_t k = 0; same && k < first.slices.size(); ++k)
      same = rep.slices[k].second == first.slices[k].second;
    if (!same) {
      run.failures.push_back("determinism: reps of one seed sent different packets per slice");
      return run;
    }
  }
  const double ns = sum_of_minima(reps, first.slices.size(), [](const RepResult& rep, std::size_t k) {
    return rep.slices[k].first;
  });
  double packets = 0;
  for (const auto& slice : first.slices) packets += static_cast<double>(slice.second);
  run.filtered_mpps = ns > 0 ? packets / ns * 1e3 : 0.0;
  run.reference_ms = sum_of_minima(reps, first.reference.size(),
                                   [](const RepResult& rep, std::size_t k) {
                                     return rep.reference[k];
                                   }) /
                     1e6;
  return run;
}

/// The run's end-to-end metrics: the run-level host_mpps and
/// host_ref_ms (one value each), then every per-rep metric.
std::vector<std::pair<std::string, Series>> run_metrics(const RunSummary& run,
                                                        const std::vector<RepResult>& reps) {
  std::vector<std::pair<std::string, Series>> out = {
      {"host_mpps", Series{"Mpkt/s", {run.host_mpps()}}},
      {"host_ref_ms", Series{"ms", {run.reference_ms}}}};
  for (auto& entry : collect(reps)) out.push_back(std::move(entry));
  return out;
}

/// Turn a traced rep's raw layer values into the reported per-layer
/// set. The attribution's replays ran on this machine as it was, so the
/// residual is taken against the filtered (not the nominal-speed) host
/// time; the overhead compares the traced rep with the untraced ones.
std::vector<Metric> finalize_layers(const RepResult& traced, const std::vector<RepResult>& untraced,
                                    double filtered_mpps) {
  std::vector<double> ns_per_pkt;
  for (const RepResult& rep : untraced)
    if (rep.offered != 0)
      ns_per_pkt.push_back(rep.measured_wall_s * 1e9 / static_cast<double>(rep.offered));
  const double rep_ns = median(ns_per_pkt);
  const double host_ns = filtered_mpps > 0 ? 1e3 / filtered_mpps : 0.0;
  double attributed = 0;
  double traced_ns = 0;
  std::vector<Metric> out;
  for (const Metric& m : traced.layers) {
    if (m.name == "trace.attributed_ns_per_pkt") {
      attributed = m.value;
    } else if (m.name == "trace.traced_host_ns_per_pkt") {
      traced_ns = m.value;
    } else {
      out.push_back(m);
    }
  }
  out.push_back({"sim.host_ns_per_pkt", "ns", host_ns});
  out.push_back({"residual.host_ns_per_pkt", "ns", host_ns - attributed});
  out.push_back({"trace.overhead", "ratio", rep_ns > 0 ? traced_ns / rep_ns : 0.0});
  out.push_back({"trace.attributed_ns_per_pkt", "ns", attributed});
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

void ensure_dir(const std::string& path) { mkdir(path.c_str(), 0755); }

// ---- suite mode -----------------------------------------------------------------

int suite_main(const Args& args) {
  ensure_dir(args.out);
  bool ok = true;
  std::string json = "{\n  \"seed\": " + std::to_string(args.seed) +
                     ",\n  \"reps\": " + std::to_string(args.reps) + ",\n  \"workloads\": {";
  bool first_workload = true;
  for (const std::string& workload : args.workloads) {
    std::printf("== %s (seed %" PRIu64 ", %d reps)\n", workload.c_str(), args.seed, args.reps);
    std::fflush(stdout);
    std::vector<RepResult> reps;
    for (int r = 0; r < args.reps; ++r)
      reps.push_back(run_child(workload, args.seed, false, ""));
    RunSummary run = summarize(reps);
    std::vector<std::string>& failures = run.failures;

    const auto e2e = run_metrics(run, reps);
    std::printf("  %-24s %-8s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n");
    for (const auto& [name, series] : e2e) {
      const Quartiles q = quartiles(series.values);
      if (series.values.size() == 1) {
        std::printf("  %-24s %-8s %14.6g %14s %14s %4zu\n", name.c_str(), series.unit.c_str(),
                    q.median, "-", "-", reps.size());
      } else {
        std::printf("  %-24s %-8s %14.6g %14.6g %14.6g %4zu\n", name.c_str(), series.unit.c_str(),
                    q.median, q.q1, q.q3, series.values.size());
      }
    }
    std::printf("  (host_mpps and host_ref_ms: one value from all %zu reps, the fastest per slice;\n"
                "   host_mpps at the nominal machine speed; host_mpps_rep: each rep's own wall time)\n",
                reps.size());
    std::printf("  latency samples per rep: %" PRIu64 "   digest: %016" PRIx64 "\n",
                reps.front().latency_samples, reps.front().digest);

    std::vector<Metric> layers;
    if (args.trace) {
      const std::string trace_path =
          args.out + "/trace_" + workload + "_seed" + std::to_string(args.seed) + ".json";
      const RepResult traced = run_child(workload, args.seed, true, trace_path);
      for (const std::string& f : traced.check_failures) failures.push_back("traced rep: " + f);
      if (traced.digest != reps.front().digest)
        failures.push_back("determinism: traced rep digest differs from untraced reps");
      layers = finalize_layers(traced, reps, run.filtered_mpps);
      std::printf("  per-layer (traced rep; Chrome trace in %s)\n", trace_path.c_str());
      for (const Metric& m : layers)
        std::printf("    %-48s %-6s %14.6g\n", m.name.c_str(), m.unit.c_str(), m.value);
    }
    if (failures.empty()) {
      std::printf("  checks: all passed\n\n");
    } else {
      ok = false;
      std::printf("  check_failures: %zu\n", failures.size());
      for (const std::string& f : failures) std::printf("    FAIL %s\n", f.c_str());
      std::printf("\n");
    }
    std::fflush(stdout);

    json += std::string(first_workload ? "" : ",") + "\n    " + json_string(workload) + ": {";
    first_workload = false;
    json += "\n      \"digests\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      char hex[32];
      std::snprintf(hex, sizeof hex, "%016" PRIx64, reps[i].digest);
      json += std::string(i == 0 ? "" : ", ") + json_string(hex);
    }
    json += "],\n      \"latency_samples\": " + std::to_string(reps.front().latency_samples);
    json += ",\n      \"check_failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
      json += std::string(i == 0 ? "" : ", ") + json_string(failures[i]);
    json += "],\n      \"metrics\": {";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      json += std::string(i == 0 ? "" : ",") + "\n        " + json_string(e2e[i].first) +
              ": {\"unit\": " + json_string(e2e[i].second.unit) + ", \"values\": [";
      for (std::size_t v = 0; v < e2e[i].second.values.size(); ++v)
        json += std::string(v == 0 ? "" : ", ") + json_number(e2e[i].second.values[v]);
      json += "]}";
    }
    json += "\n      },\n      \"layers\": {";
    for (std::size_t i = 0; i < layers.size(); ++i)
      json += std::string(i == 0 ? "" : ",") + "\n        " + json_string(layers[i].name) +
              ": {\"unit\": " + json_string(layers[i].unit) +
              ", \"value\": " + json_number(layers[i].value) + "}";
    json += "\n      }\n    }";
  }
  json += "\n  }\n}\n";
  const std::string path = args.out + "/suite_seed" + std::to_string(args.seed) + ".json";
  if (!write_file(path, json)) {
    std::fprintf(stderr, "bench_suite: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n%s\n", path.c_str(), ok ? "bench_suite: OK" : "bench_suite: FAILED");
  return ok ? 0 : 1;
}

// ---- smoke mode -------------------------------------------------------------------

int smoke_main(const Args& args) {
  bool ok = true;
  for (const std::string& workload : args.workloads) {
    RepConfig config;
    config.workload = workload;
    config.scale = 0.05;
    const std::int64_t start = host_ns();
    config.seed = args.seed;
    const RepResult a = make_workload(config)->run();
    const RepResult b = make_workload(config)->run();
    config.seed = args.seed + 1;
    const RepResult c = make_workload(config)->run();
    std::vector<std::string> failures;
    for (const RepResult* rep : {&a, &b, &c})
      for (const std::string& f : rep->check_failures)
        failures.push_back("seed " + std::to_string(rep->seed) + ": " + f);
    if (a.digest != b.digest) failures.push_back("same seed gave two different digests");
    if (a.digest == c.digest) failures.push_back("seed and seed+1 gave the same digest");
    std::printf("%-16s %6.2f s  digest %016" PRIx64 " / seed+1 %016" PRIx64 "  %s\n",
                workload.c_str(), static_cast<double>(host_ns() - start) / 1e9, a.digest, c.digest,
                failures.empty() ? "OK" : "FAILED");
    for (const std::string& f : failures) std::printf("  FAIL %s\n", f.c_str());
    ok = ok && failures.empty();
  }
  std::printf("%s\n", ok ? "bench_suite --smoke: OK" : "bench_suite --smoke: FAILED");
  return ok ? 0 : 1;
}

// ---- benchmark protocol ----------------------------------------------------------

int protocol_main(const Args& args) {
  const std::string& workload = args.workloads.front();
  if (args.workloads.size() != 1) usage("the benchmark protocol takes exactly one --workload");
  const std::int64_t start = host_ns();
  const auto elapsed_s = [start] { return static_cast<double>(host_ns() - start) / 1e9; };
  // Untraced reps fill the budget (half of it when a traced rep
  // follows); at least three, so every median has company.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<RepResult> reps;
  double longest = 0;
  while (reps.size() < 3 || elapsed_s() + longest <= untraced_budget) {
    const double rep_start = elapsed_s();
    reps.push_back(run_child(workload, args.seed, false, ""));
    longest = std::max(longest, elapsed_s() - rep_start);
    if (!reps.back().check_failures.empty() && reps.back().e2e.empty()) break;
  }
  RunSummary run = summarize(reps);
  std::vector<std::string>& failures = run.failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RepResult& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    ensure_dir(".bench_out");
    const std::string trace_path =
        ".bench_out/trace_" + workload + "_seed" + std::to_string(args.seed) + ".json";
    const RepResult traced = run_child(workload, args.seed, true, trace_path);
    for (const std::string& f : traced.check_failures) failures.push_back("traced rep: " + f);
    if (traced.digest != reps.front().digest)
      failures.push_back("determinism: traced rep digest differs");
    metrics = finalize_layers(traced, reps, run.filtered_mpps);
  } else {
    for (const auto& [name, series] : run_metrics(run, reps))
      metrics.push_back({name, series.unit, median(series.values)});
  }

  std::printf("%s seed %" PRIu64 ": %zu reps in %.1f s, %s\n", workload.c_str(), args.seed,
              reps.size(), elapsed_s(), failures.empty() ? "all checks passed" : "CHECKS FAILED");
  for (const std::string& f : failures) std::printf("  FAIL %s\n", f.c_str());
  std::string line = "{\"correct\": " + std::string(failures.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += std::string(i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.child) return child_main(args);
  if (args.smoke) return smoke_main(args);
  if (args.seconds > 0) return protocol_main(args);
  return suite_main(args);
}
