#!/usr/bin/env python3
"""Compare two bench_suite result sets metric by metric.

    python3 bench_suite/compare.py A B

A and B are each a suite JSON file written by `bench_suite --out DIR`
(DIR/suite_seed<N>.json) or a directory of them; several files on one
side are merged per workload in file-name order, so alternating A/B
invocations (`--reps 1` each) line up as pairs. A is the parent (the
baseline), B the change.

For each (workload, metric) one row shows both sides' median and
quartiles (statistics.quantiles, n=4) and a verdict:

  host metrics (host_mpps, host_mpps_rep, setup_s, peak_rss_mib) apply
  the bounds in BENCHMARK.json (host_mpps_rep takes host_mpps's):
  "REGRESSION" when B's median is worse than A's by more than the
  bound; "improved" only under the claim rule (at least 10 pairs, B
  wins at least 9 in 10 with ties counting for neither, and the
  medians differ by more than A's IQR); "unresolved" when A's own
  spread (IQR / median) exceeds the bound and not every B run beats
  every A run; otherwise "ok".
  simulated metrics (sim_*, drop_ratio, conn_fail_ratio,
  ct_survival_ratio) and the digests are deterministic per seed: with
  equal seeds they must match exactly ("identical" or "MODEL CHANGE");
  across seeds they are shown but not judged, like host_ref_ms (the
  machine's speed during the run).

Exits 1 on any REGRESSION, MODEL CHANGE or digest mismatch. Uses only
the Python standard library.
"""

import json
import os
import statistics
import sys

HOST_METRICS = ("host_mpps", "setup_s", "peak_rss_mib")
SIMULATED = ("drop_ratio", "conn_fail_ratio", "ct_survival_ratio")  # besides sim_*
EXACT_REL = 1e-9


def host_bounds():
    """name -> (better, relative bound), from the benchmark description."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as handle:
        spec = {m["name"]: (m["better"], m["bound"]) for m in json.load(handle)["end_to_end"]}
    bounds = {name: spec[name] for name in HOST_METRICS}
    bounds["host_mpps_rep"] = bounds["host_mpps"]
    return bounds


HOST_BOUNDS = host_bounds()


def load(path):
    files = sorted(
        os.path.join(path, name) for name in os.listdir(path)
        if name.startswith("suite_") and name.endswith(".json")
    ) if os.path.isdir(path) else [path]
    if not files:
        sys.exit(f"compare.py: no suite_*.json under {path}")
    merged = {"seeds": set(), "workloads": {}}
    for name in files:
        with open(name) as handle:
            suite = json.load(handle)
        merged["seeds"].add(suite["seed"])
        for workload, data in suite["workloads"].items():
            into = merged["workloads"].setdefault(
                workload, {"digests": [], "metrics": {}, "check_failures": []})
            into["digests"] += data["digests"]
            into["check_failures"] += data["check_failures"]
            for metric, series in data["metrics"].items():
                entry = into["metrics"].setdefault(metric, {"unit": series["unit"], "values": []})
                entry["values"] += series["values"]
    return merged


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cell(stats):
    q1, med, q3 = stats
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def judge_host(name, a, b):
    better, bound = HOST_BOUNDS[name]
    a_q1, a_med, a_q3 = summary(a)
    _, b_med, _ = summary(b)
    spread = (a_q3 - a_q1) / a_med if a_med else float("inf")
    worse = (a_med - b_med) if better == "higher" else (b_med - a_med)
    if worse > bound * abs(a_med):
        return "REGRESSION"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y > x if better == "higher" else y < x))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worse > (a_q3 - a_q1):
        return f"improved ({wins}/{len(pairs)} pairs)"
    # Too noisy to call unchanged, unless every B run beats every A run.
    all_better = min(b) > max(a) if better == "higher" else max(b) < min(a)
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def judge_exact(a, b):
    if len(a) != len(b):
        return "MODEL CHANGE"
    for x, y in zip(a, b):
        if abs(x - y) > EXACT_REL * max(abs(x), abs(y), 1e-300):
            return "MODEL CHANGE"
    return "identical"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    a, b = load(sys.argv[1]), load(sys.argv[2])
    same_seed = a["seeds"] == b["seeds"] and len(a["seeds"]) == 1
    bad = False
    print(f"A seeds {sorted(a['seeds'])}  B seeds {sorted(b['seeds'])}"
          f"{'' if same_seed else '  (different seeds: simulated metrics not judged)'}")
    print(f"{'workload':15} {'metric':24} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
          f"{'change':>9}  verdict")
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:15} present on one side only")
            bad = True
            continue
        for side, data in (("A", wa), ("B", wb)):
            if data["check_failures"]:
                print(f"{workload:15} side {side} failed checks: {data['check_failures'][0]}")
                bad = True
        for metric in wa["metrics"]:
            if metric not in wb["metrics"]:
                continue
            va, vb = wa["metrics"][metric]["values"], wb["metrics"][metric]["values"]
            sa, sb = summary(va), summary(vb)
            change = (sb[1] - sa[1]) / sa[1] * 100 if sa[1] else 0.0
            if metric in HOST_BOUNDS:
                verdict = judge_host(metric, va, vb)
            elif same_seed and (metric.startswith("sim_") or metric in SIMULATED):
                verdict = judge_exact(va, vb)
            else:
                verdict = "-"
            bad = bad or verdict in ("REGRESSION", "MODEL CHANGE")
            print(f"{workload:15} {metric:24} {cell(sa):>36} {cell(sb):>36} "
                  f"{change:>+8.2f}%  {verdict}")
        digests_a, digests_b = set(wa["digests"]), set(wb["digests"])
        if same_seed:
            verdict = "identical" if digests_a == digests_b and len(digests_a) == 1 else "MODEL CHANGE"
            bad = bad or verdict != "identical"
        else:
            verdict = "differ (different seeds)" if not digests_a & digests_b else "SAME across seeds"
            bad = bad or verdict != "differ (different seeds)"
        print(f"{workload:15} {'digest':24} {','.join(sorted(digests_a)):>36} "
              f"{','.join(sorted(digests_b)):>36} {'':>9}  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
