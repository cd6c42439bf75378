#!/usr/bin/env python3
"""Build bench_suite from this checkout and run one workload under the
benchmark protocol.

    python3 bench_suite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the checkout root. The first run configures and builds the
simulator's src/ libraries plus bench_suite (Release) into
$CARGO_TARGET_DIR/bench_suite (default .bench_build/bench_suite); later
runs only re-check the build. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
metrics are exactly BENCHMARK.json's end_to_end names (--trace 0) or
per_layer names (--trace 1). Exits non-zero, without a result, when the
sources, the toolchain or a listed metric is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, base))
    if os.path.commonpath([path, ROOT]) != ROOT:  # stay inside the checkout
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "bench_suite")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", target, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(target, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", target, "-j", jobs]):
        if subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command))
    binary = os.path.join(target, "bench_suite")
    if not os.access(binary, os.X_OK):
        fail("build produced no bench_suite binary")
    return binary


def contract_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    wanted = contract_metrics(args.trace == 1)
    binary = build(build_dir())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        output, _ = child.communicate()
    except BaseException:
        child.kill()
        child.wait()
        raise
    lines = output.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(output)
        fail(f"bench_suite exited with {child.returncode} and no result")
    result = json.loads(lines[-1])
    metrics = {}
    for metric in wanted:
        measured = result["metrics"].get(metric["name"])
        if measured is None or measured["value"] is None:
            fail(f"bench_suite reported no {metric['name']}")
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
