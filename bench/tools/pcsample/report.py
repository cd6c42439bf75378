#!/usr/bin/env python3
"""Symbolize pcsample files and print a flat profile.

    python3 bench/tools/pcsample/report.py [--within REGEX] [--group NAME=REGEX]...
        [--top N] FILE... [--baseline FILE...]

Each FILE is a pcsample.<pid>.txt written by libpcsample.so. Every
address is mapped back to its ELF file through the process's saved
/proc/self/maps and symbolized with `addr2line -f -i -C`, so a PC
inside inlined code names the innermost inlined function, then each
function it was inlined into.

Two tables:
  self       samples whose PC sits in the function itself (innermost
             inlined frame);
  inclusive  samples with the function anywhere on the inline chain or
             the call stack (counted once per sample).

--within keeps only samples with some frame, printed as
"function file:line", that matches REGEX. That restricts the profile to
one phase of a program: for example the frames under the call site of a
measured loop.

--group NAME=REGEX (repeatable) adds a third table: the self and
inclusive share of each family of functions whose names match REGEX,
counting each sample once however many of its frames match. One data
structure is often many template rows (a std::unordered_map's find,
hash, node and bucket helpers), and summing those rows by hand counts a
sample once per row.

--baseline FILE... (after the main files, or ended by `--`) profiles a
second set of files, say the parent build's, under the same --within,
and prints the --group table with the baseline's self and inclusive
shares beside the main files': where a change saved time, in one
command.
"""

import argparse
import collections
import re
import struct
import subprocess
import sys


def load_segments(path):
    """PT_LOAD (offset, filesz, vaddr) triples of an ELF64 file."""
    with open(path, "rb") as handle:
        header = handle.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        endian = "<" if header[5] == 1 else ">"
        phoff, = struct.unpack_from(endian + "Q", header, 32)
        phentsize, phnum = struct.unpack_from(endian + "HH", header, 54)
        handle.seek(phoff)
        table = handle.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def parse(path):
    """(mappings, samples) of one pcsample file."""
    maps, samples, section = [], [], None
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = line[2:]
            elif section == "maps":
                fields = line.split(None, 5)
                if len(fields) == 6 and fields[5].startswith("/") and "x" in fields[1]:
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def to_file_address(maps, segments, address):
    """(ELF path, link-time address) of a runtime address, or None."""
    for start, end, offset, path in maps:
        if start <= address < end:
            file_offset = address - start + offset
            if path not in segments:
                segments[path] = load_segments(path)
            for p_offset, p_filesz, p_vaddr in segments[path]:
                if p_offset <= file_offset < p_offset + p_filesz:
                    return path, file_offset - p_offset + p_vaddr
            return None
    return None


def symbolize(addresses_by_file):
    """{(path, address): [(function, "file:line"), ...]}, innermost first."""
    names = {}
    for path, addresses in addresses_by_file.items():
        ordered = sorted(addresses)
        output = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
            input="\n".join(hex(a) for a in ordered), capture_output=True, text=True,
            check=True).stdout.splitlines()
        current, lines = None, iter(output)
        for line in lines:
            if line.startswith("0x") and re.fullmatch(r"0x[0-9a-f]+", line):
                current = (path, int(line, 16))
                names[current] = []
            else:
                location = next(lines, "??:0")
                names[current].append((line, location.split(" (discriminator")[0]))
    return names


def load_traces(files, segments, wanted):
    """Each sample of each file as a list of (ELF path, address) frames."""
    traces = []
    for path in files:
        maps, samples = parse(path)
        for sample in samples:
            # Callers are return addresses: step back into the call.
            trace = [to_file_address(maps, segments, a if i == 0 else a - 1)
                     for i, a in enumerate(sample)]
            traces.append(trace)
            for frame in trace:
                if frame is not None:
                    wanted[frame[0]].add(frame[1])
    return traces


class Profile:
    """Self, inclusive and per-group sample counts of the kept samples."""

    def __init__(self, traces, names, within, groups):
        self.total = len(traces)
        self.kept = 0
        self.self_counts, self.inclusive_counts = collections.Counter(), collections.Counter()
        self.group_self, self.group_inclusive = collections.Counter(), collections.Counter()
        for trace in traces:
            frames = [names.get(f, [("??", "??:0")]) if f else [("??", "??:0")] for f in trace]
            if within and not any(within.search(f"{fn} {loc}")
                                  for chain in frames for fn, loc in chain):
                continue
            self.kept += 1
            self.self_counts[frames[0][0][0]] += 1
            functions = {fn for chain in frames for fn, _ in chain}
            self.inclusive_counts.update(functions)
            for name, regex in groups:
                self.group_self[name] += bool(regex.search(frames[0][0][0]))
                self.group_inclusive[name] += any(regex.search(fn) for fn in functions)

    def group_shares(self, name):
        """(self %, inclusive %) of one group."""
        return (100.0 * self.group_self[name] / self.kept,
                100.0 * self.group_inclusive[name] / self.kept)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--within", help="keep samples with a frame matching this regex")
    parser.add_argument("--group", action="append", default=[], metavar="NAME=REGEX",
                        help="report the share of the functions matching REGEX as NAME")
    parser.add_argument("--baseline", nargs="+", default=[], metavar="FILE",
                        help="print each --group share in these files beside the main files'")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    groups = []
    for spec in args.group:
        name, sep, regex = spec.partition("=")
        if not sep or not name:
            parser.error(f"--group wants NAME=REGEX, got {spec!r}")
        groups.append((name, re.compile(regex)))
    if args.baseline and not groups:
        parser.error("--baseline compares --group shares; give at least one --group")

    segments, wanted = {}, collections.defaultdict(set)
    traces = load_traces(args.files, segments, wanted)
    baseline_traces = load_traces(args.baseline, segments, wanted)
    names = symbolize(wanted)

    within = re.compile(args.within) if args.within else None
    profile = Profile(traces, names, within, groups)
    print(f"{profile.kept} of {profile.total} samples from {len(args.files)} file(s)"
          + (f" within /{args.within}/" if within else ""))
    if profile.kept == 0:
        return 1
    for title, counts in (("self", profile.self_counts), ("inclusive", profile.inclusive_counts)):
        print(f"\n{title:>9}  function")
        for function, count in counts.most_common(args.top):
            print(f"{100.0 * count / profile.kept:8.1f}%  {function}")
    if args.baseline:
        baseline = Profile(baseline_traces, names, within, groups)
        print(f"\nbaseline: {baseline.kept} of {baseline.total} samples from "
              f"{len(args.baseline)} file(s)")
        if baseline.kept == 0:
            return 1
        print(f"\n{'baseline':>20}  {'main':>20}")
        print(f"{'self':>9}  {'inclusive':>9}  {'self':>9}  {'inclusive':>9}  group")
        for name, regex in groups:
            before, after = baseline.group_shares(name), profile.group_shares(name)
            print(f"{before[0]:8.1f}%  {before[1]:8.1f}%  {after[0]:8.1f}%  {after[1]:8.1f}%"
                  f"  {name} /{regex.pattern}/")
    elif groups:
        print(f"\n{'self':>9}  {'inclusive':>9}  group")
        for name, regex in groups:
            shares = profile.group_shares(name)
            print(f"{shares[0]:8.1f}%  {shares[1]:8.1f}%  {name} /{regex.pattern}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
