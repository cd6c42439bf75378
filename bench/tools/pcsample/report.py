#!/usr/bin/env python3
"""Symbolize pcsample files and print a flat profile.

    python3 bench/tools/pcsample/report.py [--within REGEX] [--top N] FILE...

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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--within", help="keep samples with a frame matching this regex")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    segments, traces, wanted = {}, [], collections.defaultdict(set)
    for path in args.files:
        maps, samples = parse(path)
        for sample in samples:
            # Callers are return addresses: step back into the call.
            trace = [to_file_address(maps, segments, a if i == 0 else a - 1)
                     for i, a in enumerate(sample)]
            traces.append(trace)
            for frame in trace:
                if frame is not None:
                    wanted[frame[0]].add(frame[1])
    names = symbolize(wanted)

    within = re.compile(args.within) if args.within else None
    self_counts, inclusive_counts, kept = collections.Counter(), collections.Counter(), 0
    for trace in traces:
        frames = [names.get(f, [("??", "??:0")]) if f else [("??", "??:0")] for f in trace]
        if within and not any(within.search(f"{fn} {loc}") for chain in frames for fn, loc in chain):
            continue
        kept += 1
        self_counts[frames[0][0][0]] += 1
        inclusive_counts.update({fn for chain in frames for fn, _ in chain})

    print(f"{kept} of {len(traces)} samples from {len(args.files)} file(s)"
          + (f" within /{args.within}/" if within else ""))
    if kept == 0:
        return 1
    for title, counts in (("self", self_counts), ("inclusive", inclusive_counts)):
        print(f"\n{title:>9}  function")
        for function, count in counts.most_common(args.top):
            print(f"{100.0 * count / kept:8.1f}%  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
