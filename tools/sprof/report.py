#!/usr/bin/env python3
"""Symbolizes an `sprof` profile and prints its self and inclusive tables.

    python3 tools/sprof/report.py PROFILE... [--top N] [--folded FILE]

PROFILE is a `sprof.out.<pid>` file the profiler wrote at exit; several
(runs of one binary over different seeds, say) are pooled. Each
address is mapped through the copy of `/proc/self/maps` in it to an
object file and a link-time address, then resolved with
`addr2line -f -i -C`, which names inlined functions as frames of their
own; where an object has no line tables, `nm` names the enclosing
symbol. A stripped system library keeps only its exported symbols, so
its internal functions (malloc's, memcpy's variants) show under the
nearest exported name below them. Return addresses are looked up one
byte back, inside the call.

The profiler samples the main thread on a wall clock, so a sample
may fall while that thread is off CPU; the header gives the rate
measured over the wall time the profiles cover.

Output: one row per function with its self share (samples whose leaf
frame is that function) and inclusive share (samples with the
function anywhere on the stack, counted once each). `--folded` also
writes the stacks in folded form (`root;...;leaf count`), the input of
flame-graph tools.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


def parse(path):
    exe, cpu_ns, wall_ns, dropped, maps, stacks = None, 0, 0, 0, [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if section == "stacks":
                if line:
                    stacks.append([int(w, 16) for w in line.split()])
            elif section == "maps":
                if line == "stacks":
                    section = "stacks"
                    continue
                parts = line.split(None, 5)
                if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif line == "maps":
                section = "maps"
            elif line.startswith("exe "):
                exe = line[4:]
            elif line.startswith("cpu_ns "):
                cpu_ns = int(line[7:])
            elif line.startswith("wall_ns "):
                wall_ns = int(line[8:])
            elif line.startswith("dropped "):
                dropped = int(line[8:])
    maps.sort()
    return exe, cpu_ns, wall_ns, dropped, maps, stacks


def load_segments(path):
    """(p_offset, p_filesz, p_vaddr) of each PT_LOAD of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def link_address(segs, file_offset):
    for off, size, vaddr in segs:
        if off <= file_offset < off + size:
            return vaddr + file_offset - off
    return None


def addr2line(obj, addrs):
    """Inline chains (outermost first) per link-time address, or None."""
    if not addrs:
        return {}
    text = "".join(f"{a:x}\n" for a in addrs)
    res = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                         input=text, capture_output=True, text=True)
    chains, cur, lines = {}, None, res.stdout.splitlines()
    k = 0
    while k < len(lines):
        line = lines[k]
        if line.startswith("0x"):
            cur = int(line, 16)
            chains[cur] = []
            k += 1
            continue
        name = HASH.sub("", line)
        if cur is not None and name != "??":
            chains[cur].append(name)
        k += 2  # the function line and its file:line line
    return {a: list(reversed(c)) or None for a, c in chains.items()}


def nm_symbols(obj):
    """Sorted function symbols of `obj`: its symbol table, or the
    dynamic one where it was stripped (as system libraries are)."""
    for table in ([], ["-D"]):
        res = subprocess.run(["nm", "-C", "--defined-only", "-n", *table, obj],
                             capture_output=True, text=True)
        starts, names = [], []
        for line in res.stdout.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                starts.append(int(parts[0], 16))
                names.append(HASH.sub("", parts[2]))
        if starts:
            return starts, names
    return [], []


def symbolize(path):
    """The profile's stacks as function names, root first, each call's
    inline chain expanded; and its header."""
    exe, cpu_ns, wall_ns, dropped, maps, stacks = parse(path)
    # Runtime address -> (object, link-time address).
    starts = [m[0] for m in maps]
    segments = {}
    wanted = collections.defaultdict(set)
    where = {}
    for stack in stacks:
        for depth, a in enumerate(stack):
            look = a if depth == 0 else a - 1
            if look in where:
                continue
            i = bisect.bisect_right(starts, look) - 1
            if i < 0 or look >= maps[i][1]:
                where[look] = None
                continue
            lo, _, off, obj = maps[i]
            if obj not in segments:
                segments[obj] = load_segments(obj)
            vaddr = link_address(segments[obj], look - lo + off)
            where[look] = (obj, vaddr) if vaddr is not None else None
            if vaddr is not None:
                wanted[obj].add(vaddr)

    names = {}
    for obj, addrs in wanted.items():
        chains = addr2line(obj, sorted(addrs))
        syms = None
        for a in addrs:
            chain = chains.get(a)
            if not chain:
                if syms is None:
                    syms = nm_symbols(obj)
                j = bisect.bisect_right(syms[0], a) - 1
                short = obj.rsplit("/", 1)[-1]
                chain = [syms[1][j] if j >= 0 else f"{short}+{a:#x}"]
            names[(obj, a)] = chain

    def frames(stack):
        out = []
        for depth in range(len(stack) - 1, -1, -1):
            a = stack[depth] if depth == 0 else stack[depth] - 1
            w = where.get(a)
            out.extend(names[w] if w else [f"[{a:#x}]"])
        return out

    return (exe, cpu_ns, wall_ns, dropped), [frames(s) for s in stacks]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile", nargs="+", help="one or more profiles, pooled")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--folded")
    args = ap.parse_args()

    self_n, incl_n, folded = collections.Counter(), collections.Counter(), collections.Counter()
    total, cpu_ns, wall_ns, dropped, exes = 0, 0, 0, 0, set()
    for path in args.profile:
        (exe, cpu, wall, drop), stacks = symbolize(path)
        exes.add(exe)
        cpu_ns += cpu
        wall_ns += wall
        dropped += drop
        total += len(stacks)
        for fs in stacks:
            self_n[fs[-1]] += 1
            for name in set(fs):
                incl_n[name] += 1
            folded[";".join(fs)] += 1
    if not total:
        sys.exit("no samples")

    cpu_s, wall_s = cpu_ns / 1e9, wall_ns / 1e9
    rate = total / wall_s if wall_s else 0
    print(f"# sprof: {', '.join(sorted(exes))} ({len(args.profile)} profile(s))")
    print(f"# {total} samples over {wall_s:.2f} s of wall time ({rate:.0f} Hz measured), "
          f"{cpu_s:.2f} s of CPU, {dropped} dropped")
    print("# the clock is wall time on the main thread: it also samples off-CPU time "
          "(blocked or waiting), which shows as the frames the thread waits in")
    print(f"{'self%':>7} {'incl%':>7} {'self':>7} {'incl':>7}  function")
    rows = sorted(incl_n, key=lambda n: (-self_n[n], -incl_n[n], n))
    for name in rows[:args.top]:
        print(f"{100 * self_n[name] / total:7.2f} {100 * incl_n[name] / total:7.2f} "
              f"{self_n[name]:7d} {incl_n[name]:7d}  {name}")
    if args.folded:
        with open(args.folded, "w") as f:
            for stack, n in sorted(folded.items()):
                f.write(f"{stack} {n}\n")


if __name__ == "__main__":
    main()
