#!/usr/bin/env python3
"""Tables from the two preloaded measuring tools in this directory.

    python3 scripts/prof/report.py allocs <benchmark-binary> --workload md_sparse64
        [--seed 1] [--short 2] [--long 6] [--preload allocsites.so]
        [--ranges crates/fmm/src/solver.rs:583-626=exchange_ghosts,...]
        [--top 30] [--tolerance 0.01]
    python3 scripts/prof/report.py samples <binary> <sampler output> [--top 30]

`allocs` runs the repository benchmark twice under `allocsites.so`
(`--seconds SHORT` and `--seconds LONG`: different numbers of timed iterations
after the same set-ups), differences the two stack histograms so that set-up,
warm-up and process start cancel, and divides by the operations of the extra
iterations. Frames outside the executable are dropped from a stack before it
is used as a key (shared objects load at another address in every process).
Addresses are resolved with `addr2line -i`; every stack is attributed to its
innermost frame in the repository's own source ("self") and to every own
function on it ("inclusive"). The total is checked against the benchmark's
own `allocs_per_op`: exit status 1 if they differ by more than `--tolerance`.

`samples` prints inclusive and self shares of the stacks `sampler.so` wrote.

Both need a build with frames and line tables (docs/OBSERVABILITY.md):

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_PROFILE_RELEASE_STRIP=none \\
    RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline \\
        --manifest-path benchmark/Cargo.toml
"""
import argparse
import collections
import json
import os
import re
import struct
import subprocess
import sys
import tempfile


def load_span(binary):
    """Size of the executable's image: the end of its last PT_LOAD segment."""
    with open(binary, "rb") as f:
        head = f.read(64)
        if head[:5] != b"\x7fELF\x02":
            sys.exit(f"report.py: {binary} is not a 64-bit ELF file")
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        end = 0
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            ph = f.read(phentsize)
            kind, = struct.unpack_from("<I", ph, 0)
            vaddr, = struct.unpack_from("<Q", ph, 16)
            memsz, = struct.unpack_from("<Q", ph, 40)
            if kind == 1:
                end = max(end, vaddr + memsz)
    return end


def read_stacks(path, span, called_from_program=False):
    """{stack of executable-relative addresses, innermost first: [count, bytes]}.

    With `called_from_program`, stacks whose innermost address is outside the
    executable are left out: what a library allocates for itself (the C
    library's thread and locale structures) never reaches the program's own
    allocator, so the program's counter does not see it either."""
    stacks = collections.defaultdict(lambda: [0, 0])
    base = 0
    with open(path) as f:
        for line in f:
            words = line.split()
            if words[0] == "base":
                base = int(words[1], 16)
            elif words[0] == "dropped":
                print(f"report.py: {path}: {words[1]} events were dropped (table full)",
                      file=sys.stderr)
            else:
                pcs = [int(w, 16) - base for w in words[2:]]
                if called_from_program and not (pcs and 0 <= pcs[0] < span):
                    continue
                key = tuple(pc for pc in pcs if 0 <= pc < span)
                stacks[key][0] += int(words[0])
                stacks[key][1] += int(words[1])
    return stacks


def own(function, path):
    """Whether a frame is the repository's (not std, not a registry crate).

    The benchmark's counting allocator (`alloc.rs` and the `__rust_alloc*`
    shims of its `#[global_allocator]`) is on every allocation's stack and
    says nothing about who allocated, so it does not count."""
    return not (path.startswith("/rustc/") or path.startswith("??") or "/.cargo/" in path
                or "/.rustup/" in path or "/library/" in path
                or path.endswith("benchmark/src/alloc.rs") or function.startswith("__rust_"))


def resolve(binary, addresses):
    """{address: [(function, file, line), ...] innermost inline frame first}."""
    addresses = sorted(addresses)
    frames = {}
    for at in range(0, len(addresses), 4000):
        chunk = addresses[at:at + 4000]
        out = subprocess.run(["addr2line", "-e", binary, "-a", "-i", "-f", "-C"]
                             + [hex(a) for a in chunk],
                             capture_output=True, text=True, check=True).stdout.splitlines()
        current = None
        i = 0
        while i < len(out):
            if out[i].startswith("0x"):
                current = frames.setdefault(int(out[i], 16), [])
                i += 1
                continue
            function = re.sub(r"::h[0-9a-f]{16}$", "", out[i])
            where = out[i + 1].split(" (discriminator")[0]
            path, _, line = where.rpartition(":")
            current.append((function, path, int(line) if line.isdigit() else 0))
            i += 2
    return frames


def short_path(path):
    for marker in ("/crates/", "/benchmark/", "/src/", "/tests/"):
        if marker in path:
            return path[path.index(marker) + 1:]
    return path


def attribute(stacks, binary, return_addresses=True):
    """Per stack: (weight, bytes, own frames innermost first as (function, file, line))."""
    # A return address is the instruction after the call; look the call up.
    lookups = set()
    for key in stacks:
        for depth, pc in enumerate(key):
            lookups.add(pc - 1 if return_addresses or depth > 0 else pc)
    frames = resolve(binary, lookups)
    out = []
    for key, (count, nbytes) in stacks.items():
        mine = []
        for depth, pc in enumerate(key):
            at = pc - 1 if return_addresses or depth > 0 else pc
            mine.extend((fn, short_path(path), line)
                        for fn, path, line in frames.get(at, []) if own(fn, path))
        out.append((count, nbytes, mine))
    return out


def print_table(title, rows, per, unit, top):
    """`rows`: {label: [count, bytes]}; printed largest first, per `per` events."""
    print(f"\n{title}")
    ranked = sorted(rows.items(), key=lambda kv: -kv[1][0])
    for label, (count, nbytes) in ranked[:top]:
        extra = f"  {nbytes / per:10.1f} B" if unit == "/op" else ""
        print(f"  {count / per:9.4f}{unit}{extra}  {label}")
    rest = sum(v[0] for _, v in ranked[top:])
    if rest:
        print(f"  {rest / per:9.4f}{unit}  ({len(ranked) - top} more rows)")


def tables(attributed, per, unit, top, ranges):
    self_rows = collections.defaultdict(lambda: [0, 0])
    file_rows = collections.defaultdict(lambda: [0, 0])
    incl_rows = collections.defaultdict(lambda: [0, 0])
    range_rows = collections.defaultdict(lambda: [0, 0])
    for count, nbytes, mine in attributed:
        if mine:
            fn, path, line = mine[0]
            site, where = f"{path}:{line}  {fn}", path
        else:
            site, where, path, line = "(no frame in the repository's source)", "(none)", "", 0
        site = site[:150]
        for rows, label in ((self_rows, site), (file_rows, where)):
            rows[label][0] += count
            rows[label][1] += nbytes
        for fn in {fn[:120] for fn, _, _ in mine}:
            incl_rows[fn][0] += count
            incl_rows[fn][1] += nbytes
        for name, (rpath, lo, hi) in ranges.items():
            if path.endswith(rpath) and lo <= line <= hi:
                range_rows[name][0] += count
                range_rows[name][1] += nbytes
    print_table("self, by innermost own source line", self_rows, per, unit, top)
    print_table("self, by source file", file_rows, per, unit, top)
    print_table("inclusive, by own function", incl_rows, per, unit, top)
    if ranges:
        for name in ranges:
            range_rows.setdefault(name, [0, 0])
        print_table("self, by source range", range_rows, per, unit, len(range_rows))


def parse_ranges(text):
    """`path:lo-hi=name,...` → {name: (path, lo, hi)}."""
    ranges = {}
    for item in filter(None, (text or "").split(",")):
        where, _, name = item.partition("=")
        path, _, span = where.rpartition(":")
        lo, _, hi = span.partition("-")
        ranges[name or where] = (path, int(lo), int(hi or lo))
    return ranges


def benchmark_run(binary, preload, workload, seed, seconds, sites):
    env = dict(os.environ, LD_PRELOAD=os.path.abspath(preload), ALLOCSITES_OUT=sites)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True).stdout
    found = re.search(r"iterations: (\d+) timed of (\d+) ops each", out)
    try:
        result = json.loads(out.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, KeyError, ValueError):
        found = None
    if not found:
        sys.exit(f"report.py: {' '.join(cmd)}: no result to read\n{out[-2000:]}")
    return int(found.group(1)), int(found.group(2)), metrics


def allocs(args):
    span = load_span(args.binary)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, seconds in (("short", args.short), ("long", args.long)):
            sites = os.path.join(tmp, name)
            iterations, ops, metrics = benchmark_run(
                args.binary, args.preload, args.workload, args.seed, seconds, sites)
            runs.append((iterations, ops, metrics, read_stacks(sites, span, True)))
    (it_a, ops, _, short), (it_b, _, metrics, long) = runs
    if it_b <= it_a:
        sys.exit(f"report.py: --long must run more iterations than --short ({it_b} vs {it_a})")
    per = (it_b - it_a) * ops
    diff = {}
    for key in set(short) | set(long):
        count = long.get(key, [0, 0])[0] - short.get(key, [0, 0])[0]
        nbytes = long.get(key, [0, 0])[1] - short.get(key, [0, 0])[1]
        if count or nbytes:
            diff[key] = [count, nbytes]
    print(f"{args.workload}, seed {args.seed}: {it_b} - {it_a} timed iterations of {ops} ops")
    tables(attribute(diff, args.binary), per, "/op", args.top, parse_ranges(args.ranges))
    total = sum(v[0] for v in diff.values()) / per
    total_bytes = sum(v[1] for v in diff.values()) / per
    want = metrics["allocs_per_op"]
    print(f"\ntotal {total:.4f} allocations and {total_bytes:.1f} B per op; the benchmark's own "
          f"allocs_per_op {want:.4f}, alloc_bytes_per_op {metrics['alloc_bytes_per_op']:.1f}")
    if abs(total - want) > args.tolerance * want:
        print(f"report.py: total is not within {args.tolerance:.0%} of the benchmark's count")
        return 1
    return 0


def samples(args):
    stacks = read_stacks(args.file, load_span(args.binary))
    attributed = attribute(stacks, args.binary, return_addresses=False)
    n = sum(count for count, _, _ in attributed)
    print(f"{n} samples")
    tables(attributed, n / 100.0, " %", args.top, parse_ranges(args.ranges))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    a = sub.add_parser("allocs")
    a.add_argument("binary")
    a.add_argument("--workload", required=True)
    a.add_argument("--seed", type=int, default=1)
    a.add_argument("--short", type=float, default=2.0)
    a.add_argument("--long", type=float, default=6.0)
    a.add_argument("--preload", default="allocsites.so")
    a.add_argument("--tolerance", type=float, default=0.01)
    s = sub.add_parser("samples")
    s.add_argument("binary")
    s.add_argument("file")
    for p in (a, s):
        p.add_argument("--ranges", default="")
        p.add_argument("--top", type=int, default=30)
    args = parser.parse_args()
    return allocs(args) if args.mode == "allocs" else samples(args)


if __name__ == "__main__":
    sys.exit(main())
