#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 scripts/pairs.py <parent-binary> <change-binary>
        [--workloads md_fmm,redist] [--pairs 10] [--seconds 15]
        [--moves md_sparse64:virt_makespan_s,md_fmm:virt_makespan_s]
        [--pr N --title T --claim md_fmm:ops_per_s:1.15] [--raw runs.jsonl]

The protocol every host-time claim in EXPERIMENTS.md rests on: pair i runs
both binaries on seed i, one benchmark process per run, the parent first in
odd pairs and the change first in even ones. Build each side from its own
checkout (`cargo build --release --offline --manifest-path
benchmark/Cargo.toml` with its own `CARGO_TARGET_DIR`) and pass the two
`benchmark` executables.

Workloads, metrics and which direction is better come from BENCHMARK.json;
each run's numbers come from the JSON result line the benchmark prints last.
Per workload and metric the script prints both sides' median and quartiles
(statistics.quantiles, n=4, as benchmark/spread.py), the smallest, median and
largest within-pair ratio change / parent, and the pairs the change won (ties
count for neither side). It then lists every `virt_*` or allocation metric
that is not bit-equal within every pair, with the number of pairs that differ
and the range of the ratio: expected for allocation metrics of a PR that
changes allocations (and in the eighth digit wherever a run's iterations do
not all allocate alike: `redist`, `scale_exchange`), never for `virt_*` —
unless `--moves workload:metric,...` declares that the change moves that
`virt_*` metric on that workload: a declared metric must be better or equal
in every pair, every undeclared one still bit-equal.

`--claim workload:metric:ratio` judges a claimed gain. On a host-time metric
it is a speed-up, by the rule of every "Host-time ledger" section: the change
wins at least nine tenths of the pairs, the median gain (parent / change for
a lower-is-better metric) reaches `ratio`, and the medians differ by more
than the distance between the parent's own quartiles. On a `virt_*` or
allocation metric, which repeats exactly for a seed, it is a count: `ratio`
is change / parent, the change must be better in every pair, the median
ratio must reach `ratio` (at most it for a lower-is-better metric), and the
medians must differ by more than the parent's quartile distance. The last
line printed is the one to append to perf_history.jsonl
(docs/OBSERVABILITY.md). `--raw` also appends every run's result line, with
its workload, pair, seed and side, to a file.

Exit status: 0; 1 if a run failed, was incorrect or printed a result line
this script cannot read, if an undeclared `virt_*` metric differs within a
pair, or if a declared one is worse in any pair.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SPEC = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
EXACT = [m for m in BETTER if m.startswith("virt_") or m.startswith("alloc")]


def run_once(binary, workload, seed, seconds):
    """One benchmark process; returns the result line's metric values."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: float(result["metrics"][name]["value"]) for name in BETTER}
        ok = proc.returncode == 0 and result["correct"] is True and result["failed"] == 0
    except (IndexError, KeyError, TypeError, ValueError) as err:
        sys.exit(f"pairs.py: {' '.join(cmd)}: unreadable result line ({err!r}), "
                 f"exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    if not ok:
        sys.exit(f"pairs.py: {' '.join(cmd)}: exit {proc.returncode}, result {lines[-1]}")
    return values, lines[-1]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--pr", type=int)
    ap.add_argument("--title")
    ap.add_argument("--moves", default="", metavar="WORKLOAD:METRIC,...")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC:RATIO")
    ap.add_argument("--raw")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    known = [w["name"] for w in SPEC["workloads"]]
    if args.pairs < 1 or any(w not in known for w in workloads):
        ap.error(f"--pairs must be >= 1 and --workloads a subset of {','.join(known)}")
    moves = set()
    for item in filter(None, args.moves.split(",")):
        workload, _, metric = item.partition(":")
        if workload not in workloads or not metric.startswith("virt_") or metric not in BETTER:
            ap.error("--moves is workload:metric,... of virt_* metrics, the workloads ones run")
        moves.add((workload, metric))
    claim = None
    if args.claim:
        try:
            workload, metric, ratio = args.claim.split(":")
            claim = (workload, metric, float(ratio))
            if workload not in workloads or metric not in BETTER:
                raise ValueError(args.claim)
        except ValueError:
            ap.error("--claim is workload:metric:ratio, the workload one of those run")

    binaries = {"parent": args.parent, "change": args.change}
    # runs[workload][side][metric] = one value per pair
    runs = {w: {s: {m: [] for m in BETTER} for s in binaries} for w in workloads}
    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
            for side in order:
                values, line = run_once(binaries[side], workload, pair, args.seconds)
                for name, value in values.items():
                    runs[workload][side][name].append(value)
                if args.raw:
                    with open(args.raw, "a") as raw:
                        raw.write(json.dumps({"workload": workload, "pair": pair, "seed": pair,
                                              "side": side, "first": order[0],
                                              "result": json.loads(line)}) + "\n")
            p, c = (runs[workload][s]["ops_per_s"][-1] for s in ("parent", "change"))
            print(f"# {workload} pair {pair} ({order[0]} first): ops_per_s "
                  f"{fmt(p)} -> {fmt(c)} ({c / p:.3f}x)", file=sys.stderr, flush=True)

    print(f"{args.pairs} alternating pairs, pair i on seed i, --seconds {args.seconds}; "
          "ratio = change / parent within a pair")
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| ratio min / median / max | pairs won |")
    print("|---|---|---|---|---|---|")
    differing = []
    for workload in workloads:
        for name, better in BETTER.items():
            p, c = runs[workload]["parent"][name], runs[workload]["change"][name]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
            ratios = [y / x if x else float("nan") for x, y in zip(p, c)]
            won = sum((y > x) if better == "higher" else (y < x) for x, y in zip(p, c))
            unequal = sum(x != y for x, y in zip(p, c))
            print(f"| {workload} | {name} | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] "
                  f"| {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | {min(ratios):.4f} / "
                  f"{statistics.median(ratios):.4f} / {max(ratios):.4f} "
                  f"| {f'{won} / {len(p)}' if unequal else 'all equal'} |")
            if name in EXACT and unequal:
                differing.append((workload, name, unequal, len(p), min(ratios), max(ratios)))
    if differing:
        print("\nnot bit-equal within a pair (pairs that differ; smallest and largest "
              "change / parent):")
        for workload, name, unequal, pairs, lo, hi in differing:
            declared = " (declared by --moves)" if (workload, name) in moves else ""
            print(f"  {workload} {name}: {unequal} / {pairs} pairs, {lo:.9g} .. {hi:.9g}"
                  f"{declared}")
    else:
        print("\nevery virt_* and allocation metric is bit-equal within every pair")
    # A declared move may only go the better way; anything else in virt_* is
    # a change the PR did not declare.
    violations = []
    for workload, name, *_ in differing:
        if not name.startswith("virt_"):
            continue
        if (workload, name) not in moves:
            violations.append(f"{workload} {name} differs but is not declared by --moves")
            continue
        p, c = runs[workload]["parent"][name], runs[workload]["change"][name]
        worse = sum((y < x) if BETTER[name] == "higher" else (y > x) for x, y in zip(p, c))
        if worse:
            violations.append(f"{workload} {name} is worse in {worse} / {len(p)} pairs")
    for workload, name in sorted(moves):
        p, c = runs[workload]["parent"][name], runs[workload]["change"][name]
        better = sum((y > x) if BETTER[name] == "higher" else (y < x) for x, y in zip(p, c))
        print(f"declared move {workload} {name}: better in {better} / {len(p)} pairs, "
              f"equal in {sum(x == y for x, y in zip(p, c))}")
    for v in violations:
        print(f"VIOLATION: {v}")

    claim_text = None
    if claim:
        workload, metric, want = claim
        p, c = runs[workload]["parent"][metric], runs[workload]["change"][metric]
        higher = BETTER[metric] == "higher"
        (q1, pmed, q3), cmed = quartiles(p), statistics.median(c)
        apart = abs(cmed - pmed) > q3 - q1
        if metric in EXACT:
            # A count: change / parent, every pair better, the median at the
            # target.
            ratios = [y / x for x, y in zip(p, c)]
            won = sum((r > 1) if higher else (r < 1) for r in ratios)
            med = statistics.median(ratios)
            reached = med >= want if higher else med <= want
            met = won == len(p) and reached and apart
            worst = min(ratios) if higher else max(ratios)
            bound = ">=" if higher else "<="
            claim_text = (f"{workload} {metric} {bound} {want:g} x parent (a count): "
                          f"median {med:.4f} x, {won}/{len(p)} pairs better")
            print(f"\nclaim {claim_text}, worst pair {worst:.4f} x; medians differ by "
                  f"{fmt(abs(cmed - pmed))}, parent quartile distance {fmt(q3 - q1)}: "
                  f"{'met' if met else 'NOT MET'}")
        else:
            gains = [(y / x if higher else x / y) for x, y in zip(p, c)]
            won = sum(g > 1 for g in gains)
            met = won >= 0.9 * len(p) and statistics.median(gains) >= want and apart
            claim_text = (f"{workload} {metric} >= {want:g}x: {statistics.median(gains):.2f}x, "
                          f"{won}/{len(p)} pairs")
            print(f"\nclaim {claim_text}, worst pair {min(gains):.2f}x; medians differ by "
                  f"{fmt(abs(cmed - pmed))}, parent quartile distance {fmt(q3 - q1)}: "
                  f"{'met' if met else 'NOT MET'}")

    history = {
        "pr": args.pr, "title": args.title, "claim": claim_text,
        "method": f"scripts/pairs.py: benchmark/ at host width 1; {args.pairs} alternating "
                  f"parent/change pairs per workload, pair i on seed i (1-{args.pairs}), "
                  f"--seconds {args.seconds}; medians; [parent, change]",
        "workloads": {w: {m: [float(f"{statistics.median(runs[w][s][m]):.7g}")
                              for s in ("parent", "change")] for m in BETTER}
                      for w in workloads},
    }
    print("\nperf_history.jsonl line:")
    print(json.dumps(history, separators=(",", ":")))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
