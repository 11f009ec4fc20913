#!/usr/bin/env python3
"""Run every workload once per seed and print each end-to-end metric's spread.

    python3 benchmark/spread.py <path-to-benchmark-binary> [first_seed] [seeds] [seconds]

The spread is the one the benchmark driver computes: the distance between the
first and third quartile of the runs' values (statistics.quantiles, n=4) as a
share of their median. README.md's spread table is this script's output.
"""
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["md_fmm", "md_p2nfft", "md_sparse64", "redist", "scale_exchange"]


def main():
    binary = sys.argv[1]
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    seeds = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    seconds = sys.argv[4] if len(sys.argv) > 4 else "15"
    print(f"set started {time.strftime('%H:%M:%S')}, seeds {first}..{first + seeds - 1}")
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | max dev from median |")
    print("|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        values = {}
        for seed in range(first, first + seeds):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds,
                 "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            worst = max(abs(x - median) for x in v) / median
            print(f"| {workload} | {name} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {(q3 - q1) / median:.4%} | {worst:.4%} |", flush=True)


if __name__ == "__main__":
    main()
