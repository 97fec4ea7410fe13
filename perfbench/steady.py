"""Steadiness of the benchmark: run each workload N times, each in a
fresh process with its own seed, and print per metric the median, the
quartiles and the spread (interquartile distance over the median).

    python3 perfbench/steady.py --runs 10 --seconds 25
    python3 perfbench/steady.py --runs 5 --workloads cluster_mixed
    python3 perfbench/steady.py --runs 3 --trace-overhead

``--trace-overhead`` runs every seed twice, untraced and traced, and
reports the traced run's adjusted end-to-end metrics against the
untraced ones.  ``BENCHMARK.json``'s bounds are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The workloads BENCHMARK.json lists (run.py also runs node_mixed).
WORKLOADS = ("inproc_query", "cluster_mixed")
# Speed-adjusted metrics whose raw value run.py prints beside them.
RAW_METRICS = ("setup_s", "query_p50_ms", "topk_p50_ms", "insert_p50_ms",
               "remove_p50_ms", "ops_per_s")


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One run in a fresh process: the final JSON, the traced run's
    end-to-end figures, and the raw (unadjusted) timings."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(HERE.parent), capture_output=True, text=True, check=False)
    print("  (%s seed %d took %.0f s)" % (workload, seed,
                                      time.perf_counter() - start),
          flush=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("%s seed %d failed:\n%s%s" % (
            workload, seed, proc.stdout[-3000:], proc.stderr[-3000:]))
    traced = None
    raw = {}
    for line in lines:
        if line.startswith("traced end_to_end "):
            traced = json.loads(line[len("traced end_to_end "):])
        fields = line.split()
        if len(fields) == 4 and fields[0] in RAW_METRICS:
            raw[fields[0]] = float(fields[2])
    return json.loads(lines[-1]), traced, raw


def spread_row(name: str, values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return "%-20s %12.6g %12.6g %12.6g %8.2f%%" % (
        name, median, q1, q3, 100 * spread)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        traced_values: dict[str, list[float]] = {}
        raw_values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds:
            result, _, raw = run_once(workload, seed, args.seconds, 0)
            for name, value in raw.items():
                raw_values.setdefault(name, []).append(value)
            if not result["correct"]:
                raise SystemExit("%s seed %d: checks failed" % (workload,
                                                               seed))
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (name, metric["value"])
                for name, metric in result["metrics"].items())),
                flush=True)
            if args.trace_overhead:
                _, traced, _ = run_once(workload, seed, args.seconds, 1)
                for name, value in traced.items():
                    traced_values.setdefault(name, []).append(value)
        print("## %s (%d runs, seeds %d-%d, %gs each)"
              % (workload, args.runs, seeds[0], seeds[-1], args.seconds))
        print("failed/attempted: %s" % sorted(shares))
        print("%-20s %12s %12s %12s %9s" % ("metric", "median", "q1", "q3",
                                            "spread"))
        for name, series in values.items():
            print(spread_row(name, series))
        for name, series in raw_values.items():
            print(spread_row("raw " + name, series))
        if traced_values:
            print("traced / untraced median:")
            for name, series in traced_values.items():
                print("  %-18s %+.1f%%" % (name, 100 * (
                    statistics.median(series)
                    / statistics.median(values[name]) - 1)))
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
