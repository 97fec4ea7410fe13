"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload inproc_query --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it give the same figures raw and
speed-adjusted, per-kind operation counts and any failed check.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, Inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: no program sources at %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from oracle import ContainmentOracle
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    inputs = Inputs(args.seed)
    t1 = time.perf_counter()
    oracle = ContainmentOracle({**inputs.corpus, **inputs.extra})
    t2 = time.perf_counter()
    workload = WORKLOADS[args.workload](inputs, oracle, args.seconds,
                                        bool(args.trace))
    workload.run()
    workload.phases.update(inputs=t1 - t0, oracle=t2 - t1,
                           total=time.perf_counter() - t0)

    ledger = workload.ledger
    print("workload %s seed %d seconds %g trace %d: %d rounds, "
          "probe factor %.4f over %d samples"
          % (args.workload, args.seed, args.seconds, args.trace,
             workload.rounds, workload.probe.factor,
             len(workload.probe.samples)))
    for kind in sorted(ledger.attempted):
        print("ops %-7s attempted %6d failed %d"
              % (kind, ledger.attempted[kind], ledger.failed[kind]))
    for failure in ledger.failures:
        print("FAILED %s" % failure)
    print("phases (wall s): %s" % json.dumps(
        {k: round(v, 2) for k, v in workload.phases.items()}))
    print("setup steps (raw s): %s" % json.dumps(
        {k: round(t1 - t0, 4) for k, (t0, t1) in workload.steps.items()}))
    adjusted = workload.end_to_end()
    raw = workload.end_to_end(adjusted=False)
    print("%-16s %14s %14s  unit" % ("metric", "adjusted", "raw"))
    for name, (value, unit) in adjusted.items():
        print("%-16s %14.6g %14.6g  %s" % (name, value, raw[name][0], unit))
    for kind, p99 in sorted(workload.tails().items()):
        print("%s_p99_ms raw %.4f (n=%d)"
              % (kind, p99, len(ledger.latencies[kind])))
    if args.trace:
        # Adjusted end-to-end figures of the traced run, for the tracing
        # overhead (compare with an untraced run of the same seed).
        print("traced end_to_end %s" % json.dumps(
            {name: value for name, (value, _) in adjusted.items()}))
        for name, (value, unit) in workload.layers.items():
            print("layer %-34s %14.6g  %s" % (name, value, unit))
    for problem in workload.problems[:20]:
        print("CHECK FAILED %s" % problem)
    if len(workload.problems) > 20:
        print("... %d failed checks in all" % len(workload.problems))

    metrics = workload.layers if args.trace else adjusted
    correct = not workload.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.total_attempted(),
        "failed": ledger.total_failed(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
