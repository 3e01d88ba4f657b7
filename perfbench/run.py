"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload serve_warm --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run that prints every per-layer
metric instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_warm", "optimize_cold", "train_fleet")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[section]}

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import common
    import harness

    common.pin_to_one_cpu()
    workload = importlib.import_module(args.workload)
    tally, metrics, info = workload.run(args.seed, args.seconds,
                                        bool(args.trace))
    for line in info:
        print(line)
    for problem in tally.problems:
        print(f"problem: {problem}")
    if tally.problem_count > len(tally.problems):
        print(f"problem: ... {tally.problem_count - len(tally.problems)} "
              "more")
    sys.stdout.flush()
    print(harness.result_line(tally, metrics, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
