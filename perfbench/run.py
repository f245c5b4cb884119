"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_repeat --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` drives the program from outside (a ``repro serve``
subprocess) and prints the end-to-end metrics;
``--trace 1`` replays the same inputs in this process with spans around
each layer's public functions and prints the per-layer metrics.  Any
wrong answer fails the run (exit code 1, no result line).
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("serve_repeat", "serve_fresh")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.check_checkout()
    common.pin_to_one_core()
    workdir = common.fresh_workdir(f"{args.workload}-{args.trace}")
    if args.trace:
        import traced

        result = traced.run(args.workload, args.seed, args.seconds, workdir)
    else:
        import served

        result = served.run(args.workload, args.seed, args.seconds, workdir)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
