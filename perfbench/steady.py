"""Steadiness check: run one workload k times, each with another seed,
and print each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) next to its
bound from BENCHMARK.json.

Usage, from the repository root::

    python3 perfbench/steady.py --workload serve_fresh --runs 10

The raw results go to ``.perfbench_work/steady-<workload>.json``.
A spread within a third of the bound is marked ``ok``, and for
``setup_s`` (process start and imports, the noisiest metric) a spread
within the bound; any other is marked ``WIDE`` and the command exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, WORK
from run import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    results = []
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [
                sys.executable, "perfbench/run.py",
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
    WORK.mkdir(exist_ok=True)
    (WORK / f"steady-{args.workload}.json").write_text(json.dumps(results, indent=1))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs, failed share {sorted(shares)}")
    print(f"{'metric':16} {'unit':11} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}")
    steady = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name not in results[0]["metrics"]:
            continue
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        allowed = metric["bound"] if name == "setup_s" else metric["bound"] / 3
        ok = spread <= allowed
        steady &= ok
        print(f"{name:16} {metric['unit']:11} {med:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{spread:8.2%} {metric['bound']:6.0%}  {'ok' if ok else 'WIDE'}")
    return 0 if steady and len(shares) == 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
