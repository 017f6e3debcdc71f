"""Run the benchmark on several seeds and report the run-to-run spread.

    python3 perfbench/spread.py [--workload NAME ...] [--out FILE]

For every workload, runs ``run.py --trace 0`` for run_seconds of
BENCHMARK.json once per seed of SEEDS, one after another, then one traced
run at the reference seed.  For each end-to-end metric it prints the
median of the per-run values and their spread, the distance between the
first and third quartile (statistics.quantiles with n=4) as a share of
the median, next to the metric's bound in BENCHMARK.json.  --out writes
every run's full record, which is how a baseline result file is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from check import REFERENCE_SEED
from run import HERE, ROOT, WORK, git_commit
from workloads import WORKLOADS

SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    out = WORK / f"spread-{workload}-{seed}-{trace}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--out")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"git_commit": git_commit(), "seconds": seconds, "workloads": {}}
    for workload in args.workload or list(WORKLOADS):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, REFERENCE_SEED, seconds, 1)
        summary = {}
        print(f"{workload}: {sum(r['attempted'] for r in runs)} commands, "
              f"{sum(r['failed'] for r in runs)} failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "values": values}
            print(f"  {name:12s} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['spread']:.4f}  bound {bound}")
        baseline["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
