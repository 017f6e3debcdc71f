"""genkf benchmark: one CLI workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out RESULT.json]

Run from anywhere inside a checkout that holds ``src/genkf``.  Each genkf
command runs in a fresh process (perfbench/child.py), one after another,
with GENKF_THREADS unset, and every output goes through check.py.

--trace 0 keeps starting commands until --seconds have passed and reports
the end-to-end metrics: wall_s (genkf.cli.main from call to return),
setup_s (process start to that call; also sampled by launches that only
import, a few before each command and after the last), cpu_s (user plus
system seconds of main) and peak_rss_mb (the child's ru_maxrss, in 10^6
bytes).  Each is the median over the run.

--trace 1 alternates untraced and traced commands (tracer.Tracer wrapped
around the genkf layers), starting and ending with an untraced one, for at
least MIN_TRACED traced commands and --seconds.  It reports the per-layer metrics,
each the lower median over the traced commands, and trace.overhead_s, the
median over traced commands of their wall time minus the mean of the two
untraced commands around them.  Every traced report must be
byte-identical to the untraced one.

A command is started only if it can end before a run-wide deadline,
judged by the longest command so far; a command that runs past the
deadline is killed and counts as failed.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics; --out also writes a full record with quartiles, the
samples and provenance.  Scratch files go to .perfbench-work/ in the
checkout; the last trace stays there as trace.json.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import REFERENCE_SEED, check_output, load_reference
from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BENCHMARK = ROOT / "BENCHMARK.json"
CHILD = HERE / "child.py"
# import-only launches before each command and after the last one
SETUP_LAUNCHES = 4
# every child is killed at this many seconds after the run began, so the
# whole run ends well within three minutes
DEADLINE_S = 165.0
# traced commands in a --trace 1 run at the least, so that trace.overhead_s
# is a median even where one command takes half of --seconds
MIN_TRACED = 3
# kept free before the deadline for the import-only launches after a command
SLACK_S = 10.0


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Starts the child processes of one run and checks their outputs."""

    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.doc = self.dir / "document.json"
        self.doc.write_text(json.dumps(self.workload.document, indent=2) + "\n")
        self.report = self.dir / "report.json"
        self.argv = self.workload.argv(self.doc, self.report, seed)
        self.reference = load_reference(name)
        self.env = {k: v for k, v in os.environ.items() if k != "GENKF_THREADS"}
        self.deadline = time.monotonic() + DEADLINE_S
        self.longest = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def launch(self, *flags, trace=None):
        """Run child.py once; return (exit code, record) or (None, None) on timeout."""
        record = self.dir / "record.json"
        record.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--record", str(record), *flags]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += ["--", *self.argv]
        with open(self.dir / "child.log", "ab") as log:
            started = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.dir
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None, None
        if not record.is_file():
            return code, None
        rec = json.loads(record.read_text())
        rec["setup_s"] = rec["ready"] - started
        return code, rec

    def setup_only(self, *flags):
        code, rec = self.launch("--setup-only", *flags)
        if code != 0 or rec is None:
            tail = (self.dir / "child.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"importing genkf failed (exit {code}):\n{tail}")
        return rec

    def command(self, trace=None):
        """One checked genkf command; its record, or None when it failed."""
        self.report.unlink(missing_ok=True)
        self.attempted += 1
        started = time.monotonic()
        code, rec = self.launch(trace=trace)
        self.longest = max(self.longest, time.monotonic() - started)
        if code is None:
            problems = [f"timed out after {DEADLINE_S:.0f} s of run time"]
        else:
            problems = check_output(
                self.workload.command, code, self.report, self.seed, self.reference
            )
            if not problems and rec is None:
                problems = ["child wrote no timing record"]
        if problems:
            self.failed += 1
            self.problems.append(problems)
            print(f"FAILED {self.name} seed {self.seed}: {'; '.join(problems)}", flush=True)
            return None
        return rec

    def can_start(self, commands=1):
        """Whether this many more commands, as long as the longest so far, end in time."""
        return time.monotonic() + commands * self.longest + SLACK_S < self.deadline

    def setups(self):
        return [self.setup_only()["setup_s"] for _ in range(SETUP_LAUNCHES)]


def measure(runner, seconds):
    setups, samples = [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds and runner.can_start():
        setups += runner.setups()
        rec = runner.command()
        if rec is not None:
            samples.append(rec)
            setups.append(rec["setup_s"])
    if not samples:
        return None, {}
    setups += runner.setups()
    raw = {
        "wall_s": [r["wall_s"] for r in samples],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in samples],
        "peak_rss_mb": [r["maxrss_kb"] * 1024 / 1e6 for r in samples],
    }
    stats = {name: summarize(values) for name, values in raw.items()}
    return {name: s["median"] for name, s in stats.items()}, {"samples": raw, "quartiles": stats}


def paired_overheads(untraced, traced):
    """Each traced wall time minus the mean of the untraced ones on either side.

    ``untraced`` has one more entry than ``traced``; a failed command is None
    and drops the pairs it belongs to.
    """
    return [
        t - (before + after) / 2
        for before, t, after in zip(untraced, traced, untraced[1:])
        if None not in (before, t, after)
    ]


def trace(runner, seconds):
    kept = runner.dir / "report-untraced.json"
    trace_path = runner.dir / "trace.json"

    def untraced():
        rec = runner.command()
        if rec is None:
            return None
        if not kept.exists():
            shutil.copyfile(runner.report, kept)
        return rec["wall_s"]

    def traced():
        rec = runner.command(trace=trace_path)
        if rec is None:
            return None
        if kept.exists() and not filecmp.cmp(kept, runner.report, shallow=False):
            runner.failed += 1
            runner.problems.append(["traced report differs from the untraced report"])
            print(f"FAILED {runner.name}: traced report differs from the untraced one",
                  flush=True)
            return None
        values = layer_metrics(json.loads(trace_path.read_text()))
        iterations = 0
        if runner.workload.command == "solve":
            iterations = json.loads(runner.report.read_text())["iterations"]
        values["analysis.solver.iterations"] = iterations
        return rec["wall_s"], values

    walls = [untraced()]
    layers = []
    start = time.monotonic()
    while (len(layers) < MIN_TRACED or time.monotonic() - start < seconds) and runner.can_start(2):
        layers.append(traced())
        walls.append(untraced())
    overheads = paired_overheads(walls, [t and t[0] for t in layers])
    layers = [t[1] for t in layers if t is not None]
    if not overheads:
        return None, {}
    values = {k: statistics.median_low([v[k] for v in layers]) for k in layers[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    return values, {"samples": {"untraced_wall_s": walls, "overhead_s": overheads}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full result record here")
    args = p.parse_args(argv)

    if not (SRC / "genkf" / "cli.py").is_file():
        print(f"error: no genkf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    runner = Runner(args.workload, args.seed)
    try:
        prov = runner.setup_only("--provenance")["provenance"]
        run = trace if args.trace else measure
        values, detail = run(runner, seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if values is None:
        print(f"error: no command of {args.workload} succeeded", file=sys.stderr)
        return 1

    # BENCHMARK.json names the metrics of each kind of run and their units
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    prov["git_commit"] = git_commit()
    failed_frac = runner.failed / runner.attempted
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{runner.attempted} commands, failed_frac {failed_frac:g}")
    quartiles = detail.get("quartiles", {})
    for name, m in metrics.items():
        line = f"  {name:36s} {m['value']:.6g} {m['unit']}"
        if name in quartiles:
            q = quartiles[name]
            line += f"  (median of {q['n']}; q1 {q['q1']:.6g}, q3 {q['q3']:.6g})"
        print(line)
    if args.out:
        record = {
            "workload": args.workload,
            "why": whys[args.workload],
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failed_frac": failed_frac,
            "problems": runner.problems,
            "metrics": metrics,
            "provenance": prov,
            **detail,
        }
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
