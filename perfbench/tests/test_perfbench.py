"""Tests of the benchmark's own code: tracer, checker and child runner.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

from check import check_output, compare, load_reference, properties
from run import paired_overheads
from tracer import Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
CHILD = HERE.parent / "child.py"
SRC = HERE.parent.parent / "src"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_toy_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(dt):
        clock.now += dt

    leaf = tracer.wrap("kernels.leaf", lambda: work(1.0))

    def mid_body():
        work(2.0)
        leaf()
        work(0.5)

    mid = tracer.wrap("fields.mid", mid_body)

    def top_body():
        work(3.0)
        mid()
        leaf()
        mid()

    top = tracer.wrap("fields.top", top_body)
    top()

    # spans in start order: top, mid, leaf, leaf, mid, leaf
    assert tracer.span_parent == [-1, 0, 1, 0, 0, 4]
    own = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    assert own == [3.0, 2.5, 1.0, 1.0, 2.5, 1.0]
    m = layer_metrics(tracer.dump())
    assert (m["fields.calls"], m["fields.self_s"]) == (3, 8.0)
    assert (m["kernels.calls"], m["kernels.self_s"]) == (3, 3.0)
    assert sum(m[f"{layer}.self_s"] for layer in ("fields", "kernels")) == 11.0


def test_function_seconds_count_outermost_spans_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    depth = []

    def body():
        clock.now += 1.0
        if not depth:
            depth.append(1)
            curvature()

    curvature = tracer.wrap("fields.curvature", body)
    curvature()
    m = layer_metrics(tracer.dump())
    assert m["fields.curvature.calls"] == 2
    assert m["fields.curvature.s"] == 2.0
    assert m["fields.self_s"] == 2.0


def _floats_scaled(obj, factor):
    if isinstance(obj, dict):
        return {k: _floats_scaled(v, factor) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floats_scaled(v, factor) for v in obj]
    if isinstance(obj, float):
        return obj * factor
    return obj


def test_checker_accepts_roundoff_and_rejects_perturbation():
    ref = load_reference("curvature-n2r2")
    assert compare(ref, ref) == []
    assert properties("curvature", ref, ref) == []

    reordered = _floats_scaled(ref, 1.0 + 1e-15)
    reordered["lambda"] = ref["lambda"] + 3e-17
    assert compare(reordered, ref) == []

    perturbed = copy.deepcopy(ref)
    scale = max(map(abs, ref["mean_curvature"]["re"]))
    perturbed["mean_curvature"]["re"][1234] += 1e-11 * scale
    problems = compare(perturbed, ref)
    assert len(problems) == 1 and "mean_curvature.re[1234]" in problems[0]

    perturbed = copy.deepcopy(ref)
    perturbed["lambda"] = 1e-9
    assert compare(perturbed, ref) and properties("curvature", perturbed, ref)


def test_checker_applies_command_properties(tmp_path):
    ref = load_reference("verify-n2r1")
    bad = copy.deepcopy(ref)
    bad["checks"][3]["pass"] = False
    assert properties("verify", bad, ref)

    ref = load_reference("symbols-n2r2")
    bad = copy.deepcopy(ref)
    bad["exact"][2] = False
    assert properties("symbols", bad, ref)

    ref = load_reference("solve-n1-varb")
    bad = copy.deepcopy(ref)
    bad["final_residual"] = 2 * bad["tolerance"]
    assert properties("solve", bad, ref)

    path = tmp_path / "report.json"
    path.write_text(json.dumps(ref))
    assert check_output("solve", 0, path, 0, ref) == []
    assert check_output("solve", 1, path, 0, ref) == ["exit status 1"]
    assert check_output("solve", 0, tmp_path / "missing.json", 0, ref)


def _child(tmp_path, tag, *flags):
    report = tmp_path / f"report-{tag}.json"
    record = tmp_path / f"record-{tag}.json"
    argv = ["report", "--output", str(report), "--seed", "3", "--trials", "10"]
    subprocess.run(
        [sys.executable, str(CHILD), "--src", str(SRC), "--record", str(record), *flags,
         "--", *argv],
        check=True, cwd=tmp_path, stdout=subprocess.DEVNULL, timeout=300,
    )
    return report.read_bytes(), json.loads(record.read_text())


def test_traced_report_is_byte_identical(tmp_path):
    plain, rec = _child(tmp_path, "plain")
    trace_path = tmp_path / "trace.json"
    traced, _ = _child(tmp_path, "traced", "--trace", str(trace_path))
    assert rec["exit"] == 0 and rec["wall_s"] > 0
    assert traced == plain

    m = layer_metrics(json.loads(trace_path.read_text()))
    # the report command reaches curvature through cli, verify and analysis
    for layer in ("kernels", "fields", "structures", "multivector", "analysis",
                  "verify", "report", "specio"):
        assert m[f"{layer}.calls"] > 0, layer
    assert m["fields.curvature.calls"] > 0
    assert m["analysis.svd.calls"] > 0
    assert m["report.bytes"] == len(plain)


def test_overhead_pairs_each_traced_command_with_its_neighbours():
    # a slow drift of 1 s per command cancels out of each pair
    assert paired_overheads([10.0, 12.0, 14.0], [11.5, 13.5]) == [0.5, 0.5]
    # a failed command drops only the pairs it belongs to
    assert paired_overheads([10.0, None, 14.0, 15.0], [11.5, 13.5, 14.75]) == [0.25]
