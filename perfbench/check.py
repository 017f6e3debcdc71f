"""Output checker for one benchmark command.

A command passes when it exited 0, when the properties its report claims
hold (verify: 41 rows, all passing; symbols: every junction exact, dims
and ranks as in the reference; solve: converged with final residual at
most the tolerance; curvature: zero chern pair and lambda, U-window defect
at roundoff, the expected dump shape), and, at the reference seed, when
the report agrees with the reference report committed in reference/.

Agreement is per top-level report section: every number may differ from
the reference by at most 1e-13 times the largest magnitude in that
section, with an absolute floor of 1e-14 for sections whose values are
zero up to rounding (lambda and chern are ~1e-17 on curvature-n2r2).
Strings, booleans, integers and the shape of the document must match
exactly.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
REL_TOL = 1e-13
ABS_FLOOR = 1e-14
VERIFY_ROWS = 41
ROUNDOFF = 1e-12
_MAX_PROBLEMS = 5


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload):
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _max_abs(obj):
    if isinstance(obj, dict):
        return max((_max_abs(v) for v in obj.values()), default=0.0)
    if isinstance(obj, list):
        return max((_max_abs(v) for v in obj), default=0.0)
    return abs(obj) if _is_number(obj) else 0.0


def _walk(got, want, path, tol, problems):
    if len(problems) >= _MAX_PROBLEMS:
        return
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ from the reference")
            return
        for k in sorted(want):
            _walk(got[k], want[k], f"{path}.{k}", tol, problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length differs from the reference")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _walk(g, w, f"{path}[{i}]", tol, problems)
    elif isinstance(want, float) or (isinstance(got, float) and _is_number(want)):
        if not _is_number(got) or not abs(got - want) <= tol:
            problems.append(f"{path}: {got!r} differs from reference {want!r} by more than {tol:.1e}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} != reference {want!r}")


def compare(report, reference):
    """Mismatches between a report and its reference, at most a few."""
    problems = []
    if set(report) != set(reference):
        return [f"sections {sorted(report)} differ from reference {sorted(reference)}"]
    for key in sorted(reference):
        tol = max(REL_TOL * _max_abs(reference[key]), ABS_FLOOR)
        _walk(report[key], reference[key], key, tol, problems)
    return problems


def properties(command, report, reference):
    """The checks the command itself claims, independent of the seed."""
    problems = []
    if report.get("command") != command:
        return [f"report is for command {report.get('command')!r}, expected {command!r}"]
    if command == "verify":
        rows = report["checks"]
        if len(rows) != VERIFY_ROWS:
            problems.append(f"verify has {len(rows)} rows, expected {VERIFY_ROWS}")
        failing = [r["check"] for r in rows if r["pass"] is not True]
        if failing or report["passed"] is not True or report["failures"] != 0:
            problems.append(f"verify checks failed: {failing}")
    elif command == "symbols":
        if not all(e is True for e in report["exact"]):
            problems.append(f"inexact symbol junctions: {report['exact']}")
        for key in ("dims", "ranks"):
            if report[key] != reference[key]:
                problems.append(f"symbol {key} {report[key]} != reference {reference[key]}")
    elif command == "solve":
        if report["converged"] is not True:
            problems.append("solve did not converge")
        if not report["final_residual"] <= report["tolerance"]:
            problems.append(
                f"final residual {report['final_residual']} above tolerance {report['tolerance']}"
            )
    elif command == "curvature":
        if report["mean_curvature"]["shape"] != reference["mean_curvature"]["shape"]:
            problems.append(f"mean curvature shape {report['mean_curvature']['shape']}")
        small = {
            "lambda": abs(report["lambda"]),
            "chern": math.hypot(*report["chern"]),
            "u_window_defect": report["u_window_defect"],
            "psi_closedness": report["psi_closedness"],
        }
        for key, value in small.items():
            if not value <= ROUNDOFF:
                problems.append(f"curvature {key} = {value!r}, expected at most {ROUNDOFF}")
    return problems


def check_output(command, exit_code, report_path, seed, reference):
    """All problems with one command's output; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    try:
        problems = properties(command, report, reference)
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
    if seed == REFERENCE_SEED:
        problems += compare(report, reference)
    return problems
