"""End-to-end tests for the command-line driver and input documents."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genkf import cli, fields, report, specio
from genkf.cli import main
from genkf.multivector import exp_two_form
from genkf.specio import SpecError, build_config, load_document
from genkf.structures import (
    OMEGA_BLOCK,
    UDecomposition,
    gcs_from_spinor,
    gcs_symplectic,
    gk_validate,
    standard_complex,
)
from genkf.verify import _field_checks, _structure_checks


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# verify


def test_default_verify_passes(capsys):
    assert main(["--grid", "16"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("n, rank", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_verify_matrix_passes_every_check(tmp_path, capsys, n, rank):
    grid = 16 if n == 1 else 8
    out = tmp_path / "verify.json"
    args = ["verify", "--grid", str(grid), "--rank", str(rank), "--output", str(out)]
    assert main(args + ["--input", write_doc(tmp_path, {"n": n})]) == 0
    assert "41/41 checks passed" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["config"]["sizes"] == [grid] * (2 * n)
    assert doc["passed"] is True and len(doc["checks"]) == 41


def test_verify_rank2_peak_stays_under_ten_field_sizes(tmp_path, capsys):
    # numpy reports its buffers to tracemalloc, so the traced peak of a
    # verify run is deterministic; a rank-r field is 16 * 4^n * prod(sizes)
    # * r^2 bytes, and the suite frees each group's arrays once its rows are
    # written
    rand = {"random": {"amp": 0.1, "modes": 2}}
    doc = {"n": 2, "grid": {"sizes": [8] * 4}, "bundle": {"rank": 2},
           "connection": {"A": rand, "V": rand}}
    path = write_doc(tmp_path, doc)
    field = 16 * 4**2 * 8**4 * 2**2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["verify", "--input", path]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "41/41 checks passed" in capsys.readouterr().out
    assert peak <= 10 * field


def test_curvature_rank2_peak_stays_under_two_and_three_quarter_field_sizes(tmp_path, capsys):
    # curvature() holds its result and (r, r, *sizes) temporaries; the
    # command adds the mean curvature and the U-window check
    rand = {"random": {"amp": 0.1, "modes": 2}}
    doc = {"n": 2, "grid": {"sizes": [8] * 4}, "bundle": {"rank": 2},
           "connection": {"A": rand, "V": rand}}
    path = write_doc(tmp_path, doc)
    field = 16 * 4**2 * 8**4 * 2**2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["curvature", "--input", path]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 2.75 * field


def test_curvature_command_releases_f_before_the_dbar_check(tmp_path, capsys, monkeypatch):
    # nothing after the U-window check reads F: when dbar_residual starts,
    # what the command holds (A, V, psi, the mean curvature) is less than
    # one field, and a whole field less than when the check started
    rand = {"random": {"amp": 0.1, "modes": 2}}
    doc = {"n": 2, "grid": {"sizes": [12] * 4}, "bundle": {"rank": 2},
           "connection": {"A": rand, "V": rand}}
    path = write_doc(tmp_path, doc)
    field = 16 * 4**2 * 12**4 * 2**2
    held = {}

    def measured(name):
        run = getattr(cli, name)

        def wrapper(*args):
            held[name] = tracemalloc.get_traced_memory()[0] - base
            return run(*args)

        monkeypatch.setattr(cli, name, wrapper)

    measured("u_window_defect")
    measured("dbar_residual")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["curvature", "--input", path]) == 0
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert held["dbar_residual"] < field
    assert held["dbar_residual"] <= held["u_window_defect"] - 0.95 * field


def test_verify_report_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--grid", "16", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "verify"
    assert doc["config"]["sizes"] == [16, 16]
    assert doc["passed"] is True and doc["failures"] == 0
    assert len(doc["checks"]) >= 40
    for row in doc["checks"]:
        assert row["pass"] and row["error"] < row["tolerance"]


def test_verify_nonclosed_b_exits_2(tmp_path, capsys):
    doc = {
        "n": 2,
        "grid": {"sizes": [8, 8, 8, 8]},
        "psi": {
            "b": {
                "entries": [
                    {"i": 0, "j": 1, "coeff": [{"c": 0.3, "trig": "sin", "k": [0, 0, 1, 0]}]}
                ]
            }
        },
    }
    assert main(["verify", "--input", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: psi.b or psi.omega gives an invalid spinor")
    assert "psi not d-closed" in err


def test_verify_closed_varying_b_passes(tmp_path, capsys):
    # the same entry made x0-dependent has vanishing exterior derivative
    doc = {
        "n": 2,
        "grid": {"sizes": [8, 8, 8, 8]},
        "psi": {
            "b": {
                "entries": [
                    {"i": 0, "j": 1, "coeff": [{"c": 0.3, "trig": "sin", "k": [1, 0, 0, 0]}]}
                ]
            }
        },
    }
    assert main(["verify", "--input", write_doc(tmp_path, doc)]) == 0


def b_entries(n2):
    """psi.b entries whose coefficients are a number or trig monomials."""
    mono = st.fixed_dictionaries({
        "c": st.floats(-1.0, 1.0),
        "trig": st.sampled_from(["sin", "cos"]),
        "k": st.lists(st.integers(-2, 2), min_size=n2, max_size=n2),
    })
    index = st.integers(0, n2 - 1)
    entry = st.fixed_dictionaries(
        {"i": index, "j": index, "coeff": st.floats(-1.0, 1.0) | st.lists(mono, max_size=2)}
    )
    return st.lists(entry.filter(lambda e: e["i"] != e["j"]), max_size=3)


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([1, 2]), data=st.data())
def test_document_spinor_is_exp_two_form_at_every_point_bitwise(n, data):
    # psi.b as a matrix or as entries: every grid point of psi holds the bits
    # of exp_two_form(b(x) + i omega) computed for that point alone
    n2 = 2 * n
    upper = st.lists(st.floats(-2.0, 2.0), min_size=n * (n2 - 1), max_size=n * (n2 - 1))
    m = np.zeros((n2, n2))
    m[np.triu_indices(n2, 1)] = data.draw(upper)
    grid = fields.TorusGrid(n, (8,) * n2)
    omega = np.kron(np.eye(n), OMEGA_BLOCK)
    for spec in ((m - m.T).tolist(), {"entries": data.draw(b_entries(n2))}):
        b = specio._b_field(spec, grid)
        psi = specio._build_psi(grid, b, omega)
        for point in np.ndindex(grid.sizes):
            bx = b if b.ndim == 2 else b[(...,) + point]
            want = exp_two_form(bx + 1j * omega).coeffs
            assert psi.data[(slice(None),) + point].tobytes() == want.tobytes()


def test_constant_b_as_matrix_or_entries_builds_the_same_spinor_bits():
    # a b at which e^{b + i omega} of a single form once rounded one
    # coefficient apart from the batched series; given as a psi.b matrix
    # (one form) or as constant entries (a field), psi has the same bits
    grid = fields.TorusGrid(2, (8,) * 4)
    omega = np.kron(np.eye(2), OMEGA_BLOCK)
    upper = (0.93, 0.42, -0.57, 0.09, 0.41, -0.9)
    m = np.zeros((4, 4))
    m[np.triu_indices(4, 1)] = upper
    pairs = zip(*np.triu_indices(4, 1))
    entries = [{"i": int(i), "j": int(j), "coeff": c} for (i, j), c in zip(pairs, upper)]
    const = specio._build_psi(grid, specio._b_field((m - m.T).tolist(), grid), omega)
    varying = specio._build_psi(grid, specio._b_field({"entries": entries}, grid), omega)
    want = exp_two_form(m - m.T + 1j * omega).coeffs
    assert const.data[:, 0, 0, 0, 0].tobytes() == want.tobytes()
    assert varying.data[:, 0, 0, 0, 0].tobytes() == want.tobytes()


def test_seed_determinism_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--grid", "16", "--seed", "7", "--output", str(p1)]) == 0
    assert main(["verify", "--grid", "16", "--seed", "7", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_symbols_determinism_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["symbols", "--rank", "2", "--trials", "30", "--seed", "3"]
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# solve


def test_solve_default_converges(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert main(["solve", "--grid", "16", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "lambda =" in text and "final residual" in text
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["final_residual"] < 1e-8
    assert doc["connection"]["A"]["shape"] == [2, 16, 16, 1, 1]
    assert len(doc["connection"]["A"]["re"]) == 2 * 16 * 16


def test_solve_rank2_exits_2(tmp_path, capsys):
    doc = {"bundle": {"rank": 2}}
    assert main(["solve", "--grid", "16", "--input", write_doc(tmp_path, doc)]) == 2
    assert "rank-1" in capsys.readouterr().err


def test_solve_budget_exhaustion_exits_1(tmp_path, capsys):
    out = tmp_path / "partial.json"
    rc = main(
        ["solve", "--grid", "16", "--max-iter", "1", "--tol", "1e-14", "--output", str(out)]
    )
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["iterations"] == 1
    assert len(doc["residual_history"]) == 2
    assert doc["residual_history"][1] < doc["residual_history"][0]


def test_solve_names_the_roundoff_floor_tol_and_connection(tmp_path, capsys):
    # |rhs| grows with the connection: at amp 1e8 the roundoff floor
    # |rhs| * eps is above the default --tol 1e-8, where the step collapses
    path = write_doc(tmp_path, {"connection": {"A": {"random": {"amp": 1e8}}}})
    assert main(["solve", "--grid", "16", "--input", path]) == 1
    err = capsys.readouterr().err
    assert "--tol" in err and "connection.A" in err and "tol 1e-08 is below" in err
    floor = float(err.split("roundoff floor |rhs|*eps = ")[1].split(";")[0])
    assert 1e-8 < floor < 1e-7
    assert main(["solve", "--grid", "16", "--input", path, "--tol", "1e-6"]) == 0


# ---------------------------------------------------------------------------
# symbols


def test_symbols_default_exact(tmp_path, capsys):
    out = tmp_path / "symbols.json"
    assert main(["symbols", "--trials", "20", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dims"] == [1, 4, 3]
    assert doc["ranks"] == [1, 3]
    assert all(doc["exact"])


def test_symbols_n2_rank2(tmp_path, capsys):
    doc = {"n": 2}
    out = tmp_path / "symbols.json"
    rc = main(
        [
            "symbols",
            "--rank",
            "2",
            "--trials",
            "5",
            "--input",
            write_doc(tmp_path, doc),
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["dims"] == [4, 32, 52, 32, 8]
    assert all(rep["exact"])


def test_symbols_zero_theta_exits_2(tmp_path, capsys):
    doc = {"theta": [0.0, 0.0]}
    assert main(["symbols", "--input", write_doc(tmp_path, doc)]) == 2
    assert "nonzero" in capsys.readouterr().err


def test_symbols_negative_trials_exits_2(tmp_path, capsys):
    out = tmp_path / "symbols.json"
    assert main(["symbols", "--trials", "-3", "--output", str(out)]) == 2
    assert "trials must be non-negative, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, c", [(1, 1e150), (1, 1e200), (2, 1e100), (2, 1e150)])
def test_symbols_names_psi_omega_when_its_line_has_zero_norm(tmp_path, capsys, n, c):
    # the Mukai norm of the spinor line of c * omega_0 underflows to 0j; the
    # command refuses it by its key before anything divides by it
    doc = {"n": n, "psi": {"omega": (c * np.kron(np.eye(n), OMEGA_BLOCK)).tolist()}}
    path = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["symbols", "--trials", "5", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: psi.omega ")
    assert "Mukai norm 0j" in err


_OVERFLOWING_PSI = {
    # e^{i omega}'s top blade is c^2 = 1e400 at n = 2
    "omega": {"omega": (1e200 * np.kron(np.eye(2), OMEGA_BLOCK)).tolist()},
    # b ^ b overflows at every grid point
    "b-entries": {
        "b": {"entries": [{"i": 0, "j": 1, "coeff": 1e200}, {"i": 2, "j": 3, "coeff": 1e200}]}
    },
}


@pytest.mark.parametrize("command", ["verify", "symbols", "report"])
@pytest.mark.parametrize("key", sorted(_OVERFLOWING_PSI))
def test_psi_past_the_float_range_is_refused_by_name(tmp_path, capsys, command, key):
    # build_config refuses a non-finite e^{b + i omega} by its keys, before
    # any command reads it, and the series' overflow prints no numpy warning
    path = write_doc(tmp_path, {"n": 2, "psi": _OVERFLOWING_PSI[key]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--trials", "5", "--input", path]) == 2
    assert capsys.readouterr().err == (
        "error: psi.b or psi.omega is too large: e^{b + i omega} has coefficients "
        "past the float range\n"
    )


# ---------------------------------------------------------------------------
# curvature and report


def test_curvature_reports_invariants(tmp_path, capsys):
    out = tmp_path / "curv.json"
    doc = {"lambda": 0.25}
    rc = main(
        ["curvature", "--grid", "16", "--input", write_doc(tmp_path, doc), "--output", str(out)]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["lambda"] == 0.25
    assert rep["u_window_defect"] < 1e-10
    assert rep["dbar_defect"] >= 0.0
    assert rep["mean_curvature"]["shape"] == [16, 16, 1, 1]
    assert rep["psi_closedness"] < 1e-10


@pytest.mark.parametrize("n, rank", [(1, 2), (2, 2), (2, 1)])
def test_report_fields_keep_matrix_axes_last(tmp_path, capsys, n, rank):
    # fields hold (r, r, *sizes); the reports dump (*sizes, r, r) row-major
    doc = {"n": n, "bundle": {"rank": rank}, "connection": {"A": {"random": {}}}}
    path = write_doc(tmp_path, doc)
    cfg = build_config(doc, grid_size=8)
    sizes = [8] * (2 * n)
    out = tmp_path / "curv.json"
    assert main(["curvature", "--grid", "8", "--input", path, "--output", str(out)]) == 0
    dump = json.loads(out.read_text())["mean_curvature"]
    assert dump["shape"] == sizes + [rank, rank]
    k = fields.mean_curvature_from(fields.curvature(cfg.conn, cfg.psi), cfg.psi)
    k_last = np.moveaxis(k, (0, 1), (-2, -1))
    assert dump["re"] == k_last.real.ravel().tolist()
    assert dump["im"] == k_last.imag.ravel().tolist()
    if rank != 1:
        return
    out = tmp_path / "solve.json"
    main(["solve", "--grid", "8", "--input", path, "--output", str(out)])
    conn = json.loads(out.read_text())["connection"]
    for key in ("A", "V"):
        assert conn[key]["shape"] == [2 * n] + sizes + [1, 1]


# closed, with psi varying over x0 and x2: b01 = 0.3 sin 2 pi x0,
# b23 = 0.3 cos 2 pi x2, b02 = 0.2
_VARYING_B_DOC = {
    "n": 2,
    "grid": {"sizes": [8, 8, 8, 8]},
    "bundle": {"rank": 2},
    "psi": {"b": {"entries": [
        {"i": 0, "j": 1, "coeff": [{"c": 0.3, "trig": "sin", "k": [1, 0, 0, 0]}]},
        {"i": 2, "j": 3, "coeff": [{"c": 0.3, "trig": "cos", "k": [0, 0, 1, 0]}]},
        {"i": 0, "j": 2, "coeff": 0.2},
    ]}},
    "connection": {"A": {"random": {}}, "V": {"random": {}}},
}


def count_decompositions(monkeypatch):
    """Record the structure J of every UDecomposition built, as bytes."""
    built = []
    real_init = UDecomposition.__init__

    def counted(self, j):
        built.append(j.J.tobytes())
        real_init(self, j)

    monkeypatch.setattr(UDecomposition, "__init__", counted)
    return built


# solve-n1-varb's document: psi varies along both axes
_VARYING_B_N1_DOC = {
    "n": 1,
    "grid": {"sizes": [24, 24]},
    "psi": {"b": {"entries": [{"i": 0, "j": 1, "coeff": [
        {"c": 0.2, "trig": "sin", "k": [1, 0]},
        {"c": 0.1, "trig": "cos", "k": [0, 2]},
    ]}]}},
    "connection": {"A": {"random": {"amp": 0.1, "modes": 2}}},
}


@pytest.mark.parametrize(
    "doc",
    [
        {key: _VARYING_B_DOC[key] for key in ("n", "grid", "bundle", "connection")},
        {**_VARYING_B_DOC, "psi": {"b": [[0, 0.3, 0.2, 0], [-0.3, 0, 0, -0.1],
                                         [-0.2, 0, 0, 0.4], [0, 0.1, -0.4, 0]]}},
        _VARYING_B_DOC,
    ],
    ids=["constant-psi", "constant-b", "varying-b"],
)
def test_curvature_u_window_decomposes_e_i_omega_once(tmp_path, capsys, monkeypatch, doc):
    # psi = e^b e^{i omega} with omega constant: one decomposition, of
    # e^{i omega}'s exact structure gcs_symplectic(omega), serves every grid
    # point whatever b is
    built = count_decompositions(monkeypatch)
    out = tmp_path / "curv.json"
    assert main(["curvature", "--input", write_doc(tmp_path, doc), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["u_window_defect"] <= 1e-10
    omega = np.kron(np.eye(2), OMEGA_BLOCK)
    assert built == [gcs_symplectic(omega).J.tobytes()]


@pytest.mark.parametrize(
    "doc, point", [(_VARYING_B_N1_DOC, (11, 11)), (_VARYING_B_DOC, (3, 3, 3, 3))], ids=["n1", "n2"]
)
def test_u_window_sees_a_defect_at_an_unsampled_point(doc, point):
    # 1e-6 max|F| put into psi(x)'s U^{-n+1} at one point off the 0-or-half
    # sample points; a check that decomposed psi only at sampled values
    # read 2.2e-16 (n1) and 7.7e-16 (n2) here
    cfg = build_config(doc)
    n = cfg.n
    f = fields.curvature(cfg.conn, cfg.psi)
    assert fields.u_window_defect(f, cfg.b, cfg.pair.J2) < 1e-14
    u = UDecomposition(gcs_from_spinor(cfg.psi.value_at(point))).projector(-n + 1)
    u = u @ np.random.default_rng(0).standard_normal(4**n)
    f.data[(slice(None), 0, 0) + point] += 1e-6 * np.max(np.abs(f.data)) * u / np.max(np.abs(u))
    assert 0.9e-6 < fields.u_window_defect(f, cfg.b, cfg.pair.J2) < 1.2e-6


_CPU_WALL_CHILD = """
import json, resource, sys, time
from genkf import cli
time.sleep(float(sys.argv[1]))
before, start = resource.getrusage(resource.RUSAGE_SELF), time.monotonic()
code = cli.main(sys.argv[2:])
wall, after = time.monotonic() - start, resource.getrusage(resource.RUSAGE_SELF)
cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
print(json.dumps({"code": code, "cpu": cpu, "wall": wall}))
"""


def env_without_blas_threads():
    """This process's environment without OPENBLAS_NUM_THREADS, which
    importing genkf.cli here has set."""
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def curvature_cpu_over_wall(tmp_path, settle, **env):
    """CPU time minus wall time of the curvature command on a rank-2 n = 2
    document, timed around cli.main in a child that sleeps `settle` seconds
    after importing genkf.cli.  CPU time beyond wall time is time on a
    second thread; load on the machine only lowers it."""
    random = {"random": {"amp": 0.1, "modes": 2}}
    doc = {"n": 2, "grid": {"sizes": [10] * 4}, "bundle": {"rank": 2},
           "connection": {"A": random, "V": random}}
    argv = ["curvature", "--input", write_doc(tmp_path, doc), "--output", str(tmp_path / "c.json")]
    proc = subprocess.run([sys.executable, "-c", _CPU_WALL_CHILD, str(settle), *argv],
                          capture_output=True, text=True, env={**env_without_blas_threads(), **env})
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["code"] == 0
    return rec["cpu"] - rec["wall"]


def test_curvature_command_runs_on_one_thread(tmp_path):
    # timed as perfbench's child times it, right after the import, with the
    # BLAS threads left unset.  On a 2-vCPU guest this read -0.001 s, and
    # 0.039-0.045 s with OpenBLAS's pool left to start, from its idle
    # worker's spin after the import
    assert curvature_cpu_over_wall(tmp_path, 0.0) <= 0.05


def test_curvature_command_hands_blas_no_full_grid_product(tmp_path):
    # an exported OPENBLAS_NUM_THREADS=2 keeps OpenBLAS's worker, and the
    # settle lets its spin after the import end before the timing starts:
    # a BLAS product over the whole grid would then run on both threads
    assert curvature_cpu_over_wall(tmp_path, 0.2, OPENBLAS_NUM_THREADS="2") <= 0.05


_THREADS_CHILD = """
import json, os, sys
import genkf
numpy_after_package = "numpy" in sys.modules
import genkf.cli
task = "/proc/self/task"
print(json.dumps({
    "numpy_after_package": numpy_after_package,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def run_threads_child(**env):
    proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD], capture_output=True,
                          text=True, env={**env_without_blas_threads(), **env}, check=True)
    return json.loads(proc.stdout)


def test_cli_import_runs_blas_on_the_calling_thread():
    # the package loads no numpy, so the cli sets OpenBLAS's thread count
    # before numpy starts it: a fresh process that imports genkf.cli keeps
    # one thread, and an exported value is left as it was set
    rec = run_threads_child()
    assert rec["numpy_after_package"] is False
    assert rec["blas_env"] == "1"
    assert run_threads_child(OPENBLAS_NUM_THREADS="2")["blas_env"] == "2"
    if rec["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert rec["threads"] == 1


def test_moment_derivative_row_holds_on_a_huge_connection(tmp_path, capsys):
    # F is quadratic in (A, V), so the row's central difference is exact at
    # its unit step; at a 1e-4 step this document read 2.4e-6 against 1e-6
    doc = {"connection": {"A": {"random": {"amp": 1e5}}, "V": {"random": {"amp": 1e5}}}}
    out = tmp_path / "verify.json"
    main(["verify", "--grid", "8", "--rank", "2", "--input", write_doc(tmp_path, doc),
          "--output", str(out)])
    rows = json.loads(out.read_text())["checks"]
    row = next(r for r in rows if r["check"] == "fields/moment-derivative")
    assert row["pass"] and row["tolerance"] == 1e-6


def count_curvature(monkeypatch):
    """Route every curvature call through a counter of its (A, V, psi) inputs."""
    calls = []
    real = fields.curvature

    def counted(conn, psi):
        calls.append((conn.A.tobytes(), conn.V.tobytes(), psi.data.tobytes()))
        return real(conn, psi)

    for mod in ("genkf.fields", "genkf.cli", "genkf.verify", "genkf.analysis"):
        monkeypatch.setattr(f"{mod}.curvature", counted)
    return calls


_RANK2_DOC = {
    "bundle": {"rank": 2},
    "connection": {"A": {"random": {"amp": 0.2}}, "V": {"random": {"amp": 0.2}}},
}


def test_curvature_command_computes_curvature_once(tmp_path, capsys, monkeypatch):
    calls = count_curvature(monkeypatch)
    args = ["curvature", "--grid", "16", "--input", write_doc(tmp_path, _RANK2_DOC)]
    assert main(args) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["curvature", "verify"])
def test_command_takes_d_psi_once_from_the_validation(tmp_path, capsys, monkeypatch, command):
    # validate_spinor_field computes max |d psi|; the curvature report's
    # psi_closedness and verify's fields/spinor-d-closed row reuse it
    cfg = build_config(_RANK2_DOC, grid_size=8)
    doc_psi = cfg.psi.data.tobytes()
    on_psi = []
    real = fields.d_field

    def counted(f):
        if isinstance(f, fields.FormField) and f.data.tobytes() == doc_psi:
            on_psi.append(command)
        return real(f)

    for mod in ("genkf.fields", "genkf.cli", "genkf.verify", "genkf.analysis"):
        monkeypatch.setattr(f"{mod}.d_field", counted, raising=False)
    out = tmp_path / f"{command}.json"
    args = [command, "--grid", "8", "--input", write_doc(tmp_path, _RANK2_DOC)]
    assert main(args + ["--output", str(out)]) == 0
    assert len(on_psi) == 1
    rep = json.loads(out.read_text())
    if command == "curvature":
        assert rep["psi_closedness"] == float(np.max(np.abs(real(cfg.psi).data)))
    else:
        row = next(r for r in rep["checks"] if r["check"] == "fields/spinor-d-closed")
        assert row["pass"]


def test_report_computes_no_curvature_beyond_verify(tmp_path, capsys, monkeypatch):
    # the document's F is computed once, before the suite, which takes it
    calls = count_curvature(monkeypatch)
    counts = {}
    for command in ("verify", "report"):
        before = len(calls)
        args = [command, "--grid", "16", "--trials", "2", "--input", write_doc(tmp_path, _RANK2_DOC)]
        assert main(args + ["--output", str(tmp_path / f"{command}.json")]) == 0
        counts[command] = len(calls) - before
        assert len(set(calls[before:])) == counts[command]
    assert counts["report"] == counts["verify"]


def test_field_checks_compute_each_curvature_once(monkeypatch):
    calls = count_curvature(monkeypatch)
    cfg = build_config(_RANK2_DOC, grid_size=16, seed=4)
    curv = cli._curvature_numbers(cfg)
    rows = _field_checks(np.random.default_rng(0), cfg, curv)
    assert all(row["pass"] for row in rows)
    assert len(calls) >= 5
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("n", [1, 2])
def test_structure_checks_decompose_the_spinor_structure_once(monkeypatch, n):
    built = count_decompositions(monkeypatch)
    cfg = build_config({"n": n}, grid_size=8)
    psi0 = exp_two_form(1j * cfg.omega)
    rows = _structure_checks(np.random.default_rng(0), cfg, psi0)
    assert all(row["pass"] for row in rows)
    assert built == [gcs_from_spinor(psi0).J.tobytes()]


@pytest.mark.parametrize("command", ["verify", "report"])
def test_a_structure_refused_inside_a_row_fails_only_that_row(tmp_path, capsys, command):
    # at n = 1, omega = 1e-9 omega_0, gcs_b_transform(b, J_psi) has entries
    # near 1e9 and fails GCStructure's J^2 = -1 test; that row fails with
    # error 1.0, the suite runs on, and the command exits 1, not 2
    doc = {"psi": {"omega": [[0, 1e-9], [-1e-9, 0]]}}
    out = tmp_path / "out.json"
    args = [command, "--trials", "5", "--input", write_doc(tmp_path, doc), "--output", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == ""
    body = json.loads(out.read_text())
    rows = {r["check"]: r for r in (body["verify"] if command == "report" else body)["checks"]}
    assert len(rows) == 41
    assert rows["structures/b-transform-structure-match"]["error"] == 1.0
    assert all(r["pass"] for name, r in rows.items() if not name.startswith("structures/"))


def record_validations(monkeypatch, events):
    """Append ("validate", psi bytes) to events at every spinor validation."""
    real = fields.validate_spinor_field

    def validate(grid, psi):
        events.append(("validate", psi.data.tobytes()))
        return real(grid, psi)

    for mod in ("genkf.fields", "genkf.cli", "genkf.verify"):
        monkeypatch.setattr(f"{mod}.validate_spinor_field", validate)


@pytest.mark.parametrize("command", ["verify", "report"])
def test_suite_validates_the_document_spinor_first_and_once(
    tmp_path, capsys, monkeypatch, command
):
    # the command validates psi before any curvature; its F and the suite's
    # own curvatures and moment values take psi as it is
    events = []
    real_curvature = fields.curvature

    def counted(conn, psi):
        events.append(("curvature", psi.data.tobytes()))
        return real_curvature(conn, psi)

    record_validations(monkeypatch, events)
    for mod in ("genkf.fields", "genkf.cli", "genkf.verify", "genkf.analysis"):
        monkeypatch.setattr(f"{mod}.curvature", counted)
    path = write_doc(tmp_path, _RANK2_DOC)
    cfg = build_config(load_document(path), grid_size=10, seed=0)
    psi = cfg.psi.data.tobytes()
    args = [command, "--grid", "10", "--trials", "2", "--input", path]
    assert main(args + ["--output", str(tmp_path / "out.json")]) == 0
    assert events[0] == ("validate", psi)
    assert events.count(("validate", psi)) == 1
    # nor is any spinor validated twice: the document's psi, psi_b and the
    # suite's e^{i omega} and e^{(c + i) omega} once each (solve_eh_line
    # validated e^{i omega} again)
    validated = [e for e in events if e[0] == "validate"]
    assert len(set(validated)) == len(validated) == 4
    # the command's F, then the suite's no_v and other
    assert events.count(("curvature", psi)) == 3


def test_solve_validates_the_document_spinor_once(tmp_path, capsys, monkeypatch):
    # the command validates psi after its rank check; solve_eh_line takes it
    # as it is
    events = []
    record_validations(monkeypatch, events)
    path = write_doc(tmp_path, {"connection": {"A": {"random": {"amp": 0.1}}}})
    psi = build_config(load_document(path), grid_size=16, seed=0).psi.data.tobytes()
    assert main(["solve", "--grid", "16", "--input", path]) == 0
    assert events == [("validate", psi)]


def test_solve_command_computes_each_curvature_once(tmp_path, capsys, monkeypatch):
    # one curvature, of the document's connection; the solver's map is
    # assembled from psi alone
    calls = count_curvature(monkeypatch)
    doc = {
        "psi": {"b": {"entries": [{"i": 0, "j": 1, "coeff": [{"c": 0.2, "trig": "sin", "k": [1, 0]}]}]}},
        "connection": {"A": {"random": {"amp": 0.1}}},
    }
    assert main(["solve", "--grid", "16", "--input", write_doc(tmp_path, doc)]) == 0
    assert len(calls) == 1


def test_report_combined(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["report", "--grid", "16", "--trials", "10", "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verify"]["passed"] is True
    assert all(rep["symbols"]["exact"])
    assert "lambda" in rep["curvature"] and "eh_residual" in rep["curvature"]


# ---------------------------------------------------------------------------
# usage errors


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["verify", "--input", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_document_key_exits_2(tmp_path, capsys):
    assert main(["verify", "--input", write_doc(tmp_path, {"gird": {}})]) == 2
    assert "unknown document keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, path",
    [
        ("curvature", {"lambda": float("nan")}, "lambda"),
        ("symbols", {"theta": [float("nan"), 0.0]}, "theta[0]"),
        (
            "verify",
            {"connection": {"A": {"random": {"amp": float("inf"), "modes": 2}}}},
            "connection.A.random.amp",
        ),
        (
            "solve",
            {"psi": {"b": {"entries": [{"i": 0, "j": 1, "coeff": [{"c": -float("inf")}]}]}}},
            "psi.b.entries[0].coeff[0].c",
        ),
    ],
    ids=["nan-scalar", "nan-in-list", "nested-inf", "nested-neg-inf"],
)
def test_non_finite_number_exits_2_before_work(tmp_path, capsys, monkeypatch, command, doc, path):
    def no_build(*args, **kwargs):
        raise AssertionError("build_config reached with a non-finite document")

    monkeypatch.setattr("genkf.specio.build_config", no_build)
    assert main([command, "--input", write_doc(tmp_path, doc)]) == 2
    assert f"{path} must be a finite number" in capsys.readouterr().err


_HUGE_INT = 10**400  # written as a 401-digit JSON integer literal


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (
            {"grid": {"sizes": [_HUGE_INT, 8]}},
            [],
            "grid.sizes[0] must be an integer in the 64-bit range",
        ),
        (
            {"connection": {"A": {"terms": [
                {"mu": 0, "coeff": [{"c": 1.0, "trig": "sin", "k": [_HUGE_INT, 0]}]}
            ]}}},
            [],
            "connection.A.terms[0].coeff[0].k[0] must be an integer in the 64-bit range",
        ),
        ({"n": _HUGE_INT}, ["--grid", "8"], "n must be an integer in the 64-bit range"),
        ({"n": None}, ["--grid", "8"], "n must be an integer, got None"),
        ({"n": [2]}, ["--grid", "8"], "n must be an integer, got [2]"),
        # past int()'s 4300-digit limit, as raw text: json.dumps cannot write these
        (
            '{"n": ' + "9" * 5000 + "}",
            ["--grid", "8"],
            "n must be an integer in the 64-bit range, got a 5000-digit integer",
        ),
        (
            '{"grid": {"sizes": [8, -' + "9" * 4400 + "]}}",
            [],
            "grid.sizes[1] must be an integer in the 64-bit range, got a 4400-digit integer",
        ),
    ],
    ids=["huge-size", "huge-mode", "huge-n", "null-n", "list-n", "overlong-n", "overlong-size"],
)
def test_unrepresentable_integer_exits_2_naming_its_key(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["verify", "--input", str(path), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        ({}, ["--grid", "100000000000000000000000"], "--grid is too large"),
        ({}, ["--grid", "3037000500"], "--grid is too large"),
        ({}, ["--grid", "1" + "0" * 400], "--grid is too large"),
        ({"n": 2, "grid": {"sizes": [2**20] * 4}}, [], "grid.sizes is too large"),
        ({"n": 2, "bundle": {"rank": 2**26}}, ["--grid", "256"],
         "--grid with bundle.rank 67108864 is too large"),
        ({}, ["--grid", "2048", "--rank", str(2**40)],
         f"--grid with --rank {2**40} is too large"),
    ],
    ids=["grid-1e23", "grid-3037000500", "grid-1e400", "doc-sizes", "doc-rank", "flag-rank"],
)
def test_unindexable_grid_exits_2_before_any_array(tmp_path, capsys, monkeypatch, doc, argv, message):
    # 16 * 4^n * prod(sizes) * r^2 bytes past the intp range is named by its
    # keys before the grid, the spinor or the connection exists
    def no_array(*args, **kwargs):
        raise AssertionError("an array was built for an unindexable grid")

    for target in ("TorusGrid", "_build_psi", "_init_component"):
        monkeypatch.setattr(f"genkf.specio.{target}", no_array)
    assert main(["verify", "--input", write_doc(tmp_path, doc), *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "grid, argv, message",
    [
        ({"sizes": [16.7, 16]}, [], "grid.sizes[0] must be an integer, got 16.7"),
        ({"sizes": ["16", "16"]}, [], "grid.sizes[0] must be an integer, got '16'"),
        ({"sizes": [True, 16]}, [], "grid.sizes[0] must be an integer, got True"),
        ({"sizes": [16, 4]}, [], "grid.sizes[1] must be at least 8, got 4"),
        ({"sizes": 16}, [], "grid.sizes must be a list of 2 integers, got 16"),
        ({"sizes": [16]}, [], "grid.sizes must be a list of 2 integers, got [16]"),
        ({"periods": ["2.0", 1]}, [], "grid.periods[0] must be a number, got '2.0'"),
        ({"periods": [True, 1]}, [], "grid.periods[0] must be a number, got True"),
        ({"periods": 1.0}, [], "grid.periods must be a list of 2 numbers, got 1.0"),
        ({}, ["--grid", "4"], "--grid must be at least 8, got 4"),
        ({}, ["--grid", "-3037000500"], "--grid must be at least 8, got -3037000500"),
        # the phase 2 pi k x / P overflows, size / P overflows, the squared
        # spacing overflows (an OverflowError traceback), the cell volume
        # underflows to 0 (a ZeroDivisionError traceback)
        ({"periods": [1e308, 1]}, [], "grid.periods[0] is out of range"),
        ({"periods": [1, 1e-320]}, [], "grid.periods[1] is out of range"),
        ({"periods": [1e200, 1]}, [], "grid.periods[0] is out of range"),
        ({"periods": [1e-200, 1e-200]}, [], "grid.periods is out of range: cell volume 0.0"),
    ],
    ids=[
        "size-float", "size-strings", "size-bool", "size-small", "sizes-scalar",
        "sizes-short", "period-string", "period-bool", "periods-scalar",
        "flag-small", "flag-negative", "period-huge", "period-tiny",
        "period-spacing-squared", "periods-cell-volume",
    ],
)
def test_grid_key_exits_2_naming_its_key(tmp_path, capsys, grid, argv, message):
    args = ["curvature", "--input", write_doc(tmp_path, {"grid": grid}), *argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


_NOT_A_PAIR = "psi.omega does not form a generalized Kahler pair with the standard complex"
_COMMANDS = ["verify", "curvature", "solve", "symbols", "report"]

# id: (document, message, commands); an omega that does not pair with the
# standard complex structure is refused by every command, psi.b only by
# those that take the spinor
_KEY_DOCS = {
    "terms-int": (
        {"connection": {"A": {"terms": 5}}},
        "connection A terms must be a list of terms, got 5",
        ["curvature", "solve"],
    ),
    "psi-b-entries-huge": (
        {"psi": {"b": {"entries": [{"i": 0, "j": 1, "coeff": 1e300}]}}},
        "psi.b or psi.omega gives an invalid spinor: spinor at (0, 0) is not pure",
        ["curvature", "solve"],
    ),
    "psi-b-matrix-huge": (
        {"psi": {"b": [[0, 1e308], [-1e308, 0]]}},
        "psi.b or psi.omega gives an invalid spinor: spinor at (0, 0) is not pure",
        ["curvature", "solve"],
    ),
    "omega-zero": (
        {"psi": {"omega": [[0, 0], [0, 0]]}},
        "psi.omega is singular: Singular matrix",
        _COMMANDS,
    ),
    "omega-negative": ({"psi": {"omega": [[0, -1], [1, 0]]}}, _NOT_A_PAIR, _COMMANDS),
    "omega-tiny": ({"psi": {"omega": [[0, -1e-9], [1e-9, 0]]}}, _NOT_A_PAIR, _COMMANDS),
    "omega-indefinite": (
        {"n": 2, "psi": {"omega": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]}},
        _NOT_A_PAIR,
        _COMMANDS,
    ),
    "omega-inverse-overflows": (
        {"psi": {"omega": [[0, 1e-310], [-1e-310, 0]]}},
        "psi.omega is singular",
        _COMMANDS,
    ),
    "theta-zero": ({"theta": [0, 0]}, "theta must be nonzero", ["symbols", "report"]),
    "theta-vector-part": (
        {"theta": [1, 0, 0, 1]},
        "theta must be a cotangent direction (vector part present)",
        ["symbols", "report"],
    ),
    "omega-n2-not-commuting": (
        {"n": 2, "psi": {"omega": [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]}},
        _NOT_A_PAIR,
        _COMMANDS,
    ),
}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        pytest.param(command, doc, message, id=f"{key}-{command}")
        for key, (doc, message, commands) in _KEY_DOCS.items()
        for command in commands
    ],
)
def test_document_key_exits_2_naming_its_key(
    tmp_path, capsys, monkeypatch, command, doc, message
):
    # the spinor is validated in one place for every command that takes it,
    # omega in build_config: both ahead of any curvature
    def no_curvature(*args, **kwargs):
        raise AssertionError("curvature reached with an invalid document")

    for mod in ("genkf.fields", "genkf.cli", "genkf.verify", "genkf.analysis"):
        monkeypatch.setattr(f"{mod}.curvature", no_curvature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        rc = main([command, "--grid", "8", "--input", write_doc(tmp_path, doc)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c", [1e8, 1e-9])
def test_kaehler_omega_of_large_or_small_scale_is_accepted(n, c):
    # the metric of omega = c omega_0 has smallest eigenvalue min(c, 1/c)/2,
    # below the absolute 1e-8 at these c; the positivity test scales with
    # J2's entries, c and 1/c, so the pair is valid
    omega = c * np.kron(np.eye(n), OMEGA_BLOCK)
    cfg = build_config({"n": n, "grid": {"sizes": [8] * (2 * n)}, "psi": {"omega": omega.tolist()}})
    assert np.array_equal(cfg.omega, omega)
    rep = gk_validate(standard_complex(n), gcs_symplectic(omega))
    assert rep["valid"] and rep["metric_min_eigenvalue"] < 1e-8


@pytest.mark.parametrize("command", ["curvature", "solve"])
@pytest.mark.parametrize(
    "doc",
    [
        {"psi": {"b": {"entries": [{"i": 0, "j": 1, "coeff": 1e300}]}}},
        {"psi": {"b": [[0, 1e308], [-1e308, 0]]}},
    ],
    ids=["psi-b-entries-huge", "psi-b-matrix-huge"],
)
def test_huge_finite_b_exits_2_without_a_numpy_warning(tmp_path, capsys, command, doc):
    # e^b is finite but its squares overflow: the spinor's zero test takes no
    # norm, and the classification prints as plain Python booleans
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--grid", "8", "--input", write_doc(tmp_path, doc)])
    assert rc == 2
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "is_nondegenerate=False" in err and "np.False_" not in err


@pytest.mark.parametrize("key", ["A", "V"])
@pytest.mark.parametrize("amp", [1e300, 1e200])
def test_overflowing_connection_exits_2_before_work(tmp_path, capsys, monkeypatch, key, amp):
    def no_curvature(*args, **kwargs):
        raise AssertionError("curvature reached with an overflowing connection")

    monkeypatch.setattr("genkf.fields.curvature", no_curvature)
    monkeypatch.setattr("genkf.cli.curvature", no_curvature)
    doc = {"connection": {key: {"random": {"amp": amp, "modes": 2}}}}
    assert main(["curvature", "--input", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"connection.{key} is too large" in err


@pytest.mark.parametrize(
    "command, rank",
    [
        pytest.param(command, rank, id=command + ("" if rank == 2 else "-rank1"))
        for rank in (2, 1)
        for command in ("curvature", "report", "verify")
    ],
)
def test_huge_finite_connection_exits_2_before_render(
    tmp_path, capsys, monkeypatch, command, rank
):
    # passes the overflow check of the document, but at rank 2 |F|^2 in the
    # EH norm overflows, and at rank 1 roundoff makes lambda non-real
    def unreachable(*args, **kwargs):
        raise AssertionError("reached with a non-finite curvature")

    monkeypatch.setattr("genkf.report.render", unreachable)
    monkeypatch.setattr("genkf.cli.run_suite", unreachable)
    doc = {
        "n": 1,
        "bundle": {"rank": rank},
        "connection": {"A": {"random": {"amp": 1e100}}, "V": {"random": {"amp": 1e100}}},
    }
    out = tmp_path / "out.json"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([command, "--input", write_doc(tmp_path, doc), "--output", str(out)])
    assert rc == 2
    assert "connection.A or connection.V is too large" in capsys.readouterr().err
    assert not out.exists()


def test_huge_document_lambda_is_named(tmp_path, capsys, monkeypatch):
    # a finite lambda whose square overflows in the EH norm (verify and
    # report stop before their suite) or in the solver's starting residual
    def unreachable(*args, **kwargs):
        raise AssertionError("reached with an overflowing lambda")

    monkeypatch.setattr("genkf.cli.run_suite", unreachable)
    monkeypatch.setattr("genkf.analysis._line_map", unreachable)
    out = tmp_path / "out.json"
    path = write_doc(tmp_path, {"lambda": 1e300})
    named = "connection.A or connection.V or lambda is too large"
    for command, message in (
        ("curvature", named),
        ("verify", named),
        ("report", named),
        ("solve", "lambda (1e+300) or the connection is too large"),
    ):
        args = [command, "--grid", "16", "--input", path, "--output", str(out)]
        with np.errstate(over="ignore"):
            assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


_HUGE_CONNECTION = {"A": {"random": {"amp": 1e100}}, "V": {"random": {"amp": 1e100}}}


@pytest.mark.parametrize(
    "command, lam, grid, rc",
    [
        ("solve", None, 16, 2),
        ("verify", 1.0, 8, 2),
        ("report", 1.0, 8, 2),
        ("curvature", 1.0, 8, 0),
    ],
)
def test_non_real_topological_lambda_names_the_connection(
    tmp_path, capsys, monkeypatch, command, lam, grid, rc
):
    # at rank 1 roundoff of the huge curvature makes the chern pair's
    # lambda non-real: in the solver, and in the suite when the document
    # fixes lambda (which curvature then reports)
    def unreachable(*args, **kwargs):
        raise AssertionError("field work reached after a non-real lambda")

    monkeypatch.setattr("genkf.analysis._line_map", unreachable)
    monkeypatch.setattr("genkf.verify.d_field", unreachable)
    doc = {"connection": _HUGE_CONNECTION}
    if lam is not None:
        doc["lambda"] = lam
    args = [command, "--grid", str(grid), "--trials", "2", "--input", write_doc(tmp_path, doc)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args + ["--output", str(tmp_path / "out.json")]) == rc
    err = capsys.readouterr().err
    if rc == 2:
        assert "error: connection.A or connection.V is too large: lambda is not real" in err
    else:
        assert err == ""


@settings(max_examples=25, deadline=None)
@given(
    command=st.sampled_from(["verify", "curvature", "solve", "symbols", "report"]),
    rank=st.sampled_from([1, 2]),
    exponents=st.tuples(st.floats(-3.0, 300.0), st.floats(-3.0, 300.0)),
)
def test_any_connection_amplitude_ends_with_a_status(command, rank, exponents):
    # from tiny to overflowing random connections, every command returns
    # 0, 1 or 2; none raises or meets a non-finite number at render time
    amp_a, amp_v = (10.0**e for e in exponents)
    doc = {
        "n": 1,
        "bundle": {"rank": rank},
        "connection": {"A": {"random": {"amp": amp_a}}, "V": {"random": {"amp": amp_v}}},
    }
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        args = [command, "--grid", "8", "--trials", "2", "--input", path]
        args += ["--output", os.path.join(tmp, "out.json")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                rc = main(args)
    assert rc in (0, 1, 2)
    assert "Out of range float" not in err.getvalue()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["curvature", "--rank", "0"], "--rank must be at least 1, got 0"),
        (["curvature", "--rank", "-1"], "--rank must be at least 1, got -1"),
        (["solve", "--tol", "-1"], "--tol must be a finite positive number, got -1.0"),
        (["solve", "--tol", "nan"], "--tol must be a finite positive number, got nan"),
        (["solve", "--tol", "0"], "--tol must be a finite positive number, got 0.0"),
        (["solve", "--max-iter", "-1"], "--max-iter must be non-negative, got -1"),
        (["report", "--trials", "-2"], "--trials must be non-negative, got -2"),
        (["verify", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ],
)
def test_out_of_range_flag_exits_2_before_work(capsys, monkeypatch, argv, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("field work reached with an out-of-range flag")

    for target in ("genkf.cli.solve_eh_line", "genkf.cli.curvature", "genkf.fields.curvature",
                   "genkf.cli.run_suite"):
        monkeypatch.setattr(target, no_work)
    assert main(argv + ["--grid", "16"]) == 2
    assert flag in capsys.readouterr().err


def test_small_random_connection_is_accepted(tmp_path):
    doc = {"connection": {"A": {"random": {"amp": 0.1}}, "V": {"random": {"amp": 0.1}}}}
    cfg = build_config(load_document(write_doc(tmp_path, doc)))
    assert 0.0 < np.max(np.abs(cfg.conn.A)) < 1.0


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "genkf.cli", "--grid", "16"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


# ---------------------------------------------------------------------------
# input documents


def test_document_terms_and_constant_b(tmp_path):
    doc = {
        "grid": {"sizes": [8, 8]},
        "psi": {"b": [[0.0, 0.4], [-0.4, 0.0]]},
        "connection": {
            "A": {"terms": [{"mu": 0, "coeff": [{"c": 0.2, "trig": "sin", "k": [1, 0]}]}]},
            "V": {},
        },
    }
    cfg = build_config(load_document(write_doc(tmp_path, doc)))
    x0 = cfg.grid.axis_coord(0)
    want = 0.2 * np.sin(2.0 * np.pi * x0)
    got = cfg.conn.A[0, 0, 0, :, 0]
    assert np.max(np.abs(got - 1j * want)) < 1e-14
    assert np.max(np.abs(cfg.conn.V)) == 0.0
    b = np.array(doc["psi"]["b"])
    want_psi = exp_two_form(b + 1j * cfg.omega)
    assert np.max(np.abs(cfg.psi.value_at((0, 0)).coeffs - want_psi.coeffs)) < 1e-14


def test_document_random_rank2_is_skew(tmp_path):
    doc = {
        "grid": {"sizes": [8, 8]},
        "bundle": {"rank": 2},
        "connection": {"A": {"random": {"amp": 0.2, "modes": 2}}, "V": {"random": {}}},
    }
    cfg = build_config(doc, seed=5)
    assert cfg.conn.rank == 2
    assert np.max(np.abs(cfg.conn.A)) > 0.0
    herm = cfg.conn.A + np.swapaxes(cfg.conn.A, 1, 2).conj()
    assert np.max(np.abs(herm)) < 1e-12
    again = build_config(doc, seed=5)
    assert np.array_equal(cfg.conn.A, again.conn.A)


def test_document_validation_errors():
    with pytest.raises(SpecError, match="trig"):
        build_config(
            {
                "connection": {
                    "A": {"terms": [{"mu": 0, "coeff": [{"c": 1.0, "trig": "tan", "k": [1, 0]}]}]}
                }
            }
        )
    with pytest.raises(SpecError, match="modes"):
        build_config({"connection": {"A": {"terms": [{"mu": 0, "coeff": [{"k": [1]}]}]}}})
    with pytest.raises(SpecError, match="initializer"):
        build_config({"connection": {"A": {"sorcery": 1}}})
    with pytest.raises(SpecError, match="antisymmetric"):
        build_config({"psi": {"omega": [[1.0, 0.0], [0.0, 1.0]]}})
    with pytest.raises(SpecError, match="skew-Hermitian"):
        build_config(
            {
                "connection": {
                    "A": {
                        "terms": [
                            {"mu": 0, "coeff": 1.0, "basis": {"re": [[1.0]], "im": [[0.0]]}}
                        ]
                    }
                }
            }
        )


# ---------------------------------------------------------------------------
# report rendering


_MIXED_RENDER = """{
  "chern": [
    1.5,
    -2.0
  ],
  "command": "curvature",
  "config": {
    "n": 2,
    "periods": [
      1.0,
      0.5
    ],
    "sizes": [
      8,
      8
    ]
  },
  "dims": [
    4,
    32
  ],
  "exact": [
    true,
    false
  ],
  "field": {
    "im": [
      1.0,
      0.0
    ],
    "re": [
      1.0,
      0.1
    ],
    "shape": [
      2,
      1
    ]
  },
  "lambda": -0.125,
  "matrix": [
    [
      1.5,
      -2.0
    ],
    [
      0.0,
      1e-300
    ]
  ],
  "pair": [
    0.5,
    7
  ],
  "passed": false,
  "schema_version": 1,
  "seed": 3,
  "z": [
    -0.0,
    -0.25
  ]
}
"""


def test_render_pins_bytes_of_numpy_values():
    doc = report.document(
        "curvature",
        np.int64(3),
        {"n": np.int64(2), "sizes": (8, 8), "periods": [np.float64(1.0), 0.5]},
        {
            "lambda": np.float64(-0.125),
            "chern": 1.5 - 2j,
            "z": np.complex128(-0.25j),
            "dims": np.array([4, 32]),
            "matrix": np.array([[1.5, -2.0], [0.0, 1e-300]]),
            "pair": (np.float32(0.5), 7),
            "exact": [np.bool_(True), False],
            "passed": np.bool_(False),
            "field": report.complex_field(np.array([[1.0 + 1.0j], [0.1 - 0.0j]])),
        },
    )
    assert report.render(doc) == _MIXED_RENDER


def json_reference(doc):
    return json.dumps(report._clean(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text() | st.lists(_finite),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(doc=_json_values)
def test_render_matches_json_dumps(doc):
    assert report.render(doc) == json_reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}]},
        [-0.0, 5e-324, 1e308, -1e308, 0.1, 1e-7, 1e16],
        {"x": -0.0, "y": 5e-324, "z": 1e308},
        [1, 2.5, -0.0, 3, True, None, 1e308],
        {"mixed": [0, 0.0], "ints": [1, 2, 3], "bools": [True, False], "nested": [[1.5], [2]]},
    ],
)
def test_render_matches_json_dumps_on_edge_values(doc):
    assert report.render(doc) == json_reference(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: {"re": [0.5, x, 1.5]},
        lambda x: [x],
        lambda x: {"k": x},
        lambda x: [1, x, 2.0],
    ],
)
def test_render_rejects_non_finite_floats_as_json_does(bad, place):
    doc = place(bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_reference(doc)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.render(doc)
