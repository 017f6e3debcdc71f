"""End-to-end tests for the command-line driver and input documents."""

import json
import subprocess
import sys

import numpy as np
import pytest

from genkf.cli import main
from genkf.multivector import exp_two_form
from genkf.specio import SpecError, build_config, load_document


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
    assert "psi not d-closed" in capsys.readouterr().err


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
    got = cfg.conn.A[0, :, 0, 0, 0]
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
    herm = cfg.conn.A + np.swapaxes(cfg.conn.A, -1, -2).conj()
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
