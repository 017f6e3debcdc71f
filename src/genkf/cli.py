"""Command-line driver.

    genkf [command] [--input doc.json] [--output report.json]
          [--seed N] [--grid N] [--rank R] [--tol X]
          [--max-iter N] [--trials N]

Commands: verify (default), curvature, solve, symbols, report.  Exit
status 0 means every checked property held, 1 means some checked
property failed (a failed identity, an inexact symbol junction, a
solve that did not converge), 2 means the input or usage was invalid.

Human-readable progress goes to stdout; the canonical JSON report is
written to --output when given (the report command prints it to stdout
otherwise).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import report, specio
from .analysis import solve_eh_line, symbol_exactness
from .fields import (
    chern_pair,
    curvature,
    d_field,
    dbar_residual,
    eh_residual,
    lambda_from_chern,
    mean_curvature,
    validate_spinor_field,
)
from .structures import UDecomposition, gcs_complex, gcs_from_spinor, gcs_symplectic
from .verify import run_suite

_J_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genkf",
        description="identity checks, curvature reports, symbol exactness, "
        "and the rank-1 Einstein-Hermitian solver on flat tori",
    )
    p.add_argument(
        "command",
        nargs="?",
        default="verify",
        choices=["verify", "curvature", "solve", "symbols", "report"],
    )
    p.add_argument("--input", help="JSON input document")
    p.add_argument("--output", help="write the JSON report here ('-' for stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, help="points per axis, overrides the document")
    p.add_argument("--rank", type=int, help="bundle rank, overrides the document")
    p.add_argument("--tol", type=float, help="solver tolerance (default 1e-8)")
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--trials", type=int, default=100)
    return p


def _deliver(doc, args, stdout_fallback=False):
    if args.output:
        report.emit(doc, args.output)
        print(f"wrote {args.output}")
    elif stdout_fallback:
        report.emit(doc, None)


def cmd_verify(cfg, args) -> int:
    validate_spinor_field(cfg.grid, cfg.psi)
    rows = run_suite(cfg, seed=args.seed)
    failures = sum(0 if r["pass"] else 1 for r in rows)
    for r in rows:
        tag = "PASS" if r["pass"] else "FAIL"
        print(f"{tag}  {r['check']}  error={r['error']:.3e}  tol={r['tolerance']:.0e}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    doc = report.document(
        "verify",
        args.seed,
        cfg.summary,
        {"checks": rows, "passed": failures == 0, "failures": failures},
    )
    _deliver(doc, args)
    return 0 if failures == 0 else 1


def cmd_curvature(cfg, args) -> int:
    grid, conn = cfg.grid, cfg.conn
    psi = validate_spinor_field(grid, cfg.psi)
    n = grid.n
    f = curvature(conn, psi, validate=False)
    k = mean_curvature(conn, psi, validate=False)
    lam = cfg.lam if cfg.lam is not None else lambda_from_chern(conn, psi)
    _, norm = eh_residual(conn, psi, lam)
    chern = chern_pair(conn, psi)
    closed = float(np.max(np.abs(d_field(psi).data)))

    fscale = float(np.max(np.abs(f.data))) + 1e-30
    window = 0.0
    dec = UDecomposition(gcs_from_spinor(psi.value_at((0,) * (2 * n))))
    flat = f.data.reshape(4**n, -1)
    for kk in range(-n, n + 1):
        if kk in (-n, -n + 2):
            continue
        window = max(window, float(np.max(np.abs(dec.projector(kk) @ flat))) / fscale)

    dbar = dbar_residual(grid, conn, gcs_complex(np.kron(np.eye(n), _J_BLOCK)))

    print(f"lambda = {lam:.12g}")
    print(f"eh residual = {norm:.6e}")
    print(f"chern pair = {chern.real:.12g} + {chern.imag:.12g}i")
    print(f"u-window defect = {window:.3e}")
    print(f"dbar defect = {dbar:.3e}")
    doc = report.document(
        "curvature",
        args.seed,
        cfg.summary,
        {
            "lambda": lam,
            "eh_residual": norm,
            "chern": chern,
            "psi_closedness": closed,
            "u_window_defect": window,
            "dbar_defect": dbar,
            "mean_curvature": report.complex_field(k),
        },
    )
    _deliver(doc, args)
    return 0


def cmd_solve(cfg, args) -> int:
    if cfg.rank != 1:
        raise specio.SpecError(
            f"solve handles rank-1 bundles only (got rank {cfg.rank}); "
            "higher-rank existence is out of scope"
        )
    psi = validate_spinor_field(cfg.grid, cfg.psi)
    tol = 1e-8 if args.tol is None else args.tol
    conn, trace = solve_eh_line(
        cfg.conn, psi, max_iter=args.max_iter, tol=tol, lam=cfg.lam
    )
    lam = cfg.lam if cfg.lam is not None else lambda_from_chern(cfg.conn, psi)
    final = float(trace.residual_history[-1])
    print(f"lambda = {lam:.12g}")
    print(f"final residual = {final:.6e} after {trace.iterations} iterations")
    print("converged" if trace.converged else "did not converge within the budget")
    doc = report.document(
        "solve",
        args.seed,
        cfg.summary,
        {
            "lambda": lam,
            "tolerance": tol,
            "converged": trace.converged,
            "iterations": trace.iterations,
            "step_size": trace.step_size,
            "final_residual": final,
            "residual_history": trace.residual_history,
            "connection": {
                "A": report.complex_field(conn.A),
                "V": report.complex_field(conn.V),
            },
        },
    )
    _deliver(doc, args)
    return 0 if trace.converged else 1


def cmd_symbols(cfg, args) -> int:
    n = cfg.n
    theta = cfg.theta
    if theta is None:
        theta = np.zeros(2 * n)
        theta[0] = 1.0
    jc = gcs_complex(np.kron(np.eye(n), _J_BLOCK))
    js = gcs_symplectic(cfg.omega)
    rep = symbol_exactness(
        n, cfg.rank, jc, js, theta, trials=args.trials, seed=args.seed
    )
    print(f"dims  = {list(rep.dims)}")
    print(f"ranks = {list(rep.ranks)}")
    for j, ok in enumerate(rep.exact):
        print(f"junction {j}: {'exact' if ok else 'INEXACT'}")
    doc = report.document(
        "symbols",
        args.seed,
        cfg.summary,
        {
            "theta": rep.theta.as_array().real,
            "dims": list(rep.dims),
            "ranks": list(rep.ranks),
            "exact": list(rep.exact),
            "trials": args.trials,
        },
    )
    _deliver(doc, args)
    return 0 if all(rep.exact) else 1


def cmd_report(cfg, args) -> int:
    psi = validate_spinor_field(cfg.grid, cfg.psi)
    rows = run_suite(cfg, seed=args.seed)
    failures = sum(0 if r["pass"] else 1 for r in rows)

    n = cfg.n
    theta = cfg.theta
    if theta is None:
        theta = np.zeros(2 * n)
        theta[0] = 1.0
    rep = symbol_exactness(
        n,
        cfg.rank,
        gcs_complex(np.kron(np.eye(n), _J_BLOCK)),
        gcs_symplectic(cfg.omega),
        theta,
        trials=args.trials,
        seed=args.seed,
    )

    lam = cfg.lam if cfg.lam is not None else lambda_from_chern(cfg.conn, psi)
    _, norm = eh_residual(cfg.conn, psi, lam)
    doc = report.document(
        "report",
        args.seed,
        cfg.summary,
        {
            "verify": {"checks": rows, "passed": failures == 0, "failures": failures},
            "symbols": {
                "dims": list(rep.dims),
                "ranks": list(rep.ranks),
                "exact": list(rep.exact),
                "trials": args.trials,
            },
            "curvature": {
                "lambda": lam,
                "eh_residual": norm,
                "chern": chern_pair(cfg.conn, psi),
            },
        },
    )
    _deliver(doc, args, stdout_fallback=True)
    return 0 if failures == 0 and all(rep.exact) else 1


_COMMANDS = {
    "verify": cmd_verify,
    "curvature": cmd_curvature,
    "solve": cmd_solve,
    "symbols": cmd_symbols,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = specio.load_document(args.input)
        n = doc.get("n", 1) if isinstance(doc, dict) else 1
        sizes = None
        if args.grid is not None:
            sizes = (args.grid,) * (2 * int(n))
        cfg = specio.build_config(doc, grid_sizes=sizes, rank=args.rank, seed=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except (TypeError, ValueError) as exc:
        msg = str(exc)
        if "d-closed" in msg:
            msg = f"psi not d-closed ({msg})"
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
