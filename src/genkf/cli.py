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
import math
import os
import sys

# BLAS runs on the calling thread: OpenBLAS reads this when numpy first
# loads it, so it is set before any genkf module imports numpy.  At any
# rank symbols hands BLAS no operand larger than 16 x 16 and LAPACK none
# larger than 64 x 16.  At rank <= 2 a second OpenBLAS thread was measured
# doing none of any command's work, yet its idle worker spins for about
# 0.13 s of CPU after the import; at n = 2, ranks 4 to 8, two threads kept
# the wall time of symbols and report within its spread and took 0.1-0.3 s
# more CPU in 16 of 18 paired runs.  An exported value wins; a program
# that imports genkf's modules itself keeps its own BLAS setup.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import report, specio
from .analysis import RoundoffFloor, UnrepresentableLine, solve_eh_line, symbol_exactness
from .fields import (
    LambdaNotReal,
    chern_from,
    curvature,
    dbar_residual,
    eh_residual_from,
    lambda_from,
    mean_curvature_from,
    u_window_defect,
    validate_spinor_field,
)
from .verify import run_suite


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


def _check_flags(args):
    """Reject an out-of-range seed, solver tolerance or count before any work."""
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        raise specio.SpecError(f"--tol must be a finite positive number, got {args.tol}")
    for flag, value in (("--seed", args.seed), ("--max-iter", args.max_iter),
                        ("--trials", args.trials)):
        if value < 0:
            raise specio.SpecError(f"{flag} must be non-negative, got {value}")


def _deliver(doc, args, stdout_fallback=False):
    if args.output:
        report.emit(doc, args.output)
        print(f"wrote {args.output}")
    elif stdout_fallback:
        report.emit(doc, None)


_CONNECTION_KEYS = "connection.A or connection.V"
_PSI_KEYS = "psi.b or psi.omega"


def _validate_psi(cfg):
    """The one validation of the document's psi in every command that takes
    it, ahead of any curvature; an invalid psi is named by its keys.
    Returns max |d psi|, which the validation computes."""
    try:
        return validate_spinor_field(cfg.grid, cfg.psi)
    except ValueError as exc:
        msg = str(exc)
        if "d-closed" in msg:
            msg = f"psi not d-closed ({msg})"
        raise ValueError(f"{_PSI_KEYS} gives an invalid spinor: {msg}") from None


def _curvature_numbers(cfg):
    """Validate the document's spinor, then compute the curvature F of its
    connection and what is read off it.

    verify, curvature and report validate psi here (_validate_psi), ahead
    of any curvature.  F is computed once per command;
    the mean curvature k, the chern pair, lambda (unless the document fixes
    it) and the EH residual norm are read off it by the *_from functions.
    Returns (f, k, chern, lam, norm, closed), closed being the validation's
    max |d psi|; raises ValueError naming the document keys at fault when
    any of the others is not finite, and LambdaNotReal (named by main) when
    lambda is not real.
    """
    psi = cfg.psi
    closed = _validate_psi(cfg)
    keys = _CONNECTION_KEYS
    f = curvature(cfg.conn, psi)
    k = mean_curvature_from(f, psi)
    chern = chern_from(f, psi)
    lam = cfg.lam if cfg.lam is not None else lambda_from(chern, psi, cfg.rank)
    _, norm = eh_residual_from(k, psi, lam)
    if cfg.lam is not None:
        keys += " or lambda"
    if not (
        np.all(np.isfinite(f.data))
        and np.all(np.isfinite(k))
        and np.all(np.isfinite([chern, lam, norm]))
    ):
        raise ValueError(
            f"{keys} is too large: the curvature or a number read off it "
            "(mean curvature, chern pair, lambda, EH residual) is not finite"
        )
    return f, k, chern, lam, norm, closed


def _verify_body(cfg, curv, seed):
    """The suite's rows and their tally, as verify and report write them."""
    rows = run_suite(cfg, curv, seed=seed)
    failures = sum(0 if r["pass"] else 1 for r in rows)
    return {"checks": rows, "passed": failures == 0, "failures": failures}


def cmd_verify(cfg, args) -> int:
    body = _verify_body(cfg, _curvature_numbers(cfg), args.seed)
    rows = body["checks"]
    for r in rows:
        tag = "PASS" if r["pass"] else "FAIL"
        print(f"{tag}  {r['check']}  error={r['error']:.3e}  tol={r['tolerance']:.0e}")
    print(f"{len(rows) - body['failures']}/{len(rows)} checks passed")
    doc = report.document("verify", args.seed, cfg.summary, body)
    _deliver(doc, args)
    return 0 if body["passed"] else 1


def cmd_curvature(cfg, args) -> int:
    f, k, chern, lam, norm, closed = _curvature_numbers(cfg)
    window = u_window_defect(f, cfg.b, cfg.pair.J2)
    del f  # nothing below reads F
    dbar = dbar_residual(cfg.grid, cfg.conn, cfg.pair.J1)

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
            # the report keeps the matrix axes last: (*sizes, r, r)
            "mean_curvature": report.complex_field(np.moveaxis(k, (0, 1), (-2, -1))),
        },
    )
    _deliver(doc, args)
    return 0


def cmd_solve(cfg, args) -> int:
    if cfg.rank != 1:
        key = "bundle.rank" if args.rank is None else "--rank"
        raise specio.SpecError(
            f"{key} must be 1 for solve, got {cfg.rank}: solve handles rank-1 "
            "bundles only; higher-rank existence is out of scope"
        )
    _validate_psi(cfg)
    tol = 1e-8 if args.tol is None else args.tol
    conn, trace = solve_eh_line(
        cfg.conn, cfg.psi, max_iter=args.max_iter, tol=tol, lam=cfg.lam
    )
    lam = trace.lam
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
                "A": report.complex_field(np.moveaxis(conn.A, (1, 2), (-2, -1))),
                "V": report.complex_field(np.moveaxis(conn.V, (1, 2), (-2, -1))),
            },
        },
    )
    _deliver(doc, args)
    return 0 if trace.converged else 1


def _symbols_body(cfg, args):
    """Symbol exactness of the document's pair at its theta (default dx^0),
    as symbols writes it."""
    theta = cfg.theta
    if theta is None:
        theta = np.zeros(2 * cfg.n)
        theta[0] = 1.0
    rep = symbol_exactness(cfg.pair, cfg.rank, theta, trials=args.trials, seed=args.seed)
    return {
        "theta": rep.theta.as_array().real,
        "dims": list(rep.dims),
        "ranks": list(rep.ranks),
        "exact": list(rep.exact),
        "trials": args.trials,
    }


def cmd_symbols(cfg, args) -> int:
    body = _symbols_body(cfg, args)
    print(f"dims  = {body['dims']}")
    print(f"ranks = {body['ranks']}")
    for j, ok in enumerate(body["exact"]):
        print(f"junction {j}: {'exact' if ok else 'INEXACT'}")
    doc = report.document("symbols", args.seed, cfg.summary, body)
    _deliver(doc, args)
    return 0 if all(body["exact"]) else 1


def cmd_report(cfg, args) -> int:
    curv = _curvature_numbers(cfg)
    _, _, chern, lam, norm, _ = curv
    verify = _verify_body(cfg, curv, args.seed)
    symbols = _symbols_body(cfg, args)
    del symbols["theta"]  # the combined report leaves theta out
    doc = report.document(
        "report",
        args.seed,
        cfg.summary,
        {
            "verify": verify,
            "symbols": symbols,
            "curvature": {"lambda": lam, "eh_residual": norm, "chern": chern},
        },
    )
    _deliver(doc, args, stdout_fallback=True)
    return 0 if verify["passed"] and all(symbols["exact"]) else 1


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
        _check_flags(args)
        doc = specio.load_document(args.input)
        cfg = specio.build_config(doc, grid_size=args.grid, rank=args.rank, seed=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except (TypeError, ValueError, RuntimeError) as exc:
        msg = str(exc)
        if isinstance(exc, LambdaNotReal):
            # the document's chern pair gives every lambda_from in a
            # command: roundoff of a huge curvature of its connection
            msg = f"{_CONNECTION_KEYS} is too large: {msg}"
        elif isinstance(exc, RoundoffFloor):
            msg = f"--tol is too small for the size of {_CONNECTION_KEYS}: {msg}"
        elif isinstance(exc, UnrepresentableLine):
            msg = f"psi.omega is of a scale double precision cannot represent: {msg}"
        print(f"error: {msg}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
