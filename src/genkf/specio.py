"""Run configurations parsed from JSON input documents.

A document fixes the geometry, the spinor field, the bundle, and the
starting connection for a command.  All keys are optional; the defaults
give the standard symplectic spinor on a flat n = 1 torus with a rank-1
bundle and a small seeded random connection:

    {
      "n": 1,
      "grid": {"sizes": [32, 32], "periods": [1.0, 1.0]},
      "psi": {"b": ..., "omega": [[0.0, 1.0], [-1.0, 0.0]]},
      "bundle": {"rank": 1},
      "connection": {"A": <init>, "V": <init>},
      "theta": [components],
      "lambda": 0.0
    }

Scalar coefficient expressions are a number (a constant) or a sum of
trigonometric monomials c * trig(2 pi k . x / P):

    [{"c": 0.3, "trig": "sin", "k": [1, 0]}, ...]

Connection initializers are one of

    {"terms": [{"mu": 0, "coeff": <expr>, "basis": {"re": M, "im": M}}]}
    {"random": {"amp": 0.1, "modes": 2}}

where `basis` is a rank x rank skew-Hermitian matrix, default i times the
identity; a missing initializer means zero.  The two-form b is a constant
matrix [[b_ij]] or {"entries": [{"i": 0, "j": 1, "coeff": <expr>}]};
entries may vary over the grid, and the spinor field e^{b + i omega} is
then assembled pointwise.  Every number must be finite; NaN and infinities
are rejected with their key path.  Field dumps written by commands list
arrays in row-major grid order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .multivector import is_skew
from .fields import (
    MAX_GRID_N, MIN_GRID_SIZE, FormField, GenConnection, TorusGrid, exp_two_form_field
)
from .structures import OMEGA_BLOCK, GKPair, gcs_symplectic, standard_complex
from .analysis import _theta_covector

_DEFAULT_SIZE = 32
_DEFAULT_AMP = 0.1
_DEFAULT_MODES = 2
_DOC_KEYS = {"n", "grid", "psi", "bundle", "connection", "theta", "lambda"}


class SpecError(ValueError):
    """Malformed input document."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, built from one document; psi is
    e^{b + i omega}, b (2n, 2n) or varying (2n, 2n, *sizes), omega (2n, 2n),
    and pair the document's GKPair (standard_complex(n), gcs_symplectic(omega))."""

    n: int
    grid: TorusGrid
    rank: int
    b: np.ndarray
    omega: np.ndarray
    pair: GKPair
    psi: FormField
    conn: GenConnection
    theta: np.ndarray | None
    lam: float | None

    @property
    def summary(self) -> dict:
        return {
            "n": self.n,
            "sizes": list(self.grid.sizes),
            "periods": [float(p) for p in self.grid.periods],
            "rank": self.rank,
        }


def load_document(path):
    """Read a JSON document; None means an empty document (all defaults)."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise SpecError(f"cannot read input: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"input is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError("input document must be a JSON object")
    extra = set(doc) - _DOC_KEYS
    if extra:
        raise SpecError(f"unknown document keys: {sorted(extra)}")
    found = _unrepresentable(doc, "")
    if found is not None:
        path, value = found
        if isinstance(value, float):
            raise SpecError(f"{path} must be a finite number, got {value!r}")
        raise SpecError(
            f"{path} must be an integer in the 64-bit range, "
            f"got a {value.digits}-digit integer"
        )
    return doc


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class _OutOfRange:
    """An integer literal outside int64, kept as its digit count (int()
    refuses literals of more than 4300 digits)."""

    digits: int


def _parse_int(text):
    """json's parse_int: the int, or an _OutOfRange marker outside int64."""
    digits = len(text.lstrip("-"))
    if digits <= 19 and _INT64_MIN <= (value := int(text)) <= _INT64_MAX:
        return value
    return _OutOfRange(digits)


def _unrepresentable(value, path):
    """(key path, value) of the first NaN, infinity or _OutOfRange integer
    in a parsed document."""
    if isinstance(value, _OutOfRange) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        return path, value
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for sub, v in items:
        found = _unrepresentable(v, sub)
        if found is not None:
            return found
    return None


def _as_int(value, what, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(f"{what} must be at least {minimum}, got {value}")
    return value


def _as_real(value, what):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecError(f"{what} must be a number, got {value!r}")
    return float(value)


def _as_list(value, length, what, kind):
    if not isinstance(value, list) or len(value) != length:
        raise SpecError(f"{what} must be a list of {length} {kind}, got {value!r}")
    return value


def _as_matrix(value, shape, what):
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be a real matrix") from None
    if m.shape != shape:
        raise SpecError(f"{what} must have shape {shape}, got {m.shape}")
    return m


def _eval_expr(expr, grid, what):
    """Evaluate a coefficient expression to a real scalar field."""
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return np.full(grid.sizes, float(expr))
    if not isinstance(expr, list):
        raise SpecError(f"{what} must be a number or a list of monomials")
    out = np.zeros(grid.sizes)
    for mono in expr:
        if not isinstance(mono, dict) or set(mono) - {"c", "trig", "k"}:
            raise SpecError(f"{what}: each monomial needs keys c, trig, k")
        c = _as_real(mono.get("c", 1.0), f"{what} coefficient")
        trig = mono.get("trig", "cos")
        if trig not in ("sin", "cos"):
            raise SpecError(f"{what}: trig must be 'sin' or 'cos', got {trig!r}")
        k = mono.get("k")
        if not isinstance(k, list) or len(k) != 2 * grid.n:
            raise SpecError(f"{what}: k must list {2 * grid.n} integer modes")
        phase = grid.phase([_as_int(kmu, f"{what} mode") for kmu in k])
        out += c * (np.sin(phase) if trig == "sin" else np.cos(phase))
    return out


def _omega_pair(spec, n):
    """omega and the document's pair (standard_complex(n), gcs_symplectic(omega)),
    which every command reads, built before psi; an omega of no pair is named."""
    if spec is None:
        spec = np.kron(np.eye(n), OMEGA_BLOCK)
    m = _as_matrix(spec, (2 * n, 2 * n), "psi.omega")
    if not is_skew(m, m.T):
        raise SpecError("psi.omega must be antisymmetric")
    with np.errstate(all="raise", under="ignore"):
        try:  # no inverse, one past the float range, or one too large for J^2 = -1
            js = gcs_symplectic(m)
        except (ArithmeticError, ValueError) as exc:
            raise SpecError(f"psi.omega is singular: {exc}") from None
        try:
            return m, GKPair(standard_complex(n), js)
        except (ArithmeticError, ValueError) as exc:
            raise SpecError(
                "psi.omega does not form a generalized Kahler pair with the "
                f"standard complex structure: {exc}"
            ) from None


def _b_field(spec, grid):
    """Two-form b: (2n, 2n) for a matrix or none, (2n, 2n, *sizes) for entries."""
    n2 = 2 * grid.n
    if spec is None:
        return np.zeros((n2, n2))
    if isinstance(spec, dict):
        entries = spec.get("entries")
        if set(spec) != {"entries"} or not isinstance(entries, list):
            raise SpecError("psi.b must be a matrix or {'entries': [...]}")
        out = np.zeros((n2, n2, *grid.sizes))
        for ent in entries:
            if not isinstance(ent, dict) or set(ent) - {"i", "j", "coeff"}:
                raise SpecError("psi.b entries need keys i, j, coeff")
            i = _as_int(ent.get("i"), "psi.b entry index i", 0)
            j = _as_int(ent.get("j"), "psi.b entry index j", 0)
            if i >= n2 or j >= n2 or i == j:
                raise SpecError(f"psi.b entry indices ({i}, {j}) out of range")
            val = _eval_expr(ent.get("coeff", 0.0), grid, "psi.b coefficient")
            out[i, j] += val
            out[j, i] -= val
        return out
    m = _as_matrix(spec, (n2, n2), "psi.b")
    if not is_skew(m, m.T):
        raise SpecError("psi.b must be antisymmetric")
    return m


def _build_psi(grid, bfield, omega):
    """e^{b + i omega} as a form field, constant where b is a matrix; one
    whose series leaves the float range is refused by its keys."""
    exponent = bfield + 1j * omega[(...,) + (None,) * (bfield.ndim - 2)]
    try:  # an overflow in the series leaves a coefficient that is not finite
        with np.errstate(over="raise", invalid="raise"):
            return exp_two_form_field(grid, exponent)
    except FloatingPointError:
        raise SpecError(
            "psi.b or psi.omega is too large: e^{b + i omega} has coefficients "
            "past the float range"
        ) from None


def _basis_matrix(spec, rank, what):
    if spec is None:
        return 1j * np.eye(rank)
    if not isinstance(spec, dict) or set(spec) - {"re", "im"}:
        raise SpecError(f"{what} basis must be {{'re': M, 'im': M}}")
    shape = (rank, rank)
    re = _as_matrix(spec.get("re", np.zeros(shape)), shape, f"{what} basis re")
    im = _as_matrix(spec.get("im", np.zeros(shape)), shape, f"{what} basis im")
    m = re + 1j * im
    if not is_skew(m, m.conj().T):
        raise SpecError(f"{what} basis must be skew-Hermitian")
    return m


def _random_skew(rng, rank):
    if rank == 1:
        return 1j * np.eye(1)
    g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    m = (g - g.conj().T) / 2.0
    return m / max(1.0, np.max(np.abs(m)))


def _init_component(spec, grid, rank, rng, what):
    """One half of the connection, shaped (2n, rank, rank, *sizes)."""
    n2 = 2 * grid.n
    out = np.zeros((n2, rank, rank, *grid.sizes), dtype=np.complex128)
    if spec is None or spec == {}:
        return out
    if not isinstance(spec, dict) or not (set(spec) <= {"terms", "random"}) or len(spec) > 1:
        raise SpecError(f"{what} initializer must be {{'terms': ...}} or {{'random': ...}}")
    if "random" in spec:
        opts = spec["random"]
        if not isinstance(opts, dict) or set(opts) - {"amp", "modes"}:
            raise SpecError(f"{what} random initializer takes amp and modes")
        amp = _as_real(opts.get("amp", _DEFAULT_AMP), f"{what} amp")
        modes = _as_int(opts.get("modes", _DEFAULT_MODES), f"{what} modes", 1)
        for mu in range(n2):
            field = grid.random_trig(rng, amp, modes, modes)
            out[mu] = np.multiply.outer(_random_skew(rng, rank), field)
        return out
    terms = spec["terms"]
    if not isinstance(terms, list):
        raise SpecError(f"{what} terms must be a list of terms, got {terms!r}")
    for term in terms:
        if not isinstance(term, dict) or set(term) - {"mu", "coeff", "basis"}:
            raise SpecError(f"{what} terms need keys mu, coeff, basis")
        mu = _as_int(term.get("mu"), f"{what} direction", 0)
        if mu >= n2:
            raise SpecError(f"{what} direction {mu} out of range for n = {grid.n}")
        coeff = _eval_expr(term.get("coeff", 0.0), grid, f"{what} coefficient")
        basis = _basis_matrix(term.get("basis"), rank, what)
        out[mu] += np.multiply.outer(basis, coeff)
    return out


def _check_no_overflow(part, rank, what):
    """Reject a connection whose products (curvature is quadratic) overflow."""
    peak = float(np.max(np.abs(part)))
    if not math.isfinite(peak * peak * rank):
        raise SpecError(
            f"{what} is too large: max|entry|^2 * rank overflows "
            f"(max |entry| = {peak:.3e}, rank {rank})"
        )


def _check_addressable(n, sizes, rank, grid_key, rank_key):
    """Reject sizes and rank whose endomorphism-form fields, 16 * 4^n *
    prod(sizes) * r^2 bytes, no numpy array can index; this runs before the
    first allocation, on sizes already parsed as positive integers."""
    limit = np.iinfo(np.intp).max
    rank1_bytes = 16 * 4**n * math.prod(sizes)
    if rank1_bytes * rank * rank <= limit:
        return
    keys = grid_key if rank1_bytes > limit else f"{grid_key} with {rank_key} {rank}"
    raise SpecError(
        f"{keys} is too large: a rank-{rank} curvature field, 16 * 4^n * "
        f"prod(sizes) * r^2 bytes, is past the largest array numpy can index "
        f"({limit} bytes)"
    )


def _theta_components(spec, n):
    if spec is None:
        return None
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        raise SpecError("theta must be a list of real components") from None
    try:
        _theta_covector(arr, n)  # the symbol maps' own test, ahead of any work
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return arr


def build_config(doc, grid_size=None, rank=None, seed=0) -> RunConfig:
    """Assemble the run configuration, applying command-line overrides:
    grid_size (--grid) points on every axis, rank (--rank) and the seed."""
    if not isinstance(doc, dict):
        raise SpecError("input document must be a JSON object")
    n = _as_int(doc.get("n", 1), "n", 1)
    if n > MAX_GRID_N:
        raise SpecError(f"n must be at most {MAX_GRID_N}, got {n}")
    theta = _theta_components(doc.get("theta"), n)

    gspec = doc.get("grid", {})
    if not isinstance(gspec, dict) or set(gspec) - {"sizes", "periods"}:
        raise SpecError("grid must be {'sizes': [...], 'periods': [...]}")
    if grid_size is not None:
        sizes = (_as_int(grid_size, "--grid", MIN_GRID_SIZE),) * (2 * n)
    elif "sizes" in gspec:
        sizes = _as_list(gspec["sizes"], 2 * n, "grid.sizes", "integers")
        sizes = [_as_int(s, f"grid.sizes[{i}]", MIN_GRID_SIZE) for i, s in enumerate(sizes)]
    else:
        sizes = (_DEFAULT_SIZE if n == 1 else MIN_GRID_SIZE,) * (2 * n)
    periods = gspec.get("periods")
    if periods is not None:
        periods = _as_list(periods, 2 * n, "grid.periods", "numbers")
        periods = [_as_real(p, f"grid.periods[{i}]") for i, p in enumerate(periods)]
        # the grid's phase 2 pi k x / P (x < P), difference factor size / P,
        # squared spacing and cell volume must be finite and the volume
        # nonzero; TorusGrid names a period that is not positive
        for i, (p, s) in enumerate(zip(periods, sizes)):
            if p > 0 and not all(map(math.isfinite, (2 * math.pi * p, s / p, (p / s) * (p / s)))):
                raise SpecError(f"grid.periods[{i}] is out of range, got {p!r}")
        volume = math.prod(p / s for p, s in zip(periods, sizes))
        if min(periods) > 0 and not 0.0 < volume < math.inf:
            raise SpecError(f"grid.periods is out of range: cell volume {volume!r}")

    bspec = doc.get("bundle", {})
    if not isinstance(bspec, dict) or set(bspec) - {"rank"}:
        raise SpecError("bundle must be {'rank': r}")
    if rank is not None:
        r = _as_int(rank, "--rank", 1)
    else:
        r = _as_int(bspec.get("rank", 1), "bundle rank", 1)

    _check_addressable(
        n,
        sizes,
        r,
        "grid.sizes" if grid_size is None else "--grid",
        "bundle.rank" if rank is None else "--rank",
    )
    try:
        grid = TorusGrid(n, tuple(sizes), periods)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad grid: {exc}") from None

    pspec = doc.get("psi", {})
    if not isinstance(pspec, dict) or set(pspec) - {"b", "omega"}:
        raise SpecError("psi must be {'b': ..., 'omega': ...}")
    omega, pair = _omega_pair(pspec.get("omega"), n)
    bfield = _b_field(pspec.get("b"), grid)
    psi = _build_psi(grid, bfield, omega)

    cspec = doc.get("connection", {"A": {"random": {}}, "V": None})
    if not isinstance(cspec, dict) or set(cspec) - {"A", "V"}:
        raise SpecError("connection must be {'A': ..., 'V': ...}")
    rng = np.random.default_rng(seed)
    a = _init_component(cspec.get("A"), grid, r, rng, "connection A")
    v = _init_component(cspec.get("V"), grid, r, rng, "connection V")
    for key, part in (("A", a), ("V", v)):
        _check_no_overflow(part, r, f"connection.{key}")
    conn = GenConnection(grid, r, a, v)

    lam = doc.get("lambda")
    return RunConfig(
        n=n,
        grid=grid,
        rank=r,
        b=bfield,
        omega=omega,
        pair=pair,
        psi=psi,
        conn=conn,
        theta=theta,
        lam=None if lam is None else _as_real(lam, "lambda"),
    )
