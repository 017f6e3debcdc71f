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

from .multivector import blade_tables, exp_two_form
from .fields import MAX_GRID_N, FormField, GenConnection, TorusGrid, _wedge_data

DEFAULT_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
_DEFAULT_SIZE = 32
_DEFAULT_AMP = 0.1
_DEFAULT_MODES = 2
_DOC_KEYS = {"n", "grid", "psi", "bundle", "connection", "theta", "lambda"}


class SpecError(ValueError):
    """Malformed input document."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, built from one document."""

    n: int
    grid: TorusGrid
    rank: int
    omega: np.ndarray
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
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read input: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"input is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError("input document must be a JSON object")
    extra = set(doc) - _DOC_KEYS
    if extra:
        raise SpecError(f"unknown document keys: {sorted(extra)}")
    found = _non_finite(doc, "")
    if found is not None:
        raise SpecError(f"{found[0]} must be a finite number, got {found[1]!r}")
    return doc


def _non_finite(value, path):
    """(key path, value) of the first NaN or infinity in a parsed document."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for sub, v in items:
        found = _non_finite(v, sub)
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
    x = grid.meshes()
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
        phase = np.zeros(grid.sizes)
        for mu, kmu in enumerate(k):
            phase = phase + (
                2.0 * np.pi * _as_int(kmu, f"{what} mode") * x[mu] / grid.periods[mu]
            )
        out += c * (np.sin(phase) if trig == "sin" else np.cos(phase))
    return out


def _omega_matrix(spec, n):
    if spec is None:
        return np.kron(np.eye(n), DEFAULT_OMEGA_BLOCK)
    m = _as_matrix(spec, (2 * n, 2 * n), "psi.omega")
    if np.max(np.abs(m + m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise SpecError("psi.omega must be antisymmetric")
    return m


def _b_field(spec, grid):
    """Antisymmetric two-form coefficients, (2n, 2n, *sizes); None if absent."""
    if spec is None:
        return None
    n2 = 2 * grid.n
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
    if np.max(np.abs(m + m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise SpecError("psi.b must be antisymmetric")
    return np.broadcast_to(m[(...,) + (None,) * n2], (n2, n2, *grid.sizes)).copy()


def _build_psi(grid, bfield, omega):
    """e^{b + i omega} as a form field; pointwise series when b varies."""
    n2 = 2 * grid.n
    if bfield is None or np.max(np.abs(bfield - bfield[(..., *((0,) * n2))][(...,) + (None,) * n2])) == 0.0:
        b0 = np.zeros((n2, n2)) if bfield is None else bfield[(..., *((0,) * n2))]
        return FormField.constant(grid, exp_two_form(b0 + 1j * omega))
    t = blade_tables(grid.n)
    bdata = np.zeros((t.size, *grid.sizes), dtype=np.complex128)
    for i in range(n2):
        for j in range(i + 1, n2):
            bdata[(1 << i) | (1 << j)] = bfield[i, j] + 1j * omega[i, j]
    acc = np.zeros_like(bdata)
    acc[0] = 1.0
    term = acc.copy()
    for k in range(1, grid.n + 1):
        term = _wedge_data(t, term, bdata) * (1.0 / k)
        acc = acc + term
    return FormField(grid, acc)


def _basis_matrix(spec, rank, what):
    if spec is None:
        return 1j * np.eye(rank)
    if not isinstance(spec, dict) or set(spec) - {"re", "im"}:
        raise SpecError(f"{what} basis must be {{'re': M, 'im': M}}")
    shape = (rank, rank)
    re = _as_matrix(spec.get("re", np.zeros(shape)), shape, f"{what} basis re")
    im = _as_matrix(spec.get("im", np.zeros(shape)), shape, f"{what} basis im")
    m = re + 1j * im
    if np.max(np.abs(m + m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise SpecError(f"{what} basis must be skew-Hermitian")
    return m


def _random_skew(rng, rank):
    if rank == 1:
        return 1j * np.eye(1)
    g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    m = (g - g.conj().T) / 2.0
    return m / max(1.0, np.max(np.abs(m)))


def _init_component(spec, grid, rank, rng, what):
    """One half of the connection, shaped (2n, *sizes, rank, rank)."""
    n2 = 2 * grid.n
    out = np.zeros((n2, *grid.sizes, rank, rank), dtype=np.complex128)
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
        x = grid.meshes()
        for mu in range(n2):
            field = np.zeros(grid.sizes)
            for _ in range(modes):
                k = rng.integers(-modes, modes + 1, size=n2)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                arg = sum(
                    2.0 * np.pi * k[j] * x[j] / grid.periods[j] for j in range(n2)
                )
                field += amp * rng.standard_normal() * np.cos(arg + phase)
            out[mu] = field[..., None, None] * _random_skew(rng, rank)
        return out
    for term in spec["terms"]:
        if not isinstance(term, dict) or set(term) - {"mu", "coeff", "basis"}:
            raise SpecError(f"{what} terms need keys mu, coeff, basis")
        mu = _as_int(term.get("mu"), f"{what} direction", 0)
        if mu >= n2:
            raise SpecError(f"{what} direction {mu} out of range for n = {grid.n}")
        coeff = _eval_expr(term.get("coeff", 0.0), grid, f"{what} coefficient")
        basis = _basis_matrix(term.get("basis"), rank, what)
        out[mu] += coeff[..., None, None] * basis
    return out


def _theta_components(spec, n):
    if spec is None:
        return None
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        raise SpecError("theta must be a list of real components") from None
    if arr.shape not in ((2 * n,), (4 * n,)):
        raise SpecError(f"theta needs {2 * n} covector or {4 * n} full components")
    return arr


def build_config(doc, grid_sizes=None, rank=None, seed=0) -> RunConfig:
    """Assemble the run configuration, applying command-line overrides."""
    if not isinstance(doc, dict):
        raise SpecError("input document must be a JSON object")
    n = _as_int(doc.get("n", 1), "n", 1)
    if n > MAX_GRID_N:
        raise SpecError(f"n must be at most {MAX_GRID_N}, got {n}")

    gspec = doc.get("grid", {})
    if not isinstance(gspec, dict) or set(gspec) - {"sizes", "periods"}:
        raise SpecError("grid must be {'sizes': [...], 'periods': [...]}")
    sizes = grid_sizes if grid_sizes is not None else gspec.get("sizes")
    if sizes is None:
        sizes = (_DEFAULT_SIZE if n == 1 else 8,) * (2 * n)
    try:
        grid = TorusGrid(n, tuple(sizes), gspec.get("periods"))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad grid: {exc}") from None

    pspec = doc.get("psi", {})
    if not isinstance(pspec, dict) or set(pspec) - {"b", "omega"}:
        raise SpecError("psi must be {'b': ..., 'omega': ...}")
    omega = _omega_matrix(pspec.get("omega"), n)
    psi = _build_psi(grid, _b_field(pspec.get("b"), grid), omega)

    bspec = doc.get("bundle", {})
    if not isinstance(bspec, dict) or set(bspec) - {"rank"}:
        raise SpecError("bundle must be {'rank': r}")
    r = rank if rank is not None else _as_int(bspec.get("rank", 1), "bundle rank", 1)

    cspec = doc.get("connection", {"A": {"random": {}}, "V": None})
    if not isinstance(cspec, dict) or set(cspec) - {"A", "V"}:
        raise SpecError("connection must be {'A': ..., 'V': ...}")
    rng = np.random.default_rng(seed)
    a = _init_component(cspec.get("A"), grid, r, rng, "connection A")
    v = _init_component(cspec.get("V"), grid, r, rng, "connection V")
    conn = GenConnection(grid, r, a, v)

    lam = doc.get("lambda")
    return RunConfig(
        n=n,
        grid=grid,
        rank=r,
        omega=omega,
        psi=psi,
        conn=conn,
        theta=_theta_components(doc.get("theta"), n),
        lam=None if lam is None else _as_real(lam, "lambda"),
    )
