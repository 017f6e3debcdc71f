"""Discrete calculus for generalized connections on flat periodic tori.

Derivatives are second-order central differences built from index rolls,
so shift operators commute exactly: d compose d = 0, grid sums of exact
forms vanish, and every identity whose continuum proof only uses
constant-coefficient algebra plus d^2 = 0 holds here to roundoff.  The
base is always a torus with one global chart and a trivialized bundle;
fields are plain arrays with the blade index first.

Shapes:
    FormField.data       (4^n, *sizes)
    EndFormField.data    (4^n, *sizes, r, r)
    GenConnection.A/.V   (2n,  *sizes, r, r)   skew-Hermitian per point
    scalar densities     (*sizes)
"""

from __future__ import annotations

import numpy as np

from . import _backend as _k
from ._tables import blade_tables
from .multivector import (
    GradedForm,
    exp_two_form,
    neutral_pairing_matrix,
    two_form_matrix,
)
from .structures import GCStructure, GKPair, classify_spinor, gcs_from_spinor

__all__ = [
    "ConnVariation",
    "EndFormField",
    "FormField",
    "GenConnection",
    "TorusGrid",
    "b_transform_field",
    "bfield_act",
    "canonical_line_connection",
    "chern_pair",
    "connection_derivative",
    "covariant_d",
    "curvature",
    "d_field",
    "dbar_residual",
    "eh_residual",
    "gm_metric",
    "gm_symplectic",
    "lambda_from_chern",
    "lie_derivative",
    "mean_curvature",
    "moment_value",
    "mukai_field",
    "mukai_integral",
    "shift_connection",
    "trace_field",
    "validate_spinor_field",
    "vol_density",
]

MAX_GRID_N = 2


class TorusGrid:
    """Flat torus R^{2n}/(period lattice), uniform grid, periodic wrap."""

    __slots__ = ("n", "sizes", "periods", "spacings")

    def __init__(self, n: int, sizes, periods=None):
        n = int(n)
        if not 1 <= n <= MAX_GRID_N:
            raise ValueError(f"n must be 1..{MAX_GRID_N}, got {n}")
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != 2 * n:
            raise ValueError(f"need 2n = {2 * n} sizes, got {len(sizes)}")
        for s in sizes:
            if s < 8 or s % 2:
                raise ValueError(f"grid sizes must be even and >= 8, got {s}")
        if periods is None:
            periods = (1.0,) * (2 * n)
        periods = tuple(float(p) for p in periods)
        if len(periods) != 2 * n or any(p <= 0 for p in periods):
            raise ValueError("periods must be 2n positive reals")
        self.n = n
        self.sizes = sizes
        self.periods = periods
        self.spacings = tuple(p / s for p, s in zip(periods, sizes))

    @property
    def npoints(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.spacings:
            out *= h
        return out

    def axis_coord(self, mu: int) -> np.ndarray:
        return np.arange(self.sizes[mu]) * self.spacings[mu]

    def meshes(self):
        """Coordinate arrays, each of shape *sizes."""
        axes = [self.axis_coord(mu) for mu in range(2 * self.n)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def integrate(self, values: np.ndarray):
        """Riemann sum over the grid; trailing axes pass through."""
        values = np.asarray(values)
        return values.sum(axis=tuple(range(2 * self.n))) * self.cell_volume

    def __repr__(self):
        return f"TorusGrid(n={self.n}, sizes={self.sizes})"


class FormField:
    """Complex differential-form field: blade coefficients over the grid."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: TorusGrid, data):
        data = np.asarray(data, dtype=np.complex128)
        want = (4**grid.n, *grid.sizes)
        if data.shape != want:
            raise ValueError(f"form field shape {data.shape}, expected {want}")
        self.grid = grid
        self.data = data

    @classmethod
    def constant(cls, grid: TorusGrid, form: GradedForm) -> "FormField":
        if form.n != grid.n:
            raise ValueError("dimension mismatch")
        data = np.empty((4**grid.n, *grid.sizes), dtype=np.complex128)
        data[:] = form.coeffs.reshape((-1,) + (1,) * (2 * grid.n))
        return cls(grid, data)

    def value_at(self, point) -> GradedForm:
        idx = (slice(None),) + tuple(point)
        return GradedForm(self.grid.n, np.array(self.data[idx]))

    def conjugate(self) -> "FormField":
        return FormField(self.grid, np.conj(self.data))


class EndFormField:
    """Endomorphism-valued form field; blade index first, matrix axes last."""

    __slots__ = ("grid", "rank", "data")

    def __init__(self, grid: TorusGrid, rank: int, data):
        data = np.asarray(data, dtype=np.complex128)
        want = (4**grid.n, *grid.sizes, rank, rank)
        if data.shape != want:
            raise ValueError(f"end-form field shape {data.shape}, expected {want}")
        self.grid = grid
        self.rank = rank
        self.data = data

    def conjugate(self) -> "EndFormField":
        return EndFormField(self.grid, self.rank, np.conj(self.data))


def _check_skew(arr, grid, what, tol=1e-12):
    arr = np.asarray(arr, dtype=np.complex128)
    n2 = 2 * grid.n
    if arr.ndim != n2 + 3 or arr.shape[: n2 + 1] != (n2, *grid.sizes):
        raise ValueError(f"{what} must have shape (2n, *sizes, r, r), got {arr.shape}")
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{what} matrix axes must be square")
    defect = np.max(np.abs(arr + np.swapaxes(arr, -1, -2).conj()))
    if defect > tol * max(1.0, np.max(np.abs(arr))):
        raise ValueError(f"{what} is not skew-Hermitian (defect {defect:.3e})")
    return arr


class GenConnection:
    """Generalized connection: 1-form part A and vector part V, both u(r)-valued."""

    __slots__ = ("grid", "rank", "A", "V")

    def __init__(self, grid: TorusGrid, rank: int, A, V):
        self.grid = grid
        self.rank = int(rank)
        self.A = _check_skew(A, grid, "A")
        self.V = _check_skew(V, grid, "V")
        if self.A.shape[-1] != self.rank or self.V.shape[-1] != self.rank:
            raise ValueError("rank does not match matrix axes")

    @classmethod
    def zero(cls, grid: TorusGrid, rank: int) -> "GenConnection":
        shape = (2 * grid.n, *grid.sizes, rank, rank)
        return cls(grid, rank, np.zeros(shape, dtype=np.complex128),
                   np.zeros(shape, dtype=np.complex128))

    def field_strength(self) -> np.ndarray:
        """F[mu, nu] = D_mu A_nu - D_nu A_mu + [A_mu, A_nu], shape (2n, 2n, *sizes, r, r)."""
        n2 = 2 * self.grid.n
        out = np.zeros((n2, n2, *self.grid.sizes, self.rank, self.rank),
                       dtype=np.complex128)
        for mu in range(n2):
            for nu in range(mu + 1, n2):
                f = (
                    _diff(self.grid, self.A[nu], mu)
                    - _diff(self.grid, self.A[mu], nu)
                    + self.A[mu] @ self.A[nu]
                    - self.A[nu] @ self.A[mu]
                )
                out[mu, nu] = f
                out[nu, mu] = -f
        return out


class ConnVariation:
    """Tangent vector to the affine space of connections (same data layout)."""

    __slots__ = ("A", "V")

    def __init__(self, A, V):
        self.A = np.asarray(A, dtype=np.complex128)
        self.V = np.asarray(V, dtype=np.complex128)
        if self.A.shape != self.V.shape:
            raise ValueError("A and V parts must have matching shapes")


def shift_connection(conn: GenConnection, var: ConnVariation, t: float) -> GenConnection:
    return GenConnection(conn.grid, conn.rank, conn.A + t * var.A, conn.V + t * var.V)


# ---------------------------------------------------------------------------
# low-level plumbing


def _diff(grid: TorusGrid, arr: np.ndarray, mu: int, axis: int | None = None):
    """Central difference along grid axis mu; spatial axes lead unless told."""
    if axis is None:
        axis = mu
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (
        2.0 * grid.spacings[mu]
    )


def _diff_form(grid, data, mu):
    # data has the blade axis first, spatial axes 1..2n
    return _diff(grid, data, mu, axis=1 + mu)


def _rows(data: np.ndarray) -> np.ndarray:
    size = data.shape[0]
    return np.ascontiguousarray(data.reshape(size, -1).T)


def _unrows(rows: np.ndarray, rest) -> np.ndarray:
    size = rows.shape[1]
    return np.ascontiguousarray(rows.T).reshape((size,) + tuple(rest))


def _axis_scatter(t, mu, data, src, dst):
    """out[dst[mu]] = sign * data[src[mu]], a signed permutation of blades.

    Adding into zeros, rather than assigning, turns negative zeros positive
    exactly as the general kernels do, so results match them bit for bit.
    """
    sign = t.axis_s[mu].reshape((-1,) + (1,) * (data.ndim - 1))
    out = np.zeros(data.shape, dtype=data.dtype)
    out[dst[mu]] += sign * data[src[mu]]
    return out


def _wedge_basis(t, mu, data):
    """dx^mu wedge data (blade axis first)."""
    return _axis_scatter(t, mu, data, t.axis_lo, t.axis_hi)


def _interior_basis(t, mu, data):
    """Contraction with the coordinate vector d/dx^mu."""
    return _axis_scatter(t, mu, data, t.axis_hi, t.axis_lo)


def _interior_varying(t, vfield, data):
    """Contraction with a pointwise vector field v (2n, *sizes)."""
    rows = _rows(data)
    v_rows = np.ascontiguousarray(
        np.moveaxis(vfield, 0, -1).reshape(-1, t.dim).astype(np.complex128)
    )
    out = _k.interior_batch(t, v_rows, rows)
    return _unrows(out, data.shape[1:])


def _wedge_data(t, d1, d2):
    """Pointwise wedge of two blade-first arrays with broadcast trailing axes."""
    rest = np.broadcast_shapes(d1.shape[1:], d2.shape[1:])
    b1 = np.broadcast_to(d1, (t.size,) + rest)
    b2 = np.broadcast_to(d2, (t.size,) + rest)
    out = _k.wedge_batch(t, _rows(b1), _rows(b2))
    return _unrows(out, rest)


def _like(f, data):
    if isinstance(f, EndFormField):
        return EndFormField(f.grid, f.rank, data)
    return FormField(f.grid, data)


def _as_form_field(grid: TorusGrid, psi) -> FormField:
    if isinstance(psi, GradedForm):
        return FormField.constant(grid, psi)
    if isinstance(psi, FormField):
        if psi.grid is not grid and psi.grid.sizes != grid.sizes:
            raise ValueError("grid mismatch")
        return psi
    raise TypeError(f"expected a form field or a constant form, got {type(psi)}")


# ---------------------------------------------------------------------------
# exterior and Lie derivatives


def d_field(f):
    """Discrete exterior derivative, sum_mu dx^mu ^ D_mu."""
    grid = f.grid
    t = blade_tables(grid.n)
    out = np.zeros_like(f.data)
    for mu in range(2 * grid.n):
        out += _wedge_basis(t, mu, _diff_form(grid, f.data, mu))
    return _like(f, out)


def lie_derivative(grid: TorusGrid, v, f: FormField) -> FormField:
    """Cartan formula i_v d + d i_v for a real vector field v (2n, *sizes)."""
    v = np.asarray(v)
    if v.shape != (2 * grid.n, *grid.sizes):
        raise ValueError(f"vector field shape {v.shape}")
    if np.iscomplexobj(v) and np.max(np.abs(v.imag)) > 1e-14:
        raise ValueError("vector field must be real")
    v = v.real.astype(float)
    t = blade_tables(grid.n)
    term1 = _interior_varying(t, v, d_field(f).data)
    term2 = d_field(FormField(grid, _interior_varying(t, v, f.data))).data
    return FormField(grid, term1 + term2)


def covariant_d(conn: GenConnection, a: EndFormField) -> EndFormField:
    """d a + sum_mu dx^mu ^ [A_mu, a]."""
    if a.rank != conn.rank:
        raise ValueError("rank mismatch")
    grid = conn.grid
    t = blade_tables(grid.n)
    out = d_field(a).data
    for mu in range(2 * grid.n):
        amu = conn.A[mu][None]  # broadcast over the blade axis
        out += _wedge_basis(t, mu, amu @ a.data - a.data @ amu)
    return EndFormField(grid, a.rank, out)


# ---------------------------------------------------------------------------
# spinor-field validation


def _pair_density(grid, psi: FormField) -> np.ndarray:
    return mukai_field(psi, psi.conjugate())


def vol_density(grid: TorusGrid, psi) -> np.ndarray:
    """Positive density i^{-n} <psi, psibar>_s; aborts on a degenerate point."""
    psi = _as_form_field(grid, psi)
    val = (1j ** (-grid.n)) * _pair_density(grid, psi)
    peak = float(np.max(np.abs(val)))
    if peak == 0.0:
        raise ValueError("degenerate spinor field: pairing vanishes identically")
    bad = np.abs(val) <= 1e-10 * peak
    if np.any(bad):
        point = np.unravel_index(int(np.argmax(bad)), grid.sizes)
        raise ValueError(f"degenerate spinor at grid point {point}")
    if np.max(np.abs(val.imag)) > 1e-10 * peak or np.min(val.real) <= 0:
        point = np.unravel_index(int(np.argmin(val.real)), grid.sizes)
        raise ValueError(f"spinor volume density not positive at {point}")
    return val.real


def _sample_points(grid: TorusGrid):
    picks = [(0, s // 2) for s in grid.sizes]
    out = [()]
    for choices in picks:
        out = [p + (c,) for p in out for c in choices]
    return out


def validate_spinor_field(grid: TorusGrid, psi, closed_tol: float | None = None):
    """Checks psi is a d-closed, pointwise pure nondegenerate symplectic-type spinor."""
    psi = _as_form_field(grid, psi)
    vol_density(grid, psi)
    scale = float(np.max(np.abs(psi.data)))
    if closed_tol is None:
        closed_tol = max(1e-10, 10.0 * max(grid.spacings) ** 2) * max(1.0, scale)
    dnorm = float(np.max(np.abs(d_field(psi).data)))
    if dnorm > closed_tol:
        raise ValueError(f"spinor field is not d-closed (|d psi| = {dnorm:.3e})")
    for point in _sample_points(grid):
        cls = classify_spinor(psi.value_at(point))
        if not (cls.is_pure and cls.is_nondegenerate):
            raise ValueError(f"spinor at {point} is not pure nondegenerate: {cls}")
        if cls.type_number != 0:
            raise ValueError(f"spinor at {point} is not of symplectic type: {cls}")
    return psi


# ---------------------------------------------------------------------------
# curvature pipeline


def curvature(conn: GenConnection, psi, validate: bool = True) -> EndFormField:
    """F_A . psi + d^A(V . psi) + (1/2)[V . V] . psi.

    This is the gauge-covariant part of D^2 for D = d + A^ + sum_mu V^mu i_mu:
    on a d-closed psi and a section s, D^2(psi (x) s) = F_A(psi) s +
    psi (x) nabla_V s with nabla = d + A.
    """
    grid = conn.grid
    psi = _as_form_field(grid, psi)
    if validate:
        validate_spinor_field(grid, psi)
    t = blade_tables(grid.n)
    r = conn.rank
    n2 = 2 * grid.n
    out = np.zeros((t.size, *grid.sizes, r, r), dtype=np.complex128)

    # two-form part of the curvature, wedged in
    fmat = conn.field_strength()
    for mu in range(n2):
        for nu in range(mu + 1, n2):
            blade = _wedge_basis(t, mu, _wedge_basis(t, nu, psi.data))
            out += np.einsum("c...,...ij->c...ij", blade, fmat[mu, nu])

    # vector part acting by contraction, then the covariant derivative
    ipsi = [_interior_basis(t, mu, psi.data) for mu in range(n2)]
    vpsi = np.zeros_like(out)
    for mu in range(n2):
        vpsi += np.einsum("c...,...ij->c...ij", ipsi[mu], conn.V[mu])
    out += covariant_d(conn, EndFormField(grid, r, vpsi)).data

    # quadratic vector term: (1/2) sum [V^mu, V^nu] (x) i_mu i_nu
    for mu in range(n2):
        for nu in range(n2):
            if mu == nu:
                continue
            double = _interior_basis(t, mu, ipsi[nu])
            comm = conn.V[mu] @ conn.V[nu] - conn.V[nu] @ conn.V[mu]
            out += 0.5 * np.einsum("c...,...ij->c...ij", double, comm)

    return EndFormField(grid, r, out)


def mean_curvature(conn: GenConnection, psi, validate: bool = True) -> np.ndarray:
    """Hermitian part of the psi-line coefficient of the curvature, (*sizes, r, r)."""
    grid = conn.grid
    psi = _as_form_field(grid, psi)
    f = curvature(conn, psi, validate=validate)
    psibar = psi.conjugate()
    num = mukai_field(f, psibar)  # (*sizes, r, r)
    den = mukai_field(psi, psibar)  # (*sizes)
    k = num / den[..., None, None]
    return (k + np.swapaxes(k, -1, -2).conj()) / 2.0


def eh_residual(conn: GenConnection, psi, lam: float):
    """Pointwise K - lambda*id and its vol-weighted L2 norm."""
    grid = conn.grid
    psi = _as_form_field(grid, psi)
    k = mean_curvature(conn, psi)
    res = k - lam * np.eye(conn.rank)[(None,) * (2 * grid.n)]
    vol = vol_density(grid, psi)
    dens = np.einsum("...ij,...ji->...", res, np.swapaxes(res, -1, -2).conj()).real
    norm = float(np.sqrt(grid.integrate(vol * dens)))
    return res, norm


# ---------------------------------------------------------------------------
# b-field action


def _b_matrix(b, n):
    if isinstance(b, GradedForm):
        b = two_form_matrix(b)
    b = np.asarray(b)
    if np.iscomplexobj(b):
        if np.max(np.abs(b.imag)) > 1e-12 * max(1.0, np.max(np.abs(b))):
            raise ValueError("b-field must be real")
        b = b.real
    b = b.astype(float)
    if b.shape != (2 * n, 2 * n):
        raise ValueError(f"b matrix shape {b.shape}, expected {(2 * n, 2 * n)}")
    if np.max(np.abs(b + b.T)) > 1e-12 * max(1.0, np.max(np.abs(b))):
        raise ValueError("b matrix must be antisymmetric")
    return b


def bfield_act(b, conn: GenConnection) -> GenConnection:
    """Constant-b transform of a connection: A_mu -> A_mu - sum_nu V^nu b_{nu mu}.

    The sign makes D_{b.A} = e^b D_A e^{-b} for D = d + A^ + sum_mu V^mu i_mu:
    conjugating the Clifford action by e^b sends v + xi to v + xi - i_v b.
    The shift moves nabla_V, so the curvature obeys
    F_{b.A}(psi) = e^b F_A(e^{-b} psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) psi;
    the psi-line term is skew-Hermitian and vanishes for commuting V.
    """
    b = _b_matrix(b, conn.grid.n)
    shift = np.einsum("n...,nm->m...", conn.V, b)
    return GenConnection(conn.grid, conn.rank, conn.A - shift, conn.V.copy())


def b_transform_field(b, f):
    """Pointwise e^b wedge on a (form or endomorphism-form) field."""
    grid = f.grid
    t = blade_tables(grid.n)
    bm = _b_matrix(b, grid.n)
    eb = exp_two_form(GradedForm.from_two_form_matrix(bm))
    shape = (t.size,) + (1,) * (f.data.ndim - 1)
    return _like(f, _wedge_data(t, eb.coeffs.reshape(shape), f.data))


# ---------------------------------------------------------------------------
# Mukai pairings of fields


def mukai_field(f1, f2):
    """Pointwise Mukai pairing; endomorphism slots compose by matrix product."""
    t = blade_tables(f1.grid.n)
    idx = (slice(None),) + (None,) * (f2.data.ndim - 1)
    twisted = t.mukai_s[idx] * f2.data[t.mukai_comp]
    e1 = isinstance(f1, EndFormField)
    e2 = isinstance(f2, EndFormField)
    if e1 and e2:
        return np.einsum("c...ij,c...jk->...ik", f1.data, twisted)
    if e1:
        return np.einsum("c...ij,c...->...ij", f1.data, twisted)
    if e2:
        return np.einsum("c...,c...ij->...ij", f1.data, twisted)
    return np.einsum("c...,c...->...", f1.data, twisted)


def mukai_integral(f1, f2):
    return complex(f1.grid.integrate(mukai_field(f1, f2)))


def trace_field(f: EndFormField) -> FormField:
    return FormField(f.grid, np.trace(f.data, axis1=-2, axis2=-1))


# ---------------------------------------------------------------------------
# Chern pairing and the topological lambda


def chern_pair(conn: GenConnection, psi) -> complex:
    grid = conn.grid
    psi = _as_form_field(grid, psi)
    tr_f = trace_field(curvature(conn, psi))
    return complex(grid.integrate(mukai_field(tr_f, psi.conjugate())))


def lambda_from_chern(conn: GenConnection, psi) -> float:
    grid = conn.grid
    psi = _as_form_field(grid, psi)
    total = chern_pair(conn, psi)
    denom = conn.rank * complex(grid.integrate(_pair_density(grid, psi)))
    lam = total / denom
    if abs(lam.imag) > 1e-8 * max(1.0, abs(lam)):
        raise ValueError(f"lambda is not real: {lam}")
    return float(lam.real)


# ---------------------------------------------------------------------------
# moment map and the GM structures


def _variation_act(grid, var, psi_data, rank):
    """Clifford action of a connection variation on a (plain) spinor field."""
    t = blade_tables(grid.n)
    out = np.zeros((t.size, *grid.sizes, rank, rank), dtype=np.complex128)
    for mu in range(2 * grid.n):
        out += np.einsum(
            "c...,...ij->c...ij", _wedge_basis(t, mu, psi_data), var.A[mu]
        )
        out += np.einsum(
            "c...,...ij->c...ij", _interior_basis(t, mu, psi_data), var.V[mu]
        )
    return out


def moment_value(grid: TorusGrid, conn: GenConnection, xi, psi) -> float:
    """Integral of Im i^{-n} tr <xi psi, curvature(psibar)>_s."""
    psi = validate_spinor_field(grid, psi)
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.shape != (*grid.sizes, conn.rank, conn.rank):
        raise ValueError(f"xi shape {xi.shape}")
    if np.max(np.abs(xi + np.swapaxes(xi, -1, -2).conj())) > 1e-12 * max(
        1.0, np.max(np.abs(xi))
    ):
        raise ValueError("xi must be skew-Hermitian")
    fbar = curvature(conn, psi.conjugate(), validate=False)
    xipsi = EndFormField(
        grid, conn.rank, np.einsum("c...,...ij->c...ij", psi.data, xi)
    )
    paired = mukai_field(xipsi, fbar)
    integrand = ((1j ** (-grid.n)) * np.einsum("...ii->...", paired)).imag
    return float(grid.integrate(integrand))


def connection_derivative(conn: GenConnection, xi) -> ConnVariation:
    """Infinitesimal gauge action: (d^A xi, [V, xi])."""
    grid = conn.grid
    xi = np.asarray(xi, dtype=np.complex128)
    n2 = 2 * grid.n
    da = np.empty_like(conn.A)
    dv = np.empty_like(conn.V)
    for mu in range(n2):
        da[mu] = _diff(grid, xi, mu) + conn.A[mu] @ xi - xi @ conn.A[mu]
        dv[mu] = conn.V[mu] @ xi - xi @ conn.V[mu]
    return ConnVariation(da, dv)


def gm_symplectic(grid: TorusGrid, a1: ConnVariation, a2: ConnVariation, psi) -> float:
    """Integral of Im i^{-n} tr <a1 . psi, a2 . psibar>_s."""
    psi = _as_form_field(grid, psi)
    rank = a1.A.shape[-1]
    s1 = EndFormField(grid, rank, _variation_act(grid, a1, psi.data, rank))
    s2 = EndFormField(
        grid, rank, _variation_act(grid, a2, np.conj(psi.data), rank)
    )
    paired = mukai_field(s1, s2)
    integrand = ((1j ** (-grid.n)) * np.einsum("...ii->...", paired)).imag
    return float(grid.integrate(integrand))


def gm_metric(
    grid: TorusGrid, a1: ConnVariation, a2: ConnVariation, pair: GKPair, psi
) -> float:
    """Positive metric -integral tr <G a1, a2> vol on skew-Hermitian variations."""
    psi = _as_form_field(grid, psi)
    m = pair.g_hat().T @ neutral_pairing_matrix(grid.n)
    e1 = np.concatenate([a1.V, a1.A], axis=0)  # (4n, *sizes, r, r)
    e2 = np.concatenate([a2.V, a2.A], axis=0)
    s = np.einsum("jk,j...ab,k...ba->...", m, e1, e2)
    vol = vol_density(grid, psi)
    return float(-grid.integrate(vol * s.real))


# ---------------------------------------------------------------------------
# holomorphicity of the (0,1) part


def dbar_residual(grid: TorusGrid, conn: GenConnection, j: GCStructure, kmax: int = 1) -> float:
    """Max norm of dbar compose dbar over coordinate-exponential test sections.

    dbar is the L-bar projection of the generalized derivative: along each
    antiholomorphic basis direction e = v + eta the operator is
    sum_mu v^mu (D_mu + A_mu) + sum_mu eta_mu V^mu.
    """
    if j.n != grid.n:
        raise ValueError("structure dimension mismatch")
    lbar = j.minus_i_eigenbasis()  # (4n, 2n)
    n2 = 2 * grid.n
    r = conn.rank

    def op(a, s):
        v = lbar[:n2, a]
        eta = lbar[n2:, a]
        out = np.zeros_like(s)
        for mu in range(n2):
            if v[mu] != 0:
                out += v[mu] * (
                    _diff(grid, s, mu)
                    + np.einsum("...ij,...j->...i", conn.A[mu], s)
                )
            if eta[mu] != 0:
                out += eta[mu] * np.einsum("...ij,...j->...i", conn.V[mu], s)
        return out

    x = grid.meshes()
    worst = 0.0
    waves = [np.zeros(n2, dtype=int)]
    for mu in range(n2):
        for k in range(1, kmax + 1):
            wave = np.zeros(n2, dtype=int)
            wave[mu] = k
            waves.append(wave)
    for wave in waves:
        phase = sum(
            2 * np.pi * wave[mu] * x[mu] / grid.periods[mu] for mu in range(n2)
        )
        scalar = np.exp(1j * phase)
        for i in range(r):
            s = np.zeros((*grid.sizes, r), dtype=np.complex128)
            s[..., i] = scalar
            ops = [op(a, s) for a in range(n2)]
            for a in range(n2):
                for b in range(a + 1, n2):
                    res = op(a, ops[b]) - op(b, ops[a])
                    worst = max(worst, float(np.max(np.abs(res))))
    return worst


# ---------------------------------------------------------------------------
# canonical connection of a pure spinor line


def canonical_line_connection(
    grid: TorusGrid, phi: FormField, psi, diagnostics: bool = False
):
    """Abelian connection i(-J eta + (1/2) J d log rho) from d phi = eta . phi.

    eta is the unique real generalized vector field solving the linear system
    pointwise (least squares); rho is the pairing density of phi relative to
    psi.  J is the structure induced by psi, which must be constant.
    """
    n = grid.n
    t = blade_tables(n)
    phi = _as_form_field(grid, phi)
    psi = _as_form_field(grid, psi)
    psi0 = psi.value_at((0,) * (2 * n))
    if np.max(np.abs(psi.data - FormField.constant(grid, psi0).data)) > 1e-12:
        raise ValueError("psi must be a constant field")
    jmat = gcs_from_spinor(psi0).J

    for point in _sample_points(grid):
        cls = classify_spinor(phi.value_at(point))
        if not (cls.is_pure and cls.is_nondegenerate):
            raise ValueError(f"phi at {point} is not pure nondegenerate: {cls}")

    # build the pointwise linear system c(e_k) phi = column k
    rows = _rows(phi.data)  # (N, size)
    npts = rows.shape[0]
    cols = []
    for k in range(4 * n):
        e = np.zeros(4 * n, dtype=np.complex128)
        e[k] = 1.0
        v = np.broadcast_to(e[: 2 * n], (npts, 2 * n))
        xi = np.broadcast_to(e[2 * n :], (npts, 2 * n))
        cols.append(
            _k.clifford_batch(t, np.ascontiguousarray(v), np.ascontiguousarray(xi), rows)
        )
    m = np.stack(cols, axis=-1)  # (N, size, 4n)
    target = _rows(d_field(phi).data)  # (N, size)

    gram = np.einsum("psk,psl->pkl", np.conj(m), m).real
    rhs = np.einsum("psk,ps->pk", np.conj(m), target).real
    eta = np.linalg.solve(gram, rhs[..., None])[..., 0]  # (N, 4n) real
    resid = np.einsum("psk,pk->ps", m, eta.astype(np.complex128)) - target
    worst = float(np.max(np.abs(resid)))
    if worst > 1e-8 * max(1.0, float(np.max(np.abs(target)))):
        raise ValueError(f"d phi is not of the form eta . phi (residual {worst:.3e})")

    ratio = mukai_field(phi, phi.conjugate()) / _pair_density(grid, psi)
    peak = float(np.max(np.abs(ratio)))
    if peak == 0.0 or np.min(np.abs(ratio)) < 1e-10 * peak:
        raise ValueError("pairing density of phi degenerates")
    if np.max(np.abs(ratio.imag)) > 1e-8 * peak:
        raise ValueError("pairing density ratio is not real")
    re = ratio.real
    if np.min(re) < 0 < np.max(re):
        raise ValueError("pairing density ratio changes sign")
    rho = np.abs(re)

    log_rho = np.log(rho)
    dlog = np.zeros((4 * n, *grid.sizes))
    for mu in range(2 * n):
        dlog[2 * n + mu] = _diff(grid, log_rho, mu)

    eta_field = np.moveaxis(eta.reshape(grid.sizes + (4 * n,)), -1, 0)
    comps = 1j * np.einsum(
        "jk,k...->j...", jmat, -eta_field + 0.5 * dlog
    )
    a = comps[2 * n :][..., None, None]
    v = comps[: 2 * n][..., None, None]
    conn = GenConnection(grid, 1, np.ascontiguousarray(a), np.ascontiguousarray(v))
    if diagnostics:
        return conn, {"eta": eta_field, "rho": rho, "lsq_residual": worst}
    return conn
