"""Discrete calculus for generalized connections on flat periodic tori.

Derivatives are second-order central differences of periodic neighbours,
so shift operators commute exactly: d compose d = 0, grid sums of exact
forms vanish, and every identity whose continuum proof only uses
constant-coefficient algebra plus d^2 = 0 holds here to roundoff.  The
base is always a torus with one global chart and a trivialized bundle;
fields are plain arrays with the blade index first, then any (r, r) matrix
axes, then the 2n grid axes.  Grid axes trail, so each matrix entry is a
contiguous block, and a form's (4^n, *sizes) data broadcasts against an
endomorphism's (4^n, r, r, *sizes) by numpy's own rule.

Shapes:
    FormField.data       (4^n, *sizes)
    EndFormField.data    (4^n, r, r, *sizes)
    GenConnection.A/.V   (2n, r, r, *sizes)    skew-Hermitian per point
    ConnVariation.A/.V   (2n, r, r, *sizes)
    endomorphism fields  (r, r, *sizes)        mean curvature, xi
    scalar densities     (*sizes)
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _backend as _k
from ._tables import blade_tables
from .multivector import GradedForm, exp_blades, is_skew, real_two_form_matrix, two_form_blades
from .structures import (
    GCStructure,
    GKPair,
    UDecomposition,
    classify_spinor,
    gcs_from_spinor,
)

__all__ = [
    "ConnVariation",
    "EndFormField",
    "FormField",
    "GenConnection",
    "LambdaNotReal",
    "TorusGrid",
    "b_transform_field",
    "bfield_act",
    "canonical_line_connection",
    "chern_from",
    "connection_derivative",
    "curvature",
    "d_field",
    "dbar_residual",
    "eh_residual_from",
    "exp_two_form_field",
    "gm_metric",
    "gm_symplectic",
    "lambda_from",
    "lie_derivative",
    "mean_curvature_from",
    "moment_value",
    "mukai_field",
    "shift_connection",
    "trace_field",
    "u_window_defect",
    "validate_spinor_field",
    "vol_density",
]

MAX_GRID_N = 2
MIN_GRID_SIZE = 8


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
            if s < MIN_GRID_SIZE or s % 2:
                raise ValueError(f"grid sizes must be even and >= {MIN_GRID_SIZE}, got {s}")
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
        return math.prod(self.sizes)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    def axis_coord(self, mu: int) -> np.ndarray:
        return np.arange(self.sizes[mu]) * self.spacings[mu]

    def meshes(self):
        """Coordinate arrays, each of shape *sizes."""
        axes = [self.axis_coord(mu) for mu in range(2 * self.n)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def phase(self, k) -> np.ndarray:
        """The plane-wave phase 2 pi k . x / P for integer modes k (2n,), shape *sizes."""
        x = np.meshgrid(*map(self.axis_coord, range(2 * self.n)), indexing="ij", sparse=True)
        return sum(2.0 * np.pi * k[mu] * x[mu] / self.periods[mu] for mu in range(len(x)))

    def random_trig(self, rng, amp: float, modes: int, kmax: int) -> np.ndarray:
        """Sum of `modes` plane waves amp * N(0, 1) * cos(phase(k) + s), each
        with k uniform in [-kmax, kmax]^{2n} and s uniform in [0, 2 pi)."""
        out = np.zeros(self.sizes)
        for _ in range(modes):
            k = rng.integers(-kmax, kmax + 1, size=2 * self.n)
            shift = rng.uniform(0.0, 2.0 * np.pi)
            out += amp * rng.standard_normal() * np.cos(self.phase(k) + shift)
        return out

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
    """Endomorphism-valued form field: blade index, then the (r, r) matrix
    axes, then the grid axes."""

    __slots__ = ("grid", "rank", "data")

    def __init__(self, grid: TorusGrid, rank: int, data):
        data = np.asarray(data, dtype=np.complex128)
        want = (4**grid.n, rank, rank, *grid.sizes)
        if data.shape != want:
            raise ValueError(f"end-form field shape {data.shape}, expected {want}")
        self.grid = grid
        self.rank = rank
        self.data = data


def _check_skew(arr, grid, rank, what):
    arr = np.asarray(arr, dtype=np.complex128)
    want = (2 * grid.n, rank, rank, *grid.sizes)
    if arr.shape != want:
        raise ValueError(f"{what} shape {arr.shape}, expected (2n, r, r, *sizes) = {want}")
    adjoint = np.swapaxes(arr, 1, 2).conj()
    if not is_skew(arr, adjoint):
        defect = np.max(np.abs(arr + adjoint))
        raise ValueError(f"{what} is not skew-Hermitian (defect {defect:.3e})")
    return arr


class GenConnection:
    """Generalized connection: 1-form part A and vector part V, both u(r)-valued."""

    __slots__ = ("grid", "rank", "A", "V")

    def __init__(self, grid: TorusGrid, rank: int, A, V):
        self.grid = grid
        self.rank = int(rank)
        self.A = _check_skew(A, grid, self.rank, "A")
        self.V = _check_skew(V, grid, self.rank, "V")

    @classmethod
    def zero(cls, grid: TorusGrid, rank: int) -> "GenConnection":
        shape = (2 * grid.n, rank, rank, *grid.sizes)
        return cls(grid, rank, np.zeros(shape, dtype=np.complex128),
                   np.zeros(shape, dtype=np.complex128))

    def field_strength(self) -> np.ndarray:
        """F[mu, nu] = D_mu A_nu - D_nu A_mu + [A_mu, A_nu], shape (2n, 2n, r, r, *sizes)."""
        n2 = 2 * self.grid.n
        out = np.zeros((n2, n2, self.rank, self.rank, *self.grid.sizes),
                       dtype=np.complex128)
        for mu in range(n2):
            for nu in range(mu + 1, n2):
                f = _strength_pair(self, mu, nu)
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


def _diff(grid: TorusGrid, arr: np.ndarray, mu: int):
    """Central difference along grid axis mu; the 2n grid axes trail.

    (arr[i+1] - arr[i-1]) * (1/2h), periodic: interior slab and wrap faces
    apart.  The scale multiplies the float64 parts, real and imaginary
    alike.  numpy's complex division by 2h + 0j, (a + b*0) * (1/2h), costs
    several times as much and differs only in the sign of a zero part and
    beside a non-finite part.
    """
    out = np.empty(arr.shape, dtype=arr.dtype)  # C order, so its float64 view exists
    axis = mu - 2 * grid.n
    a, o = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    np.subtract(a[1], a[-1], out=o[0])
    np.subtract(a[0], a[-2], out=o[-1])
    parts = out.view(np.float64)
    parts *= 1.0 / (2.0 * grid.spacings[mu])
    return out


def _second_diff(grid: TorusGrid, arr: np.ndarray, mu: int):
    """arr[i+1] + arr[i-1] - 2 arr[i] along grid axis mu, periodic and unscaled.

    arr[i] is subtracted twice, not doubled, so a constant gives exactly 0.
    """
    out = np.empty_like(arr)
    axis = mu - 2 * grid.n
    a, o = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    np.add(a[2:], a[:-2], out=o[1:-1])
    np.add(a[1], a[-1], out=o[0])
    np.add(a[0], a[-2], out=o[-1])
    out -= arr
    out -= arr
    return out


def _small_matmul(x: np.ndarray, y: np.ndarray, ngrid: int) -> np.ndarray:
    """x @ y over the (r, r) axes just before the ngrid trailing grid axes;
    leading axes broadcast.

    numpy's matmul loops over every small matrix; here each of the r^2
    output entries is one contiguous block, the sum of r elementwise
    products of contiguous blocks, so the loop runs r^3 times whatever the
    grid size.  At r = 1 the length-1 matrix axes move to the end by a free
    reshape and matmul is kept, with the bits it gives there: its scalar
    products commute exactly, so rank-1 commutators vanish bit for bit.
    """
    r = x.shape[-ngrid - 1]
    if r == 1:
        return np.matmul(_matrices_last(x, ngrid), _matrices_last(y, ngrid)).reshape(
            np.broadcast_shapes(x.shape, y.shape)
        )
    grid = (slice(None),) * ngrid
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    for i in range(r):
        for k in range(r):
            o = out[(..., i, k) + grid]
            np.multiply(x[(..., i, 0) + grid], y[(..., 0, k) + grid], out=o)
            for j in range(1, r):
                o += x[(..., i, j) + grid] * y[(..., j, k) + grid]
    return out


def _matrices_last(x: np.ndarray, ngrid: int) -> np.ndarray:
    """A (..., 1, 1, *grid) array as (..., *grid, 1, 1): a reshape, no copy."""
    return x.reshape(x.shape[: -ngrid - 2] + x.shape[-ngrid:] + (1, 1))


def _strength_pair(conn, mu, nu):
    """F_{mu nu} = D_mu A_nu - D_nu A_mu + [A_mu, A_nu], (r, r, *sizes): the
    one definition of field_strength's entries, which curvature builds one
    pair at a time."""
    grid, a, n2 = conn.grid, conn.A, 2 * conn.grid.n
    f = _diff(grid, a[nu], mu) - _diff(grid, a[mu], nu)
    f += _small_matmul(a[mu], a[nu], n2)
    f -= _small_matmul(a[nu], a[mu], n2)
    return f


def _pair_rows(t, mu, nu):
    """The wedge-table rows (source, target, sign) of dx^mu ^ dx^nu ^, mu < nu;
    read target to source with negated signs, they are i_mu i_nu."""
    pair = 1 << mu | 1 << nu
    rows = t.wedge_i == pair
    lo = t.wedge_j[rows]
    return lo, lo | pair, t.wedge_s[rows]


def _like(f, data):
    if isinstance(f, EndFormField):
        return EndFormField(f.grid, f.rank, data)
    return FormField(f.grid, data)


# ---------------------------------------------------------------------------
# exterior and Lie derivatives


def d_field(f):
    """Discrete exterior derivative, sum_mu dx^mu ^ D_mu, summed per target
    blade straight into the result (see _d_live)."""
    live = _k._blades_live(f.data).tolist()
    out = _d_live(f.grid, lambda l: f.data[l] if live[l] else None, np.zeros_like(f.data))
    return _like(f, out)


def _d_live(grid, blade, out, a=None):
    """out += sum_mu dx^mu ^ (D_mu u + [a_mu, u]), returned, for the field u
    whose blade l is blade(l), or None where u's blade l is dead (holds no
    nonzero entry); a = None is d alone.

    One target blade h at a time (its rows in t.d_rows): its D_mu terms for
    mu = 0..2n-1, then its commutators for mu = 0..2n-1, are summed into one
    buffer started at +0, and out[h] += buffer.  Each blade gets the bits it
    would get if d^A u were summed as a field of its own and then added
    to out.  A dead blade's rows only add +-0 (see _backend._add_rows) and
    are skipped, as is a target with no other.  _add_rows sums in row order
    instead, so it would need every source blade of u at once.

    blade(l) is called once, at the first target that reads l, and what it
    returns is held until the last (t.d_drop).  Besides out, only the buffer,
    the held blades and one-blade temporaries are alive: at n = 2 a field
    of e^{i omega}'s odd blades, such as V . psi, holds at most 4 of its 8.
    """
    n2 = 2 * grid.n
    t = blade_tables(grid.n)
    held = {}

    def source(l):
        if l not in held:
            held[l] = blade(l)
        return held[l]

    buf = np.empty_like(out[0])
    for h, rows in enumerate(t.d_rows):
        rows = [row for row in rows if source(row[1]) is not None]
        if rows:
            buf.fill(0.0)
            for mu, l, s in rows:
                buf += s * _diff(grid, held[l], mu)
            if a is not None:
                for mu, l, s in rows:
                    comm = _small_matmul(a[mu], held[l], n2)
                    comm -= _small_matmul(held[l], a[mu], n2)
                    buf += s * comm
            out[h] += buf
        for l in t.d_drop[h]:
            del held[l]
    return out


def lie_derivative(grid: TorusGrid, v, f: FormField) -> FormField:
    """Cartan formula i_v d + d i_v for a real vector field v (2n, *sizes)."""
    v = np.asarray(v)
    if v.shape != (2 * grid.n, *grid.sizes):
        raise ValueError(f"vector field shape {v.shape}")
    if np.iscomplexobj(v) and np.max(np.abs(v.imag)) > 1e-14:
        raise ValueError("vector field must be real")
    v = v.real.astype(np.complex128)
    t = blade_tables(grid.n)
    term1 = _k.interior_batch(t, v, d_field(f).data)
    term2 = d_field(FormField(grid, _k.interior_batch(t, v, f.data))).data
    return FormField(grid, term1 + term2)


# ---------------------------------------------------------------------------
# spinor-field validation


def vol_density(grid: TorusGrid, psi: FormField) -> np.ndarray:
    """Positive density i^{-n} <psi, psibar>_s; aborts on a degenerate point."""
    val = (1j ** (-grid.n)) * _pair_psibar(psi, grid.sizes, psi.data.__getitem__)
    peak = float(np.max(np.abs(val)))
    if peak == 0.0:
        raise ValueError("degenerate spinor field: pairing vanishes identically")
    bad = np.abs(val) <= 1e-10 * peak
    if np.any(bad):
        point = tuple(map(int, np.unravel_index(int(np.argmax(bad)), grid.sizes)))
        raise ValueError(f"degenerate spinor at grid point {point}")
    if np.max(np.abs(val.imag)) > 1e-10 * peak or np.min(val.real) <= 0:
        point = tuple(map(int, np.unravel_index(int(np.argmin(val.real)), grid.sizes)))
        raise ValueError(f"spinor volume density not positive at {point}")
    return val.real


def _sample_points(grid: TorusGrid):
    """The 2^{2n} grid points whose coordinates are each 0 or half the size."""
    return list(itertools.product(*[(0, s // 2) for s in grid.sizes]))


def validate_spinor_field(grid: TorusGrid, psi: FormField) -> float:
    """Checks psi is a d-closed, pointwise pure nondegenerate symplectic-type
    spinor, and returns max |d psi|.

    The type is checked at _sample_points, once per distinct value (compared
    by bytes); an error names the first failing point in _sample_points order.
    """
    vol_density(grid, psi)
    scale = float(np.max(np.abs(psi.data)))
    closed_tol = max(1e-10, 10.0 * max(grid.spacings) ** 2) * max(1.0, scale)
    dnorm = float(np.max(np.abs(d_field(psi).data)))
    if dnorm > closed_tol:
        raise ValueError(f"spinor field is not d-closed (|d psi| = {dnorm:.3e})")
    seen = set()  # sample values already classified, keyed by their bytes
    for point in _sample_points(grid):
        value = psi.value_at(point)
        key = value.coeffs.tobytes()
        if key in seen:
            continue
        seen.add(key)
        cls = classify_spinor(value)
        if not (cls.is_pure and cls.is_nondegenerate):
            raise ValueError(f"spinor at {point} is not pure nondegenerate: {cls}")
        if cls.type_number != 0:
            raise ValueError(f"spinor at {point} is not of symplectic type: {cls}")
    return dnorm


# ---------------------------------------------------------------------------
# curvature pipeline


def curvature(conn: GenConnection, psi: FormField) -> EndFormField:
    """F_A . psi + d^A(V . psi) + (1/2)[V . V] . psi.

    psi is taken as it is: it is validated (validate_spinor_field) once,
    where it is built or enters a command, never here.  Numbers are read
    off the result by mean_curvature_from, chern_from, lambda_from and
    eh_residual_from.

    This is the gauge-covariant part of D^2 for D = d + A^ + sum_mu V^mu i_mu:
    on a d-closed psi and a section s, D^2(psi (x) s) = F_A(psi) s +
    psi (x) nabla_V s with nabla = d + A.  The quadratic term
    (1/2) sum_{mu != nu} [V^mu, V^nu] i_mu i_nu is summed over mu < nu
    without the 1/2, one commutator per unordered pair.

    At rank 1 d^A(V . psi) leaves out its [A_mu, .] and the quadratic
    [V^mu, V^nu] term is skipped: _small_matmul is np.matmul there, whose
    scalar products commute exactly, so each commutator is p - p = +0 for
    finite p, and adding +-0 changes no bit of an accumulator started at +0
    (see _backend._add_rows).  field_strength keeps its [A_mu, A_nu]: there
    the commutator enters as (y + p) - p, which is not y bit for bit.

    Every table walk, over wedge-table rows (_pair_rows, and dx^mu's for
    i_mu and dx^mu ^), visits only the rows whose source blade is live: the
    blades where psi holds a nonzero entry (an even form, so at most half;
    4 of 16 for e^{i omega} at n = 2), and for d^A(V . psi) those where
    V . psi does.  A skipped row would add +-0 to an accumulator started at
    +0, so F is bit for bit the all-blade loops' on finite input.

    Only the result is a full-size array: each F_{mu nu} and [V^mu, V^nu]
    is built just before its pair rows and dropped after them, the pair
    rows go through _backend._add_rows, the kernels' walk, one row at a time
    at field sizes, and d^A(V . psi) is summed per target blade into out
    (see _d_live), which builds each blade of V . psi when a target first
    reads it and drops it after the last.  The bits are those of the
    whole-field form: F_A . psi over field_strength's F, plus d^A(V . psi)
    summed as a field of its own, with each blade of V . psi summed from +0
    over i_mu's rows, mu ascending, plus the [V . V] term, each summed in
    table order.
    """
    grid = conn.grid
    t = blade_tables(grid.n)
    r = conn.rank
    n2 = 2 * grid.n
    out = np.zeros((t.size, r, r, *grid.sizes), dtype=np.complex128)
    # psi's blades against (r, r, *sizes) matrices: (1, 1, *sizes) broadcasts
    blades = psi.data[:, None, None]
    live = _k._blades_live(psi.data)

    def walk(rows, coeff):
        """out[h] += (s psi[l]) coeff over the rows (h, l, 0, s) whose psi blade is live."""
        keep = live[rows[1]]
        _k._add_rows(out, blades, [coeff[None]], tuple(a[keep] for a in rows))

    # two-form part of the curvature, wedged in one F_{mu nu} at a time
    for mu in range(n2):
        for nu in range(mu + 1, n2):
            f = _strength_pair(conn, mu, nu)
            lo, hi, s = _pair_rows(t, mu, nu)
            walk((hi, lo, 0 * lo, s), f)

    # vector part acting by contraction, then the covariant derivative
    def vpsi_blade(l):
        """Blade l of V . psi = sum_mu V^mu i_mu psi, or None where it is dead."""
        rows = [(mu, h, s) for mu, h, s in t.i_rows[l] if live[h]]
        if not rows:
            return None
        u = np.zeros_like(out[0])
        for mu, h, s in rows:
            u += (s * blades[h]) * conn.V[mu]
        return u if u.any() else None

    _d_live(grid, vpsi_blade, out, conn.A if r > 1 else None)
    if r == 1:
        return EndFormField(grid, r, out)

    # quadratic vector term: (1/2) sum_{mu != nu} [V^mu, V^nu] (x) i_mu i_nu,
    # taken over mu < nu: the commutator and i_mu i_nu are antisymmetric in
    # (mu, nu), so each unordered pair gives the same term twice; i_mu i_nu
    # walks dx^mu ^ dx^nu's rows target to source with negated signs
    for mu in range(n2):
        for nu in range(mu + 1, n2):
            comm = _small_matmul(conn.V[mu], conn.V[nu], n2)
            comm -= _small_matmul(conn.V[nu], conn.V[mu], n2)
            lo, hi, s = _pair_rows(t, mu, nu)
            walk((lo, hi, 0 * lo, -s), comm)

    return EndFormField(grid, r, out)


def mean_curvature_from(f: EndFormField, psi: FormField) -> np.ndarray:
    """Hermitian part of the psi-line coefficient of the curvature f, (r, r, *sizes)."""
    num = _pair_psibar(psi, f.data.shape[1:], f.data.__getitem__)  # (r, r, *sizes)
    den = _pair_psibar(psi, psi.grid.sizes, psi.data.__getitem__)  # (*sizes)
    k = num / den
    return (k + np.swapaxes(k, 0, 1).conj()) / 2.0


def u_window_defect(f: EndFormField, b: np.ndarray, js: GCStructure) -> float:
    """Largest |P_k g| / max|g| over the U^k pieces of e^{i omega}, k not in
    {-n, -n + 2}, for the curvature f on psi = e^b e^{i omega} and g = e^{-b} ^ f;
    b is (2n, 2n) or varying (2n, 2n, *sizes).  e^{b(x)} ^ carries each U^k of
    e^{i omega} onto psi(x)'s, so one decomposition checks every grid point.
    The U^k are those of js, the structure whose spinor line is e^{i omega}
    (gcs_symplectic(omega), exact); its projectors are read off J's entries, so
    for the standard omega they are exactly sparse (48 nonzero entries in
    the outside rows at n = 2).  Each row of P_k g is multiply-added over
    P_k's nonzero entries on g's (blades, r^2 * points) view, one row at a
    time: no BLAS on full-grid arrays.
    """
    n = f.grid.n
    g = b_transform_field(-b, f).data if np.any(b) else f.data  # at b = 0, f's own array
    cols = g.reshape(4**n, -1)  # (blades, r^2 * points)
    dec = UDecomposition(js)
    proj = np.concatenate([dec.projector(k) for k in range(-n, n + 1) if k not in (-n, -n + 2)])
    worst = 0.0
    for p in proj[np.any(proj, axis=1)]:  # every row of every P_k that is not all zero
        nz = np.flatnonzero(p)
        row = p[nz[0]] * cols[nz[0]]
        for j in nz[1:]:
            row += p[j] * cols[j]
        worst = max(worst, float(np.max(np.abs(row))))
    peak = float(np.max([np.max(np.abs(c)) for c in cols]))  # no |g| array
    return worst / (peak + 1e-30)


def eh_residual_from(k: np.ndarray, psi: FormField, lam: float):
    """Pointwise K - lambda*id of a mean curvature k, and its vol-weighted L2 norm."""
    grid = psi.grid
    res = k - lam * np.eye(k.shape[0]).reshape(k.shape[:2] + (1,) * (2 * grid.n))
    vol = vol_density(grid, psi)
    dens = np.einsum("ij...,ji...->...", res, np.swapaxes(res, 0, 1).conj()).real
    norm = float(np.sqrt(grid.integrate(vol * dens)))
    return res, norm


# ---------------------------------------------------------------------------
# b-field action


def bfield_act(b, conn: GenConnection) -> GenConnection:
    """Constant-b transform of a connection: A_mu -> A_mu - sum_nu V^nu b_{nu mu}.

    The sign makes D_{b.A} = e^b D_A e^{-b} for D = d + A^ + sum_mu V^mu i_mu:
    conjugating the Clifford action by e^b sends v + xi to v + xi - i_v b.
    The shift moves nabla_V, so the curvature obeys
    F_{b.A}(psi) = e^b F_A(e^{-b} psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) psi;
    the psi-line term is skew-Hermitian and vanishes for commuting V.
    """
    b = real_two_form_matrix(b, conn.grid.n, "b matrix")
    shift = np.einsum("n...,nm->m...", conn.V, b)
    return GenConnection(conn.grid, conn.rank, conn.A - shift, conn.V.copy())


def exp_two_form_field(grid: TorusGrid, b) -> FormField:
    """e^b for a complex two-form b[mu, nu], constant (2n, 2n) or varying
    (2n, 2n, *sizes): at each point the bits of exp_two_form(b(x))."""
    coeffs = exp_blades(blade_tables(grid.n), two_form_blades(b))
    if coeffs.ndim == 1:
        return FormField.constant(grid, GradedForm(grid.n, coeffs))
    return FormField(grid, coeffs)


def b_transform_field(b, f):
    """Pointwise e^b ^ on a (form or endomorphism-form) field for a real
    two-form b, constant (2n, 2n), checked here, or varying (2n, 2n, *sizes),
    as specio checked it; e^b is applied by the table walk that builds it."""
    t = blade_tables(f.grid.n)
    b = np.asarray(b)
    if b.ndim == 2:
        b = real_two_form_matrix(b, f.grid.n, "b matrix")
    return _like(f, _k.wedge_batch(t, exp_blades(t, two_form_blades(b)), f.data))


# ---------------------------------------------------------------------------
# Mukai pairings of fields


def mukai_field(f1, f2):
    """Pointwise Mukai pairing; endomorphism slots compose by matrix product."""
    t = blade_tables(f1.grid.n)
    # mukai_comp[c] = top ^ c is the reversal, so f2's partner blades are a
    # view and the signs enter the contraction as a third operand
    rev = f2.data[::-1]
    e1 = isinstance(f1, EndFormField)
    e2 = isinstance(f2, EndFormField)
    if e1 and e2:
        return np.einsum("cij...,c,cjk...->ik...", f1.data, t.mukai_s, rev)
    if e1:
        return np.einsum("cij...,c,c...->ij...", f1.data, t.mukai_s, rev)
    if e2:
        return np.einsum("c...,c,cij...->ij...", f1.data, t.mukai_s, rev)
    return _k.mukai_batch(t, f1.data, f2.data)


def trace_field(f: EndFormField) -> FormField:
    return FormField(f.grid, np.trace(f.data, axis1=1, axis2=2))


def _pair_psibar(psi: FormField, shape, blade) -> np.ndarray:
    """<f, psibar>_s, of the given shape, for the field f whose blade c is
    blade(c): mukai_field(f, psi.conjugate()) bit for bit on finite input,
    with no conjugate field built.

    Only the blades c whose partner top - c is live in psi are read (4 of
    16 for e^{i omega} at n = 2); the others add +-0, which moves no bit of
    a sum started at +0 (see _backend._add_rows).  Each partner is
    conjugated on its own, and each term is einsum's product, as in
    mukai_field's contraction, (f[c] s_c) conj(psi[top - c]), added in
    blade order.
    """
    t = blade_tables(psi.grid.n)
    top = t.size - 1
    live = _k._blades_live(psi.data)
    out = np.zeros(shape, dtype=np.complex128)
    for c in range(t.size):
        if live[top - c]:
            out += np.einsum("...,,...->...", blade(c), t.mukai_s[c], np.conj(psi.data[top - c]))
    return out


# ---------------------------------------------------------------------------
# Chern pairing and the topological lambda


def chern_from(f: EndFormField, psi: FormField) -> complex:
    """Integral of <tr f, psibar>_s for the curvature f on psi, tr f taken
    one blade at a time."""
    grid = f.grid
    return complex(grid.integrate(_pair_psibar(psi, grid.sizes, lambda c: np.trace(f.data[c]))))


class LambdaNotReal(ValueError):
    """The chern pair over the total pairing is not real.

    On a valid spinor this only comes from roundoff of a huge curvature, so
    the connection is at fault; the CLI names its document keys.
    """


def lambda_from(chern: complex, psi: FormField, rank: int) -> float:
    """The topological lambda: the chern pair over rank times the total pairing."""
    grid = psi.grid
    denom = rank * complex(grid.integrate(_pair_psibar(psi, grid.sizes, psi.data.__getitem__)))
    lam = chern / denom
    if abs(lam.imag) > 1e-8 * max(1.0, abs(lam)):
        raise LambdaNotReal(f"lambda is not real: {lam}")
    return float(lam.real)


# ---------------------------------------------------------------------------
# moment map and the GM structures


def moment_value(grid: TorusGrid, conn: GenConnection, xi, psi: FormField) -> float:
    """Integral of Im i^{-n} tr <xi psi, curvature(psibar)>_s.

    The pairing is summed as sum_c s_c psi[c] tr(xi Fbar[top - c]) over
    psi's live blades c, so xi psi is never built.  As for curvature, psi
    is taken as it is; the caller validates it.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.shape != (conn.rank, conn.rank, *grid.sizes):
        raise ValueError(f"xi shape {xi.shape}")
    if not is_skew(xi, np.swapaxes(xi, 0, 1).conj()):
        raise ValueError("xi must be skew-Hermitian")
    fbar = curvature(conn, psi.conjugate()).data
    t = blade_tables(grid.n)
    top = t.size - 1
    paired = np.zeros(grid.sizes, dtype=np.complex128)
    for c in np.flatnonzero(_k._blades_live(psi.data)).tolist():
        paired += (t.mukai_s[c] * psi.data[c]) * np.einsum("ij...,ji...->...", xi, fbar[top - c])
    return float(grid.integrate(((1j ** (-grid.n)) * paired).imag))


def connection_derivative(conn: GenConnection, xi) -> ConnVariation:
    """Infinitesimal gauge action: (d^A xi, [V, xi])."""
    grid = conn.grid
    xi = np.asarray(xi, dtype=np.complex128)
    n2 = 2 * grid.n
    da = np.empty_like(conn.A)
    dv = np.empty_like(conn.V)
    for mu in range(n2):
        amu, vmu = conn.A[mu], conn.V[mu]
        da[mu] = _diff(grid, xi, mu) + _small_matmul(amu, xi, n2) - _small_matmul(xi, amu, n2)
        dv[mu] = _small_matmul(vmu, xi, n2) - _small_matmul(xi, vmu, n2)
    return ConnVariation(da, dv)


def gm_symplectic(
    grid: TorusGrid, a1: ConnVariation, a2: ConnVariation, psi: FormField
) -> float:
    """Integral of Im i^{-n} tr <a1 . psi, a2 . psibar>_s."""
    t = blade_tables(grid.n)
    rank = a1.A.shape[1]
    s1 = _k.clifford_batch(t, a1.V, a1.A, psi.data[:, None, None])
    s2 = _k.clifford_batch(t, a2.V, a2.A, np.conj(psi.data)[:, None, None])
    paired = mukai_field(EndFormField(grid, rank, s1), EndFormField(grid, rank, s2))
    return float(grid.integrate(((1j ** (-grid.n)) * np.einsum("ii...->...", paired)).imag))


def gm_metric(
    grid: TorusGrid, a1: ConnVariation, a2: ConnVariation, pair: GKPair, psi: FormField
) -> float:
    """Positive metric -integral tr <G a1, a2> vol on skew-Hermitian variations."""
    m = pair.metric_matrix()
    e1 = np.concatenate([a1.V, a1.A], axis=0)  # (4n, r, r, *sizes)
    e2 = np.concatenate([a2.V, a2.A], axis=0)
    s = np.einsum("jk,jab...,kba...->...", m, e1, e2)
    vol = vol_density(grid, psi)
    return float(-grid.integrate(vol * s.real))


# ---------------------------------------------------------------------------
# holomorphicity of the (0,1) part


def dbar_residual(grid: TorusGrid, conn: GenConnection, j: GCStructure) -> float:
    """Max norm of dbar compose dbar over test sections exp(i phase(k)) e_i, k = 0 or e_mu.

    dbar is the L-bar projection of the generalized derivative: along each
    antiholomorphic basis direction a, with e_a = v_a + eta_a, the operator
    is sum_mu v_a^mu D_mu + m_a, with m_a = sum_mu v_a^mu A_mu +
    sum_mu eta_a,mu V^mu and D_mu the periodic central difference.  The
    differences commute, so the second-order terms of dbar_a dbar_b -
    dbar_b dbar_a cancel and what is left is the zeroth-order field

        [m_a, m_b] + sum_mu [D_mu, w_mu],   w_mu = v_a^mu m_b - v_b^mu m_a.

    On the wave exp(i phase(k)), with theta_mu = 2 pi k_mu h_mu / P_mu,
    [D_mu, w] acts as multiplication by cos(theta_mu) D_mu w +
    (i sin(theta_mu) / 2 h_mu) (w(x + h_mu) - 2 w + w(x - h_mu)).  So the
    commutator sends the r sections of wave k to the columns of
    exp(i phase(k)) M_ab(k), and as |exp(i phase(k))| = 1 the max over the
    sections of that wave is max|M_ab(k)|.  M_ab(0) has D_mu w_mu in every
    term; M_ab(e_nu) replaces the nu term only, so a wave along an axis
    where v_a and v_b both vanish gives M_ab(0) again.  Each w_mu is built,
    differenced and dropped inside its pair.
    """
    if j.n != grid.n:
        raise ValueError("structure dimension mismatch")
    lbar = j.minus_i_eigenbasis()  # (4n, 2n)
    n2 = 2 * grid.n
    r = conn.rank
    zeroth = []
    for a in range(n2):
        m = np.zeros((r, r, *grid.sizes), dtype=np.complex128)
        for mu in range(n2):
            if lbar[mu, a] != 0:
                m += lbar[mu, a] * conn.A[mu]
            if lbar[n2 + mu, a] != 0:
                m += lbar[n2 + mu, a] * conn.V[mu]
        zeroth.append(m)

    worst = 0.0
    for a in range(n2):
        for b in range(a + 1, n2):
            m_ab = _small_matmul(zeroth[a], zeroth[b], n2)
            m_ab -= _small_matmul(zeroth[b], zeroth[a], n2)
            waves = []  # M_ab(e_mu) - M_ab(0) for each axis dbar_a or dbar_b moves along
            for mu in range(n2):
                va, vb = lbar[mu, a], lbar[mu, b]
                if va == 0 and vb == 0:
                    continue
                if vb == 0:
                    w = va * zeroth[b]
                elif va == 0:
                    w = -vb * zeroth[a]
                else:
                    w = va * zeroth[b] - vb * zeroth[a]
                h = grid.spacings[mu]
                theta = 2.0 * np.pi * h / grid.periods[mu]
                dw = _diff(grid, w, mu)
                m_ab += dw
                dw *= np.cos(theta) - 1.0
                wave = _second_diff(grid, w, mu)
                wave *= 1j * np.sin(theta) / (2.0 * h)
                wave += dw
                waves.append(wave)
                del w, dw
            worst = max(worst, float(np.max(np.abs(m_ab))))
            for wave in waves:
                wave += m_ab
                worst = max(worst, float(np.max(np.abs(wave))))
    return worst


# ---------------------------------------------------------------------------
# canonical connection of a pure spinor line


def canonical_line_connection(
    grid: TorusGrid, phi: FormField, psi: FormField, diagnostics: bool = False
):
    """Abelian connection i(-J eta + (1/2) J d log rho) from d phi = eta . phi.

    eta is the unique real generalized vector field solving the linear system
    pointwise (least squares); rho is the pairing density of phi relative to
    psi.  J is the structure induced by psi, which must be constant.
    """
    n = grid.n
    t = blade_tables(n)
    psi0 = psi.value_at((0,) * (2 * n))
    if np.max(np.abs(psi.data - FormField.constant(grid, psi0).data)) > 1e-12:
        raise ValueError("psi must be a constant field")
    jmat = gcs_from_spinor(psi0).J

    for point in _sample_points(grid):
        cls = classify_spinor(phi.value_at(point))
        if not (cls.is_pure and cls.is_nondegenerate):
            raise ValueError(f"phi at {point} is not pure nondegenerate: {cls}")

    # build the pointwise linear system c(e_k) phi = column k: the basis
    # vector e_k acts along a last batch axis k
    basis = np.eye(4 * n, dtype=np.complex128)
    m = _k.clifford_batch(t, basis[: 2 * n], basis[2 * n :], phi.data[..., None])
    target = d_field(phi).data  # (size, *sizes)

    gram = np.einsum("s...k,s...l->...kl", np.conj(m), m).real
    rhs = np.einsum("s...k,s...->...k", np.conj(m), target).real
    eta = np.linalg.solve(gram, rhs[..., None])[..., 0]  # (*sizes, 4n) real
    resid = np.einsum("s...k,...k->s...", m, eta.astype(np.complex128)) - target
    worst = float(np.max(np.abs(resid)))
    if worst > 1e-8 * max(1.0, float(np.max(np.abs(target)))):
        raise ValueError(f"d phi is not of the form eta . phi (residual {worst:.3e})")

    ratio = _pair_psibar(phi, grid.sizes, phi.data.__getitem__) / _pair_psibar(
        psi, grid.sizes, psi.data.__getitem__
    )
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

    eta_field = np.moveaxis(eta, -1, 0)
    comps = 1j * np.einsum(
        "jk,k...->j...", jmat, -eta_field + 0.5 * dlog
    )
    a = comps[2 * n :, None, None]
    v = comps[: 2 * n, None, None]
    conn = GenConnection(grid, 1, np.ascontiguousarray(a), np.ascontiguousarray(v))
    if diagnostics:
        return conn, {"eta": eta_field, "rho": rho, "lsq_residual": worst}
    return conn
