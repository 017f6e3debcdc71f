"""Symbol complex of the deformation operator and abelian solvers.

Three layers on top of the field calculus: the principal-symbol complex of
the deformation operator of a generalized Kahler pair (assembled as explicit
real matrices and checked for exactness by SVD ranks), specialization
residuals that reduce the mean curvature to classical data (co-Higgs
bundles, soliton profiles on line bundles), and a matrix-free
conjugate-direction solver for the rank-one Einstein-Hermitian equation.
"""

from dataclasses import dataclass

import numpy as np

from . import constants
from ._tables import blade_tables
from .fields import (
    FormField,
    GenConnection,
    dbar_residual,
    eh_residual,
    lambda_from_chern,
    lie_derivative,
    mean_curvature,
    validate_spinor_field,
    vol_density,
)
from .multivector import GenVector, GradedForm, exp_two_form, mukai_pair, two_form_matrix, wedge
from .structures import GCStructure, clifford_matrix, gcs_complex, gk_validate, spinor_line

__all__ = [
    "SymbolReport",
    "FlowTrace",
    "symbol_exactness",
    "cohiggs_residual",
    "kr_soliton_check",
    "solve_eh_line",
]

_J_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])
_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
_RANK_TOL = 1e-8
_DENSE_POINT_CAP = 1024


@dataclass(frozen=True)
class SymbolReport:
    """Symbol-complex data at one cotangent direction (plus repeat trials)."""

    theta: GenVector
    dims: tuple
    ranks: tuple
    exact: tuple


@dataclass(frozen=True)
class FlowTrace:
    """Iteration record of the conjugate-direction solver."""

    iterations: int
    residual_history: np.ndarray
    step_size: float
    converged: bool


# ---------------------------------------------------------------------------
# symbol complex


def _skew_basis(r):
    """Real basis of the skew-Hermitian r x r matrices: i E_jj first, then
    E_jk - E_kj and i(E_jk + E_kj) for each j < k."""
    out = []
    for j in range(r):
        m = np.zeros((r, r), dtype=np.complex128)
        m[j, j] = 1j
        out.append(m)
    for j in range(r):
        for k in range(j + 1, r):
            m = np.zeros((r, r), dtype=np.complex128)
            m[j, k] = 1.0
            m[k, j] = -1.0
            out.append(m)
            m = np.zeros((r, r), dtype=np.complex128)
            m[j, k] = 1j
            m[k, j] = 1j
            out.append(m)
    return out


def _theta_covector(theta, n):
    """Normalize theta to real (4n,) components with vanishing vector part."""
    if isinstance(theta, GenVector):
        arr = theta.as_array()
    else:
        arr = np.asarray(theta)
        if arr.shape == (2 * n,):
            arr = np.concatenate([np.zeros(2 * n), arr])
    if arr.shape != (4 * n,):
        raise ValueError(f"theta needs {2 * n} covector or {4 * n} full components")
    arr = np.asarray(arr, dtype=np.complex128)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise ValueError("theta must be nonzero")
    if np.max(np.abs(arr.imag)) > 1e-12 * scale:
        raise ValueError("theta must be real")
    arr = arr.real
    if np.max(np.abs(arr[: 2 * n])) > 1e-12 * scale:
        raise ValueError("theta must be a cotangent direction (vector part present)")
    return arr.astype(float)


def _symbol_matrices(n, r, j1, j2, theta):
    """Real matrices of the symbol complex at the covector theta.

    Layout: B^0 is the skew basis; B^1 stacks one skew block per generalized
    direction (column k*r^2 + m); B^2 puts the Hermitian coordinates first,
    then the realified endomorphism-valued two-letter coefficients in the
    antiholomorphic basis of j1 (real parts, then imaginary parts, letter
    sets in bitmask order); higher pieces continue the realified pattern.
    """
    t = blade_tables(n)
    basis = _skew_basis(r)
    rr = r * r
    psi = spinor_line(j2)
    psibar = psi.conjugate()
    den = mukai_pair(psi, psibar)
    kb = j1.minus_i_eigenbasis()
    coords = kb.conj().T @ ((np.eye(4 * n) + 1j * j1.J) / 2.0)  # (2n, 4n)
    degsel = [np.where(t.deg == j)[0] for j in range(2 * n + 1)]

    def deg1(cvec):
        co = np.zeros(t.size, dtype=np.complex128)
        for a in range(2 * n):
            co[1 << a] = cvec[a]
        return GradedForm(n, co)

    thf = deg1(coords @ theta)

    def wedge_rows(j, form):
        return wedge(thf, form).coeffs[degsel[j + 1]]

    # line coefficients of theta . e_k . psi, one per generalized direction
    mth = clifford_matrix(theta, n)
    cline = np.empty(4 * n, dtype=np.complex128)
    wvecs = np.empty((4 * n, degsel[2].size), dtype=np.complex128)
    for k in range(4 * n):
        e = np.zeros(4 * n)
        e[k] = 1.0
        acted = mth @ (clifford_matrix(e, n) @ psi.coeffs)
        cline[k] = mukai_pair(GradedForm(n, acted), psibar) / den
        wvecs[k] = wedge_rows(1, deg1(coords[:, k]))

    c2 = degsel[2].size
    m0 = np.zeros((4 * n * rr, rr))
    m1 = np.zeros((rr + 2 * c2 * rr, 4 * n * rr))
    for k in range(4 * n):
        m0[k * rr : (k + 1) * rr] = theta[k] * np.eye(rr)
        for m in range(rr):
            col = k * rr + m
            m1[m, col] = cline[k].imag
            y = np.einsum("i,ab->iab", wvecs[k], basis[m]).ravel()
            m1[rr : rr + c2 * rr, col] = y.real
            m1[rr + c2 * rr :, col] = y.imag

    def realified(j):
        src = degsel[j]
        wc = np.zeros((degsel[j + 1].size, src.size), dtype=np.complex128)
        for col, idx in enumerate(src):
            e = np.zeros(t.size, dtype=np.complex128)
            e[idx] = 1.0
            wc[:, col] = wedge_rows(j, GradedForm(n, e))
        re = np.kron(wc.real, np.eye(rr))
        im = np.kron(wc.imag, np.eye(rr))
        return np.block([[re, -im], [im, re]])

    dims = [rr, 4 * n * rr, rr + 2 * c2 * rr]
    mats = [m0, m1]
    if n > 1:
        w2 = realified(2)
        m2 = np.zeros((w2.shape[0], rr + w2.shape[1]))
        m2[:, rr:] = w2
        dims.append(w2.shape[0])
        mats.append(m2)
        for j in range(3, 2 * n):
            mj = realified(j)
            dims.append(mj.shape[0])
            mats.append(mj)
    return dims, mats


def _rank_of(m):
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_TOL * s[0]))


def _complex_report(n, r, j1, j2, theta):
    dims, mats = _symbol_matrices(n, r, j1, j2, theta)
    if sum((-1) ** i * d for i, d in enumerate(dims)) != 0:
        raise RuntimeError(f"symbol complex dimensions do not alternate to zero: {dims}")
    for m_in, m_out in zip(mats, mats[1:]):
        scale = max(1.0, float(np.abs(m_in).max() * np.abs(m_out).max()))
        defect = float(np.abs(m_out @ m_in).max())
        if defect > 1e-10 * scale:
            raise RuntimeError(
                f"consecutive symbol maps fail to compose to zero (defect {defect:.3e})"
            )
    ranks = [_rank_of(m) for m in mats]
    exact = []
    for j, d in enumerate(dims):
        incoming = ranks[j - 1] if j > 0 else 0
        outgoing = ranks[j] if j < len(mats) else 0
        exact.append(incoming + outgoing == d)
    return tuple(dims), tuple(ranks), tuple(exact)


def symbol_exactness(n, r, j1, j2, theta, trials=100, seed=0):
    """Assemble the symbol complex at theta and test exactness by SVD ranks.

    Repeats the rank check for `trials` extra random cotangent directions;
    the reported dims and ranks belong to the given theta, while `exact`
    holds only if every junction passed for every direction tried.
    """
    n = int(n)
    r = int(r)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if j1.n != n or j2.n != n:
        raise ValueError(f"structure dimension mismatch: n={n}, got {j1.n} and {j2.n}")
    report = gk_validate(j1, j2)
    if not report["valid"]:
        raise ValueError(f"not a generalized Kahler pair: {report}")
    th = _theta_covector(theta, n)

    rng = np.random.default_rng(seed)
    thetas = [th]
    for _ in range(int(trials)):
        comps = rng.standard_normal(2 * n)
        while np.abs(comps).max() < 1e-3:
            comps = rng.standard_normal(2 * n)
        thetas.append(np.concatenate([np.zeros(2 * n), comps]))

    results = [_complex_report(n, r, j1, j2, tv) for tv in thetas]

    dims, ranks, _ = results[0]
    exact = tuple(
        all(res[2][j] for res in results) for j in range(len(dims))
    )
    return SymbolReport(
        theta=GenVector(th[: 2 * n], th[2 * n :]), dims=dims, ranks=ranks, exact=exact
    )


# ---------------------------------------------------------------------------
# co-Higgs specialization


def _positive_blocks(omega, n):
    """Validate omega = sum_i c_i dx^{2i} ^ dx^{2i+1}, c_i > 0; return (c, matrix)."""
    if isinstance(omega, GradedForm):
        omega = two_form_matrix(omega)
    om = np.asarray(omega)
    if np.iscomplexobj(om):
        if np.max(np.abs(om.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(om)))):
            raise ValueError("omega must be real")
        om = om.real
    om = om.astype(float)
    if om.shape != (2 * n, 2 * n):
        raise ValueError(f"omega matrix shape {om.shape}, expected {(2 * n, 2 * n)}")
    scale = max(1.0, float(np.max(np.abs(om))))
    if np.max(np.abs(om + om.T)) > 1e-12 * scale:
        raise ValueError("omega must be antisymmetric")
    c = np.array([om[2 * i, 2 * i + 1] for i in range(n)])
    model = np.kron(np.diag(c), _OMEGA_BLOCK)
    if np.max(np.abs(om - model)) > 1e-12 * scale:
        raise ValueError("omega must pair coordinates (2i, 2i+1) blockwise")
    if np.any(c <= 0.0):
        raise ValueError("omega block weights must be positive")
    return c, om


def cohiggs_residual(conn, omega, lam, dbar_tol=1e-6):
    """Einstein-Hermitian residual of a co-Higgs pair in the unitary frame.

    The vector part must define a holomorphic Higgs field for the standard
    complex structure paired with omega (checked through dbar_residual); the
    residual is then the frozen combination of the contracted curvature and
    the frame bracket, minus lam.  Returns (pointwise residual, weighted
    L2 norm for the spinor e^{i omega}).
    """
    grid = conn.grid
    n = grid.n
    weights, om = _positive_blocks(omega, n)
    jref = gcs_complex(np.kron(np.eye(n), _J_BLOCK))
    defect = dbar_residual(grid, conn, jref)
    if defect > dbar_tol:
        raise ValueError(f"connection is not co-Higgs (dbar defect {defect:.3e})")
    f = conn.field_strength()
    contracted = 0.5 * np.einsum("mn...ij,nm->...ij", f, np.linalg.inv(om))
    total = constants.COHIGGS_F_SIGN * 1j * contracted
    for i in range(n):
        w = np.sqrt(weights[i] / 2.0) * (conn.V[2 * i] - 1j * conn.V[2 * i + 1])
        wh = np.swapaxes(w, -1, -2).conj()
        total = total + w @ wh - wh @ w
    k = constants.COHIGGS_SCALE * total
    k = (k + np.swapaxes(k, -1, -2).conj()) / 2.0
    res = k - lam * np.eye(conn.rank)[(None,) * (2 * n)]
    psi = FormField.constant(grid, exp_two_form(GradedForm.from_two_form_matrix(1j * om)))
    vol = vol_density(grid, psi)
    dens = np.einsum("...ij,...ji->...", res, np.swapaxes(res, -1, -2).conj()).real
    return res, float(np.sqrt(grid.integrate(vol * dens)))


# ---------------------------------------------------------------------------
# soliton distance on line bundles


def kr_soliton_check(conn, omega, c, diagnostics=False):
    """L2 distance of F_A + c i L_v omega from i omega on a line bundle.

    v is the (real) vector part of the connection.  With diagnostics=True
    also returns the induced line-equation data for the spinor
    e^{(c + i) omega}: the chern-normalized lambda, the Einstein-Hermitian
    residual, and the (non-gating) holomorphy defect of the vector part.
    """
    grid = conn.grid
    n = grid.n
    if conn.rank != 1:
        raise ValueError(f"soliton check needs a rank-1 connection, got rank {conn.rank}")
    _, om = _positive_blocks(omega, n)
    t = blade_tables(n)
    om_field = FormField.constant(
        grid, GradedForm.from_two_form_matrix(om.astype(np.complex128))
    )
    lv = lie_derivative(grid, conn.V[..., 0, 0].imag, om_field).data
    f = conn.field_strength()[..., 0, 0]
    res = np.zeros((t.size, *grid.sizes), dtype=np.complex128)
    for mu in range(2 * n):
        for nu in range(mu + 1, 2 * n):
            res[(1 << mu) | (1 << nu)] = f[mu, nu]
    res += c * 1j * lv - 1j * om_field.data
    val = float(np.sqrt(grid.integrate(np.sum(np.abs(res) ** 2, axis=0))))
    if not diagnostics:
        return val
    psi = FormField.constant(
        grid, exp_two_form(GradedForm.from_two_form_matrix((c + 1j) * om))
    )
    lam = lambda_from_chern(conn, psi)
    _, eh_norm = eh_residual(conn, psi, lam)
    jref = gcs_complex(np.kron(np.eye(n), _J_BLOCK))
    return val, {
        "dbar_residual": dbar_residual(grid, conn, jref),
        "eh_residual": eh_norm,
        "lambda": lam,
    }


# ---------------------------------------------------------------------------
# conjugate-direction solver for the abelian line equation


def solve_eh_line(init, psi, max_iter=10000, tol=1e-8, lam=None):
    """Drive the rank-one Einstein-Hermitian residual to zero.

    For rank one the residual is exactly affine in the 4n real component
    fields of (A, V), so the normal equations are solved matrix-free by
    conjugate directions on the volume-weighted least-squares system.  The
    linear map is assembled numerically from directional probes: impulse
    responses propagated by translation when the spinor field is constant,
    one probe per unknown otherwise.  lam defaults to the chern-normalized
    value (any other target is unreachable).  Returns the updated connection
    and a FlowTrace; raises if the rank is not one or the step size
    collapses below 1e-12 before the tolerance is met.
    """
    grid = init.grid
    if init.rank != 1:
        raise ValueError(f"solver handles rank-1 connections only, got rank {init.rank}")
    psi = validate_spinor_field(grid, psi)
    n2 = 2 * grid.n
    nd = 2 * n2
    lam = lambda_from_chern(init, psi) if lam is None else float(lam)
    weight = np.sqrt(vol_density(grid, psi) * grid.cell_volume)

    def kfield(conn):
        return mean_curvature(conn, psi, validate=False)[..., 0, 0].real

    def shifted(conn, u):
        return GenConnection(
            grid,
            1,
            conn.A + 1j * u[:n2][..., None, None],
            conn.V + 1j * u[n2:][..., None, None],
        )

    base = GenConnection.zero(grid, 1)
    kbase = kfield(base)
    origin = (slice(None),) + (0,) * n2
    flat = float(np.max(np.abs(psi.data - psi.data[origin].reshape((-1,) + (1,) * n2))))
    if flat <= 1e-12 * float(np.max(np.abs(psi.data))):
        # constant spinor: the residual map commutes with translations, so
        # impulse responses at the origin generate it as a convolution
        resp = np.empty((nd, *grid.sizes))
        for s in range(nd):
            u = np.zeros((nd, *grid.sizes))
            u[(s,) + (0,) * n2] = 1.0
            resp[s] = weight * (kfield(shifted(base, u)) - kbase)
        axes = tuple(range(1, n2 + 1))
        rhat = np.fft.rfftn(resp, axes=axes)

        out_axes = tuple(range(n2))

        def forward(u):
            uh = np.fft.rfftn(u, axes=axes)
            return np.fft.irfftn(np.sum(uh * rhat, axis=0), s=grid.sizes, axes=out_axes)

        def adjoint(y):
            yh = np.fft.rfftn(y, axes=out_axes)
            return np.fft.irfftn(yh[None] * np.conj(rhat), s=grid.sizes, axes=axes)

    else:
        if grid.npoints > _DENSE_POINT_CAP:
            raise ValueError(
                f"varying spinor fields need one probe per unknown; supported up "
                f"to {_DENSE_POINT_CAP} grid points, got {grid.npoints}"
            )
        cols = np.empty((grid.npoints, nd * grid.npoints))
        col = 0
        for s in range(nd):
            for p in range(grid.npoints):
                u = np.zeros((nd, grid.npoints))
                u[s, p] = 1.0
                u = u.reshape((nd, *grid.sizes))
                cols[:, col] = (weight * (kfield(shifted(base, u)) - kbase)).ravel()
                col += 1

        def forward(u):
            return (cols @ u.ravel()).reshape(grid.sizes)

        def adjoint(y):
            return (cols.T @ y.ravel()).reshape((nd, *grid.sizes))

    rhs = -(weight * (kfield(init) - lam))
    hist = [float(np.sqrt(np.sum(rhs * rhs)))]
    if hist[0] <= tol:
        return init, FlowTrace(0, np.array(hist), 0.0, True)

    x = np.zeros((nd, *grid.sizes))
    resid = rhs.copy()
    s = adjoint(resid)
    p = s.copy()
    gamma = float(np.sum(s * s))
    alpha = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, int(max_iter) + 1):
        q = forward(p)
        qq = float(np.sum(q * q))
        if qq <= 0.0 or gamma <= 0.0:
            raise RuntimeError(
                f"step size collapsed (stalled directions) at iteration "
                f"{iterations}, residual {hist[-1]:.3e}"
            )
        alpha = gamma / qq
        if alpha * float(np.abs(p).max()) < 1e-12 * max(1.0, float(np.abs(x).max())):
            raise RuntimeError(
                f"step size collapsed below 1e-12 at iteration {iterations}, "
                f"residual {hist[-1]:.3e}"
            )
        x += alpha * p
        resid -= alpha * q
        rn = float(np.sqrt(np.sum(resid * resid)))
        hist.append(rn)
        if rn <= tol:
            converged = True
            break
        snew = adjoint(resid)
        gnew = float(np.sum(snew * snew))
        p = snew + (gnew / gamma) * p
        gamma = gnew

    return shifted(init, x), FlowTrace(
        iterations, np.array(hist), float(alpha), converged
    )
