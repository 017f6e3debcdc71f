"""Symbol complex of the deformation operator and abelian solvers.

Three layers on top of the field calculus: the principal-symbol complex of
the deformation operator of a generalized Kahler pair (assembled as explicit
real matrices and checked for exactness by SVD ranks), the co-Higgs
residual that reduces the mean curvature to classical data, and a
matrix-free conjugate-direction solver for the rank-one Einstein-Hermitian
equation.
"""

from dataclasses import dataclass

import numpy as np

from . import _backend as _k
from . import constants
from ._tables import blade_tables
from .fields import (
    GenConnection,
    _small_matmul,
    chern_from,
    curvature,
    dbar_residual,
    eh_residual_from,
    exp_two_form_field,
    lambda_from,
    mean_curvature_from,
    vol_density,
)
from .multivector import GenVector, real_two_form_matrix
from .structures import OMEGA_BLOCK, clifford_matrix, spinor_line, standard_complex

__all__ = [
    "SymbolReport",
    "FlowTrace",
    "symbol_exactness",
    "cohiggs_residual",
    "solve_eh_line",
    "RoundoffFloor",
    "UnrepresentableLine",
]

_RANK_TOL = 1e-8
_TRIAL_BLOCK = 32  # directions per stacked rank test; bounds peak memory
_COHIGGS_DBAR_TOL = 1e-6


@dataclass(frozen=True)
class SymbolReport:
    """Symbol-complex data at one cotangent direction (plus repeat trials)."""

    theta: GenVector
    dims: tuple
    ranks: tuple
    exact: tuple


@dataclass(frozen=True)
class FlowTrace:
    """Iteration record of the conjugate-direction solver and its target lambda."""

    iterations: int
    residual_history: np.ndarray
    step_size: float
    converged: bool
    lam: float


# ---------------------------------------------------------------------------
# symbol complex


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


class UnrepresentableLine(ValueError):
    """The Mukai norm of j2's spinor line is 0 or not finite in double precision."""


@dataclass(frozen=True)
class _SymbolSetup:
    """The theta-independent data of the symbol maps of one pair (j1, j2)."""

    t: object  # blade tables
    degsel: list  # blade indices of each degree
    psibar: np.ndarray  # conjugate of the spinor line of j2
    norm: complex  # Mukai pairing of the line with its conjugate
    coords: np.ndarray  # (2n, 4n) Hermitian coordinates of j1
    ek_psi: np.ndarray  # (4^n, 4n) Clifford action of each direction on psi


def _symbol_setup(pair):
    """Assemble the parts of the symbol maps that do not depend on theta."""
    n, j1 = pair.n, pair.J1
    t = blade_tables(n)
    psi = spinor_line(pair.J2).coeffs
    psibar = np.conj(psi)
    norm = _k.mukai_batch(t, psi, psibar)
    if norm == 0.0 or not np.isfinite(norm):
        raise UnrepresentableLine(f"the spinor line of j2 has Mukai norm {norm}")
    kb = j1.minus_i_eigenbasis()
    eye = np.eye(4 * n)
    return _SymbolSetup(
        t=t,
        degsel=[np.flatnonzero(t.deg == j) for j in range(2 * n + 1)],
        psibar=psibar,
        norm=norm,
        coords=kb.conj().T @ ((eye + 1j * j1.J) / 2.0),
        ek_psi=_k.clifford_batch(t, eye[: 2 * n], eye[2 * n :], psi[:, None]),
    )


def _symbol_maps(setup, theta):
    """Real matrices of the rank-1 symbol complex at the covector theta.

    Layout: B^0 is R i; B^1 has one column per generalized direction; B^2
    puts the Hermitian coordinate first, then the two-letter coefficients in
    the antiholomorphic basis of j1 (real parts, then imaginary parts, letter
    sets in bitmask order); higher pieces continue the realified pattern.
    """
    t, degsel, coords = setup.t, setup.degsel, setup.coords
    n = t.n
    c2 = degsel[2].size

    # theta-flat wedged onto every blade (the first t.size columns) and onto
    # the one-form coords[:, k] of each generalized direction e_k
    thf = np.zeros(t.size, dtype=np.complex128)
    thf[degsel[1]] = coords @ theta
    forms = np.zeros((t.size, t.size + 4 * n), dtype=np.complex128)
    forms[:, : t.size] = np.eye(t.size)
    forms[degsel[1], t.size :] = coords
    wedged = _k.wedge_batch(t, thf, forms)

    # line coefficients of theta . e_k . psi, one per generalized direction
    acted = clifford_matrix(theta, n) @ setup.ek_psi
    cline = _k.mukai_batch(t, acted, setup.psibar[:, None]) / setup.norm

    # column k of B^0 -> B^1 and B^1 -> B^2 is direction e_k with i
    m0 = theta[:, None]
    m1 = np.zeros((1 + 2 * c2, 4 * n))
    m1[0] = cline.imag
    y = 1j * wedged[degsel[2], t.size :]
    m1[1 : 1 + c2] = y.real
    m1[1 + c2 :] = y.imag

    def realified(j):
        wc = wedged[np.ix_(degsel[j + 1], degsel[j])]
        return np.block([[wc.real, -wc.imag], [wc.imag, wc.real]])

    mats = [m0, m1] + [realified(j) for j in range(2, 2 * n)]
    if n > 1:  # nothing maps B^2's Hermitian coordinate on
        mats[2] = np.hstack([np.zeros((mats[2].shape[0], 1)), mats[2]])
    return [m.shape[1] for m in mats] + [mats[-1].shape[0]], mats


def _random_covectors(rng, n, trials):
    """(trials, 2n) random cotangent components; near-zero draws are redrawn."""
    out = np.empty((trials, 2 * n))
    for i in range(trials):
        comps = rng.standard_normal(2 * n)
        while np.abs(comps).max() < 1e-3:
            comps = rng.standard_normal(2 * n)
        out[i] = comps
    return out


def _map_ranks(mats):
    """Rank of each map in mats (T, rows, cols): singular values over _RANK_TOL x the top."""
    s = np.linalg.svd(mats, compute_uv=False)
    return np.sum(s > _RANK_TOL * s[:, :1], axis=1)


def _trial_ranks(pair, covecs):
    """Dims of the rank-1 symbol complex and each map's rank at each covector.

    The maps are linear in theta, so they are assembled once per covector
    basis element, from theta-independent data built once; each direction's
    maps, combined from those stacks in blocks of _TRIAL_BLOCK, must compose
    to zero, and each map of a block is ranked by one batched SVD
    (_map_ranks).  Returns (dims, ranks), ranks shaped (len(covecs), maps).
    """
    n = pair.n
    setup = _symbol_setup(pair)
    basis = [_symbol_maps(setup, np.eye(4 * n)[2 * n + a]) for a in range(2 * n)]
    dims = basis[0][0]
    stacks = [np.stack(maps) for maps in zip(*(mats for _, mats in basis))]
    if sum((-1) ** i * d for i, d in enumerate(dims)) != 0:
        raise RuntimeError(f"symbol complex dimensions do not alternate to zero: {dims}")

    ranks = np.empty((len(covecs), len(stacks)), dtype=int)
    for lo in range(0, len(covecs), _TRIAL_BLOCK):
        block = covecs[lo : lo + _TRIAL_BLOCK]
        mats = [np.einsum("ta,aij->tij", block, s) for s in stacks]
        peaks = [np.abs(m).max(axis=(1, 2)) for m in mats]
        for k, (m_in, m_out) in enumerate(zip(mats, mats[1:])):
            scale = np.maximum(1.0, peaks[k] * peaks[k + 1])
            defect = np.abs(m_out @ m_in).max(axis=(1, 2))
            bad = np.flatnonzero(defect > 1e-10 * scale)
            if bad.size:
                raise RuntimeError(
                    f"consecutive symbol maps fail to compose to zero at trial "
                    f"{lo + bad[0]} (defect {defect[bad[0]]:.3e})"
                )
        for k, m in enumerate(mats):
            ranks[lo : lo + len(block), k] = _map_ranks(m)
    return tuple(dims), ranks


def symbol_exactness(pair, r, theta, trials=100, seed=0):
    """Assemble the symbol complex of a GKPair (valid by construction) at
    theta and test exactness by SVD ranks.

    Repeats the rank check for `trials` extra random cotangent directions;
    the reported dims and ranks belong to the given theta, while `exact`
    holds only if every junction passed for every direction tried.

    The rank enters as a tensor factor: a principal symbol does not see the
    connection's zeroth-order terms, the only place where ad(E) = u(r) acts
    other than as a factor.  In the basis {b_m, i b_m} of gl(r), b_m a real
    basis of u(r), each rank-r map is the rank-1 map tensored with the
    identity on r^2 copies, so dims and ranks are r^2 times rank 1's and a
    junction is exact at rank r when it is at rank 1, which alone is
    assembled and rank-tested (_trial_ranks).
    """
    n = pair.n
    r = int(r)
    trials = int(trials)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    th = _theta_covector(theta, n)

    covecs = np.vstack(
        [th[2 * n :], _random_covectors(np.random.default_rng(seed), n, trials)]
    )
    dims, ranks = _trial_ranks(pair, covecs)
    # junction j is exact when the ranks into and out of B^j add up to dim B^j
    padded = np.pad(ranks, ((0, 0), (1, 1)))
    exact = tuple(
        bool(np.all(padded[:, j] + padded[:, j + 1] == d)) for j, d in enumerate(dims)
    )
    rr = r * r
    return SymbolReport(
        theta=GenVector(th[: 2 * n], th[2 * n :]),
        dims=tuple(rr * d for d in dims),
        ranks=tuple(rr * int(k) for k in ranks[0]),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# co-Higgs specialization


def _positive_blocks(omega, n):
    """Validate omega = sum_i c_i dx^{2i} ^ dx^{2i+1}, c_i > 0; return (c, matrix)."""
    om = real_two_form_matrix(omega, n, "omega")
    scale = max(1.0, float(np.max(np.abs(om))))
    c = np.array([om[2 * i, 2 * i + 1] for i in range(n)])
    model = np.kron(np.diag(c), OMEGA_BLOCK)
    if np.max(np.abs(om - model)) > 1e-12 * scale:
        raise ValueError("omega must pair coordinates (2i, 2i+1) blockwise")
    if np.any(c <= 0.0):
        raise ValueError("omega block weights must be positive")
    return c, om


def cohiggs_residual(conn, omega, lam):
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
    defect = dbar_residual(grid, conn, standard_complex(n))
    if defect > _COHIGGS_DBAR_TOL:
        raise ValueError(f"connection is not co-Higgs (dbar defect {defect:.3e})")
    f = conn.field_strength()
    contracted = 0.5 * np.einsum("mnij...,nm->ij...", f, np.linalg.inv(om))
    total = constants.COHIGGS_F_SIGN * 1j * contracted
    for i in range(n):
        w = np.sqrt(weights[i] / 2.0) * (conn.V[2 * i] - 1j * conn.V[2 * i + 1])
        wh = np.swapaxes(w, 0, 1).conj()
        total = total + _small_matmul(w, wh, 2 * n) - _small_matmul(wh, w, 2 * n)
    k = constants.COHIGGS_SCALE * total
    k = (k + np.swapaxes(k, 0, 1).conj()) / 2.0
    return eh_residual_from(k, exp_two_form_field(grid, 1j * om), lam)


# ---------------------------------------------------------------------------
# conjugate-direction solver for the abelian line equation


def _stencil_offsets(n2):
    """The cross stencil {+-e_mu} as (4n, 2n) integer offsets, +e_mu first."""
    eye = np.eye(n2, dtype=int)
    return np.vstack([eye, -eye])


def _line_k(f, psi):
    """Real rank-1 mean curvature of the curvature field f on psi."""
    return mean_curvature_from(f, psi)[0, 0].real


def _shifted(conn, u):
    """The rank-1 connection conn + i u for real component fields u (nd, *sizes)."""
    n2 = 2 * conn.grid.n
    return GenConnection(
        conn.grid,
        1,
        conn.A + 1j * u[:n2, None, None],
        conn.V + 1j * u[n2:, None, None],
    )


def _line_map(psi, weight):
    """Stencil coefficients of the linear part of u -> weight * k(conn + i u).

    coef[s, o, q] is the response at p = q + offsets[o] to a unit impulse in
    component field s at q.  At rank 1 every commutator vanishes, so
    k = Re <F(psi), psibar> / <psi, psibar> with F(psi) = sum_{mu != nu}
    D_mu A_nu dx^mu ^ dx^nu ^ psi + sum_mu dx^mu ^ D_mu (sum_nu V^nu i_nu psi),
    and D_mu, the central difference, reaches q from p = q -+ e_mu with
    weight +-1/(2 h_mu).  An impulse in A_nu meets psi at p, one in V^nu
    meets i_nu psi at q:
        A_nu: +-Re(i <dx^mu ^ dx^nu ^ psi(p), psibar(p)> / <psi, psibar>(p))
        V^nu: +-Re(i <dx^mu ^ i_nu psi(q), psibar(p)> / <psi, psibar>(p))
    each divided by 2 h_mu and multiplied by weight(p).  The connection
    enters nowhere, and no impulse moves k at its own point.
    """
    grid = psi.grid
    t = blade_tables(grid.n)
    n2 = 2 * grid.n
    axes = tuple(range(-n2, 0))
    offsets = _stencil_offsets(n2)
    eye = np.eye(n2)
    psibar = np.conj(psi.data)
    scale = weight / _k.mukai_batch(t, psi.data, psibar)
    coef = np.empty((2 * n2, len(offsets), *grid.sizes))
    for nu in range(n2):
        # what impulses in A_nu and V^nu meet: dx^nu ^ psi and i_nu psi
        met = np.stack(
            [_k.wedge1_batch(t, eye[nu], psi.data), _k.interior_batch(t, eye[nu], psi.data)],
            axis=1,
        )
        for mu in range(n2):
            wedged = _k.wedge1_batch(t, eye[mu], met)  # dx^mu ^ met
            a_at_p = _k.mukai_batch(t, wedged[:, 0], psibar) * scale
            for o in (mu, n2 + mu):
                back = tuple(-offsets[o])  # rolls a field at p = q + offset to q
                pbar = np.roll(psibar, back, axis=axes)
                pair = np.stack([
                    np.roll(a_at_p, back, axis=axes),
                    _k.mukai_batch(t, wedged[:, 1], pbar) * np.roll(scale, back, axis=axes),
                ])
                # at offset +-e_mu the response is -+Re(i z) = +-Im z
                coef[[nu, n2 + nu], o] = offsets[o, mu] * pair.imag / (2.0 * grid.spacings[mu])
    return offsets, coef


def _forward(offsets, coef, u):
    """Apply the stencil map to component fields u (nd, *sizes)."""
    axes = tuple(range(u.ndim - 1))
    out = np.zeros(u.shape[1:])
    for o, off in enumerate(offsets):
        out += np.roll(np.sum(coef[:, o] * u, axis=0), tuple(off), axis=axes)
    return out


def _adjoint(offsets, coef, y):
    """Apply the transpose of the stencil map to a residual field y (*sizes)."""
    axes = tuple(range(y.ndim))
    out = np.zeros(coef[:, 0].shape)
    for o, off in enumerate(offsets):
        out += coef[:, o] * np.roll(y, tuple(-off), axis=axes)
    return out


class RoundoffFloor(RuntimeError):
    """The solver stalled with tol below |rhs| * eps, which the connection's size sets."""


def solve_eh_line(init, psi, max_iter=10000, tol=1e-8, lam=None):
    """Drive the rank-one Einstein-Hermitian residual to zero.

    For rank one the residual is exactly affine in the 4n real component
    fields of (A, V), so the normal equations are solved matrix-free by
    conjugate directions on the volume-weighted least-squares system.  The
    linear map is stored as coefficients over the cross stencil {+-e_nu},
    assembled in closed form from the blades of psi (_line_map; the
    connection does not enter it), and applied as sums of shifted products;
    no grid size is refused.  psi is taken as it is, as in every fields
    function: the caller validates it (validate_spinor_field).  The
    curvature of init is computed once and gives lam and the right-hand
    side.  lam defaults to the chern-normalized value (any other target is
    unreachable).  Returns the updated connection and a FlowTrace; raises
    ValueError if the rank is not one or the starting residual is not
    finite, RuntimeError if the step size collapses below 1e-12 before the
    tolerance is met (RoundoffFloor when tol lies below |rhs| * eps).
    """
    grid = init.grid
    if init.rank != 1:
        raise ValueError(f"solver handles rank-1 connections only, got rank {init.rank}")
    n2 = 2 * grid.n
    nd = 2 * n2
    f = curvature(init, psi)
    lam = lambda_from(chern_from(f, psi), psi, 1) if lam is None else float(lam)
    weight = np.sqrt(vol_density(grid, psi) * grid.cell_volume)
    k0 = _line_k(f, psi)

    rhs = -(weight * (k0 - lam))
    hist = [float(np.sqrt(np.sum(rhs * rhs)))]
    if not np.isfinite(hist[0]):
        raise ValueError(
            f"lambda ({lam:.6g}) or the connection is too large: "
            "the starting residual is not finite"
        )
    if hist[0] <= tol:
        return init, FlowTrace(0, np.array(hist), 0.0, True, lam)

    offsets, coef = _line_map(psi, weight)

    x = np.zeros((nd, *grid.sizes))
    resid = rhs.copy()
    s = _adjoint(offsets, coef, resid)
    p = s.copy()
    gamma = float(np.sum(s * s))
    alpha = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, int(max_iter) + 1):
        q = _forward(offsets, coef, p)
        qq = float(np.sum(q * q))
        if qq <= 0.0 or gamma <= 0.0:
            raise RuntimeError(
                f"step size collapsed (stalled directions) at iteration "
                f"{iterations}, residual {hist[-1]:.3e}"
            )
        alpha = gamma / qq
        if alpha * float(np.abs(p).max()) < 1e-12 * max(1.0, float(np.abs(x).max())):
            msg = f"step size collapsed below 1e-12 at iteration {iterations}, "
            msg += f"residual {hist[-1]:.3e}"
            floor = hist[0] * np.finfo(float).eps
            if floor > tol:
                msg = f"tol {tol:.3g} is below the roundoff floor |rhs|*eps = {floor:.3e}; {msg}"
                raise RoundoffFloor(msg)
            raise RuntimeError(msg)
        x += alpha * p
        resid -= alpha * q
        rn = float(np.sqrt(np.sum(resid * resid)))
        hist.append(rn)
        if rn <= tol:
            converged = True
            break
        snew = _adjoint(offsets, coef, resid)
        gnew = float(np.sum(snew * snew))
        p = snew + (gnew / gamma) * p
        gamma = gnew

    return _shifted(init, x), FlowTrace(
        iterations, np.array(hist), float(alpha), converged, lam
    )
