"""Symbol complex of the deformation operator, curvature specializations,
and the abelian Einstein-Hermitian solver.

Oracles here are independent of the implementation: dimension and rank
tables counted by hand from the letter bookkeeping, the symbol complex
assembled entry by entry at rank r (the reference for the rank-1 code's
tensor-factor claim), the grid's connection derivative, hand-evaluated
commutators for the Higgs bracket, the exact cancellation of a soliton
profile, and a Fourier-diagonal least-squares solution assembled from
impulse responses of the curvature map.
"""

import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genkf import _backend as _k
from genkf import analysis, constants, structures
from genkf.analysis import (
    _TRIAL_BLOCK,
    FlowTrace,
    SymbolReport,
    _adjoint,
    _forward,
    _line_k,
    _line_map,
    _map_ranks,
    _random_covectors,
    _shifted,
    _stencil_offsets,
    _symbol_maps,
    _symbol_setup,
    _trial_ranks,
    cohiggs_residual,
    solve_eh_line,
    symbol_exactness,
)
from genkf.fields import (
    FormField,
    GenConnection,
    TorusGrid,
    chern_from,
    connection_derivative,
    curvature,
    eh_residual_from,
    lambda_from,
    lie_derivative,
    mean_curvature_from,
    vol_density,
)
from genkf.multivector import (
    GenVector,
    GradedForm,
    exp_two_form,
    mukai_pair,
    neutral_pairing,
    wedge,
)
from genkf.specio import build_config
from genkf.structures import (
    OMEGA_BLOCK,
    GKPair,
    gcs_b_transform,
    gcs_complex,
    gcs_symplectic,
    spinor_line,
)

RNG = np.random.default_rng(771201)


# ---------------------------------------------------------------------------
# helpers


def std_omega(n):
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def std_pair(n):
    j = np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))
    return GKPair(gcs_complex(j), gcs_symplectic(std_omega(n)))


def cov_theta(n, comps):
    return GenVector(np.zeros(2 * n), np.asarray(comps, dtype=float))


def make_grid(n=1, size=16):
    return TorusGrid(n, (size,) * (2 * n))


def psi_const(grid, c=0.0):
    om = std_omega(grid.n)
    form = exp_two_form(GradedForm.from_two_form_matrix((c + 1j) * om))
    return FormField.constant(grid, form)


def trig_scalar(grid, rng, nmodes=3, amp=0.1):
    x = grid.meshes()
    out = np.zeros(grid.sizes)
    for _ in range(nmodes):
        k = rng.integers(-2, 3, size=2 * grid.n)
        phase = rng.uniform(0, 2 * np.pi)
        arg = sum(
            2 * np.pi * k[mu] * x[mu] / grid.periods[mu] for mu in range(2 * grid.n)
        )
        out = out + amp * rng.normal() * np.cos(arg + phase)
    return out


def line_conn(grid, rng, amp=0.1, with_v=False):
    shape = (2 * grid.n, 1, 1, *grid.sizes)
    a = np.zeros(shape, dtype=np.complex128)
    v = np.zeros(shape, dtype=np.complex128)
    for mu in range(2 * grid.n):
        a[mu] = 1j * trig_scalar(grid, rng, amp=amp)[None, None]
        if with_v:
            v[mu] = 1j * trig_scalar(grid, rng, amp=amp / 2)[None, None]
    return GenConnection(grid, 1, a, v)


def higgs_frame_v(grid, mats, weights):
    """V with W-frame components mats[i] on the (2i, 2i+1) coordinate pair."""
    r = mats[0].shape[0]
    v = np.zeros((2 * grid.n, r, r, *grid.sizes), dtype=np.complex128)
    constant = (r, r) + (1,) * (2 * grid.n)  # one matrix at every point
    for i, (w, c) in enumerate(zip(mats, weights)):
        wh = w.conj().T
        v[2 * i] = ((w - wh) / np.sqrt(2.0 * c)).reshape(constant)
        v[2 * i + 1] = (1j * (w + wh) / np.sqrt(2.0 * c)).reshape(constant)
    return v


def mat_field(field, m):
    """The constant matrix m (r, r) times a scalar field: (r, r, *sizes)."""
    return np.multiply.outer(m, field)


# hand-counted B^i dimensions and ranks per unit r^2: the complex starts at
# the skew-Hermitian endomorphisms, passes through their tensor product with
# the 4n real generalized directions, then the Hermitian piece plus the
# realified endomorphism-valued exterior powers of the antiholomorphic space
EXPECTED = {
    1: ((1, 4, 3), (1, 3)),
    2: ((1, 8, 13, 8, 2), (1, 7, 6, 2)),
}


# ---------------------------------------------------------------------------
# rank-r oracle: the symbol complex assembled on the entries of gl(r)


def skew_basis(r):
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


def entry_maps(setup, r, theta):
    """Real matrices of the rank-r symbol complex at the covector theta.

    The reference for symbol_exactness's tensor-factor claim.  B^0 is the
    skew basis; B^1 stacks one skew block per generalized direction (column
    k*r^2 + m); B^2 puts the Hermitian coordinates first, then the
    realified endomorphism-valued two-letter coefficients in the
    antiholomorphic basis of j1, entry by entry (real parts, then imaginary
    parts, letter sets in bitmask order); higher pieces continue the
    realified pattern, each wedge block tensored with eye(r^2).
    """
    t, degsel, coords = setup.t, setup.degsel, setup.coords
    n = t.n
    basis = np.array(skew_basis(r))
    rr = r * r
    c2 = degsel[2].size

    thf = np.zeros(t.size, dtype=np.complex128)
    thf[degsel[1]] = coords @ theta
    forms = np.zeros((t.size, t.size + 4 * n), dtype=np.complex128)
    forms[:, : t.size] = np.eye(t.size)
    forms[degsel[1], t.size :] = coords
    wedged = _k.wedge_batch(t, thf, forms)

    acted = structures.clifford_matrix(theta, n) @ setup.ek_psi
    cline = _k.mukai_batch(t, acted, setup.psibar[:, None]) / setup.norm

    m0 = np.kron(theta[:, None], np.eye(rr))
    m1 = np.zeros((rr + 2 * c2 * rr, 4 * n * rr))
    m = np.arange(rr)[:, None]
    m1[m, rr * np.arange(4 * n) + m] = cline.imag
    y = np.einsum("ik,mab->iabkm", wedged[degsel[2], t.size :], basis)
    y = y.reshape(c2 * rr, 4 * n * rr)
    m1[rr : rr + c2 * rr] = y.real
    m1[rr + c2 * rr :] = y.imag

    def realified(j):
        wc = wedged[np.ix_(degsel[j + 1], degsel[j])]
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


def direct_ranks(pair, r, covecs):
    """Assemble the rank-r oracle at each covector and rank each full map by
    its own SVD; every consecutive pair must compose to zero."""
    n = pair.n
    setup = _symbol_setup(pair)
    out = []
    for covec in covecs:
        _, mats = entry_maps(setup, r, np.concatenate([np.zeros(2 * n), covec]))
        for m_in, m_out in zip(mats, mats[1:]):
            scale = max(1.0, np.abs(m_in).max() * np.abs(m_out).max())
            assert np.abs(m_out @ m_in).max() < 1e-10 * scale
        ranks = []
        for m in mats:
            s = np.linalg.svd(m, compute_uv=False)
            ranks.append(0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > 1e-8 * s[0])))
        out.append(ranks)
    return np.array(out)


def b_transformed_pair():
    b = np.array([[0.0, 0.4], [-0.4, 0.0]])
    pair = std_pair(1)
    return GKPair(gcs_b_transform(b, pair.J1), gcs_b_transform(b, pair.J2))


def weighted_pair(weights):
    j1 = std_pair(len(weights)).J1
    return GKPair(j1, gcs_symplectic(np.kron(np.diag(weights), OMEGA_BLOCK)))


PAIRS = {
    "standard-n1": lambda: std_pair(1),
    "standard-n2": lambda: std_pair(2),
    "weighted-n1": lambda: weighted_pair([2.5]),
    "weighted-n2": lambda: weighted_pair([0.5, 3.0]),
    "b-transformed-n1": b_transformed_pair,
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_rank_one_oracle_is_the_symbol_maps_exactly(pair):
    # at r = 1 the skew basis is {i} and kron(., eye(1)) copies, so the
    # entry-based assembly is _symbol_maps entry for entry, with no
    # tolerance; only the sign of a zero may differ (einsum adds each product
    # to +0, so it turns the -0 of 1j * w into +0)
    pair = PAIRS[pair]()
    n = pair.n
    setup = _symbol_setup(pair)
    rng = np.random.default_rng(55)
    for th in [np.eye(4 * n)[2 * n], np.concatenate([np.zeros(2 * n), rng.normal(size=2 * n)])]:
        want_dims, want = entry_maps(setup, 1, th)
        dims, mats = _symbol_maps(setup, th)
        assert dims == want_dims
        assert len(mats) == len(want)
        for m, w in zip(mats, want):
            assert m.shape == w.shape
            assert np.array_equal(m, w)


def assert_oracle_ranks_are_r_squared_rank_one_ranks(pair, r, seed, trials):
    # the full rank-r oracle maps compose to zero (checked in direct_ranks),
    # and their own SVD ranks and dims are r^2 times the rank-1 ranks and
    # dims of _trial_ranks, which ranks trial blocks of the rank-1 maps
    n = pair.n
    covecs = _random_covectors(np.random.default_rng(seed), n, trials)
    dims, ranks = _trial_ranks(pair, covecs)
    assert np.array_equal(r * r * ranks, direct_ranks(pair, r, covecs))
    oracle_dims, _ = entry_maps(_symbol_setup(pair), r, np.eye(4 * n)[2 * n])
    assert oracle_dims == [r * r * d for d in dims]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_blocked_ranks_match_full_matrix_ranks(n, r):
    assert_oracle_ranks_are_r_squared_rank_one_ranks(std_pair(n), r, 90 + 10 * n + r, 300)


@pytest.mark.parametrize(
    "n, r, pair",
    [(1, 2, "b-transformed-n1"), (2, 2, "weighted-n2"), (1, 3, "weighted-n1"),
     (1, 3, "b-transformed-n1"), (2, 3, "weighted-n2"), (1, 2, "weighted-n1")],
    ids=["1-2-pair0", "2-2-pair1", "1-3-pair2", "1-3-pair3", "2-3-pair4", "1-2-pair5"],
)
def test_blocked_ranks_match_full_matrix_ranks_on_other_pairs(n, r, pair):
    pair = PAIRS[pair]()
    assert pair.n == n
    assert_oracle_ranks_are_r_squared_rank_one_ranks(pair, r, 17, 200)


# ---------------------------------------------------------------------------
# symbol complex: frozen tables


def test_symbol_dimension_and_rank_tables():
    for n in (1, 2):
        for r in (1, 2, 3, 8):
            th = cov_theta(n, [0.3, -1.1, 0.7, 0.2][: 2 * n])
            rep = symbol_exactness(std_pair(n), r, th, trials=2)
            dims, ranks = EXPECTED[n]
            assert rep.dims == tuple(d * r * r for d in dims)
            assert rep.ranks == tuple(k * r * r for k in ranks)
            assert len(rep.exact) == 2 * n + 1
            assert all(rep.exact)
            assert sum((-1) ** i * d for i, d in enumerate(rep.dims)) == 0
            assert np.allclose(rep.theta.covec, th.covec)


def test_symbol_maps_compose_to_zero():
    for n in (1, 2):
        th = np.concatenate([np.zeros(2 * n), RNG.normal(size=2 * n)])
        dims, mats = _symbol_maps(_symbol_setup(std_pair(n)), th)
        assert dims == list(EXPECTED[n][0])
        assert [m.shape[1] for m in mats] == dims[:-1]
        assert [m.shape[0] for m in mats] == dims[1:]
        for m_in, m_out in zip(mats, mats[1:]):
            scale = max(1.0, np.abs(m_in).max() * np.abs(m_out).max())
            assert np.abs(m_out @ m_in).max() < 1e-10 * scale


def test_symbol_kernel_reconstructs_endomorphism_times_theta():
    # on the rank-2 oracle, the kernel at the middle of the first junction
    # is exactly f (x) theta
    for n, r in ((1, 2), (2, 2)):
        comps = RNG.normal(size=2 * n)
        th = np.concatenate([np.zeros(2 * n), comps])
        _, mats = entry_maps(_symbol_setup(std_pair(n)), r, th)
        basis = skew_basis(r)
        s1 = mats[1]
        _, sv, vh = np.linalg.svd(s1)
        null = vh[np.sum(sv > 1e-8 * sv[0]) :]
        assert null.shape[0] == r * r
        for x in null:
            slots = x.reshape(4 * n, r * r)
            mats_k = np.einsum("km,mab->kab", slots, np.array(basis))
            f = np.einsum("k,kab->ab", th, mats_k) / (th @ th)
            want = np.einsum("k,ab->kab", th, f)
            assert np.max(np.abs(mats_k - want)) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_first_symbol_map_is_the_symbol_of_connection_derivative(n):
    # B^0 -> B^1 against the grid: at a zero connection, connection_derivative
    # of xi = i e^{ik.x} has A part i theta_k,mu xi, theta_k,mu =
    # sin(2 pi k_mu / N_mu) / h_mu (central differences), and V part 0 --
    # the first symbol map at theta_k times i, with i the basis of B^0
    grid = make_grid(n, 8)
    conn = GenConnection.zero(grid, 1)
    setup = _symbol_setup(std_pair(n))
    modes = [(1, 0, 0, 0), (1, 2, 3, 0), (3, -1, 2, 1), (-2, 3, 0, -1), (0, 1, -3, 2)]
    for k in (np.array(m[: 2 * n]) for m in modes):
        xi = 1j * np.exp(1j * grid.phase(k))[None, None]
        theta = np.array(
            [np.sin(2 * np.pi * k[mu] / grid.sizes[mu]) / grid.spacings[mu] for mu in range(2 * n)]
        )
        var = connection_derivative(conn, xi)
        m0 = _symbol_maps(setup, np.concatenate([np.zeros(2 * n), theta]))[1][0]
        assert m0.shape == (4 * n, 1)
        assert not np.any(var.V)
        assert not np.any(m0[: 2 * n])
        for mu in range(2 * n):
            want = 1j * theta[mu] * xi
            assert np.abs(var.A[mu] - want).max() <= 1e-13 * np.abs(theta).max()
            assert np.abs(var.A[mu] - 1j * m0[2 * n + mu, 0] * xi).max() <= (
                1e-13 * np.abs(theta).max()
            )


def test_symbol_exactness_b_transformed_pair():
    rep = symbol_exactness(b_transformed_pair(), 2, cov_theta(1, [0.9, 0.4]), trials=5)
    assert rep.dims == (4, 16, 12)
    assert rep.ranks == (4, 12)
    assert all(rep.exact)


def test_symbol_trials_deterministic():
    pair = std_pair(2)
    th = cov_theta(2, [1.0, -0.3, 0.2, 0.8])
    rep1 = symbol_exactness(pair, 2, th, trials=25, seed=3)
    rep2 = symbol_exactness(pair, 2, th, trials=25, seed=3)
    assert rep1.dims == rep2.dims
    assert rep1.ranks == rep2.ranks
    assert rep1.exact == rep2.exact
    assert all(rep1.exact)


def test_symbol_rejects_degenerate_inputs():
    # a pair that is not one is refused by GKPair itself, before any symbol
    pair = std_pair(1)
    with pytest.raises(ValueError, match="nonzero"):
        symbol_exactness(pair, 1, cov_theta(1, [0.0, 0.0]))
    with pytest.raises(ValueError, match="cotangent"):
        symbol_exactness(pair, 1, GenVector([1.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError, match="not a compatible pair"):
        GKPair(pair.J2, pair.J2)
    with pytest.raises(ValueError, match="rank"):
        symbol_exactness(pair, 0, cov_theta(1, [1.0, 0.0]))
    with pytest.raises(ValueError, match="theta needs 2 covector or 4 full components"):
        symbol_exactness(pair, 1, cov_theta(2, [1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="trials must be non-negative, got -3"):
        symbol_exactness(pair, 1, cov_theta(1, [1.0, 0.0]), trials=-3)


def reference_directions(covec, trials, seed):
    """The given covector, then the seeded draws with near-zero redraws."""
    rng = np.random.default_rng(seed)
    out = [np.asarray(covec, dtype=float)]
    for _ in range(trials):
        comps = rng.standard_normal(len(covec))
        while np.abs(comps).max() < 1e-3:
            comps = rng.standard_normal(len(covec))
        out.append(comps)
    return np.array(out)


_BASIS_STACKS = {}


def rank_maps(setup, r, theta):
    """The symbol maps at rank r: _symbol_maps itself at r = 1, the rank-r
    oracle above it (_symbol_maps builds rank 1 only)."""
    return _symbol_maps(setup, theta) if r == 1 else entry_maps(setup, r, theta)


def basis_stacks(n, r):
    if (n, r) not in _BASIS_STACKS:
        setup = _symbol_setup(std_pair(n))
        _BASIS_STACKS[n, r] = [
            rank_maps(setup, r, np.eye(4 * n)[2 * n + a])[1]
            for a in range(2 * n)
        ]
    return _BASIS_STACKS[n, r]


@pytest.mark.parametrize("n, r", [(1, 1), (1, 2), (2, 1), (2, 2)])
@settings(max_examples=25, deadline=None)
@given(
    comps=st.lists(
        st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
        min_size=4,
        max_size=4,
    )
)
def test_symbol_matrices_linear_in_theta(n, r, comps):
    comps = np.array(comps[: 2 * n])
    assume(np.abs(comps).max() > 1e-100)
    _, direct = rank_maps(_symbol_setup(std_pair(n)), r, np.concatenate([np.zeros(2 * n), comps]))
    stacks = basis_stacks(n, r)
    for k, m in enumerate(direct):
        combo = sum(c * mats[k] for c, mats in zip(comps, stacks))
        assert np.abs(m - combo).max() <= 1e-14 * np.abs(m).max()


def blades_of_degree(n, j):
    return [mask for mask in range(4**n) if bin(mask).count("1") == j]


def theta_wedge(n, thf, mask):
    """Coefficients of thf ^ (blade mask) on the blades one degree up."""
    blade = GradedForm.blade(n, [a for a in range(2 * n) if mask >> a & 1])
    j = bin(mask).count("1")
    return wedge(thf, blade).coeffs[blades_of_degree(n, j + 1)]


@pytest.mark.parametrize("n, r", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_symbol_wedge_blocks_match_blade_by_blade_wedges(n, r):
    # every theta-wedge block of the symbol maps, rebuilt one blade at a time
    # with GradedForm: B^1 -> B^2 on the one-forms of the 4n directions, and
    # the realified blocks B^j -> B^{j+1}, j >= 2
    rng = np.random.default_rng(4100 + 10 * n + r)
    pair = std_pair(n)
    j1 = pair.J1
    rr = r * r
    basis = np.array(skew_basis(r))
    coords = j1.minus_i_eigenbasis().conj().T @ ((np.eye(4 * n) + 1j * j1.J) / 2.0)

    def one_form(c):
        return sum((GradedForm.blade(n, (a,), c[a]) for a in range(2 * n)), GradedForm.zero(n))

    for _ in range(3):
        th = np.concatenate([np.zeros(2 * n), rng.normal(size=2 * n)])
        _, mats = rank_maps(_symbol_setup(pair), r, th)
        thf = one_form(coords @ th)
        for k in range(4 * n):
            w = wedge(thf, one_form(coords[:, k])).coeffs[blades_of_degree(n, 2)]
            for m in range(rr):
                y = np.outer(w, basis[m].ravel()).ravel()
                col = mats[1][rr:, k * rr + m]
                assert np.array_equal(col, np.concatenate([y.real, y.imag]))
        for j in range(2, 2 * n):
            wc = np.array([theta_wedge(n, thf, mask) for mask in blades_of_degree(n, j)]).T
            re, im = np.kron(wc.real, np.eye(rr)), np.kron(wc.imag, np.eye(rr))
            block = mats[j] if j > 2 else mats[2][:, rr:]
            assert np.array_equal(block, np.block([[re, -im], [im, re]]))


@pytest.mark.parametrize(
    "trials", [_TRIAL_BLOCK - 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1, 2 * _TRIAL_BLOCK + 1]
)
def test_block_ranks_match_direct_assembly(trials):
    n, seed = 2, 5
    pair = std_pair(n)
    th = np.array([0.3, -1.1, 0.7, 0.2])
    covecs = reference_directions(th, trials, seed)
    drawn = _random_covectors(np.random.default_rng(seed), n, trials)
    assert np.array_equal(np.vstack([th, drawn]), covecs)

    dims, ranks = _trial_ranks(pair, covecs)
    want = direct_ranks(pair, 1, covecs)
    assert ranks.shape == (trials + 1, len(dims) - 1)
    assert np.array_equal(ranks, want)

    rep = symbol_exactness(pair, 1, cov_theta(n, th), trials=trials, seed=seed)
    zero = np.zeros((trials + 1, 1), dtype=int)
    padded = np.hstack([zero, want, zero])
    want_exact = tuple(
        bool(np.all(padded[:, j] + padded[:, j + 1] == d)) for j, d in enumerate(dims)
    )
    assert rep.dims == dims
    assert rep.ranks == tuple(want[0])
    assert rep.exact == want_exact


def test_blocked_rank_tolerance_is_relative_to_the_whole_map():
    # _map_ranks on a block of three maps.  diag(1, 1e-10): the small
    # singular value is below _RANK_TOL times the map's largest; alone,
    # 1e-10 is the largest and counts, and a zero map has rank 0
    mats = np.zeros((3, 2, 2))
    mats[0] = np.diag([1.0, 1e-10])
    mats[1] = np.diag([1e-10, 0.0])
    assert _map_ranks(mats).tolist() == [1, 1, 0]


def test_symbol_svd_work_does_not_grow_with_rank(monkeypatch):
    # the rank enters only as r^2: symbol_exactness hands np.linalg.svd the
    # same calls, on the same shapes, at r = 1 and r = 8
    calls = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    pair = std_pair(2)
    th = cov_theta(2, [1.0, -0.3, 0.2, 0.8])
    per_rank = []
    for r in (1, 8):
        calls.clear()
        rep = symbol_exactness(pair, r, th, trials=2 * _TRIAL_BLOCK)
        assert all(rep.exact)
        per_rank.append(list(calls))
    assert per_rank[0] == per_rank[1]
    assert (_TRIAL_BLOCK, 13, 8) in per_rank[0]


def test_random_covectors_redraw_near_zero():
    class ScriptedRng:
        def __init__(self, draws):
            self.draws = [np.array(d) for d in draws]

        def standard_normal(self, size):
            assert size == 2
            return self.draws.pop(0)

    rng = ScriptedRng([[4e-4, -9e-4], [0.5, 2.0], [-1e-3, 0.0]])
    assert np.array_equal(_random_covectors(rng, 1, 2), [[0.5, 2.0], [-1e-3, 0.0]])


def test_symbol_composition_check_is_live(monkeypatch):
    # a defect in the last basis stack spares theta = e_0 (trial 0) but
    # reaches every random direction
    n = 2
    original = analysis._symbol_maps

    def perturbed(setup, theta):
        dims, mats = original(setup, theta)
        if theta[4 * n - 1] == 1.0:
            mats[1] = mats[1] + 1e-3
        return dims, mats

    monkeypatch.setattr(analysis, "_symbol_maps", perturbed)
    with pytest.raises(RuntimeError, match="compose to zero at trial 1 "):
        symbol_exactness(std_pair(n), 2, cov_theta(n, [1.0, 0.0, 0.0, 0.0]), trials=40)


def test_symbol_assembly_cost_independent_of_trials(monkeypatch):
    counts = Counter()
    for module in (analysis, structures):
        for name in ("clifford_matrix", "spinor_line"):
            def counted(*args, _fn=getattr(structures, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    pair = std_pair(2)
    th = cov_theta(2, [1.0, 0.0, 0.0, 0.0])
    per_trials = []
    for trials in (10, 1000):
        counts.clear()
        assert all(symbol_exactness(pair, 2, th, trials=trials).exact)
        per_trials.append(dict(counts))
    # one spinor line (2n Clifford matrices) per call, then one Clifford
    # matrix per covector basis element
    assert per_trials[0] == {"clifford_matrix": 8, "spinor_line": 1}
    assert per_trials[0] == per_trials[1]


def test_plus_projected_theta_components_pair_positively():
    # the pairing of the two complex-type components of the metric-positive
    # projection of a cotangent direction is real and positive; this is the
    # scalar that pins down the kernel at the first junction
    for pair in (std_pair(1), std_pair(2), b_transformed_pair()):
        n = pair.n
        plus = (np.eye(4 * n) + pair.g_hat()) / 2.0
        for _ in range(50):
            th = RNG.normal(size=2 * n)
            if np.abs(th).max() < 1e-2:
                continue
            full = np.concatenate([np.zeros(2 * n), th])
            t10 = (full - 1j * (pair.J1.J @ full)) / 2.0
            val = neutral_pairing(
                GenVector.from_array(plus @ t10),
                GenVector.from_array(plus @ np.conj(t10)),
            )
            assert abs(val.imag) < 1e-12 * (1.0 + abs(val))
            assert val.real > 1e-6 * (th @ th)


def test_line_projection_commutes_with_adjoint():
    # taking the spinor-line coefficient and taking adjoints commute: the
    # coefficient of the conjugated, transposed data against psi is the
    # conjugate transpose of the original coefficient against psibar
    b = np.array([[0.0, 0.4], [-0.4, 0.0]])
    lines = [
        gcs_symplectic(std_omega(1)),
        gcs_symplectic(std_omega(2)),
        gcs_b_transform(b, gcs_symplectic(std_omega(1))),
    ]
    r = 2
    for j2 in lines:
        n = j2.n
        psi = spinor_line(j2)
        psibar = psi.conjugate()
        den = mukai_pair(psi, psibar)
        denb = mukai_pair(psibar, psi)
        z = RNG.normal(size=(4**n, r, r)) + 1j * RNG.normal(size=(4**n, r, r))
        tz = np.conj(np.swapaxes(z, 1, 2))
        c1 = np.array(
            [[mukai_pair(GradedForm(n, z[:, a, b_]), psibar) for b_ in range(r)]
             for a in range(r)]
        )
        c2 = np.array(
            [[mukai_pair(GradedForm(n, tz[:, a, b_]), psi) for b_ in range(r)]
             for a in range(r)]
        )
        lhs = (c1 / den).conj().T
        rhs = c2 / denb
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


# ---------------------------------------------------------------------------
# co-Higgs specialization


def test_cohiggs_flat_connection_zero():
    grid = make_grid()
    res, norm = cohiggs_residual(GenConnection.zero(grid, 2), std_omega(1), 0.0)
    assert np.max(np.abs(res)) < 1e-14
    assert norm < 1e-14


def test_cohiggs_nilpotent_higgs_oracle():
    # W = [[0,1],[0,0]]: the bracket [W, W*] is diag(1, -1) by hand, so the
    # residual at lam = 0 is the frozen half of it and the volume-weighted
    # norm on the unit torus is exactly 1
    grid = make_grid()
    w = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    v = higgs_frame_v(grid, [w], [1.0])
    conn = GenConnection(grid, 2, np.zeros_like(v), v)
    res, norm = cohiggs_residual(conn, std_omega(1), 0.0)
    want = constants.COHIGGS_SCALE * np.diag([1.0, -1.0])
    assert np.max(np.abs(res - want[:, :, None, None])) < 1e-12
    assert abs(norm - 1.0) < 1e-12


def test_cohiggs_matches_curvature_pipeline():
    # central trig A plus a constant non-normal Higgs frame: the specialized
    # formula reproduces the full mean-curvature pipeline exactly
    grid = make_grid()
    rng = np.random.default_rng(5210)
    w = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [-0.2 + 0.05j, -0.1 - 0.2j]])
    v = higgs_frame_v(grid, [w], [1.0])
    a = np.zeros_like(v)
    for mu in range(2):
        a[mu] = 1j * mat_field(trig_scalar(grid, rng), np.eye(2))
    conn = GenConnection(grid, 2, a, v)
    res, norm = cohiggs_residual(conn, std_omega(1), 0.0)
    psi = psi_const(grid)
    k_pipe = mean_curvature_from(curvature(conn, psi), psi)
    scale = max(1.0, float(np.max(np.abs(k_pipe))))
    assert np.max(np.abs(res - k_pipe)) < 1e-10 * scale
    _, norm_pipe = eh_residual_from(k_pipe, psi, 0.0)
    assert abs(norm - norm_pipe) < 1e-12 * max(1.0, norm_pipe)


def test_cohiggs_block_weights_match_pipeline():
    # two symplectic weights (2.0, 0.5) and commuting Higgs frames: the
    # weight-normalized frame extension agrees with the pipeline
    grid = make_grid(2, 8)
    weights = (2.0, 0.5)
    om = np.kron(np.diag(weights), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    w1 = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [-0.2 + 0.05j, -0.1 - 0.2j]])
    w2 = w1 @ w1 + 0.3 * w1
    v = higgs_frame_v(grid, [w1, w2], weights)
    conn = GenConnection(grid, 2, np.zeros_like(v), v)
    res, _ = cohiggs_residual(conn, om, 0.0)
    psi = FormField.constant(grid, exp_two_form(GradedForm.from_two_form_matrix(1j * om)))
    k_pipe = mean_curvature_from(curvature(conn, psi), psi)
    scale = max(1.0, float(np.max(np.abs(k_pipe))))
    assert np.max(np.abs(res - k_pipe)) < 1e-10 * scale


def test_cohiggs_normal_higgs_reduces_to_curvature_term():
    grid = make_grid()
    rng = np.random.default_rng(5211)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)  # normal
    v = higgs_frame_v(grid, [w], [1.0])
    a = np.zeros_like(v)
    for mu in range(2):
        a[mu] = 1j * mat_field(trig_scalar(grid, rng), np.eye(2))
    with_v = GenConnection(grid, 2, a, v)
    without = GenConnection(grid, 2, a, np.zeros_like(v))
    res1, _ = cohiggs_residual(with_v, std_omega(1), 0.0)
    res2, _ = cohiggs_residual(without, std_omega(1), 0.0)
    assert np.max(np.abs(res1 - res2)) < 1e-12


def test_cohiggs_rejects_non_cohiggs_connection():
    grid = make_grid()
    x = grid.meshes()
    w = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    v = higgs_frame_v(grid, [w], [1.0])
    v *= np.sin(2 * np.pi * x[0])
    conn = GenConnection(grid, 2, np.zeros_like(v), v)
    with pytest.raises(ValueError, match="co-Higgs"):
        cohiggs_residual(conn, std_omega(1), 0.0)


def test_cohiggs_rejects_bad_omega():
    grid = make_grid()
    conn = GenConnection.zero(grid, 1)
    with pytest.raises(ValueError, match="omega"):
        cohiggs_residual(conn, -std_omega(1), 0.0)
    with pytest.raises(ValueError, match="omega"):
        cohiggs_residual(conn, np.zeros((2, 2)), 0.0)


# ---------------------------------------------------------------------------
# Kahler-Ricci soliton profiles on line bundles


def test_kr_profile_connection_is_eh():
    # v = f(x0) d_0 with A tuned to g' = -c f' cancels F + c i L_v omega
    # exactly: a soliton profile, which solves the line equation for the
    # spinor e^{(c + i) omega} with lambda = 0
    grid = make_grid()
    x = grid.meshes()
    c = 0.25
    f = 0.3 * np.sin(2 * np.pi * x[0])
    v = np.zeros((2, 1, 1, *grid.sizes), dtype=np.complex128)
    v[0, 0, 0] = 1j * f
    a = np.zeros_like(v)
    a[1, 0, 0] = -1j * c * f
    conn = GenConnection(grid, 1, a, v)
    om = std_omega(1)
    om_field = FormField.constant(grid, GradedForm.from_two_form_matrix(om))
    lv = lie_derivative(grid, conn.V[:, 0, 0].imag, om_field).data
    soliton = conn.field_strength()[0, 1, 0, 0] + c * 1j * lv[0b11]
    assert np.max(np.abs(soliton)) < 1e-12
    psi = psi_const(grid, c)
    fcurv = curvature(conn, psi)
    lam = lambda_from(chern_from(fcurv, psi), psi, 1)
    _, eh_norm = eh_residual_from(mean_curvature_from(fcurv, psi), psi, lam)
    assert eh_norm < 1e-8
    assert abs(lam) < 1e-10


# ---------------------------------------------------------------------------
# abelian solver


def test_solve_already_solved_returns_immediately():
    grid = make_grid()
    psi = psi_const(grid)
    conn = GenConnection.zero(grid, 1)
    out, trace = solve_eh_line(conn, psi)
    assert trace.iterations == 0
    assert trace.converged
    assert len(trace.residual_history) == 1
    assert trace.step_size == 0.0
    assert np.max(np.abs(out.A - conn.A)) == 0.0


def test_solve_curvature_perturbation_converges():
    grid = make_grid()
    rng = np.random.default_rng(5213)
    psi = psi_const(grid)
    conn = line_conn(grid, rng)
    out, trace = solve_eh_line(conn, psi, tol=1e-10)
    assert trace.converged
    hist = np.asarray(trace.residual_history)
    assert hist[-1] <= 1e-10
    assert np.all(np.diff(hist) <= 1e-14 * hist[0])
    lam = lambda_from(chern_from(curvature(out, psi), psi), psi, out.rank)
    _, norm = eh_residual_from(mean_curvature_from(curvature(out, psi), psi), psi, lam)
    assert norm < 1e-8
    # a converged solution is a fixed point of the flow
    out2, trace2 = solve_eh_line(out, psi)
    assert trace2.iterations == 0
    assert abs(trace2.residual_history[0] - hist[-1]) < 1e-12


def test_solve_matches_fourier_oracle():
    grid = make_grid()
    rng = np.random.default_rng(5214)
    psi = psi_const(grid)
    init = line_conn(grid, rng, with_v=True)
    lam = lambda_from(chern_from(curvature(init, psi), psi), psi, init.rank)

    # impulse responses of the linearized residual map, one per direction
    base = GenConnection.zero(grid, 1)
    kbase = mean_curvature_from(curvature(base, psi), psi)[0, 0].real
    resp = np.empty((4, *grid.sizes))
    for s in range(4):
        u = np.zeros((4, *grid.sizes))
        u[s, 0, 0] = 1.0
        pert = GenConnection(
            grid, 1,
            base.A + 1j * u[:2, None, None],
            base.V + 1j * u[2:, None, None],
        )
        resp[s] = mean_curvature_from(curvature(pert, psi), psi)[0, 0].real - kbase
    mhat = np.fft.fftn(resp, axes=(1, 2))
    rho = mean_curvature_from(curvature(init, psi), psi)[0, 0].real - lam
    rhat = np.fft.fftn(rho)
    den = np.sum(np.abs(mhat) ** 2, axis=0)
    live = den > 1e-20 * den.max()
    assert np.max(np.abs(rhat[~live])) < 1e-10 * max(1.0, np.abs(rhat).max())
    dhat = np.zeros((4, *grid.sizes), dtype=np.complex128)
    dhat[:, live] = -np.conj(mhat[:, live]) * rhat[live] / den[live]
    delta = np.real(np.fft.ifftn(dhat, axes=(1, 2)))
    oracle = GenConnection(
        grid, 1,
        init.A + 1j * delta[:2, None, None],
        init.V + 1j * delta[2:, None, None],
    )
    _, oracle_norm = eh_residual_from(mean_curvature_from(curvature(oracle, psi), psi), psi, lam)
    assert oracle_norm < 1e-6

    out, trace = solve_eh_line(init, psi, tol=1e-10)
    assert trace.converged
    assert np.max(np.abs(out.A - oracle.A)) < 1e-6
    assert np.max(np.abs(out.V - oracle.V)) < 1e-6


def test_solve_b_field_line_identity():
    # b = c*omega: the converged connection satisfies the pointwise line
    # identity Lambda(F + c i L_v omega) = LINE_EH_SCALE * lam * i
    grid = make_grid()
    rng = np.random.default_rng(5215)
    c = 0.3
    psi = psi_const(grid, c=c)
    init = line_conn(grid, rng, with_v=True)
    out, trace = solve_eh_line(init, psi, tol=1e-10)
    assert trace.converged
    lam = lambda_from(chern_from(curvature(out, psi), psi), psi, out.rank)
    om = std_omega(1)
    om_field = FormField.constant(
        grid, GradedForm.from_two_form_matrix(om.astype(np.complex128))
    )
    lvo = lie_derivative(grid, out.V[:, 0, 0].imag, om_field)
    total = out.field_strength()[0, 1, 0, 0] + c * 1j * lvo.data[3]
    assert np.max(np.abs(total - constants.LINE_EH_SCALE * lam * 1j)) < 1e-7


def test_solve_varying_spinor_coloured_probes():
    grid = TorusGrid(1, (8, 8))
    x = grid.meshes()
    data = np.zeros((4, *grid.sizes), dtype=np.complex128)
    data[0] = 1.0
    data[3] = 0.3 * np.sin(2 * np.pi * x[0]) + 1j
    psi = FormField(grid, data)
    a = np.zeros((2, 1, 1, *grid.sizes), dtype=np.complex128)
    a[1, 0, 0] = 1j * (0.1 * np.sin(2 * np.pi * x[0]) + 0.05 * np.cos(2 * np.pi * x[1]))
    init = GenConnection(grid, 1, a, np.zeros_like(a))
    out, trace = solve_eh_line(init, psi, tol=1e-9, max_iter=4000)
    assert trace.converged
    assert trace.iterations > 0
    lam = lambda_from(chern_from(curvature(out, psi), psi), psi, out.rank)
    _, norm = eh_residual_from(mean_curvature_from(curvature(out, psi), psi), psi, lam)
    assert norm < 1e-8


def test_solve_huge_connection_moves_the_residual():
    # the stencil does not depend on the connection, so a huge one leaves
    # it whole: the directions do not stall, and the residual falls by many
    # orders before the roundoff of k0 stops the iteration
    cfg = build_config({"connection": {"A": {"random": {"amp": 1e150}}}}, grid_size=16)
    _, start = solve_eh_line(cfg.conn, cfg.psi, max_iter=0)
    with pytest.raises(RuntimeError) as exc:
        solve_eh_line(cfg.conn, cfg.psi)
    msg = str(exc.value)
    assert "stalled directions" not in msg
    assert float(msg.rsplit("residual ", 1)[1]) <= 1e-10 * start.residual_history[0]


def test_solve_rejects_higher_rank():
    grid = make_grid()
    with pytest.raises(ValueError, match="rank"):
        solve_eh_line(GenConnection.zero(grid, 2), psi_const(grid))


def test_solve_budget_exhaustion_partial_trace():
    grid = make_grid()
    rng = np.random.default_rng(5216)
    conn = line_conn(grid, rng)
    out, trace = solve_eh_line(conn, psi_const(grid), max_iter=1)
    assert not trace.converged
    assert trace.iterations == 1
    assert len(trace.residual_history) == 2
    assert trace.residual_history[1] < trace.residual_history[0]


def test_solve_step_collapse_raises():
    grid = make_grid()
    rng = np.random.default_rng(5217)
    conn = line_conn(grid, rng)
    with pytest.raises(RuntimeError, match="step"):
        solve_eh_line(conn, psi_const(grid), tol=0.0)


# ---------------------------------------------------------------------------
# the solver's stencil map


def varying_b_doc(n, size):
    """A closed b-field varying along x0 (and x2 at n = 2): a non-constant spinor."""
    entries = [{"i": 0, "j": 1, "coeff": [{"c": 0.2, "trig": "sin", "k": [1] + [0] * (2 * n - 1)}]}]
    if n == 2:
        entries.append({"i": 2, "j": 3, "coeff": [{"c": 0.1, "trig": "cos", "k": [0, 0, 1, 0]}]})
    return {
        "n": n,
        "grid": {"sizes": [size] * (2 * n)},
        "bundle": {"rank": 1},
        "psi": {"b": {"entries": entries}},
        "connection": {"A": {"random": {"amp": 0.1, "modes": 2}}},
    }


def map_inputs(n, size, constant):
    """(init, psi, weight, k0): a starting connection for the probes, and
    the weight and k0 = k(init) that solve_eh_line computes about it.

    The constant-spinor case uses a constant connection, so the map about it
    is translation-invariant to the last bit."""
    if constant:
        grid = make_grid(n, size)
        psi = psi_const(grid, c=0.3)
        shape = (2 * n, 1, 1, *grid.sizes)
        a = np.full(shape, 0.05j) * np.arange(1, 2 * n + 1)[(...,) + (None,) * (2 * n + 2)]
        init = GenConnection(grid, 1, a, np.full(shape, -0.02j))
    else:
        cfg = build_config(varying_b_doc(n, size), seed=3)
        grid, psi, init = cfg.grid, cfg.psi, cfg.conn
    weight = np.sqrt(vol_density(grid, psi) * grid.cell_volume)
    k0 = _line_k(curvature(init, psi), psi)
    return init, psi, weight, k0


def probe_one(init, psi, weight, k0, s, point):
    """Response of the residual map to one unit impulse in field s at point."""
    grid = init.grid
    u = np.zeros((4 * grid.n, *grid.sizes))
    u[(s,) + tuple(point)] = 1.0
    return weight * (_line_k(curvature(_shifted(init, u), psi), psi) - k0)


def direct_map(monkeypatch, psi, weight):
    """_line_map's (offsets, coef), built without a curvature call."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the stencil map computed a curvature")

    monkeypatch.setattr(analysis, "curvature", unreachable)
    offsets, coef = _line_map(psi, weight)
    monkeypatch.undo()
    return offsets, coef


def probed_coefficients(init, psi, weight, k0, s, point, offsets):
    """The probed response to an impulse in field s at point, read at
    point + each offset; the response is exactly 0 at the point itself and
    everywhere off its stencil."""
    resp = probe_one(init, psi, weight, k0, s, point)
    targets = [tuple((np.array(point) + off) % resp.shape) for off in offsets]
    assert resp[tuple(point)] == 0.0
    reach = np.zeros(resp.shape, dtype=bool)
    reach[tuple(np.array(targets).T)] = True
    assert not np.any(resp[~reach])
    return resp, np.array([resp[target] for target in targets])


@pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant"])
@pytest.mark.parametrize("size", [8, 10])
def test_line_map_matches_dense_probes_bitwise(monkeypatch, size, constant):
    # the stencil's reach and the zero at the impulse's own point hold bit
    # for bit; the coefficients agree with the probes to roundoff
    init, psi, weight, k0 = map_inputs(1, size, constant)
    grid = init.grid
    offsets, coef = direct_map(monkeypatch, psi, weight)
    assert coef.shape == (4, 4, size, size)

    # one probe per unknown; each response is one column of the dense matrix
    ref = np.empty_like(coef)
    dense = np.empty((grid.npoints, 4 * grid.npoints))
    for s in range(4):
        for flat, point in enumerate(np.ndindex(grid.sizes)):
            resp, near = probed_coefficients(init, psi, weight, k0, s, point, offsets)
            ref[(s, slice(None)) + point] = near
            dense[:, s * grid.npoints + flat] = resp.ravel()
    assert np.max(np.abs(coef - ref)) <= 1e-15 * np.max(np.abs(coef))

    u = np.random.default_rng(8).standard_normal((4, *grid.sizes))
    got = _forward(offsets, coef, u)
    want = (dense @ u.ravel()).reshape(grid.sizes)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_line_map_matches_probe_sample_n2(monkeypatch):
    rng = np.random.default_rng(19)
    for constant in (False, True):
        init, psi, weight, k0 = map_inputs(2, 8, constant)
        offsets, coef = direct_map(monkeypatch, psi, weight)
        assert coef.shape == (8, 8, 8, 8, 8, 8)
        bound = 1e-15 * np.max(np.abs(coef))
        for _ in range(64):
            s = int(rng.integers(8))
            point = tuple(int(i) for i in rng.integers(8, size=4))
            _, want = probed_coefficients(init, psi, weight, k0, s, point, offsets)
            assert np.max(np.abs(coef[(s, slice(None)) + point] - want)) <= bound


@pytest.mark.parametrize("n", [1, 2])
def test_stencil_forward_adjoint_are_transposes(n):
    rng = np.random.default_rng(40 + n)
    sizes = (8, 10, 8, 12)[: 2 * n]
    offsets = _stencil_offsets(2 * n)
    coef = rng.standard_normal((4 * n, len(offsets), *sizes))
    u = rng.standard_normal((4 * n, *sizes))
    y = rng.standard_normal(sizes)
    lhs = float(np.sum(_forward(offsets, coef, u) * y))
    rhs = float(np.sum(u * _adjoint(offsets, coef, y)))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("n, size, bound", [(1, 128, 30.0), (2, 8, 60.0)])
def test_solve_varying_b_beyond_old_point_cap(n, size, bound):
    cfg = build_config(varying_b_doc(n, size), seed=0)
    assert cfg.grid.npoints > 1024
    start = time.perf_counter()
    out, trace = solve_eh_line(cfg.conn, cfg.psi)
    elapsed = time.perf_counter() - start
    assert trace.converged and trace.iterations > 0
    assert trace.residual_history[-1] <= 1e-8
    psi = cfg.psi
    assert trace.lam == lambda_from(chern_from(curvature(cfg.conn, psi), psi), psi, 1)
    _, norm = eh_residual_from(mean_curvature_from(curvature(out, psi), psi), psi, trace.lam)
    assert norm < 1e-7
    assert elapsed < bound
