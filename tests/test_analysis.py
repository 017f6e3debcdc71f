"""Symbol complex of the deformation operator, curvature specializations,
and the abelian Einstein-Hermitian solver.

Oracles here are independent of the implementation: dimension and rank
tables counted by hand from the letter bookkeeping, hand-evaluated
commutators for the Higgs bracket, cohomological floors for the soliton
distance, and a Fourier-diagonal least-squares solution assembled from
impulse responses of the curvature map.
"""

import numpy as np
import pytest

from genkf import constants
from genkf.analysis import (
    FlowTrace,
    SymbolReport,
    _symbol_matrices,
    _skew_basis,
    cohiggs_residual,
    kr_soliton_check,
    solve_eh_line,
    symbol_exactness,
)
from genkf.fields import (
    FormField,
    GenConnection,
    TorusGrid,
    eh_residual,
    lambda_from_chern,
    lie_derivative,
    mean_curvature,
)
from genkf.multivector import (
    GenVector,
    GradedForm,
    exp_two_form,
    mukai_pair,
    neutral_pairing,
)
from genkf.structures import (
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
    return gcs_complex(j), gcs_symplectic(std_omega(n))


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
    shape = (2 * grid.n, *grid.sizes, 1, 1)
    a = np.zeros(shape, dtype=np.complex128)
    v = np.zeros(shape, dtype=np.complex128)
    for mu in range(2 * grid.n):
        a[mu] = 1j * trig_scalar(grid, rng, amp=amp)[..., None, None]
        if with_v:
            v[mu] = 1j * trig_scalar(grid, rng, amp=amp / 2)[..., None, None]
    return GenConnection(grid, 1, a, v)


def higgs_frame_v(grid, mats, weights):
    """V with W-frame components mats[i] on the (2i, 2i+1) coordinate pair."""
    r = mats[0].shape[0]
    v = np.zeros((2 * grid.n, *grid.sizes, r, r), dtype=np.complex128)
    for i, (w, c) in enumerate(zip(mats, weights)):
        wh = w.conj().T
        v[2 * i] = (w - wh) / np.sqrt(2.0 * c)
        v[2 * i + 1] = 1j * (w + wh) / np.sqrt(2.0 * c)
    return v


# hand-counted B^i dimensions and ranks per unit r^2: the complex starts at
# the skew-Hermitian endomorphisms, passes through their tensor product with
# the 4n real generalized directions, then the Hermitian piece plus the
# realified endomorphism-valued exterior powers of the antiholomorphic space
EXPECTED = {
    1: ((1, 4, 3), (1, 3)),
    2: ((1, 8, 13, 8, 2), (1, 7, 6, 2)),
}


# ---------------------------------------------------------------------------
# symbol complex: frozen tables


def test_symbol_dimension_and_rank_tables():
    for n in (1, 2):
        for r in (1, 2):
            j1, j2 = std_pair(n)
            th = cov_theta(n, [0.3, -1.1, 0.7, 0.2][: 2 * n])
            rep = symbol_exactness(n, r, j1, j2, th, trials=2)
            dims, ranks = EXPECTED[n]
            assert rep.dims == tuple(d * r * r for d in dims)
            assert rep.ranks == tuple(k * r * r for k in ranks)
            assert len(rep.exact) == 2 * n + 1
            assert all(rep.exact)
            assert sum((-1) ** i * d for i, d in enumerate(rep.dims)) == 0
            assert np.allclose(rep.theta.covec, th.covec)


def test_symbol_maps_compose_to_zero():
    for n, r in ((1, 2), (2, 1), (2, 2)):
        j1, j2 = std_pair(n)
        th = np.concatenate([np.zeros(2 * n), RNG.normal(size=2 * n)])
        dims, mats = _symbol_matrices(n, r, j1, j2, th)
        assert [m.shape[1] for m in mats] == dims[:-1]
        assert [m.shape[0] for m in mats] == dims[1:]
        for m_in, m_out in zip(mats, mats[1:]):
            scale = max(1.0, np.abs(m_in).max() * np.abs(m_out).max())
            assert np.abs(m_out @ m_in).max() < 1e-10 * scale


def test_symbol_kernel_reconstructs_endomorphism_times_theta():
    # the kernel at the middle of the first junction is exactly f (x) theta
    for n, r in ((1, 2), (2, 2)):
        j1, j2 = std_pair(n)
        comps = RNG.normal(size=2 * n)
        th = np.concatenate([np.zeros(2 * n), comps])
        _, mats = _symbol_matrices(n, r, j1, j2, th)
        basis = _skew_basis(r)
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


def test_symbol_exactness_b_transformed_pair():
    b = np.array([[0.0, 0.4], [-0.4, 0.0]])
    j1, j2 = std_pair(1)
    rep = symbol_exactness(
        1, 2, gcs_b_transform(b, j1), gcs_b_transform(b, j2),
        cov_theta(1, [0.9, 0.4]), trials=5,
    )
    assert rep.dims == (4, 16, 12)
    assert rep.ranks == (4, 12)
    assert all(rep.exact)


def test_symbol_trials_deterministic():
    j1, j2 = std_pair(2)
    th = cov_theta(2, [1.0, -0.3, 0.2, 0.8])
    rep1 = symbol_exactness(2, 2, j1, j2, th, trials=25, seed=3)
    rep2 = symbol_exactness(2, 2, j1, j2, th, trials=25, seed=3)
    assert rep1.dims == rep2.dims
    assert rep1.ranks == rep2.ranks
    assert rep1.exact == rep2.exact
    assert all(rep1.exact)


def test_symbol_rejects_degenerate_inputs():
    j1, j2 = std_pair(1)
    with pytest.raises(ValueError, match="nonzero"):
        symbol_exactness(1, 1, j1, j2, cov_theta(1, [0.0, 0.0]))
    with pytest.raises(ValueError, match="cotangent"):
        symbol_exactness(1, 1, j1, j2, GenVector([1.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError, match="pair"):
        symbol_exactness(1, 1, j2, j2, cov_theta(1, [1.0, 0.0]))
    with pytest.raises(ValueError, match="rank"):
        symbol_exactness(1, 0, j1, j2, cov_theta(1, [1.0, 0.0]))
    with pytest.raises(ValueError, match="dimension"):
        symbol_exactness(2, 1, j1, j2, cov_theta(2, [1.0, 0.0, 0.0, 0.0]))


def test_plus_projected_theta_components_pair_positively():
    # the pairing of the two complex-type components of the metric-positive
    # projection of a cotangent direction is real and positive; this is the
    # scalar that pins down the kernel at the first junction
    b = np.array([[0.0, 0.4], [-0.4, 0.0]])
    pairs = [std_pair(1), std_pair(2)]
    j1, j2 = std_pair(1)
    pairs.append((gcs_b_transform(b, j1), gcs_b_transform(b, j2)))
    for j1_, j2_ in pairs:
        n = j1_.n
        plus = (np.eye(4 * n) + GKPair(j1_, j2_).g_hat()) / 2.0
        for _ in range(50):
            th = RNG.normal(size=2 * n)
            if np.abs(th).max() < 1e-2:
                continue
            full = np.concatenate([np.zeros(2 * n), th])
            t10 = (full - 1j * (j1_.J @ full)) / 2.0
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
    assert np.max(np.abs(res - want)) < 1e-12
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
        a[mu] = 1j * trig_scalar(grid, rng)[..., None, None] * np.eye(2)
    conn = GenConnection(grid, 2, a, v)
    res, norm = cohiggs_residual(conn, std_omega(1), 0.0)
    k_pipe = mean_curvature(conn, psi_const(grid))
    scale = max(1.0, float(np.max(np.abs(k_pipe))))
    assert np.max(np.abs(res - k_pipe)) < 1e-10 * scale
    _, norm_pipe = eh_residual(conn, psi_const(grid), 0.0)
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
    k_pipe = mean_curvature(conn, psi)
    scale = max(1.0, float(np.max(np.abs(k_pipe))))
    assert np.max(np.abs(res - k_pipe)) < 1e-10 * scale


def test_cohiggs_normal_higgs_reduces_to_curvature_term():
    grid = make_grid()
    rng = np.random.default_rng(5211)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)  # normal
    v = higgs_frame_v(grid, [w], [1.0])
    a = np.zeros_like(v)
    for mu in range(2):
        a[mu] = 1j * trig_scalar(grid, rng)[..., None, None] * np.eye(2)
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
    v *= np.sin(2 * np.pi * x[0])[..., None, None]
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
# soliton distance


def test_kr_flat_connection_floor():
    # nothing exact can reach i*omega: the flat distance is |i omega| = 1
    grid = make_grid()
    val = kr_soliton_check(GenConnection.zero(grid, 1), std_omega(1), 0.3)
    assert abs(val - 1.0) < 1e-14


def test_kr_profile_connection_is_eh():
    # v = f(x0) d_0 with A tuned to g' = -c f' cancels F + c i L_v omega
    # exactly; the result sits at the floor but solves the line equation
    grid = make_grid()
    x = grid.meshes()
    c = 0.25
    f = 0.3 * np.sin(2 * np.pi * x[0])
    v = np.zeros((2, *grid.sizes, 1, 1), dtype=np.complex128)
    v[0] = 1j * f[..., None, None]
    a = np.zeros_like(v)
    a[1] = -1j * c * f[..., None, None]
    conn = GenConnection(grid, 1, a, v)
    val, diag = kr_soliton_check(conn, std_omega(1), c, diagnostics=True)
    assert abs(val - 1.0) < 1e-12
    assert diag["eh_residual"] < 1e-8
    assert abs(diag["lambda"]) < 1e-10
    # the profile is not holomorphic; the defect is reported, not gated
    assert diag["dbar_residual"] > 1e-3


def test_kr_c_zero_reduces_to_curvature_distance():
    grid = make_grid()
    rng = np.random.default_rng(5212)
    conn = line_conn(grid, rng, with_v=True)
    val = kr_soliton_check(conn, std_omega(1), 0.0)
    f01 = conn.field_strength()[0, 1][..., 0, 0]
    want = float(np.sqrt(grid.integrate(np.abs(f01 - 1j) ** 2)))
    assert abs(val - want) < 1e-12


def test_kr_rejects_higher_rank():
    grid = make_grid()
    with pytest.raises(ValueError, match="rank"):
        kr_soliton_check(GenConnection.zero(grid, 2), std_omega(1), 0.1)


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
    lam = lambda_from_chern(out, psi)
    _, norm = eh_residual(out, psi, lam)
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
    lam = lambda_from_chern(init, psi)

    # impulse responses of the linearized residual map, one per direction
    base = GenConnection.zero(grid, 1)
    kbase = mean_curvature(base, psi)[..., 0, 0].real
    resp = np.empty((4, *grid.sizes))
    for s in range(4):
        u = np.zeros((4, *grid.sizes))
        u[s, 0, 0] = 1.0
        pert = GenConnection(
            grid, 1,
            base.A + 1j * u[:2][..., None, None],
            base.V + 1j * u[2:][..., None, None],
        )
        resp[s] = mean_curvature(pert, psi)[..., 0, 0].real - kbase
    mhat = np.fft.fftn(resp, axes=(1, 2))
    rho = mean_curvature(init, psi)[..., 0, 0].real - lam
    rhat = np.fft.fftn(rho)
    den = np.sum(np.abs(mhat) ** 2, axis=0)
    live = den > 1e-20 * den.max()
    assert np.max(np.abs(rhat[~live])) < 1e-10 * max(1.0, np.abs(rhat).max())
    dhat = np.zeros((4, *grid.sizes), dtype=np.complex128)
    dhat[:, live] = -np.conj(mhat[:, live]) * rhat[live] / den[live]
    delta = np.real(np.fft.ifftn(dhat, axes=(1, 2)))
    oracle = GenConnection(
        grid, 1,
        init.A + 1j * delta[:2][..., None, None],
        init.V + 1j * delta[2:][..., None, None],
    )
    _, oracle_norm = eh_residual(oracle, psi, lam)
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
    lam = lambda_from_chern(out, psi)
    om = std_omega(1)
    om_field = FormField.constant(
        grid, GradedForm.from_two_form_matrix(om.astype(np.complex128))
    )
    lvo = lie_derivative(grid, out.V[..., 0, 0].imag, om_field)
    total = out.field_strength()[0, 1][..., 0, 0] + c * 1j * lvo.data[3]
    assert np.max(np.abs(total - constants.LINE_EH_SCALE * lam * 1j)) < 1e-7


def test_solve_varying_spinor_dense_path():
    grid = TorusGrid(1, (8, 8))
    x = grid.meshes()
    data = np.zeros((4, *grid.sizes), dtype=np.complex128)
    data[0] = 1.0
    data[3] = 0.3 * np.sin(2 * np.pi * x[0]) + 1j
    psi = FormField(grid, data)
    a = np.zeros((2, *grid.sizes, 1, 1), dtype=np.complex128)
    a[1] = 1j * (0.1 * np.sin(2 * np.pi * x[0]) + 0.05 * np.cos(2 * np.pi * x[1]))[
        ..., None, None
    ]
    init = GenConnection(grid, 1, a, np.zeros_like(a))
    out, trace = solve_eh_line(init, psi, tol=1e-9, max_iter=4000)
    assert trace.converged
    assert trace.iterations > 0
    lam = lambda_from_chern(out, psi)
    _, norm = eh_residual(out, psi, lam)
    assert norm < 1e-8


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
