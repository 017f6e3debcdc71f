"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Each test prints `ACCEPTANCE <k> <name>: PASS/FAIL (...)` with the
measured errors and runtime, then asserts.  Run with -s to see the
lines for passing criteria too.
"""

import json
import subprocess
import sys
import time

import numpy as np

from genkf import constants
from genkf.multivector import (
    GenVector,
    GradedForm,
    b_transform,
    blade_tables,
    clifford_act,
    exp_two_form,
    interior,
    mukai_pair,
    wedge,
)
from genkf.structures import (
    UDecomposition,
    gcs_complex,
    gcs_from_spinor,
    gcs_symplectic,
    gk_validate,
    spinor_line,
    u_project,
)
from genkf.fields import (
    ConnVariation,
    EndFormField,
    FormField,
    GenConnection,
    TorusGrid,
    b_transform_field,
    bfield_act,
    chern_pair,
    connection_derivative,
    curvature,
    d_field,
    eh_residual,
    gm_metric,
    gm_symplectic,
    lambda_from_chern,
    lie_derivative,
    mean_curvature,
    moment_value,
    shift_connection,
    trace_field,
    vol_density,
)
from genkf.structures import GKPair
from genkf.analysis import cohiggs_residual, solve_eh_line, symbol_exactness


def report_line(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def std_omega(n):
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def std_jmat(n):
    return np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))


def rand_form(rng, n):
    t = blade_tables(n)
    return GradedForm(n, rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))


def rand_gv(rng, n):
    return GenVector(rng.standard_normal(2 * n), rng.standard_normal(2 * n))


def rand_two_form(rng, n):
    m = rng.standard_normal((2 * n, 2 * n))
    return m - m.T


def trig_scalar(grid, rng, amp=0.1, modes=3):
    x = grid.meshes()
    n2 = 2 * grid.n
    out = np.zeros(grid.sizes)
    for _ in range(modes):
        k = rng.integers(-2, 3, size=n2)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * k[j] * x[j] / grid.periods[j] for j in range(n2))
        out += amp * rng.standard_normal() * np.cos(arg + ph)
    return out


def rand_skew(rng, r):
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return (g - g.conj().T) / 2.0


def rand_conn(grid, r, rng, amp=0.1, with_v=True):
    n2 = 2 * grid.n
    a = np.zeros((n2, *grid.sizes, r, r), dtype=np.complex128)
    v = np.zeros_like(a)
    for mu in range(n2):
        a[mu] = trig_scalar(grid, rng, amp)[..., None, None] * rand_skew(rng, r)
        if with_v:
            v[mu] = trig_scalar(grid, rng, amp)[..., None, None] * rand_skew(rng, r)
    return GenConnection(grid, r, a, v)


def rand_xi(grid, r, rng, amp=0.5):
    out = np.zeros((*grid.sizes, r, r), dtype=np.complex128)
    for _ in range(2):
        out += trig_scalar(grid, rng, amp)[..., None, None] * rand_skew(rng, r)
    return out


def psi_const(grid, c=0.0, bmat=None):
    om = std_omega(grid.n)
    b = c * om if bmat is None else bmat
    return FormField.constant(grid, exp_two_form(b + 1j * om))


def max_abs(x):
    return float(np.max(np.abs(x)))


def generalized_d(conn, phi):
    """(d + sum_mu dx^mu ^ A_mu + sum_mu V^mu i_mu) on an End-valued form field.

    The matrices act on the left; dx^mu ^ and i_mu are assembled column by
    column from the single-blade forms.
    """
    n = conn.grid.n
    size = 4**n
    eye = np.eye(2 * n)
    units = [GradedForm(n, col) for col in np.eye(size)]
    out = d_field(phi).data
    for mu in range(2 * n):
        dx = GradedForm.blade(n, (mu,))
        wedge_mu = np.stack([wedge(dx, e).coeffs for e in units], axis=1)
        int_mu = np.stack([interior(eye[mu], e).coeffs for e in units], axis=1)
        out = out + np.einsum("ab,b...ij->a...ij", wedge_mu, conn.A[mu] @ phi.data)
        out = out + np.einsum("ab,b...ij->a...ij", int_mu, conn.V[mu] @ phi.data)
    return EndFormField(conn.grid, conn.rank, out)


def operator_square(conn, psi):
    """D^2 applied to psi (x) s for the constant frame s = identity."""
    frame = np.einsum("c...,ij->c...ij", psi.data, np.eye(conn.rank))
    phi = EndFormField(conn.grid, conn.rank, frame)
    return generalized_d(conn, generalized_d(conn, phi))


# ---------------------------------------------------------------------------


def test_criterion_1_algebra_suite():
    rng = np.random.default_rng(90101)
    t0 = time.perf_counter()
    worst = 0.0
    trials = 1000
    for n in (1, 2, 3):
        for _ in range(trials):
            e1, e2 = rand_gv(rng, n), rand_gv(rng, n)
            a = rand_form(rng, n)
            lhs = clifford_act(e1, clifford_act(e2, a)) + clifford_act(
                e2, clifford_act(e1, a)
            )
            rhs = a * (e1.covec @ e2.vec + e2.covec @ e1.vec)
            worst = max(worst, (lhs - rhs).norm() / max(1.0, a.norm()))
        for _ in range(trials):
            fa, fb = rand_form(rng, n), rand_form(rng, n)
            d = mukai_pair(fa, fb) - (-1.0) ** n * mukai_pair(fb, fa)
            worst = max(worst, abs(d) / max(1.0, abs(mukai_pair(fa, fb))))
        for _ in range(trials):
            e = rand_gv(rng, n)
            fa, fb = rand_form(rng, n), rand_form(rng, n)
            d = mukai_pair(clifford_act(e, fa), fb) - constants.ADJUNCTION_SIGN * mukai_pair(
                fa, clifford_act(e, fb)
            )
            worst = max(worst, abs(d) / max(1.0, abs(mukai_pair(fa, fb))))
        for _ in range(trials):
            fa, fb = rand_form(rng, n), rand_form(rng, n)
            bm = rand_two_form(rng, n)
            d = mukai_pair(b_transform(bm, fa), b_transform(bm, fb)) - mukai_pair(fa, fb)
            worst = max(worst, abs(d) / max(1.0, abs(mukai_pair(fa, fb))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 10.0
    line = report_line(1, "clifford-mukai-algebra", ok, f"max err {worst:.3e}, {dt:.1f}s")
    assert ok, line


def test_criterion_2_structure_suite():
    rng = np.random.default_rng(90102)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        jc = gcs_complex(std_jmat(n))
        js = gcs_symplectic(std_omega(n))
        for j in (jc, js):
            worst = max(worst, j.square_defect(), j.orthogonality_defect())

        line_s = spinor_line(js)
        target = exp_two_form(1j * std_omega(n))
        scale = target.coeffs[0] / line_s.coeffs[0]
        worst = max(worst, (line_s * scale - target).norm() / target.norm())
        worst = max(worst, max_abs(gcs_from_spinor(spinor_line(jc)).J - jc.J))
        worst = max(worst, max_abs(gcs_from_spinor(line_s).J - js.J))

        for _ in range(20):
            a = rand_form(rng, n)
            total = GradedForm.zero(n)
            for k in range(-n, n + 1):
                total = total + u_project(js, k, a)
            worst = max(worst, (total - a).norm() / max(1.0, a.norm()))

        rep = gk_validate(jc, js)
        worst = max(worst, rep["commutator"], rep["square_defect"], rep["metric_symmetry"])
        if rep["metric_min_eigenvalue"] <= 0.0:
            worst = max(worst, 1.0)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 10.0
    line = report_line(2, "structure-suite", ok, f"max err {worst:.3e}, {dt:.1f}s")
    assert ok, line


def test_criterion_3_covariance_and_eh_b_invariance():
    # D = d + A^ + sum_mu V^mu i_mu obeys D_{b.A} = e^b D_A e^{-b}, since
    # e^b i_mu e^{-b} = i_mu - (i_mu b)^ and bfield_act moves exactly that
    # into A; so the raw law e^b (.) e^{-b} holds for D^2 on psi (x) 1.
    # curvature() is the gauge-covariant part of D^2: with dpsi = 0,
    # D^2(psi (x) s) = F_A(psi) s + psi (x) nabla_V s, nabla = d + A.  Under b,
    # nabla_V 1 = sum_mu V^mu A_mu shifts by -sum_{mu nu} V^mu V^nu b_{nu mu},
    # hence
    #   F_{b.A}(psi) = e^b F_A(e^{-b} psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) psi,
    # whose extra term (1/2) sum [V^mu, V^nu] b_{nu mu} is skew-Hermitian, so
    # the mean curvature and the EH norm are exactly b-invariant.
    rng = np.random.default_rng(90103)
    grid = TorusGrid(1, (32, 32))
    r = 2
    conn = rand_conn(grid, r, rng)
    psi = psi_const(grid)
    bmat = np.array([[0.0, 0.7], [-0.7, 0.0]])
    t0 = time.perf_counter()

    conn_b = bfield_act(bmat, conn)
    psi_b = b_transform_field(bmat, psi)
    psi_mb = b_transform_field(-bmat, psi)

    sq_lhs = operator_square(conn_b, psi)
    sq_rhs = b_transform_field(bmat, operator_square(conn, psi_mb))
    square_err = max_abs(sq_lhs.data - sq_rhs.data) / max(1.0, max_abs(sq_rhs.data))

    lhs = curvature(conn_b, psi)
    rhs = b_transform_field(bmat, curvature(conn, psi_mb))
    scale = max(1.0, max_abs(rhs.data))
    raw_err = max_abs(lhs.data - rhs.data) / scale
    delta = np.einsum("m...ij,n...jk,nm->...ik", conn.V, conn.V, bmat)
    pred = np.einsum("c...,...ij->c...ij", psi.data, delta)
    law_err = max_abs(lhs.data - rhs.data - pred) / scale

    lam = lambda_from_chern(conn, psi)
    _, norm0 = eh_residual(conn, psi, lam)
    _, norm_b = eh_residual(conn_b, psi_b, lam)
    inv_err = abs(norm_b - norm0) / max(1.0, norm0)

    k0 = mean_curvature(conn, psi)
    k_err = max_abs(mean_curvature(conn_b, psi_b) - k0) / max(1.0, max_abs(k0))

    dt = time.perf_counter() - t0
    worst = max(square_err, law_err, inv_err, k_err)
    ok = worst < 1e-10 and dt < 30.0
    line = report_line(
        3,
        "curvature-covariance+eh-b-invariance",
        ok,
        f"D^2 raw covariance err {square_err:.3e}, curvature law err {law_err:.3e}, "
        f"EH-norm invariance err {inv_err:.3e}, mean-curvature invariance err "
        f"{k_err:.3e}, raw curvature() covariance err {raw_err:.3e} (info), {dt:.1f}s",
    )
    assert ok, line


def test_criterion_4_specializations():
    rng = np.random.default_rng(90104)
    grid = TorusGrid(1, (32, 32))
    t0 = time.perf_counter()
    errs = {}

    # ordinary Hermitian-Yang-Mills: b = 0, V = 0
    conn = rand_conn(grid, 2, rng, with_v=False)
    psi = psi_const(grid)
    got = mean_curvature(conn, psi)
    lamf = 0.5 * np.einsum(
        "mn...ij,nm->...ij", conn.field_strength(), np.linalg.inv(std_omega(1))
    )
    want = constants.KAHLER_UPROJ_COEFF * lamf
    want = (want + np.swapaxes(want, -1, -2).conj()) / 2.0
    errs["hym"] = max_abs(got - want) / max(1.0, max_abs(want))

    # abelian line bundle with b = c omega and real vector part
    c = 0.4
    psi_c = psi_const(grid, c=c)
    a = np.zeros((2, *grid.sizes, 1, 1), dtype=np.complex128)
    vmat = np.zeros_like(a)
    v = np.stack([trig_scalar(grid, rng), trig_scalar(grid, rng)])
    for mu in range(2):
        a[mu, ..., 0, 0] = 1j * trig_scalar(grid, rng)
        vmat[mu, ..., 0, 0] = 1j * v[mu]
    line_conn = GenConnection(grid, 1, a, vmat)
    got = mean_curvature(line_conn, psi_c)[..., 0, 0]
    om_field = FormField.constant(grid, GradedForm.from_two_form_matrix(std_omega(1)))
    lvo = lie_derivative(grid, v, om_field)
    lvo_mat = np.zeros((2, 2, *grid.sizes), dtype=np.complex128)
    lvo_mat[0, 1] = lvo.data[3]
    lvo_mat[1, 0] = -lvo.data[3]
    total = line_conn.field_strength()[..., 0, 0] + c * 1j * lvo_mat
    contracted = 0.5 * np.einsum("mn...,nm->...", total, np.linalg.inv(std_omega(1)))
    want = (constants.KAHLER_UPROJ_COEFF * contracted).real
    errs["line"] = max_abs(got - want) / max(1.0, max_abs(want))

    # co-Higgs: central A, constant Higgs frame
    r = 2
    ac = np.zeros((2, *grid.sizes, r, r), dtype=np.complex128)
    for mu in range(2):
        ac[mu] = (1j * trig_scalar(grid, rng))[..., None, None] * np.eye(r)
    w = np.array([[0.2, 0.9], [0.1, -0.2]]) + 1j * np.array([[0.0, 0.3], [-0.4, 0.0]])
    z = np.array([1.0, 1j]) / np.sqrt(2.0)
    vc = np.zeros_like(ac)
    for mu in range(2):
        vc[mu] += z[mu] * w[None, None] - np.conj(z[mu]) * w.conj().T[None, None]
    ch_conn = GenConnection(grid, r, ac, vc)
    res, _ = cohiggs_residual(ch_conn, std_omega(1), 0.0)
    k = mean_curvature(ch_conn, psi_const(grid))
    errs["cohiggs"] = max_abs(res - k) / max(1.0, max_abs(k))

    dt = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst < 1e-8
    detail = ", ".join(f"{k} {v:.3e}" for k, v in errs.items())
    line = report_line(4, "specialization-cross-checks", ok, f"{detail}, {dt:.1f}s")
    assert ok, line


def test_criterion_5_chern_lambda_suite():
    rng = np.random.default_rng(90105)
    grid = TorusGrid(1, (32, 32))
    psi = psi_const(grid, c=0.2)
    conn = rand_conn(grid, 2, rng)
    t0 = time.perf_counter()

    tr = trace_field(curvature(conn, psi))
    closed_err = max_abs(d_field(tr).data) / max(1.0, max_abs(tr.data))

    c0 = chern_pair(conn, psi)
    no_v = GenConnection(grid, 2, conn.A, np.zeros_like(conn.V))
    v_err = abs(chern_pair(no_v, psi) - c0) / max(1.0, abs(c0))
    other = rand_conn(grid, 2, rng)
    conn_err = abs(chern_pair(other, psi) - c0) / max(1.0, abs(c0))

    flat_lam = lambda_from_chern(GenConnection.zero(grid, 1), psi)
    lam = lambda_from_chern(conn, psi)
    k = mean_curvature(conn, psi)
    vol = vol_density(grid, psi)
    drift = grid.integrate(vol * (np.einsum("...ii->...", k).real - 2 * lam))
    lam_err = max(abs(flat_lam), abs(float(drift)) / max(1.0, abs(lam)))

    dt = time.perf_counter() - t0
    worst = max(closed_err, v_err, conn_err, lam_err)
    ok = worst < 1e-10
    line = report_line(
        5,
        "chern-lambda-suite",
        ok,
        f"d-closed {closed_err:.3e}, V-indep {v_err:.3e}, conn-indep {conn_err:.3e}, "
        f"lambda {lam_err:.3e}, {dt:.1f}s",
    )
    assert ok, line


def test_criterion_6_moment_suite():
    rng = np.random.default_rng(90106)
    grid = TorusGrid(1, (32, 32))
    psi = psi_const(grid, c=0.25)
    r = 2
    conn = rand_conn(grid, r, rng)
    xi = rand_xi(grid, r, rng)
    t0 = time.perf_counter()

    def variation():
        a = np.zeros((2, *grid.sizes, r, r), dtype=np.complex128)
        v = np.zeros_like(a)
        for mu in range(2):
            a[mu] = trig_scalar(grid, rng)[..., None, None] * rand_skew(rng, r)
            v[mu] = trig_scalar(grid, rng)[..., None, None] * rand_skew(rng, r)
        return ConnVariation(a, v)

    a1, a2 = variation(), variation()
    w12 = gm_symplectic(grid, a1, a2, psi)
    anti_err = abs(w12 + gm_symplectic(grid, a2, a1, psi)) / max(1.0, abs(w12))
    pair = GKPair(gcs_complex(std_jmat(1)), gcs_symplectic(std_omega(1)))
    g12 = gm_metric(grid, a1, a2, pair, psi)
    sym_err = abs(g12 - gm_metric(grid, a2, a1, pair, psi)) / max(1.0, abs(g12))
    if gm_metric(grid, a1, a1, pair, psi) <= 0.0:
        sym_err = max(sym_err, 1.0)

    # integration by parts: exact gauge directions integrate to zero against
    # a flat connection, and the discrete divergence of any field vanishes
    stokes_err = abs(moment_value(grid, GenConnection.zero(grid, r), xi, psi))
    t = blade_tables(1)
    f = FormField(
        grid, np.stack([trig_scalar(grid, rng) for _ in range(t.size)]).astype(complex)
    )
    stokes_err = max(
        stokes_err,
        max_abs(grid.integrate(np.moveaxis(d_field(f).data, 0, -1)))
        / max(1.0, max_abs(f.data)),
    )

    step = 1e-4
    plus = moment_value(grid, shift_connection(conn, a1, step), xi, psi)
    minus = moment_value(grid, shift_connection(conn, a1, -step), xi, psi)
    deriv = (plus - minus) / (2.0 * step)
    want = constants.MOMENT_DERIVATIVE_SIGN * gm_symplectic(
        grid, connection_derivative(conn, xi), a1, psi
    )
    deriv_err = abs(deriv - want) / max(1.0, abs(want))

    mv = moment_value(grid, conn, xi, psi)
    k = mean_curvature(conn, psi)
    vol = vol_density(grid, psi)
    ident_err = abs(
        mv + grid.integrate(vol * np.einsum("...ij,...ji->...", xi, k).imag)
    ) / max(1.0, abs(mv))

    dt = time.perf_counter() - t0
    ok = (
        max(anti_err, sym_err, stokes_err, ident_err) < 1e-10 and deriv_err < 1e-6
    )
    line = report_line(
        6,
        "moment-map-suite",
        ok,
        f"pointwise {max(anti_err, sym_err):.3e}, stokes {stokes_err:.3e}, "
        f"derivative {deriv_err:.3e}, mu-equals-K {ident_err:.3e}, {dt:.1f}s",
    )
    assert ok, line


def test_criterion_7_symbol_exactness():
    t0 = time.perf_counter()
    worst_junction = 0
    table_err = 0
    for n in (1, 2):
        jc = gcs_complex(std_jmat(n))
        js = gcs_symplectic(std_omega(n))
        theta = np.zeros(2 * n)
        theta[0] = 1.0
        for r in (1, 2):
            rep = symbol_exactness(n, r, jc, js, theta, trials=100, seed=90107)
            worst_junction += sum(0 if ok else 1 for ok in rep.exact)
            table_err += abs((rep.dims[1] - rep.ranks[1]) - r * r)
            table_err += abs(sum((-1) ** i * d for i, d in enumerate(rep.dims)))
    dt = time.perf_counter() - t0
    ok = worst_junction == 0 and table_err == 0 and dt < 60.0
    line = report_line(
        7,
        "symbol-exactness",
        ok,
        f"inexact junctions {worst_junction}, table defects {table_err}, {dt:.1f}s",
    )
    assert ok, line


def test_criterion_8_solver():
    rng = np.random.default_rng(90108)
    grid = TorusGrid(1, (32, 32))
    psi = psi_const(grid)
    init = rand_conn(grid, 1, rng)
    lam = lambda_from_chern(init, psi)
    t0 = time.perf_counter()

    out, trace = solve_eh_line(init, psi, max_iter=10000, tol=1e-8)
    _, final_norm = eh_residual(out, psi, lam)

    # Fourier-projection oracle: per-mode least squares on the impulse
    # responses of the linearized residual map
    base = GenConnection.zero(grid, 1)
    kbase = mean_curvature(base, psi)[..., 0, 0].real
    resp = np.empty((4, *grid.sizes))
    for s in range(4):
        u = np.zeros((4, *grid.sizes))
        u[s, 0, 0] = 1.0
        pert = GenConnection(
            grid,
            1,
            base.A + 1j * u[:2][..., None, None],
            base.V + 1j * u[2:][..., None, None],
        )
        resp[s] = mean_curvature(pert, psi)[..., 0, 0].real - kbase
    mhat = np.fft.fftn(resp, axes=(1, 2))
    rho = mean_curvature(init, psi)[..., 0, 0].real - lam
    rhat = np.fft.fftn(rho)
    den = np.sum(np.abs(mhat) ** 2, axis=0)
    live = den > 1e-20 * den.max()
    dhat = np.zeros((4, *grid.sizes), dtype=np.complex128)
    dhat[:, live] = -np.conj(mhat[:, live]) * rhat[live] / den[live]
    delta = np.real(np.fft.ifftn(dhat, axes=(1, 2)))
    oracle = GenConnection(
        grid,
        1,
        init.A + 1j * delta[:2][..., None, None],
        init.V + 1j * delta[2:][..., None, None],
    )
    oracle_err = max(max_abs(out.A - oracle.A), max_abs(out.V - oracle.V))

    dt = time.perf_counter() - t0
    ok = (
        trace.converged
        and trace.iterations <= 10000
        and final_norm < 1e-8
        and oracle_err < 1e-6
        and dt < 60.0
    )
    line = report_line(
        8,
        "solver",
        ok,
        f"residual {final_norm:.3e} in {trace.iterations} iterations, "
        f"oracle gap {oracle_err:.3e}, {dt:.1f}s",
    )
    assert ok, line


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for run in ("1", "2"):
        pair = []
        for name, args in (
            ("verify", ["verify", "--grid", "16", "--seed", "11"]),
            ("symbols", ["symbols", "--rank", "2", "--trials", "30", "--seed", "11"]),
        ):
            path = tmp_path / f"{name}-{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "genkf.cli", *args, "--output", str(path)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            pair.append(path.read_bytes())
        outputs.append(pair)
    same = outputs[0] == outputs[1]
    dt = time.perf_counter() - t0
    ok = bool(same)
    line = report_line(
        9, "determinism", ok, f"byte-identical across two fresh processes, {dt:.1f}s"
    )
    assert ok, line
