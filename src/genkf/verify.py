"""The identity suite behind `genkf verify`.

Each check measures one structural identity numerically and reports the
worst error against a fixed tolerance.  The suite runs on the configured
geometry and connection where the identity depends on them, and on small
self-contained instances where it does not.  Given the same seed the
rows are reproduced exactly.
"""

from __future__ import annotations

from functools import cache
from math import comb

import numpy as np

from . import constants
from .multivector import (
    GenVector,
    GradedForm,
    b_transform,
    blade_tables,
    clifford_act,
    exp_two_form,
    interior,
    mukai_pair,
    neutral_pairing,
    wedge,
)
from .structures import (
    OMEGA_BLOCK,
    GKPair,
    UDecomposition,
    gcs_b_transform,
    gcs_from_spinor,
    gcs_symplectic,
    gk_validate,
    spinor_line,
    standard_complex,
)
from .fields import (
    ConnVariation,
    FormField,
    GenConnection,
    TorusGrid,
    b_transform_field,
    bfield_act,
    chern_from,
    connection_derivative,
    curvature,
    d_field,
    dbar_residual,
    eh_residual_from,
    exp_two_form_field,
    gm_metric,
    gm_symplectic,
    lambda_from,
    lie_derivative,
    mean_curvature_from,
    moment_value,
    shift_connection,
    trace_field,
    u_window_defect,
    validate_spinor_field,
    vol_density,
)
from .analysis import cohiggs_residual, solve_eh_line, symbol_exactness

_SYMBOL_TABLES = {
    1: ((1, 4, 3), (1, 3)),
    2: ((1, 8, 13, 8, 2), (1, 7, 6, 2)),
}
_ALGEBRA_TRIALS = 40


def _row(check, tol, err):
    err = float(err)
    return {
        "check": check,
        "tolerance": float(tol),
        "error": err,
        "pass": bool(err < tol),
    }


def _rand_form(rng, n):
    t = blade_tables(n)
    return GradedForm(
        n, rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
    )


def _rand_gv(rng, n):
    return GenVector(rng.standard_normal(2 * n), rng.standard_normal(2 * n))


def _rand_two_form(rng, n):
    m = rng.standard_normal((2 * n, 2 * n))
    return m - m.T


def _trig(rng, grid, amp=0.1):
    """Random trigonometric field on grid: three waves, modes in [-2, 2]."""
    return grid.random_trig(rng, amp, modes=3, kmax=2)


def _rand_skew_mat(rng, r):
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return (g - g.conj().T) / 2.0


def _rand_xi(rng, grid, r):
    out = np.zeros((r, r, *grid.sizes), dtype=np.complex128)
    for _ in range(2):
        field = _trig(rng, grid, amp=0.5)
        out += np.multiply.outer(_rand_skew_mat(rng, r), field)
    return out


def _rand_component(rng, grid, r):
    n2 = 2 * grid.n
    out = np.zeros((n2, r, r, *grid.sizes), dtype=np.complex128)
    for mu in range(n2):
        field = _trig(rng, grid)
        out[mu] = np.multiply.outer(_rand_skew_mat(rng, r), field)
    return out


def _rand_conn(rng, grid, r):
    a = _rand_component(rng, grid, r)
    v = _rand_component(rng, grid, r)
    return GenConnection(grid, r, a, v)


def _rel(err, scale):
    return err / max(1.0, scale)


# ---------------------------------------------------------------------------
# check groups


def _algebra_checks(rng, n):
    rows = []

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        e1, e2 = _rand_gv(rng, n), _rand_gv(rng, n)
        a = _rand_form(rng, n)
        lhs = clifford_act(e1, clifford_act(e2, a)) + clifford_act(
            e2, clifford_act(e1, a)
        )
        rhs = a * (e1.covec @ e2.vec + e2.covec @ e1.vec)
        err = max(err, _rel((lhs - rhs).norm(), a.norm()))
    rows.append(_row("algebra/clifford-relation", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        e = _rand_gv(rng, n)
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        lhs = mukai_pair(clifford_act(e, a), b)
        rhs = constants.ADJUNCTION_SIGN * mukai_pair(a, clifford_act(e, b))
        err = max(err, _rel(abs(lhs - rhs), abs(lhs)))
    rows.append(_row("algebra/clifford-pairing-adjunction", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        lhs = mukai_pair(a, b)
        rhs = (-1.0) ** n * mukai_pair(b, a)
        err = max(err, _rel(abs(lhs - rhs), abs(lhs)))
    rows.append(_row("algebra/pairing-symmetry", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        bmat = _rand_two_form(rng, n)
        lhs = mukai_pair(b_transform(bmat, a), b_transform(bmat, b))
        rhs = mukai_pair(a, b)
        err = max(err, _rel(abs(lhs - rhs), abs(rhs)))
    rows.append(_row("algebra/pairing-b-invariance", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        a, b, c = (_rand_form(rng, n) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        err = max(err, _rel((lhs - rhs).norm(), lhs.norm()))
    rows.append(_row("algebra/wedge-associativity", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        k = int(rng.integers(0, 2 * n + 1))
        a = _rand_form(rng, n).degree_part(k)
        b = _rand_form(rng, n)
        v = rng.standard_normal(2 * n)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * (-1.0) ** k
        err = max(err, _rel((lhs - rhs).norm(), max(a.norm(), b.norm())))
    rows.append(_row("algebra/interior-antiderivation", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        bmat = _rand_two_form(rng, n)
        out = wedge(exp_two_form(bmat), exp_two_form(-bmat))
        err = max(err, (out - GradedForm.scalar(n, 1.0)).norm())
    rows.append(_row("algebra/exp-two-form-inverse", 1e-12, err))

    err = 0.0
    for _ in range(_ALGEBRA_TRIALS):
        a = _rand_form(rng, n)
        got = a.involution()
        want = GradedForm.zero(n)
        for k in range(2 * n + 1):
            sign = 1.0 if k % 4 in (0, 1) else -1.0
            want = want + a.degree_part(k) * sign
        err = max(err, _rel((got - want).norm(), a.norm()))
    rows.append(_row("algebra/involution-degree-signs", 1e-12, err))

    return rows


def _structure_checks(rng, cfg, psi0):
    """The structure rows.  A structure that `structures` refuses to build
    (a ValueError) fails each row that needs it with error 1.0, as the
    symbol rows do, and the other rows still run; the random draws come
    first, in the order the rows use them."""
    n, omega = cfg.n, cfg.omega
    jc, js = cfg.pair.J1, cfg.pair.J2
    bmat = _rand_two_form(rng, n)
    forms = [_rand_form(rng, n) for _ in range(10)]
    j = cache(lambda: gcs_from_spinor(psi0))
    dec = cache(lambda: UDecomposition(j()))

    def square():
        return j().square_defect() + j().orthogonality_defect()

    def symplectic_roundtrip():
        line = spinor_line(js)
        target = exp_two_form(1j * omega)
        scale = target.coeffs[0] / line.coeffs[0]
        return _rel((line * scale - target).norm(), target.norm())

    def complex_roundtrip():
        return np.max(np.abs(gcs_from_spinor(spinor_line(jc)).J - jc.J))

    def b_transform_match():
        jb = gcs_b_transform(bmat, js)
        via_spinor = gcs_from_spinor(b_transform(bmat, spinor_line(js)))
        return np.max(np.abs(via_spinor.J - jb.J))

    def resolution():
        err = 0.0
        for a in forms:
            total = GradedForm.zero(n)
            for k in range(-n, n + 1):
                total = total + dec().project(k, a)
            err = max(err, _rel((total - a).norm(), a.norm()))
        return err

    def orthogonality():
        p = dec().projector
        err = 0.0
        for k in range(-n, n + 1):
            for l in range(-n, n + 1):
                prod = p(k) @ p(l)
                want = p(k) if k == l else np.zeros_like(prod)
                err = max(err, np.max(np.abs(prod - want)))
        return err

    def dimensions():
        return sum(abs(dec().dimension(k) - comb(2 * n, n + k)) for k in range(-n, n + 1))

    def compatibility():
        rep = gk_validate(jc, js)
        err = max(rep["commutator"], rep["square_defect"], rep["metric_symmetry"])
        return err if rep["valid"] else max(err, 1.0)

    rows = []
    for check, tol, measure in (
        ("structures/spinor-structure-square", 1e-10, square),
        ("structures/symplectic-spinor-roundtrip", 1e-10, symplectic_roundtrip),
        ("structures/complex-spinor-roundtrip", 1e-10, complex_roundtrip),
        ("structures/b-transform-structure-match", 1e-10, b_transform_match),
        ("structures/u-resolution-identity", 1e-10, resolution),
        ("structures/u-projector-orthogonality", 1e-10, orthogonality),
        ("structures/u-dimension-binomial", 0.5, dimensions),
        ("structures/gk-pair-compatibility", 1e-10, compatibility),
    ):
        try:
            err = measure()
        except ValueError:
            err = 1.0
        rows.append(_row(check, tol, err))
    return rows


def _field_checks(rng, cfg, curv):
    rows = []
    grid, conn, psi = cfg.grid, cfg.conn, cfg.psi
    fcurv, kmean, c0, _, _, closed = curv
    n = grid.n
    t = blade_tables(n)
    scale_psi = float(np.max(np.abs(psi.data)))
    # the topological lambda, whatever lambda the document fixes; first, so
    # that a non-real one stops the suite before any field work
    lam = lambda_from(c0, psi, conn.rank)

    rows.append(
        _row(
            "fields/spinor-d-closed",
            1e-10,
            _rel(closed, scale_psi),
        )
    )

    # the real 0-forms f and g are the real and imaginary parts of one
    # 0-form u, so blade 1 << mu of d u is D_mu f + i D_mu g: a wrong sign or
    # factor on one of d's 0-form-to-1-form blades leaves a nonzero sum
    f = _trig(rng, grid)
    g = _trig(rng, grid)
    udata = np.zeros((t.size, *grid.sizes), dtype=np.complex128)
    udata[0] = f + 1j * g
    du = d_field(FormField(grid, udata)).data
    err = 0.0
    for mu in range(2 * n):
        s = grid.integrate(du[1 << mu].real * g + f * du[1 << mu].imag)
        err = max(err, abs(float(s)))
    rows.append(_row("fields/derivative-skew-sum", 1e-12, err))
    # each full-size array is freed once its rows are written, so the suite
    # holds at most one group's temporaries at a time
    del f, g, udata, du

    # a random field, filled blade by blade; the b-transform round trip
    # runs as soon as bmat is drawn, and ff is freed before d d ff is built
    # (the d rows draw nothing, so every draw keeps its place)
    ff = FormField(grid, np.empty((t.size, *grid.sizes), dtype=np.complex128))
    for l in range(t.size):
        ff.data[l] = _trig(rng, grid)
    scale = float(np.max(np.abs(ff.data)))
    bmat = 0.5 * _rand_two_form(rng, n)
    back = b_transform_field(-bmat, b_transform_field(bmat, ff)).data
    back -= ff.data
    roundtrip = _rel(np.max(np.abs(back)), scale)
    del back
    dff = d_field(ff).data  # for the nilpotency and Stokes rows
    del ff
    rows.append(
        _row(
            "fields/exterior-derivative-nilpotent",
            1e-12,
            _rel(np.max(np.abs(d_field(FormField(grid, dff)).data)), scale),
        )
    )
    rows.append(
        _row(
            "fields/discrete-stokes",
            1e-12,
            _rel(np.max(np.abs(grid.integrate(np.moveaxis(dff, 0, -1)))), scale),
        )
    )
    del dff
    rows.append(_row("fields/b-transform-field-roundtrip", 1e-12, roundtrip))

    fscale = float(np.max(np.abs(fcurv.data))) + 1e-30
    # draw the five sample points this check once took, so every later row stays
    rng.integers(0, grid.sizes, size=(5, 2 * n))
    err = u_window_defect(fcurv, cfg.b, cfg.pair.J2)
    rows.append(_row("fields/curvature-u-window", 1e-10, err))

    # bfield_act shifts A and so nabla_V in D^2(psi (x) s) = F_A(psi) s +
    # psi (x) nabla_V s, hence the curvature obeys
    # F_{b.A}(e^b psi) = e^b F_A(psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) e^b psi;
    # psi_b is new, so it is validated before its curvature.  A psi_b that
    # the validation refuses (a ValueError) fails this row and the EH-norm
    # row, which reads its curvature, with error 1.0
    psi_b = b_transform_field(bmat, psi)
    try:
        validate_spinor_field(grid, psi_b)
    except ValueError:
        covariance = b_invariance = 1.0
    else:
        lhs = curvature(bfield_act(bmat, conn), psi_b)
        _, norm_b = eh_residual_from(mean_curvature_from(lhs, psi_b), psi_b, lam)
        # lhs - rhs - pred, subtracted in that order into lhs's own array,
        # each right-hand side freed before the next is built
        lhs.data -= b_transform_field(bmat, fcurv).data
        delta = np.einsum("mij...,njk...,nm->ik...", conn.V, conn.V, bmat)
        lhs.data -= psi_b.data[:, None, None] * delta
        covariance = _rel(np.max(np.abs(lhs.data)), fscale)
        del lhs
        _, norm0 = eh_residual_from(kmean, psi, lam)
        b_invariance = _rel(abs(norm_b - norm0), norm0)
    del psi_b
    rows.append(_row("fields/curvature-b-covariance", 1e-10, covariance))
    rows.append(_row("fields/eh-norm-b-invariance", 1e-10, b_invariance))

    tr = trace_field(fcurv)
    rows.append(
        _row(
            "fields/chern-trace-closed",
            1e-10,
            _rel(np.max(np.abs(d_field(tr).data)), float(np.max(np.abs(tr.data)))),
        )
    )
    del tr

    no_v = GenConnection(grid, conn.rank, conn.A, np.zeros_like(conn.V))
    err = _rel(abs(chern_from(curvature(no_v, psi), psi) - c0), abs(c0))
    rows.append(_row("fields/chern-v-independence", 1e-10, err))
    del no_v

    other = _rand_conn(rng, grid, conn.rank)
    err = _rel(abs(chern_from(curvature(other, psi), psi) - c0), abs(c0))
    rows.append(_row("fields/chern-connection-independence", 1e-10, err))
    del other

    vol = vol_density(grid, psi)
    drift = grid.integrate(vol * (np.einsum("ii...->...", kmean).real - conn.rank * lam))
    rows.append(_row("fields/chern-mean-consistency", 1e-10, _rel(abs(drift), abs(lam))))

    rows.append(
        _row(
            "fields/mean-curvature-hermitian",
            1e-12,
            _rel(
                np.max(np.abs(kmean - np.swapaxes(kmean, 0, 1).conj())),
                float(np.max(np.abs(kmean))),
            ),
        )
    )

    a1 = ConnVariation(
        _rand_component(rng, grid, conn.rank), _rand_component(rng, grid, conn.rank)
    )
    a2 = ConnVariation(
        _rand_component(rng, grid, conn.rank), _rand_component(rng, grid, conn.rank)
    )
    w12 = gm_symplectic(grid, a1, a2, psi)
    w21 = gm_symplectic(grid, a2, a1, psi)
    rows.append(
        _row("fields/gm-symplectic-antisymmetry", 1e-10, _rel(abs(w12 + w21), abs(w12)))
    )

    g12 = gm_metric(grid, a1, a2, cfg.pair, psi)
    g21 = gm_metric(grid, a2, a1, cfg.pair, psi)
    g11 = gm_metric(grid, a1, a1, cfg.pair, psi)
    err = _rel(abs(g12 - g21), abs(g12))
    if g11 <= 0.0:
        err = max(err, 1.0)
    rows.append(_row("fields/gm-metric-symmetric-positive", 1e-10, err))

    xi = _rand_xi(rng, grid, conn.rank)
    mv = moment_value(grid, conn, xi, psi)
    pairing = np.einsum("ij...,ji...->...", xi, kmean)
    want = -grid.integrate(vol * pairing.imag)
    rows.append(
        _row("fields/moment-mean-curvature-pairing", 1e-10, _rel(abs(mv - want), abs(mv)))
    )

    # F is quadratic in (A, V), so moment_value is quadratic along
    # shift_connection and its central difference is exact at any step
    step = 1.0
    plus, minus = (
        moment_value(grid, shift_connection(conn, a1, s), xi, psi)
        for s in (step, -step)
    )
    deriv = (plus - minus) / (2.0 * step)
    want = constants.MOMENT_DERIVATIVE_SIGN * gm_symplectic(
        grid, connection_derivative(conn, xi), a1, psi
    )
    rows.append(_row("fields/moment-derivative", 1e-6, _rel(abs(deriv - want), abs(want))))

    flat = GenConnection.zero(grid, 1)
    rows.append(
        _row(
            "fields/dbar-flat-connection",
            1e-12,
            dbar_residual(grid, flat, cfg.pair.J1),
        )
    )

    return rows


def _line_oracle_check(rng):
    grid = TorusGrid(1, (16, 16))
    c = 0.4
    om = OMEGA_BLOCK
    psi = exp_two_form_field(grid, (c + 1j) * om)
    a = np.zeros((2, 1, 1, *grid.sizes), dtype=np.complex128)
    v = np.stack([_trig(rng, grid), _trig(rng, grid)])
    vmat = np.zeros_like(a)
    for mu in range(2):
        a[mu, 0, 0] = 1j * _trig(rng, grid)
        vmat[mu, 0, 0] = 1j * v[mu]
    conn = GenConnection(grid, 1, a, vmat)
    validate_spinor_field(grid, psi)
    got = mean_curvature_from(curvature(conn, psi), psi)[0, 0]

    om_field = FormField.constant(grid, GradedForm.from_two_form_matrix(om))
    lvo = lie_derivative(grid, v, om_field)
    lvo_mat = np.zeros((2, 2, *grid.sizes), dtype=np.complex128)
    lvo_mat[0, 1] = lvo.data[3]
    lvo_mat[1, 0] = -lvo.data[3]
    total = conn.field_strength()[:, :, 0, 0] + c * 1j * lvo_mat
    contracted = 0.5 * np.einsum("mn...,nm->...", total, np.linalg.inv(om))
    want = (constants.KAHLER_UPROJ_COEFF * contracted).real
    return _row(
        "analysis/line-mean-curvature-oracle",
        1e-8,
        _rel(np.max(np.abs(got - want)), np.max(np.abs(want))),
    )


def _analysis_checks(rng, cfg, seed):
    rows = []
    n = cfg.n
    r = cfg.rank
    # a self-contained standard pair, whatever the document's omega
    pair = GKPair(standard_complex(n), gcs_symplectic(np.kron(np.eye(n), OMEGA_BLOCK)))
    theta = np.zeros(2 * n)
    theta[0] = 1.0

    try:
        rep = symbol_exactness(pair, r, theta, trials=8, seed=seed)
        inexact = sum(0 if ok else 1 for ok in rep.exact)
        rows.append(_row("analysis/symbol-junction-exactness", 0.5, float(inexact)))

        dims0, ranks0 = _SYMBOL_TABLES[n]
        err = sum(abs(d - d0 * r * r) for d, d0 in zip(rep.dims, dims0))
        err += sum(abs(q - q0 * r * r) for q, q0 in zip(rep.ranks, ranks0))
        err += abs(sum((-1) ** i * d for i, d in enumerate(rep.dims)))
        rows.append(_row("analysis/symbol-dimension-tables", 0.5, float(err)))

        nullity = rep.dims[1] - rep.ranks[1]
        rows.append(
            _row("analysis/symbol-kernel-dimension", 0.5, float(abs(nullity - r * r)))
        )
    except (ValueError, RuntimeError):
        for name in (
            "analysis/symbol-junction-exactness",
            "analysis/symbol-dimension-tables",
            "analysis/symbol-kernel-dimension",
        ):
            rows.append(_row(name, 0.5, 1.0))

    plus = (np.eye(4 * n) + pair.g_hat()) / 2.0
    err = 0.0
    for _ in range(20):
        th = rng.normal(size=2 * n)
        if np.abs(th).max() < 1e-2:
            continue
        full = np.concatenate([np.zeros(2 * n), th])
        t10 = (full - 1j * (pair.J1.J @ full)) / 2.0
        val = neutral_pairing(
            GenVector.from_array(plus @ t10),
            GenVector.from_array(plus @ np.conj(t10)),
        )
        err = max(err, abs(val.imag) / (1.0 + abs(val)))
        if val.real <= 1e-6 * (th @ th):
            err = max(err, 1.0)
    rows.append(_row("analysis/theta-plus-pairing-positive", 1e-10, err))

    grid = TorusGrid(1, (16, 16))
    rr = 2
    a = np.zeros((2, rr, rr, *grid.sizes), dtype=np.complex128)
    for mu in range(2):
        a[mu] = np.multiply.outer(np.eye(rr), 1j * _trig(rng, grid))
    w = np.array([[0.2, 0.9], [0.1, -0.2]]) + 1j * np.array([[0.0, 0.3], [-0.4, 0.0]])
    om = OMEGA_BLOCK
    v = np.zeros_like(a)
    z = np.array([1.0, 1j]) / np.sqrt(2.0)
    for mu in range(2):
        v[mu] += (z[mu] * w - np.conj(z[mu]) * w.conj().T).reshape(rr, rr, 1, 1)
    conn = GenConnection(grid, rr, a, v)
    res, _ = cohiggs_residual(conn, om, 0.0)
    psi = exp_two_form_field(grid, 1j * om)
    validate_spinor_field(grid, psi)
    k = mean_curvature_from(curvature(conn, psi), psi)
    rows.append(
        _row(
            "analysis/cohiggs-pipeline-match",
            1e-8,
            _rel(np.max(np.abs(res - k)), np.max(np.abs(k))),
        )
    )

    flat = GenConnection.zero(grid, 1)
    _, trace = solve_eh_line(flat, psi, max_iter=50, tol=1e-8)
    rows.append(
        _row(
            "analysis/solver-flat-fixed-point",
            1e-8,
            float(trace.residual_history[0]) + float(trace.iterations),
        )
    )

    rows.append(_line_oracle_check(rng))
    return rows


def run_suite(cfg, curv, seed=0):
    """All checks as report rows; deterministic for a fixed seed.

    The caller validates cfg.psi first and passes curv, the document's
    (F, mean curvature, chern pair, lambda, EH norm) checked for finiteness,
    and the max |d psi| that the validation computed
    (cli._curvature_numbers); curvatures and moment values on cfg.psi here
    take it as it is.  Each spinor the suite builds itself is validated
    before its first curvature.
    """
    rng = np.random.default_rng([seed, 101])
    psi0 = cfg.psi.value_at((0,) * (2 * cfg.n))
    rows = []
    rows += _algebra_checks(rng, cfg.n)
    rows += _structure_checks(rng, cfg, psi0)
    rows += _field_checks(rng, cfg, curv)
    rows += _analysis_checks(rng, cfg, seed)
    return rows
