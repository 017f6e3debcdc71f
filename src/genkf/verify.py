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


def _rows(groups):
    """Run each group's measure, in order, and write its rows.

    A group is (checks, measure): checks lists the (name, tolerance) of its
    rows and measure() returns one error per check.  A measure that raises
    ValueError or RuntimeError (a structure, spinor or symbol block that the
    library refuses) fails each row of its group with error 1.0, and the
    next group still runs.  A measure draws from the suite's rng when it
    runs, and what it builds dies with its frame.
    """
    rows = []
    for checks, measure in groups:
        try:
            errs = measure()
        except (ValueError, RuntimeError):
            errs = [1.0] * len(checks)
        rows += (_row(name, tol, err) for (name, tol), err in zip(checks, errs, strict=True))
    return rows


def _trials(trial):
    """A measure: the worst error of _ALGEBRA_TRIALS calls of trial()."""

    def measure():
        err = 0.0
        for _ in range(_ALGEBRA_TRIALS):
            err = max(err, trial())
        return (err,)

    return measure


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


def _rand_variation(rng, grid, r):
    return ConnVariation(_rand_component(rng, grid, r), _rand_component(rng, grid, r))


def _rel(err, scale):
    return err / max(1.0, scale)


# ---------------------------------------------------------------------------
# check groups


def _algebra_checks(rng, n):
    def clifford_relation():
        e1, e2 = _rand_gv(rng, n), _rand_gv(rng, n)
        a = _rand_form(rng, n)
        lhs = clifford_act(e1, clifford_act(e2, a)) + clifford_act(
            e2, clifford_act(e1, a)
        )
        rhs = a * (e1.covec @ e2.vec + e2.covec @ e1.vec)
        return _rel((lhs - rhs).norm(), a.norm())

    def pairing_adjunction():
        e = _rand_gv(rng, n)
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        lhs = mukai_pair(clifford_act(e, a), b)
        rhs = constants.ADJUNCTION_SIGN * mukai_pair(a, clifford_act(e, b))
        return _rel(abs(lhs - rhs), abs(lhs))

    def pairing_symmetry():
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        lhs = mukai_pair(a, b)
        rhs = (-1.0) ** n * mukai_pair(b, a)
        return _rel(abs(lhs - rhs), abs(lhs))

    def pairing_b_invariance():
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        bmat = _rand_two_form(rng, n)
        lhs = mukai_pair(b_transform(bmat, a), b_transform(bmat, b))
        rhs = mukai_pair(a, b)
        return _rel(abs(lhs - rhs), abs(rhs))

    def wedge_associativity():
        a, b, c = (_rand_form(rng, n) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        return _rel((lhs - rhs).norm(), lhs.norm())

    def interior_antiderivation():
        k = int(rng.integers(0, 2 * n + 1))
        a = _rand_form(rng, n).degree_part(k)
        b = _rand_form(rng, n)
        v = rng.standard_normal(2 * n)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * (-1.0) ** k
        return _rel((lhs - rhs).norm(), max(a.norm(), b.norm()))

    def exp_two_form_inverse():
        bmat = _rand_two_form(rng, n)
        out = wedge(exp_two_form(bmat), exp_two_form(-bmat))
        return (out - GradedForm.scalar(n, 1.0)).norm()

    def involution_degree_signs():
        a = _rand_form(rng, n)
        got = a.involution()
        want = GradedForm.zero(n)
        for k in range(2 * n + 1):
            sign = 1.0 if k % 4 in (0, 1) else -1.0
            want = want + a.degree_part(k) * sign
        return _rel((got - want).norm(), a.norm())

    return _rows(
        ([(check, 1e-12)], _trials(trial))
        for check, trial in (
            ("algebra/clifford-relation", clifford_relation),
            ("algebra/clifford-pairing-adjunction", pairing_adjunction),
            ("algebra/pairing-symmetry", pairing_symmetry),
            ("algebra/pairing-b-invariance", pairing_b_invariance),
            ("algebra/wedge-associativity", wedge_associativity),
            ("algebra/interior-antiderivation", interior_antiderivation),
            ("algebra/exp-two-form-inverse", exp_two_form_inverse),
            ("algebra/involution-degree-signs", involution_degree_signs),
        )
    )


def _structure_checks(rng, cfg, psi0):
    """The structure rows, one group each.  The random draws come first, in
    the order the rows use them, so a row that fails moves no other row's
    draw."""
    n, omega = cfg.n, cfg.omega
    jc, js = cfg.pair.J1, cfg.pair.J2
    bmat = _rand_two_form(rng, n)
    forms = [_rand_form(rng, n) for _ in range(10)]
    j = cache(lambda: gcs_from_spinor(psi0))
    dec = cache(lambda: UDecomposition(j()))

    def square():
        return (j().square_defect() + j().orthogonality_defect(),)

    def symplectic_roundtrip():
        line = spinor_line(js)
        target = exp_two_form(1j * omega)
        scale = target.coeffs[0] / line.coeffs[0]
        return (_rel((line * scale - target).norm(), target.norm()),)

    def complex_roundtrip():
        return (np.max(np.abs(gcs_from_spinor(spinor_line(jc)).J - jc.J)),)

    def b_transform_match():
        jb = gcs_b_transform(bmat, js)
        via_spinor = gcs_from_spinor(b_transform(bmat, spinor_line(js)))
        return (np.max(np.abs(via_spinor.J - jb.J)),)

    def resolution():
        err = 0.0
        for a in forms:
            total = GradedForm.zero(n)
            for k in range(-n, n + 1):
                total = total + dec().project(k, a)
            err = max(err, _rel((total - a).norm(), a.norm()))
        return (err,)

    def orthogonality():
        p = dec().projector
        err = 0.0
        for k in range(-n, n + 1):
            for l in range(-n, n + 1):
                prod = p(k) @ p(l)
                want = p(k) if k == l else np.zeros_like(prod)
                err = max(err, np.max(np.abs(prod - want)))
        return (err,)

    def dimensions():
        return (sum(abs(dec().dimension(k) - comb(2 * n, n + k)) for k in range(-n, n + 1)),)

    def compatibility():
        rep = gk_validate(jc, js)
        err = max(rep["commutator"], rep["square_defect"], rep["metric_symmetry"])
        return (err if rep["valid"] else max(err, 1.0),)

    return _rows([
        ([("structures/spinor-structure-square", 1e-10)], square),
        ([("structures/symplectic-spinor-roundtrip", 1e-10)], symplectic_roundtrip),
        ([("structures/complex-spinor-roundtrip", 1e-10)], complex_roundtrip),
        ([("structures/b-transform-structure-match", 1e-10)], b_transform_match),
        ([("structures/u-resolution-identity", 1e-10)], resolution),
        ([("structures/u-projector-orthogonality", 1e-10)], orthogonality),
        ([("structures/u-dimension-binomial", 0.5)], dimensions),
        ([("structures/gk-pair-compatibility", 1e-10)], compatibility),
    ])


def _field_checks(rng, cfg, curv):
    """The rows on the document's geometry and connection.  Each group
    draws on entry, in the order of its rows; bmat and a1, which a later
    group reads again, are drawn by the first group that reads them."""
    grid, conn, psi, pair = cfg.grid, cfg.conn, cfg.psi, cfg.pair
    fcurv, kmean, c0, _, _, closed = curv
    n, r = grid.n, conn.rank
    t = blade_tables(n)
    # the topological lambda, whatever lambda the document fixes; first and
    # outside every group, so that a non-real one (LambdaNotReal, a
    # ValueError) stops the command before any field work
    lam = lambda_from(c0, psi, r)
    bmat = cache(lambda: 0.5 * _rand_two_form(rng, n))
    a1 = cache(lambda: _rand_variation(rng, grid, r))
    vol = cache(lambda: vol_density(grid, psi))

    def spinor_closed():
        return (_rel(closed, float(np.max(np.abs(psi.data)))),)

    def derivative_skew_sum():
        # the real 0-forms f and g are the real and imaginary parts of one
        # 0-form u, so blade 1 << mu of d u is D_mu f + i D_mu g: a wrong
        # sign or factor on one of d's 0-form-to-1-form blades leaves a
        # nonzero sum
        f = _trig(rng, grid)
        g = _trig(rng, grid)
        udata = np.zeros((t.size, *grid.sizes), dtype=np.complex128)
        udata[0] = f + 1j * g
        du = d_field(FormField(grid, udata)).data
        err = 0.0
        for mu in range(2 * n):
            s = grid.integrate(du[1 << mu].real * g + f * du[1 << mu].imag)
            err = max(err, abs(float(s)))
        return (err,)

    def b_roundtrip(ff, scale):
        back = b_transform_field(-bmat(), b_transform_field(bmat(), ff)).data
        back -= ff.data
        return _rel(np.max(np.abs(back)), scale)

    def random_field_d():
        # a random field, filled blade by blade, and its b-transform round
        # trip, run as soon as bmat is drawn; the field dies here, before
        # d d of it is built
        ff = FormField(grid, np.empty((t.size, *grid.sizes), dtype=np.complex128))
        for l in range(t.size):
            ff.data[l] = _trig(rng, grid)
        scale = float(np.max(np.abs(ff.data)))
        roundtrip = b_roundtrip(ff, scale)
        return d_field(ff).data, scale, roundtrip

    def derivative_rows():
        dff, scale, roundtrip = random_field_d()
        nilpotent = _rel(np.max(np.abs(d_field(FormField(grid, dff)).data)), scale)
        stokes = _rel(np.max(np.abs(grid.integrate(np.moveaxis(dff, 0, -1)))), scale)
        return nilpotent, stokes, roundtrip

    def u_window():
        # draw the five sample points this check once took, so every later
        # row stays
        rng.integers(0, grid.sizes, size=(5, 2 * n))
        return (u_window_defect(fcurv, cfg.b, pair.J2),)

    def b_covariance():
        # bfield_act shifts A and so nabla_V in D^2(psi (x) s) = F_A(psi) s +
        # psi (x) nabla_V s, hence the curvature obeys
        # F_{b.A}(e^b psi) = e^b F_A(psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) e^b psi;
        # psi_b is new, so it is validated before its curvature, and the
        # EH-norm row reads its curvature too
        fscale = float(np.max(np.abs(fcurv.data))) + 1e-30
        psi_b = b_transform_field(bmat(), psi)
        validate_spinor_field(grid, psi_b)
        lhs = curvature(bfield_act(bmat(), conn), psi_b)
        _, norm_b = eh_residual_from(mean_curvature_from(lhs, psi_b), psi_b, lam)
        # lhs - rhs - pred, subtracted in that order into lhs's own array,
        # each right-hand side freed before the next is built
        lhs.data -= b_transform_field(bmat(), fcurv).data
        delta = np.einsum("mij...,njk...,nm->ik...", conn.V, conn.V, bmat())
        lhs.data -= psi_b.data[:, None, None] * delta
        covariance = _rel(np.max(np.abs(lhs.data)), fscale)
        _, norm0 = eh_residual_from(kmean, psi, lam)
        return covariance, _rel(abs(norm_b - norm0), norm0)

    def chern_trace_closed():
        tr = trace_field(fcurv)
        return (_rel(np.max(np.abs(d_field(tr).data)), float(np.max(np.abs(tr.data)))),)

    def chern_independence(other):
        return (_rel(abs(chern_from(curvature(other, psi), psi) - c0), abs(c0)),)

    def chern_mean():
        drift = grid.integrate(vol() * (np.einsum("ii...->...", kmean).real - r * lam))
        return (_rel(abs(drift), abs(lam)),)

    def mean_hermitian():
        err = np.max(np.abs(kmean - np.swapaxes(kmean, 0, 1).conj()))
        return (_rel(err, float(np.max(np.abs(kmean)))),)

    def gm_rows():
        # a1 is drawn before a2, and the moment rows read it again
        v1, v2 = a1(), _rand_variation(rng, grid, r)
        w12 = gm_symplectic(grid, v1, v2, psi)
        w21 = gm_symplectic(grid, v2, v1, psi)
        g12 = gm_metric(grid, v1, v2, pair, psi)
        g21 = gm_metric(grid, v2, v1, pair, psi)
        g11 = gm_metric(grid, v1, v1, pair, psi)
        err = _rel(abs(g12 - g21), abs(g12))
        if g11 <= 0.0:
            err = max(err, 1.0)
        return _rel(abs(w12 + w21), abs(w12)), err

    def moment_rows():
        xi = _rand_xi(rng, grid, r)
        mv = moment_value(grid, conn, xi, psi)
        pairing = np.einsum("ij...,ji...->...", xi, kmean)
        want = -grid.integrate(vol() * pairing.imag)
        # F is quadratic in (A, V), so moment_value is quadratic along
        # shift_connection and its central difference is exact at any step
        step = 1.0
        plus, minus = (
            moment_value(grid, shift_connection(conn, a1(), s), xi, psi)
            for s in (step, -step)
        )
        deriv = (plus - minus) / (2.0 * step)
        dwant = constants.MOMENT_DERIVATIVE_SIGN * gm_symplectic(
            grid, connection_derivative(conn, xi), a1(), psi
        )
        return _rel(abs(mv - want), abs(mv)), _rel(abs(deriv - dwant), abs(dwant))

    return _rows([
        ([("fields/spinor-d-closed", 1e-10)], spinor_closed),
        ([("fields/derivative-skew-sum", 1e-12)], derivative_skew_sum),
        (
            [
                ("fields/exterior-derivative-nilpotent", 1e-12),
                ("fields/discrete-stokes", 1e-12),
                ("fields/b-transform-field-roundtrip", 1e-12),
            ],
            derivative_rows,
        ),
        ([("fields/curvature-u-window", 1e-10)], u_window),
        (
            [("fields/curvature-b-covariance", 1e-10), ("fields/eh-norm-b-invariance", 1e-10)],
            b_covariance,
        ),
        ([("fields/chern-trace-closed", 1e-10)], chern_trace_closed),
        (
            [("fields/chern-v-independence", 1e-10)],
            lambda: chern_independence(GenConnection(grid, r, conn.A, np.zeros_like(conn.V))),
        ),
        (
            [("fields/chern-connection-independence", 1e-10)],
            lambda: chern_independence(_rand_conn(rng, grid, r)),
        ),
        ([("fields/chern-mean-consistency", 1e-10)], chern_mean),
        ([("fields/mean-curvature-hermitian", 1e-12)], mean_hermitian),
        (
            [
                ("fields/gm-symplectic-antisymmetry", 1e-10),
                ("fields/gm-metric-symmetric-positive", 1e-10),
            ],
            gm_rows,
        ),
        (
            [
                ("fields/moment-mean-curvature-pairing", 1e-10),
                ("fields/moment-derivative", 1e-6),
            ],
            moment_rows,
        ),
        (
            [("fields/dbar-flat-connection", 1e-12)],
            lambda: (dbar_residual(grid, GenConnection.zero(grid, 1), pair.J1),),
        ),
    ])


def _analysis_checks(rng, cfg, seed):
    n, r = cfg.n, cfg.rank
    # a self-contained standard pair, whatever the document's omega
    pair = GKPair(standard_complex(n), gcs_symplectic(np.kron(np.eye(n), OMEGA_BLOCK)))
    grid = TorusGrid(1, (16, 16))

    @cache
    def line():
        # e^{i omega} on the 16^2 grid, validated once for the two rows
        # that read it
        psi = exp_two_form_field(grid, 1j * OMEGA_BLOCK)
        validate_spinor_field(grid, psi)
        return psi

    def symbol_rows():
        theta = np.zeros(2 * n)
        theta[0] = 1.0
        rep = symbol_exactness(pair, r, theta, trials=8, seed=seed)
        inexact = sum(0 if ok else 1 for ok in rep.exact)
        dims0, ranks0 = _SYMBOL_TABLES[n]
        tables = sum(abs(d - d0 * r * r) for d, d0 in zip(rep.dims, dims0))
        tables += sum(abs(q - q0 * r * r) for q, q0 in zip(rep.ranks, ranks0))
        tables += abs(sum((-1) ** i * d for i, d in enumerate(rep.dims)))
        nullity = rep.dims[1] - rep.ranks[1]
        return inexact, tables, abs(nullity - r * r)

    def theta_plus_positive():
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
        return (err,)

    def cohiggs_match():
        rr = 2
        a = np.zeros((2, rr, rr, *grid.sizes), dtype=np.complex128)
        for mu in range(2):
            a[mu] = np.multiply.outer(np.eye(rr), 1j * _trig(rng, grid))
        w = np.array([[0.2, 0.9], [0.1, -0.2]]) + 1j * np.array([[0.0, 0.3], [-0.4, 0.0]])
        v = np.zeros_like(a)
        z = np.array([1.0, 1j]) / np.sqrt(2.0)
        for mu in range(2):
            v[mu] += (z[mu] * w - np.conj(z[mu]) * w.conj().T).reshape(rr, rr, 1, 1)
        conn = GenConnection(grid, rr, a, v)
        res, _ = cohiggs_residual(conn, OMEGA_BLOCK, 0.0)
        k = mean_curvature_from(curvature(conn, line()), line())
        return (_rel(np.max(np.abs(res - k)), np.max(np.abs(k))),)

    def solver_fixed_point():
        flat = GenConnection.zero(grid, 1)
        _, trace = solve_eh_line(flat, line(), max_iter=50, tol=1e-8)
        return (float(trace.residual_history[0]) + float(trace.iterations),)

    def line_oracle():
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
        return (_rel(np.max(np.abs(got - want)), np.max(np.abs(want))),)

    return _rows([
        (
            [
                ("analysis/symbol-junction-exactness", 0.5),
                ("analysis/symbol-dimension-tables", 0.5),
                ("analysis/symbol-kernel-dimension", 0.5),
            ],
            symbol_rows,
        ),
        ([("analysis/theta-plus-pairing-positive", 1e-10)], theta_plus_positive),
        ([("analysis/cohiggs-pipeline-match", 1e-8)], cohiggs_match),
        ([("analysis/solver-flat-fixed-point", 1e-8)], solver_fixed_point),
        ([("analysis/line-mean-curvature-oracle", 1e-8)], line_oracle),
    ])


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
