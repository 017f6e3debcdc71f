"""The identity suite behind `genkf verify`.

Each check measures one structural identity numerically and reports the
worst error against a fixed tolerance.  The suite runs on the configured
geometry and connection where the identity depends on them, and on small
self-contained instances where it does not.  Given the same seed the
rows are reproduced exactly.
"""

from __future__ import annotations

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
    GKPair,
    UDecomposition,
    gcs_b_transform,
    gcs_complex,
    gcs_from_spinor,
    gcs_symplectic,
    gk_validate,
    spinor_line,
    u_project,
)
from .fields import (
    ConnVariation,
    FormField,
    GenConnection,
    TorusGrid,
    b_transform_field,
    bfield_act,
    chern_pair,
    connection_derivative,
    curvature,
    d_field,
    dbar_residual,
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
from .analysis import cohiggs_residual, solve_eh_line, symbol_exactness

_J_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])
_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])

_SYMBOL_TABLES = {
    1: ((1, 4, 3), (1, 3)),
    2: ((1, 8, 13, 8, 2), (1, 7, 6, 2)),
}


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


def _trig(rng, grid, amp=0.1, modes=3):
    x = grid.meshes()
    n2 = 2 * grid.n
    out = np.zeros(grid.sizes)
    for _ in range(modes):
        k = rng.integers(-2, 3, size=n2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * k[j] * x[j] / grid.periods[j] for j in range(n2))
        out += amp * rng.standard_normal() * np.cos(arg + phase)
    return out


def _rand_skew_mat(rng, r):
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return (g - g.conj().T) / 2.0


def _rand_xi(rng, grid, r):
    out = np.zeros((*grid.sizes, r, r), dtype=np.complex128)
    for _ in range(2):
        out += _trig(rng, grid, amp=0.5)[..., None, None] * _rand_skew_mat(rng, r)
    return out


def _rand_component(rng, grid, r, amp=0.1):
    n2 = 2 * grid.n
    out = np.zeros((n2, *grid.sizes, r, r), dtype=np.complex128)
    for mu in range(n2):
        out[mu] = _trig(rng, grid, amp=amp)[..., None, None] * _rand_skew_mat(rng, r)
    return out


def _rand_conn(rng, grid, r, amp=0.1, with_v=True):
    a = _rand_component(rng, grid, r, amp)
    v = _rand_component(rng, grid, r, amp) if with_v else np.zeros_like(a)
    return GenConnection(grid, r, a, v)


def _rel(err, scale):
    return err / max(1.0, scale)


def _sample_index_points(rng, grid, count):
    pts = [(0,) * (2 * grid.n)]
    for _ in range(count - 1):
        pts.append(tuple(int(rng.integers(0, s)) for s in grid.sizes))
    return pts


# ---------------------------------------------------------------------------
# check groups


def _algebra_checks(rng, n, trials=40):
    rows = []

    err = 0.0
    for _ in range(trials):
        e1, e2 = _rand_gv(rng, n), _rand_gv(rng, n)
        a = _rand_form(rng, n)
        lhs = clifford_act(e1, clifford_act(e2, a)) + clifford_act(
            e2, clifford_act(e1, a)
        )
        rhs = a * (e1.covec @ e2.vec + e2.covec @ e1.vec)
        err = max(err, _rel((lhs - rhs).norm(), a.norm()))
    rows.append(_row("algebra/clifford-relation", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        e = _rand_gv(rng, n)
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        lhs = mukai_pair(clifford_act(e, a), b)
        rhs = constants.ADJUNCTION_SIGN * mukai_pair(a, clifford_act(e, b))
        err = max(err, _rel(abs(lhs - rhs), abs(lhs)))
    rows.append(_row("algebra/clifford-pairing-adjunction", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        lhs = mukai_pair(a, b)
        rhs = (-1.0) ** n * mukai_pair(b, a)
        err = max(err, _rel(abs(lhs - rhs), abs(lhs)))
    rows.append(_row("algebra/pairing-symmetry", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        a, b = _rand_form(rng, n), _rand_form(rng, n)
        bmat = _rand_two_form(rng, n)
        lhs = mukai_pair(b_transform(bmat, a), b_transform(bmat, b))
        rhs = mukai_pair(a, b)
        err = max(err, _rel(abs(lhs - rhs), abs(rhs)))
    rows.append(_row("algebra/pairing-b-invariance", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        a, b, c = (_rand_form(rng, n) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        err = max(err, _rel((lhs - rhs).norm(), lhs.norm()))
    rows.append(_row("algebra/wedge-associativity", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        k = int(rng.integers(0, 2 * n + 1))
        a = _rand_form(rng, n).degree_part(k)
        b = _rand_form(rng, n)
        v = rng.standard_normal(2 * n)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * (-1.0) ** k
        err = max(err, _rel((lhs - rhs).norm(), max(a.norm(), b.norm())))
    rows.append(_row("algebra/interior-antiderivation", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        bmat = _rand_two_form(rng, n)
        out = wedge(exp_two_form(bmat), exp_two_form(-bmat))
        err = max(err, (out - GradedForm.scalar(n, 1.0)).norm())
    rows.append(_row("algebra/exp-two-form-inverse", 1e-12, err))

    err = 0.0
    for _ in range(trials):
        a = _rand_form(rng, n)
        got = a.involution()
        want = GradedForm.zero(n)
        for k in range(2 * n + 1):
            sign = 1.0 if k % 4 in (0, 1) else -1.0
            want = want + a.degree_part(k) * sign
        err = max(err, _rel((got - want).norm(), a.norm()))
    rows.append(_row("algebra/involution-degree-signs", 1e-12, err))

    return rows


def _structure_checks(rng, n, omega, psi0):
    rows = []
    jc = gcs_complex(np.kron(np.eye(n), _J_BLOCK))
    js = gcs_symplectic(omega)

    j = gcs_from_spinor(psi0)
    rows.append(
        _row(
            "structures/spinor-structure-square",
            1e-10,
            j.square_defect() + j.orthogonality_defect(),
        )
    )

    line = spinor_line(js)
    target = exp_two_form(1j * omega)
    scale = target.coeffs[0] / line.coeffs[0]
    rows.append(
        _row(
            "structures/symplectic-spinor-roundtrip",
            1e-10,
            _rel((line * scale - target).norm(), target.norm()),
        )
    )

    rows.append(
        _row(
            "structures/complex-spinor-roundtrip",
            1e-10,
            np.max(np.abs(gcs_from_spinor(spinor_line(jc)).J - jc.J)),
        )
    )

    bmat = _rand_two_form(rng, n)
    jb = gcs_b_transform(bmat, js)
    via_spinor = gcs_from_spinor(b_transform(bmat, spinor_line(js)))
    rows.append(
        _row(
            "structures/b-transform-structure-match",
            1e-10,
            np.max(np.abs(via_spinor.J - jb.J)),
        )
    )

    err = 0.0
    for _ in range(10):
        a = _rand_form(rng, n)
        total = GradedForm.zero(n)
        for k in range(-n, n + 1):
            total = total + u_project(j, k, a)
        err = max(err, _rel((total - a).norm(), a.norm()))
    rows.append(_row("structures/u-resolution-identity", 1e-10, err))

    dec = UDecomposition(j)
    err = 0.0
    for k in range(-n, n + 1):
        for l in range(-n, n + 1):
            prod = dec.projector(k) @ dec.projector(l)
            want = dec.projector(k) if k == l else np.zeros_like(prod)
            err = max(err, np.max(np.abs(prod - want)))
    rows.append(_row("structures/u-projector-orthogonality", 1e-10, err))

    err = 0.0
    for k in range(-n, n + 1):
        err += abs(dec.dimension(k) - comb(2 * n, n + k))
    rows.append(_row("structures/u-dimension-binomial", 0.5, err))

    rep = gk_validate(jc, js)
    err = max(rep["commutator"], rep["square_defect"], rep["metric_symmetry"])
    if rep["metric_min_eigenvalue"] <= 1e-8:
        err = max(err, 1.0)
    rows.append(_row("structures/gk-pair-compatibility", 1e-10, err))

    return rows


def _field_checks(rng, cfg):
    rows = []
    grid, conn, psi = cfg.grid, cfg.conn, cfg.psi
    n = grid.n
    t = blade_tables(n)
    scale_psi = float(np.max(np.abs(psi.data)))

    rows.append(
        _row(
            "fields/spinor-d-closed",
            1e-10,
            _rel(np.max(np.abs(d_field(psi).data)), scale_psi),
        )
    )

    f = _trig(rng, grid)
    g = _trig(rng, grid)
    fdata = np.zeros((t.size, *grid.sizes), dtype=np.complex128)
    fdata[0] = f
    df = d_field(FormField(grid, fdata)).data
    gdata = np.zeros_like(fdata)
    gdata[0] = g
    dg = d_field(FormField(grid, gdata)).data
    err = 0.0
    for mu in range(2 * n):
        s = grid.integrate((df[1 << mu] * g + f * dg[1 << mu]).real)
        err = max(err, abs(float(s)))
    rows.append(_row("fields/derivative-skew-sum", 1e-12, err))

    rand_data = np.stack([_trig(rng, grid) for _ in range(t.size)]).astype(
        np.complex128
    )
    ff = FormField(grid, rand_data)
    ddf = d_field(d_field(ff))
    scale = float(np.max(np.abs(ff.data)))
    rows.append(
        _row(
            "fields/exterior-derivative-nilpotent",
            1e-12,
            _rel(np.max(np.abs(ddf.data)), scale),
        )
    )

    rows.append(
        _row(
            "fields/discrete-stokes",
            1e-12,
            _rel(
                np.max(np.abs(grid.integrate(np.moveaxis(d_field(ff).data, 0, -1)))),
                scale,
            ),
        )
    )

    bmat = 0.5 * _rand_two_form(rng, n)
    back = b_transform_field(-bmat, b_transform_field(bmat, ff))
    rows.append(
        _row(
            "fields/b-transform-field-roundtrip",
            1e-12,
            _rel(np.max(np.abs(back.data - ff.data)), scale),
        )
    )

    fcurv = curvature(conn, psi)
    fscale = float(np.max(np.abs(fcurv.data))) + 1e-30
    err = 0.0
    for point in _sample_index_points(rng, grid, 6):
        dec = UDecomposition(gcs_from_spinor(psi.value_at(point)))
        slab = fcurv.data[(slice(None),) + point].reshape(t.size, -1)
        for k in range(-n, n + 1):
            if k in (-n, -n + 2):
                continue
            err = max(err, np.max(np.abs(dec.projector(k) @ slab)) / fscale)
    rows.append(_row("fields/curvature-u-window", 1e-10, err))

    # bfield_act shifts A and so nabla_V in D^2(psi (x) s) = F_A(psi) s +
    # psi (x) nabla_V s, hence the curvature obeys
    # F_{b.A}(e^b psi) = e^b F_A(psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) e^b psi
    conn_b = bfield_act(bmat, conn)
    psi_b = b_transform_field(bmat, psi)
    lhs = curvature(conn_b, psi_b)
    rhs = b_transform_field(bmat, fcurv)
    delta = np.einsum("m...ij,n...jk,nm->...ik", conn.V, conn.V, bmat)
    pred = np.einsum("c...,...ij->c...ij", psi_b.data, delta)
    rows.append(
        _row(
            "fields/curvature-b-covariance",
            1e-10,
            _rel(np.max(np.abs(lhs.data - rhs.data - pred)), fscale),
        )
    )

    lam = lambda_from_chern(conn, psi)
    _, norm0 = eh_residual(conn, psi, lam)
    _, norm_b = eh_residual(conn_b, psi_b, lam)
    rows.append(
        _row("fields/eh-norm-b-invariance", 1e-10, _rel(abs(norm_b - norm0), norm0))
    )

    tr = trace_field(fcurv)
    rows.append(
        _row(
            "fields/chern-trace-closed",
            1e-10,
            _rel(np.max(np.abs(d_field(tr).data)), float(np.max(np.abs(tr.data)))),
        )
    )

    c0 = chern_pair(conn, psi)
    no_v = GenConnection(grid, conn.rank, conn.A, np.zeros_like(conn.V))
    rows.append(
        _row(
            "fields/chern-v-independence",
            1e-10,
            _rel(abs(chern_pair(no_v, psi) - c0), abs(c0)),
        )
    )

    other = _rand_conn(rng, grid, conn.rank)
    rows.append(
        _row(
            "fields/chern-connection-independence",
            1e-10,
            _rel(abs(chern_pair(other, psi) - c0), abs(c0)),
        )
    )

    k = mean_curvature(conn, psi)
    vol = vol_density(grid, psi)
    drift = grid.integrate(vol * (np.einsum("...ii->...", k).real - conn.rank * lam))
    rows.append(_row("fields/chern-mean-consistency", 1e-10, _rel(abs(drift), abs(lam))))

    rows.append(
        _row(
            "fields/mean-curvature-hermitian",
            1e-12,
            _rel(
                np.max(np.abs(k - np.swapaxes(k, -1, -2).conj())),
                float(np.max(np.abs(k))),
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

    pair = GKPair(gcs_complex(np.kron(np.eye(n), _J_BLOCK)), gcs_symplectic(cfg.omega))
    g12 = gm_metric(grid, a1, a2, pair, psi)
    g21 = gm_metric(grid, a2, a1, pair, psi)
    g11 = gm_metric(grid, a1, a1, pair, psi)
    err = _rel(abs(g12 - g21), abs(g12))
    if g11 <= 0.0:
        err = max(err, 1.0)
    rows.append(_row("fields/gm-metric-symmetric-positive", 1e-10, err))

    xi = _rand_xi(rng, grid, conn.rank)
    mv = moment_value(grid, conn, xi, psi)
    pairing = np.einsum("...ij,...ji->...", xi, k)
    want = -grid.integrate(vol * pairing.imag)
    rows.append(
        _row("fields/moment-mean-curvature-pairing", 1e-10, _rel(abs(mv - want), abs(mv)))
    )

    step = 1e-4
    plus = moment_value(grid, shift_connection(conn, a1, step), xi, psi)
    minus = moment_value(grid, shift_connection(conn, a1, -step), xi, psi)
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
            dbar_residual(grid, flat, gcs_complex(np.kron(np.eye(n), _J_BLOCK))),
        )
    )

    return rows


def _line_oracle_check(rng):
    grid = TorusGrid(1, (16, 16))
    c = 0.4
    om = _OMEGA_BLOCK
    psi = FormField.constant(grid, exp_two_form((c + 1j) * om))
    a = np.zeros((2, *grid.sizes, 1, 1), dtype=np.complex128)
    v = np.stack([_trig(rng, grid), _trig(rng, grid)])
    vmat = np.zeros_like(a)
    for mu in range(2):
        a[mu, ..., 0, 0] = 1j * _trig(rng, grid)
        vmat[mu, ..., 0, 0] = 1j * v[mu]
    conn = GenConnection(grid, 1, a, vmat)
    got = mean_curvature(conn, psi)[..., 0, 0]

    om_field = FormField.constant(grid, GradedForm.from_two_form_matrix(om))
    lvo = lie_derivative(grid, v, om_field)
    lvo_mat = np.zeros((2, 2, *grid.sizes), dtype=np.complex128)
    lvo_mat[0, 1] = lvo.data[3]
    lvo_mat[1, 0] = -lvo.data[3]
    total = conn.field_strength()[..., 0, 0] + c * 1j * lvo_mat
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
    r = min(cfg.rank, 2)
    jc = gcs_complex(np.kron(np.eye(n), _J_BLOCK))
    js = gcs_symplectic(np.kron(np.eye(n), _OMEGA_BLOCK))
    theta = np.zeros(2 * n)
    theta[0] = 1.0

    try:
        rep = symbol_exactness(n, r, jc, js, theta, trials=8, seed=seed)
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

    plus = (np.eye(4 * n) + GKPair(jc, js).g_hat()) / 2.0
    err = 0.0
    for _ in range(20):
        th = rng.normal(size=2 * n)
        if np.abs(th).max() < 1e-2:
            continue
        full = np.concatenate([np.zeros(2 * n), th])
        t10 = (full - 1j * (jc.J @ full)) / 2.0
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
    a = np.zeros((2, *grid.sizes, rr, rr), dtype=np.complex128)
    for mu in range(2):
        a[mu] = (1j * _trig(rng, grid))[..., None, None] * np.eye(rr)
    w = np.array([[0.2, 0.9], [0.1, -0.2]]) + 1j * np.array([[0.0, 0.3], [-0.4, 0.0]])
    om = _OMEGA_BLOCK
    v = np.zeros_like(a)
    z = np.array([1.0, 1j]) / np.sqrt(2.0)
    for mu in range(2):
        v[mu] += z[mu] * w[None, None] - np.conj(z[mu]) * w.conj().T[None, None]
    conn = GenConnection(grid, rr, a, v)
    res, _ = cohiggs_residual(conn, om, 0.0)
    psi = FormField.constant(grid, exp_two_form(1j * om))
    k = mean_curvature(conn, psi)
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


def run_suite(cfg, seed=0):
    """All checks as report rows; deterministic for a fixed seed."""
    rng = np.random.default_rng([seed, 101])
    psi0 = cfg.psi.value_at((0,) * (2 * cfg.n))
    rows = []
    rows += _algebra_checks(rng, cfg.n)
    rows += _structure_checks(rng, cfg.n, cfg.omega, psi0)
    rows += _field_checks(rng, cfg)
    rows += _analysis_checks(rng, cfg, seed)
    return rows
