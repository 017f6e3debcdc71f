"""Discrete field calculus on flat periodic tori.

Oracles here are independent of the implementation: analytic derivatives
of trigonometric fields, hand-assembled wedge/contraction formulas, and
conjugation identities.  Identities that are exact in the discrete model
(commuting shifts, constant-coefficient spinors) are tested at roundoff
tolerance; genuinely discretized statements carry O(h^2) tolerances.
"""

import numpy as np
import pytest

from genkf import _backend, constants
from genkf._tables import blade_tables
from genkf.multivector import (
    GradedForm,
    b_transform,
    exp_two_form,
    mukai_pair,
    wedge,
)
from genkf.structures import GKPair, UDecomposition, gcs_complex, gcs_from_spinor, gcs_symplectic
from genkf.fields import (
    ConnVariation,
    EndFormField,
    FormField,
    GenConnection,
    TorusGrid,
    b_transform_field,
    bfield_act,
    canonical_line_connection,
    chern_pair,
    connection_derivative,
    covariant_d,
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
    mukai_field,
    mukai_integral,
    shift_connection,
    trace_field,
    validate_spinor_field,
    vol_density,
)
from genkf.fields import _interior_basis, _rows, _unrows, _wedge_basis

RNG = np.random.default_rng(660301)


# ---------------------------------------------------------------------------
# helpers


def std_omega(n):
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def make_grid(n=1, size=16):
    return TorusGrid(n, (size,) * (2 * n))


def psi_const(grid, c=0.0, bmat=None):
    """Constant spinor field e^{b + i omega}, b = c*omega or explicit."""
    om = std_omega(grid.n)
    b = c * om if bmat is None else bmat
    form = exp_two_form(GradedForm.from_two_form_matrix(b + 1j * om))
    return FormField.constant(grid, form)


def trig_scalar(grid, rng, nmodes=3, amp=0.1):
    """Band-limited random real scalar field."""
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


def random_skew(rng, r):
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return (m - m.conj().T) / 2


def random_conn(grid, r, rng, amp=0.1, with_v=True):
    shape = (2 * grid.n, *grid.sizes, r, r)
    a = np.zeros(shape, dtype=np.complex128)
    v = np.zeros(shape, dtype=np.complex128)
    for mu in range(2 * grid.n):
        for _ in range(2):
            a[mu] += trig_scalar(grid, rng, amp=amp)[..., None, None] * random_skew(rng, r)
            if with_v:
                v[mu] += trig_scalar(grid, rng, amp=amp)[..., None, None] * random_skew(
                    rng, r
                )
    return GenConnection(grid, r, a, v)


def random_variation(grid, r, rng, amp=0.1):
    c = random_conn(grid, r, rng, amp=amp)
    return ConnVariation(c.A, c.V)


def random_xi(grid, r, rng, amp=0.5):
    out = np.zeros((*grid.sizes, r, r), dtype=np.complex128)
    for _ in range(2):
        out += trig_scalar(grid, rng, amp=amp)[..., None, None] * random_skew(rng, r)
    return out


def random_form_field(grid, rng, nmodes=2, amp=0.3):
    size = 4**grid.n
    data = np.zeros((size, *grid.sizes), dtype=np.complex128)
    for comp in range(size):
        data[comp] = trig_scalar(grid, rng, nmodes=nmodes, amp=amp) + 1j * trig_scalar(
            grid, rng, nmodes=nmodes, amp=amp
        )
    return FormField(grid, data)


def max_abs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# grid basics


def test_grid_validation():
    TorusGrid(1, (8, 8))
    with pytest.raises(ValueError):
        TorusGrid(1, (7, 8))  # odd
    with pytest.raises(ValueError):
        TorusGrid(1, (6, 8))  # too small
    with pytest.raises(ValueError):
        TorusGrid(1, (8, 8, 8))  # wrong count
    with pytest.raises(ValueError):
        TorusGrid(3, (8,) * 6)  # n too large
    g = TorusGrid(2, (8, 8, 8, 8), periods=(1.0, 2.0, 3.0, 4.0))
    for mu in range(4):
        assert abs(g.spacings[mu] * g.sizes[mu] - g.periods[mu]) < 1e-15


def test_grid_integrate_constant():
    g = TorusGrid(1, (16, 32), periods=(1.0, 2.0))
    ones = np.ones(g.sizes)
    assert abs(g.integrate(ones) - 2.0) < 1e-13


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_constant_zero():
    g = make_grid()
    f = FormField.constant(g, GradedForm.blade(1, (0,), 2.0 + 1j))
    assert max_abs(d_field(f).data) == 0.0


def test_d_trig_oracle():
    # F = sin(2 pi x1) dx2 -> 2 pi cos(2 pi x1) dx1^dx2 + O(h^2)
    g = TorusGrid(1, (64, 64))
    x = g.meshes()
    data = np.zeros((4, *g.sizes), dtype=np.complex128)
    data[2] = np.sin(2 * np.pi * x[0])  # blade index 2 = dx2
    out = d_field(FormField(g, data))
    want = 2 * np.pi * np.cos(2 * np.pi * x[0])
    err = max_abs(out.data[3] - want)
    # central differences: |error| <= k^3 h^2 / 6 with k = 2 pi
    assert err < (2 * np.pi) ** 3 * g.spacings[0] ** 2 / 5.9
    assert max_abs(out.data[:3]) < 1e-13


def test_d_second_order_rate():
    errs = []
    for size in (16, 32):
        g = TorusGrid(1, (size, size))
        x = g.meshes()
        data = np.zeros((4, *g.sizes), dtype=np.complex128)
        data[2] = np.sin(2 * np.pi * x[0])
        out = d_field(FormField(g, data))
        errs.append(max_abs(out.data[3] - 2 * np.pi * np.cos(2 * np.pi * x[0])))
    assert 3.5 < errs[0] / errs[1] < 4.5


@pytest.mark.parametrize("n", [1, 2])
def test_d_squared_zero(n):
    g = make_grid(n, 16 if n == 1 else 8)
    f = random_form_field(g, RNG)
    dd = d_field(d_field(f))
    assert max_abs(dd.data) < 1e-12 * max(1.0, max_abs(f.data))


def test_d_stokes_exact():
    g = make_grid()
    f = random_form_field(g, RNG)
    df = d_field(f)
    sums = df.data.reshape(df.data.shape[0], -1).sum(axis=1)
    assert max_abs(sums) < 1e-11 * max(1.0, max_abs(f.data))


# ---------------------------------------------------------------------------
# Lie derivative


def test_lie_constant_zero():
    g = make_grid()
    f = FormField.constant(g, GradedForm.blade(1, (0, 1), 1.0))
    v = np.ones((2, *g.sizes))
    assert max_abs(lie_derivative(g, v, f).data) < 1e-14


def test_lie_oracle_profile():
    # v = f(x1) d_1, omega = dx1^dx2: L_v omega = (D1 f) dx1^dx2 exactly
    g = make_grid()
    x = g.meshes()
    f = np.cos(2 * np.pi * x[0])
    v = np.zeros((2, *g.sizes))
    v[0] = f
    om = FormField.constant(g, GradedForm.blade(1, (0, 1), 1.0))
    out = lie_derivative(g, v, om)
    d1f = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * g.spacings[0])
    assert max_abs(out.data[3] - d1f) < 1e-13
    assert max_abs(out.data[:3]) < 1e-13


def test_lie_commutes_with_d():
    g = make_grid()
    v = np.stack([trig_scalar(g, RNG), trig_scalar(g, RNG)])
    f = random_form_field(g, RNG)
    lhs = lie_derivative(g, v, d_field(f))
    rhs = d_field(lie_derivative(g, v, f))
    assert max_abs(lhs.data - rhs.data) < 1e-12 * max(1.0, max_abs(f.data))


# ---------------------------------------------------------------------------
# covariant derivative


def test_covariant_d_abelian_reduces():
    g = make_grid()
    conn = random_conn(g, 1, RNG)
    a = EndFormField(g, 1, random_form_field(g, RNG).data[..., None, None])
    got = covariant_d(conn, a)
    want = d_field(a)
    assert max_abs(got.data - want.data) < 1e-13


def test_covariant_d_zero_connection():
    g = make_grid()
    conn = GenConnection.zero(g, 2)
    data = np.zeros((4, *g.sizes, 2, 2), dtype=np.complex128)
    data[0] = trig_scalar(g, RNG)[..., None, None] * random_skew(RNG, 2)
    a = EndFormField(g, 2, data)
    assert max_abs(covariant_d(conn, a).data - d_field(a).data) < 1e-14


def test_covariant_d_gauge_covariance():
    g = make_grid()
    r = 2
    conn = random_conn(g, r, RNG)
    data = np.zeros((4, *g.sizes, r, r), dtype=np.complex128)
    for comp in range(4):
        data[comp] = trig_scalar(g, RNG)[..., None, None] * random_skew(RNG, r)
    a = EndFormField(g, r, data)
    # constant unitary gauge transform
    u = np.linalg.qr(RNG.normal(size=(r, r)) + 1j * RNG.normal(size=(r, r)))[0]
    conn_g = GenConnection(
        g, r, np.einsum("ij,m...jk,kl->m...il", u, conn.A, u.conj().T),
        np.einsum("ij,m...jk,kl->m...il", u, conn.V, u.conj().T),
    )
    a_g = EndFormField(g, r, np.einsum("ij,c...jk,kl->c...il", u, a.data, u.conj().T))
    lhs = covariant_d(conn_g, a_g).data
    rhs = np.einsum(
        "ij,c...jk,kl->c...il", u, covariant_d(conn, a).data, u.conj().T
    )
    assert max_abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# curvature


def test_curvature_zero_connection():
    g = make_grid()
    psi = psi_const(g)
    f = curvature(GenConnection.zero(g, 2), psi)
    assert max_abs(f.data) == 0.0


def test_curvature_abelian_wedge_oracle():
    # V = 0: curvature is F_A ^ psi with F_A = i d(a)
    g = make_grid()
    x = g.meshes()
    a2 = np.sin(2 * np.pi * x[0])
    conn_a = np.zeros((2, *g.sizes, 1, 1), dtype=np.complex128)
    conn_a[1, ..., 0, 0] = 1j * a2
    conn = GenConnection(g, 1, conn_a, np.zeros_like(conn_a))
    psi = psi_const(g)
    got = curvature(conn, psi)

    d1a2 = (np.roll(a2, -1, axis=0) - np.roll(a2, 1, axis=0)) / (2 * g.spacings[0])
    psi0 = exp_two_form(GradedForm.from_two_form_matrix(1j * std_omega(1)))
    base = wedge(GradedForm.blade(1, (0, 1), 1.0), psi0)
    want = np.einsum("c,...->c...", base.coeffs, 1j * d1a2)[..., None, None]
    assert max_abs(got.data - want) < 1e-12


def test_curvature_line_lie_identity():
    # r=1, V = i v, b = 0: curvature equals F_A^psi + i L_v psi
    g = make_grid()
    psi = psi_const(g)
    conn_a = np.zeros((2, *g.sizes, 1, 1), dtype=np.complex128)
    for mu in range(2):
        conn_a[mu, ..., 0, 0] = 1j * trig_scalar(g, RNG)
    v = np.stack([trig_scalar(g, RNG), trig_scalar(g, RNG)])
    conn_v = np.zeros_like(conn_a)
    conn_v[0, ..., 0, 0] = 1j * v[0]
    conn_v[1, ..., 0, 0] = 1j * v[1]
    conn = GenConnection(g, 1, conn_a, conn_v)
    got = curvature(conn, psi)

    fa = curvature(GenConnection(g, 1, conn_a, np.zeros_like(conn_a)), psi)
    lie = lie_derivative(g, v, psi)
    want = fa.data + 1j * lie.data[..., None, None]
    assert max_abs(got.data - want) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_curvature_u_grading(n):
    g = make_grid(n, 16 if n == 1 else 8)
    psi = psi_const(g, c=0.3)
    conn = random_conn(g, 2, RNG)
    f = curvature(conn, psi)
    dec = UDecomposition(gcs_from_spinor(psi.value_at((0,) * 2 * n)))
    flat = f.data.reshape(4**n, -1)
    scale = max_abs(flat) + 1e-30
    for k in range(-n, n + 1):
        comp = dec.projector(k) @ flat
        if k in (-n, -n + 2):
            continue
        assert max_abs(comp) < 1e-10 * scale


def test_curvature_covariance_constant_b_abelian():
    # for r = 1 the transformed curvature matches e^b of the original exactly
    g = make_grid(1, 32)
    conn = random_conn(g, 1, RNG)
    psi = psi_const(g)
    bmat = np.array([[0.0, 0.7], [-0.7, 0.0]])
    lhs = curvature(bfield_act(bmat, conn), b_transform_field(bmat, psi))
    rhs = b_transform_field(bmat, curvature(conn, psi))
    assert max_abs(lhs.data - rhs.data) < 1e-10 * max(1.0, max_abs(rhs.data))


def test_curvature_covariance_constant_b_nonabelian_defect():
    # bfield_act shifts A_mu by -sum_nu V^nu b_{nu mu}, which moves nabla_V
    # in D^2(psi (x) s) = F_A(psi) s + psi (x) nabla_V s, so the curvature obeys
    # F_{b.A}(e^b psi) = e^b F_A(psi) + (sum_{mu nu} V^mu V^nu b_{nu mu}) e^b psi;
    # the extra term vanishes only when the V components commute (r >= 2 here)
    g = make_grid(1, 32)
    r = 2
    conn = random_conn(g, r, RNG)
    psi = psi_const(g)
    bmat = np.array([[0.0, 0.7], [-0.7, 0.0]])
    conn_b = bfield_act(bmat, conn)
    psi_b = b_transform_field(bmat, psi)
    lhs = curvature(conn_b, psi_b)
    rhs = b_transform_field(bmat, curvature(conn, psi))
    raw = max_abs(lhs.data - rhs.data)
    assert raw > 1e-3  # the defect is genuinely there
    delta = np.einsum("m...ij,n...jk,nm->...ik", conn.V, conn.V, bmat)
    pred = np.einsum("c...,...ij->c...ij", psi_b.data, delta)
    assert max_abs(lhs.data - rhs.data - pred) < 1e-10 * max(1.0, max_abs(rhs.data))


def test_bfield_act_trivial_cases():
    g = make_grid()
    conn = random_conn(g, 2, RNG)
    zero_b = np.zeros((2, 2))
    out = bfield_act(zero_b, conn)
    assert max_abs(out.A - conn.A) == 0.0 and max_abs(out.V - conn.V) == 0.0
    conn_no_v = GenConnection(g, 2, conn.A, np.zeros_like(conn.V))
    out2 = bfield_act(np.array([[0.0, 1.0], [-1.0, 0.0]]), conn_no_v)
    assert max_abs(out2.A - conn_no_v.A) == 0.0


# ---------------------------------------------------------------------------
# mean curvature and specializations


def test_mean_curvature_zero_conn():
    g = make_grid()
    assert max_abs(mean_curvature(GenConnection.zero(g, 2), psi_const(g))) == 0.0


def test_mean_curvature_hym_oracle():
    # b=0, V=0: K = Herm(KAHLER_UPROJ_COEFF * Lambda_omega F_A)
    g = make_grid()
    r = 2
    conn = random_conn(g, r, RNG, with_v=False)
    psi = psi_const(g)
    got = mean_curvature(conn, psi)

    om_inv = np.linalg.inv(std_omega(1))
    fmat = conn.field_strength()  # (2n, 2n, *sizes, r, r)
    lam = 0.5 * np.einsum("mn...ij,nm->...ij", fmat, om_inv)
    want = constants.KAHLER_UPROJ_COEFF * lam
    want = (want + np.swapaxes(want, -1, -2).conj()) / 2
    assert max_abs(got - want) < 1e-10


def test_mean_curvature_line_bundle_oracle():
    # r=1, V=iv, b=c*omega: K = Re(KAHLER_UPROJ_COEFF*Lambda(F_A + c i L_v omega))
    g = make_grid()
    c = 0.4
    psi = psi_const(g, c=c)
    conn_a = np.zeros((2, *g.sizes, 1, 1), dtype=np.complex128)
    for mu in range(2):
        conn_a[mu, ..., 0, 0] = 1j * trig_scalar(g, RNG)
    v = np.stack([trig_scalar(g, RNG), trig_scalar(g, RNG)])
    conn_v = np.zeros_like(conn_a)
    conn_v[0, ..., 0, 0] = 1j * v[0]
    conn_v[1, ..., 0, 0] = 1j * v[1]
    conn = GenConnection(g, 1, conn_a, conn_v)
    got = mean_curvature(conn, psi)[..., 0, 0]

    om_inv = np.linalg.inv(std_omega(1))
    fmat = conn.field_strength()[..., 0, 0]
    om_field = FormField.constant(g, GradedForm.from_two_form_matrix(std_omega(1)))
    lvo = lie_derivative(g, v, om_field)
    lvo_mat = np.zeros((2, 2, *g.sizes), dtype=np.complex128)
    lvo_mat[0, 1] = lvo.data[3]
    lvo_mat[1, 0] = -lvo.data[3]
    total = fmat + c * 1j * lvo_mat
    lam = 0.5 * np.einsum("mn...,nm->...", total, om_inv)
    want = (constants.KAHLER_UPROJ_COEFF * lam).real
    assert max_abs(got - want) < 1e-8


def test_mean_curvature_cohiggs_oracle():
    # b=0, A=0, constant nilpotent W: K = 0.5*[W, W^dag]
    g = make_grid()
    r = 2
    psi = psi_const(g)
    w = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    om = std_omega(1)
    z = np.array([1.0, 1j]) / np.sqrt(2.0)
    h = 1j * (z @ om @ z.conj())
    z = z / np.sqrt(h.real)
    vfield = np.zeros((2, *g.sizes, r, r), dtype=np.complex128)
    for mu in range(2):
        vfield[mu] += z[mu] * w[None, None] - np.conj(z[mu]) * w.conj().T[None, None]
    conn = GenConnection(g, r, np.zeros_like(vfield), vfield)
    got = mean_curvature(conn, psi)
    want = constants.COHIGGS_SCALE * (w @ w.conj().T - w.conj().T @ w)
    assert max_abs(got - want[None, None]) < 1e-12
    comm = w @ w.conj().T - w.conj().T @ w
    assert max_abs(comm - np.diag([1.0, -1.0])) < 1e-14


def test_eh_residual_flat_and_gauge():
    g = make_grid()
    psi = psi_const(g)
    field, norm = eh_residual(GenConnection.zero(g, 2), psi, 0.0)
    assert norm == 0.0 and max_abs(field) == 0.0

    conn = random_conn(g, 2, RNG)
    _, n0 = eh_residual(conn, psi, 0.1)
    u = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))[0]
    conn_g = GenConnection(
        g, 2, np.einsum("ij,m...jk,kl->m...il", u, conn.A, u.conj().T),
        np.einsum("ij,m...jk,kl->m...il", u, conn.V, u.conj().T),
    )
    _, n1 = eh_residual(conn_g, psi, 0.1)
    assert abs(n0 - n1) < 1e-12 * max(1.0, n0)


def test_eh_b_invariance():
    g = make_grid(1, 32)
    psi = psi_const(g)
    bmat = np.array([[0.0, 0.45], [-0.45, 0.0]])
    for r in (1, 2):
        conn = random_conn(g, r, RNG)
        _, n0 = eh_residual(conn, psi, 0.07)
        _, n1 = eh_residual(bfield_act(bmat, conn), b_transform_field(bmat, psi), 0.07)
        assert abs(n0 - n1) < 1e-10 * max(1.0, n0)


# ---------------------------------------------------------------------------
# Chern pairing


def test_chern_trivial_flat():
    g = make_grid()
    psi = psi_const(g)
    conn = GenConnection.zero(g, 1)
    assert abs(chern_pair(conn, psi)) < 1e-13
    assert abs(lambda_from_chern(conn, psi)) < 1e-13


def test_chern_v_independence():
    g = make_grid()
    psi = psi_const(g, c=0.2)
    conn = random_conn(g, 2, RNG)
    conn_no_v = GenConnection(g, 2, conn.A, np.zeros_like(conn.V))
    c1 = chern_pair(conn, psi)
    c2 = chern_pair(conn_no_v, psi)
    assert abs(c1 - c2) < 1e-10 * max(1.0, abs(c1))


def test_chern_gauge_independence():
    g = make_grid()
    psi = psi_const(g)
    conn = random_conn(g, 2, RNG)
    u = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))[0]
    conn_g = GenConnection(
        g, 2, np.einsum("ij,m...jk,kl->m...il", u, conn.A, u.conj().T),
        np.einsum("ij,m...jk,kl->m...il", u, conn.V, u.conj().T),
    )
    assert abs(chern_pair(conn, psi) - chern_pair(conn_g, psi)) < 1e-10


def test_trace_curvature_closed():
    g = make_grid()
    psi = psi_const(g)
    conn = random_conn(g, 2, RNG)
    tr_f = trace_field(curvature(conn, psi))
    assert max_abs(d_field(tr_f).data) < 1e-10


# ---------------------------------------------------------------------------
# Mukai integrals and the GM structures


def test_mukai_integral_stokes_identity():
    # integral <d a, b>_s = integral <a, d b>_s, exactly on the grid
    g = make_grid()
    f1 = random_form_field(g, RNG)
    f2 = random_form_field(g, RNG)
    lhs = mukai_integral(d_field(f1), f2)
    rhs = mukai_integral(f1, d_field(f2))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_gm_symplectic_antisymmetry():
    g = make_grid()
    psi = psi_const(g)
    a1 = random_variation(g, 2, RNG)
    a2 = random_variation(g, 2, RNG)
    w12 = gm_symplectic(g, a1, a2, psi)
    w21 = gm_symplectic(g, a2, a1, psi)
    assert abs(w12 + w21) < 1e-11 * max(1.0, abs(w12))
    assert abs(gm_symplectic(g, a1, a1, psi)) < 1e-11


def test_gm_metric_positive():
    g = make_grid()
    psi = psi_const(g)
    pair = GKPair(gcs_complex(np.array([[0.0, -1.0], [1.0, 0.0]])), gcs_symplectic(std_omega(1)))
    for r in (1, 2):
        for _ in range(5):
            a = random_variation(g, r, RNG)
            val = gm_metric(g, a, a, pair, psi)
            assert val > 0
    b1 = random_variation(g, 2, RNG)
    b2 = random_variation(g, 2, RNG)
    assert abs(gm_metric(g, b1, b2, pair, psi) - gm_metric(g, b2, b1, pair, psi)) < 1e-11


# ---------------------------------------------------------------------------
# moment map


def test_moment_trivial_cases():
    g = make_grid()
    psi = psi_const(g)
    conn = random_conn(g, 2, RNG)
    zero_xi = np.zeros((*g.sizes, 2, 2), dtype=np.complex128)
    assert moment_value(g, conn, zero_xi, psi) == 0.0
    flat = GenConnection.zero(g, 2)
    assert abs(moment_value(g, flat, random_xi(g, 2, RNG), psi)) < 1e-13


def test_moment_equals_mean_curvature_pairing():
    g = make_grid()
    psi = psi_const(g, c=0.25)
    conn = random_conn(g, 2, RNG)
    xi = random_xi(g, 2, RNG)
    mv = moment_value(g, conn, xi, psi)
    k = mean_curvature(conn, psi)
    vol = vol_density(g, psi)
    integrand = np.einsum("...ij,...ji->...", xi, k)
    want = -g.integrate(vol * integrand.imag)
    assert abs(mv - want) < 1e-10 * max(1.0, abs(mv))


def test_moment_derivative_identity():
    g = make_grid()
    psi = psi_const(g, c=0.2)
    conn = random_conn(g, 2, RNG)
    xi = random_xi(g, 2, RNG)
    a = random_variation(g, 2, RNG)
    t = 1e-4
    plus = moment_value(g, shift_connection(conn, a, t), xi, psi)
    minus = moment_value(g, shift_connection(conn, a, -t), xi, psi)
    deriv = (plus - minus) / (2 * t)
    dxi = connection_derivative(conn, xi)
    want = constants.MOMENT_DERIVATIVE_SIGN * gm_symplectic(g, dxi, a, psi)
    assert abs(deriv - want) < 1e-6 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# dbar residual


def test_dbar_flat_and_constant():
    g = make_grid()
    j = gcs_complex(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert dbar_residual(g, GenConnection.zero(g, 1), j) < 1e-12
    vconst = np.zeros((2, *g.sizes, 1, 1), dtype=np.complex128)
    vconst[0] += 0.3j
    vconst[1] += 0.1j
    conn = GenConnection(g, 1, np.zeros_like(vconst), vconst)
    assert dbar_residual(g, conn, j) < 1e-12


def test_dbar_detects_nonholomorphic():
    g = make_grid()
    j = gcs_complex(np.array([[0.0, -1.0], [1.0, 0.0]]))
    v = np.zeros((2, *g.sizes, 1, 1), dtype=np.complex128)
    v[0, ..., 0, 0] = 1j * trig_scalar(g, RNG, amp=1.0)
    conn = GenConnection(g, 1, np.zeros_like(v), v)
    assert dbar_residual(g, conn, j) > 1e-3


# ---------------------------------------------------------------------------
# spinor field validation


def test_validate_rejects_nonclosed():
    g = make_grid()
    x = g.meshes()
    om = std_omega(1)
    data = np.zeros((4, *g.sizes), dtype=np.complex128)
    base = exp_two_form(GradedForm.from_two_form_matrix(1j * om)).coeffs
    for c in range(4):
        data[c] = base[c]
    data[2] += 0.2 * np.sin(2 * np.pi * x[0])  # d of this dx^2 piece is nonzero
    with pytest.raises(ValueError, match="closed"):
        validate_spinor_field(g, FormField(g, data))


def test_validate_rejects_degenerate_point():
    g = make_grid()
    x = g.meshes()
    base = exp_two_form(GradedForm.from_two_form_matrix(1j * std_omega(1))).coeffs
    scale = 1.0 - np.exp(-((x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2) * 200.0)
    data = np.einsum("c,...->c...", base, scale.astype(np.complex128))
    with pytest.raises(ValueError, match="degenerate"):
        validate_spinor_field(g, FormField(g, data))
    with pytest.raises(ValueError):
        vol_density(g, FormField(g, data))


def test_vol_density_positive():
    g = make_grid()
    vol = vol_density(g, psi_const(g, c=0.3))
    assert np.all(vol > 0)
    assert max_abs(vol - 2.0) < 1e-12  # i^{-1}<psi, psibar>_s = 2 at n=1


# ---------------------------------------------------------------------------
# canonical line connection


def test_canonical_connection_constant_dz():
    g = make_grid()
    psi = psi_const(g)
    dz = GradedForm(1, np.array([0, 1, 1j, 0], dtype=np.complex128))
    phi = FormField.constant(g, dz)
    conn = canonical_line_connection(g, phi, psi)
    assert conn.rank == 1
    assert max_abs(conn.A) < 1e-12 and max_abs(conn.V) < 1e-12
    assert max_abs(curvature(conn, psi).data) < 1e-12


def test_canonical_connection_scaling_invariance():
    g = make_grid()
    psi = psi_const(g)
    x = g.meshes()
    f = 0.3 * np.cos(2 * np.pi * x[0])
    dz = np.array([0, 1, 1j, 0], dtype=np.complex128)
    data = np.einsum("c,...->c...", dz, np.exp(f).astype(np.complex128))
    c1 = canonical_line_connection(g, FormField(g, data), psi)
    c2 = canonical_line_connection(g, FormField(g, 2.5 * data), psi)
    assert max_abs(c1.A - c2.A) < 1e-11
    assert max_abs(c1.V - c2.V) < 1e-11


def test_canonical_connection_profile_oracle():
    g = make_grid(1, 32)
    psi = psi_const(g)
    x = g.meshes()
    f = 0.2 * np.cos(2 * np.pi * x[0]) + 0.1 * np.sin(2 * np.pi * x[1])
    dz = np.array([0, 1, 1j, 0], dtype=np.complex128)
    ef = np.exp(f)
    data = np.einsum("c,...->c...", dz, ef.astype(np.complex128))
    conn, diag = canonical_line_connection(g, FormField(g, data), psi, diagnostics=True)
    # eta must match D(e^f)/e^f as a pure covector, rho must equal e^{2f}
    for mu in range(2):
        dmu = (np.roll(ef, -1, axis=mu) - np.roll(ef, 1, axis=mu)) / (
            2 * g.spacings[mu]
        )
        assert max_abs(diag["eta"][2 + mu] - dmu / ef) < 1e-10
    assert max_abs(diag["eta"][:2]) < 1e-10
    assert max_abs(diag["rho"] - ef**2) < 1e-12


def test_canonical_connection_rejects_degenerate_phi():
    # a real spinor line e^b coincides with its conjugate annihilator, so it
    # is degenerate and its pairing density against itself vanishes
    g = make_grid()
    psi = psi_const(g)
    phi = FormField.constant(g, exp_two_form(GradedForm.from_two_form_matrix(
        0.4 * std_omega(1).astype(complex))))
    with pytest.raises(ValueError):
        canonical_line_connection(g, phi, psi)


def test_canonical_connection_twisted_profile_is_fine():
    # phi = e^{i g} dz is still d phi = eta . phi for a real eta, so the
    # construction succeeds and stays abelian-flat in the interesting slot
    g = make_grid()
    psi = psi_const(g)
    x = g.meshes()
    dz = np.array([0, 1, 1j, 0], dtype=np.complex128)
    data = np.einsum(
        "c,...->c...", dz, np.exp(1j * np.sin(2 * np.pi * x[0]))
    )
    conn, diag = canonical_line_connection(g, FormField(g, data), psi,
                                           diagnostics=True)
    assert diag["lsq_residual"] < 1e-10
    assert max_abs(diag["rho"] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# containers


def test_connection_validation():
    g = make_grid()
    a = np.zeros((2, *g.sizes, 2, 2), dtype=np.complex128)
    a[0, ..., 0, 1] = 1.0  # not skew-Hermitian
    with pytest.raises(ValueError):
        GenConnection(g, 2, a, np.zeros_like(a))
    with pytest.raises(ValueError):
        GenConnection(g, 2, np.zeros((2, 4, 4, 2, 2)), np.zeros((2, 4, 4, 2, 2)))


def test_mukai_field_pointwise():
    g = make_grid()
    f1 = random_form_field(g, RNG)
    f2 = random_form_field(g, RNG)
    vals = mukai_field(f1, f2)
    p = (3, 5)
    want = mukai_pair(f1.value_at(p), f2.value_at(p))
    assert abs(vals[p] - want) < 1e-12


def test_b_transform_field_matches_pointwise():
    g = make_grid()
    f = random_form_field(g, RNG)
    bmat = np.array([[0.0, 0.8], [-0.8, 0.0]])
    out = b_transform_field(bmat, f)
    p = (2, 7)
    want = b_transform(GradedForm.from_two_form_matrix(bmat), f.value_at(p))
    assert max_abs(out.value_at(p).coeffs - want.coeffs) < 1e-13


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_basis_scatter_matches_kernel_bitwise(n, r):
    # dx^mu ^ and i_mu as signed blade permutations agree bit for bit with
    # the general kernels fed a one-hot covector, signed zeros included
    t = blade_tables(n)
    rng = np.random.default_rng([n, r])
    shape = (t.size,) + (3,) * (2 * n) + (r, r)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data[rng.random(shape) < 0.2] = 0.0
    data.real[rng.random(shape) < 0.1] = -0.0
    data.imag[rng.random(shape) < 0.1] = -0.0
    rows = _rows(data)
    for mu in range(t.dim):
        onehot = np.zeros((rows.shape[0], t.dim), dtype=np.complex128)
        onehot[:, mu] = 1.0
        for got, kernel in (
            (_wedge_basis(t, mu, data), _backend.wedge1_batch),
            (_interior_basis(t, mu, data), _backend.interior_batch),
        ):
            want = _unrows(kernel(t, onehot, rows), data.shape[1:])
            assert np.array_equal(got, want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
