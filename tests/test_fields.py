"""Discrete field calculus on flat periodic tori.

Oracles here are independent of the implementation: analytic derivatives
of trigonometric fields, hand-assembled wedge/contraction formulas, and
conjugation identities.  Identities that are exact in the discrete model
(commuting shifts, constant-coefficient spinors) are tested at roundoff
tolerance; genuinely discretized statements carry O(h^2) tolerances.
"""

import ast
import dataclasses
import itertools
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genkf import _backend, constants, fields
from genkf._tables import _wedge_sign, blade_tables
from genkf.multivector import (
    GenVector,
    GradedForm,
    b_transform,
    clifford_act,
    exp_blades,
    exp_two_form,
    interior,
    mukai_pair,
    two_form_blades,
    wedge,
)
from genkf.specio import build_config
from genkf.structures import (
    GKPair,
    UDecomposition,
    gcs_b_transform,
    gcs_complex,
    gcs_from_spinor,
    gcs_symplectic,
    standard_complex,
)
from genkf.fields import (
    ConnVariation,
    EndFormField,
    FormField,
    GenConnection,
    TorusGrid,
    b_transform_field,
    bfield_act,
    canonical_line_connection,
    chern_from,
    connection_derivative,
    curvature,
    d_field,
    dbar_residual,
    eh_residual_from,
    gm_metric,
    gm_symplectic,
    lambda_from,
    lie_derivative,
    mean_curvature_from,
    moment_value,
    mukai_field,
    shift_connection,
    trace_field,
    validate_spinor_field,
    vol_density,
)
from genkf.fields import (
    _bracket,
    _diff,
)

RNG = np.random.default_rng(660301)


# ---------------------------------------------------------------------------
# helpers


def _signed(sign, sub):
    """sign * sub, one sign per blade: a batched coordinate step is
    out[dst] += this over all of a table's rows at once."""
    return sign.reshape((-1,) + (1,) * (sub.ndim - 1)) * sub


def loop_wedge(t, a, f):
    """a ^ f as out[i | j] += (a[i] s) f[j] over every wedge-table row in
    table order, one row at a time on one-blade slices into zeros: the sum
    the kernels' row walk makes, written apart from it.  a's batch axes
    broadcast against f's trailing ones."""
    shape = np.broadcast_shapes(a.shape[1:], f.shape[1:])
    out = np.zeros((t.size,) + shape, dtype=np.complex128)
    for i, j, s in zip(t.wedge_i.tolist(), t.wedge_j.tolist(), t.wedge_s.tolist()):
        out[i | j:(i | j) + 1] += (a[i:i + 1] * s) * f[j:j + 1]
    return out


def loop_exp(t, b):
    """e^b = sum b^k / k!, k <= n, for two-form blades b, each term (the last
    term ^ b) / k by loop_wedge, added in order as exp_blades adds them."""
    acc = np.zeros_like(b)
    acc[0] = 1.0
    term = acc
    for k in range(1, t.n + 1):
        term = loop_wedge(t, term, b) * (1.0 / k)
        acc = acc + term
    return acc


def variation_act(grid, var, psi_data):
    """The spin action of a connection variation on a spinor field, as
    gm_symplectic applies it."""
    return _backend.clifford_batch(blade_tables(grid.n), var.V, var.A, psi_data[:, None, None])


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


def mat_field(field, m):
    """The constant matrix m (r, r) times a scalar field: (r, r, *sizes)."""
    return np.multiply.outer(m, field)


def random_conn(grid, r, rng, amp=0.1, with_v=True):
    shape = (2 * grid.n, r, r, *grid.sizes)
    a = np.zeros(shape, dtype=np.complex128)
    v = np.zeros(shape, dtype=np.complex128)
    for mu in range(2 * grid.n):
        for _ in range(2):
            a[mu] += mat_field(trig_scalar(grid, rng, amp=amp), random_skew(rng, r))
            if with_v:
                v[mu] += mat_field(trig_scalar(grid, rng, amp=amp), random_skew(rng, r))
    return GenConnection(grid, r, a, v)


def random_variation(grid, r, rng, amp=0.1):
    c = random_conn(grid, r, rng, amp=amp)
    return ConnVariation(c.A, c.V)


def random_xi(grid, r, rng, amp=0.5):
    out = np.zeros((r, r, *grid.sizes), dtype=np.complex128)
    for _ in range(2):
        out += mat_field(trig_scalar(grid, rng, amp=amp), random_skew(rng, r))
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


def d_live(grid, data, a=None):
    """fields._d_live over data's live blades into a fresh zero array: d^A data."""
    live = np.any(data.reshape(len(data), -1), axis=1)
    return fields._d_live(grid, lambda l: data[l] if live[l] else None, np.zeros_like(data), a)


def covariant_d(conn, a):
    """d^A of an end-form field as curvature takes it of V . psi: its
    [A_mu, .] left out at rank 1."""
    data = d_live(conn.grid, a.data, conn.A if a.rank > 1 else None)
    return EndFormField(conn.grid, a.rank, data)


def test_covariant_d_abelian_reduces():
    # at rank 1 the commutators [A_mu, a], taken, change d a by at most roundoff
    g = make_grid()
    conn = random_conn(g, 1, RNG)
    a = EndFormField(g, 1, random_form_field(g, RNG).data[:, None, None])
    got = d_live(g, a.data, conn.A)
    want = d_field(a)
    assert max_abs(got - want.data) < 1e-13


def test_covariant_d_zero_connection():
    g = make_grid()
    conn = GenConnection.zero(g, 2)
    data = np.zeros((4, 2, 2, *g.sizes), dtype=np.complex128)
    data[0] = mat_field(trig_scalar(g, RNG), random_skew(RNG, 2))
    a = EndFormField(g, 2, data)
    assert max_abs(covariant_d(conn, a).data - d_field(a).data) < 1e-14


def test_covariant_d_gauge_covariance():
    g = make_grid()
    r = 2
    conn = random_conn(g, r, RNG)
    data = np.zeros((4, r, r, *g.sizes), dtype=np.complex128)
    for comp in range(4):
        data[comp] = mat_field(trig_scalar(g, RNG), random_skew(RNG, r))
    a = EndFormField(g, r, data)
    # constant unitary gauge transform
    u = np.linalg.qr(RNG.normal(size=(r, r)) + 1j * RNG.normal(size=(r, r)))[0]
    conn_g = GenConnection(
        g, r, np.einsum("ij,mjk...,kl->mil...", u, conn.A, u.conj().T),
        np.einsum("ij,mjk...,kl->mil...", u, conn.V, u.conj().T),
    )
    a_g = EndFormField(g, r, np.einsum("ij,cjk...,kl->cil...", u, a.data, u.conj().T))
    lhs = covariant_d(conn_g, a_g).data
    rhs = np.einsum(
        "ij,cjk...,kl->cil...", u, covariant_d(conn, a).data, u.conj().T
    )
    assert max_abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# the (blade, r, r, *sizes) layout against per-point matrices in the old
# (blade, *sizes, r, r) order


def matrices_last(x, lead):
    """x with its (r, r) axes, at lead and lead + 1, moved to the end."""
    return np.moveaxis(x, (lead, lead + 1), (-2, -1))


def blade_matrices(n):
    """dx^mu ^ and i_mu as (4^n, 4^n) matrices, column b the image of blade b."""
    units = [GradedForm(n, col) for col in np.eye(4**n)]
    eye = np.eye(2 * n)
    wedges = [
        np.stack([wedge(GradedForm.blade(n, (mu,)), e).coeffs for e in units], axis=1)
        for mu in range(2 * n)
    ]
    interiors = [
        np.stack([interior(eye[mu], e).coeffs for e in units], axis=1) for mu in range(2 * n)
    ]
    return wedges, interiors


def old_order_operators(conn, a_data, psi_data):
    """field_strength, covariant_d and curvature in the old axis order, each
    small matrix product a per-point np.matmul; returned in the new order."""
    grid, n2 = conn.grid, 2 * conn.grid.n
    wedges, interiors = blade_matrices(grid.n)
    A, V = matrices_last(conn.A, 1), matrices_last(conn.V, 1)  # (2n, *sizes, r, r)

    def diff(x, mu, axis):
        return (np.roll(x, -1, axis=axis) - np.roll(x, 1, axis=axis)) / (2 * grid.spacings[mu])

    def apply(m, x):  # a blade matrix on a blade-first array
        return np.einsum("ab,b...->a...", m, x)

    def cov_d(x):  # x (blades, *sizes, r, r)
        out = np.zeros_like(x)
        for mu in range(n2):
            out += apply(wedges[mu], diff(x, mu, 1 + mu) + (A[mu] @ x - x @ A[mu]))
        return out

    fs = np.zeros((n2, n2) + A.shape[1:], dtype=np.complex128)
    for mu in range(n2):
        for nu in range(n2):
            fs[mu, nu] = diff(A[nu], mu, mu) - diff(A[mu], nu, nu) + A[mu] @ A[nu] - A[nu] @ A[mu]
    curv = np.zeros((psi_data.shape[0],) + A.shape[1:], dtype=np.complex128)
    vpsi = np.zeros_like(curv)
    for mu in range(n2):
        vpsi += apply(interiors[mu], psi_data)[..., None, None] * V[mu]
        for nu in range(mu + 1, n2):
            pair = apply(wedges[mu] @ wedges[nu], psi_data)[..., None, None]
            double = apply(interiors[mu] @ interiors[nu], psi_data)[..., None, None]
            curv += pair * fs[mu, nu] + double * (V[mu] @ V[nu] - V[nu] @ V[mu])
    curv += cov_d(vpsi)
    back = (-2, -1)
    return (
        np.moveaxis(fs, back, (2, 3)),
        np.moveaxis(cov_d(matrices_last(a_data, 1)), back, (1, 2)),
        np.moveaxis(curv, back, (1, 2)),
    )


@pytest.mark.parametrize("n, size", [(1, 10), (2, 8)])
@pytest.mark.parametrize("r", [2, 3])
def test_operators_match_per_point_matmul_in_the_old_order(n, size, r):
    rng = np.random.default_rng([n, r, 17])
    g = make_grid(n, size)
    conn = random_conn(g, r, rng, amp=0.3)
    shape = (4**n, r, r, *g.sizes)
    a = EndFormField(g, r, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    psi = b_transform_field(0.3 * std_omega(n), psi_const(g, c=0.2))
    psi = FormField(g, psi.data * np.exp(1j * trig_scalar(g, rng)))  # varying, complex
    want_fs, want_cov, want_curv = old_order_operators(conn, a.data, psi.data)
    for got, want in (
        (conn.field_strength(), want_fs),
        (covariant_d(conn, a).data, want_cov),
        (curvature(conn, psi).data, want_curv),
    ):
        assert got.shape == want.shape
        assert max_abs(got - want) <= 1e-15 * max_abs(want)


@pytest.mark.parametrize("n", [1, 2])
def test_rank_one_commutators_are_exact_zeros(n):
    # u(1) is abelian: every [A_mu, a] is +0 with no product taken, and d^A
    # at rank 1 is d, bit for bit, so curvature may leave the commutators out
    rng = np.random.default_rng([n, 18])
    g = make_grid(n, 8)
    conn = random_conn(g, 1, rng, amp=0.3)
    t = blade_tables(n)
    shape = (4**n, 1, 1, *g.sizes)
    a = EndFormField(g, 1, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for mu in range(2 * n):
        sub = a.data[t.axis_lo[mu]]
        comm = _bracket(conn.A[mu], sub, 2 * n)
        assert comm.shape == sub.shape and not np.any(comm)
        assert not np.signbit(comm.view(np.float64)).any()
    got = d_live(g, a.data, conn.A)
    assert got.tobytes() == d_field(a).data.tobytes()


def test_containers_reject_the_old_layout():
    g = make_grid(1, 16)
    old_end = np.zeros((4, 16, 16, 2, 2), dtype=np.complex128)
    with pytest.raises(ValueError, match=re.escape("expected (4, 2, 2, 16, 16)")):
        EndFormField(g, 2, old_end)
    old_conn = np.zeros((2, 16, 16, 2, 2), dtype=np.complex128)
    named = "A shape (2, 16, 16, 2, 2), expected (2n, r, r, *sizes) = (2, 2, 2, 16, 16)"
    with pytest.raises(ValueError, match=re.escape(named)):
        GenConnection(g, 2, old_conn, np.zeros((2, 2, 2, 16, 16)))
    with pytest.raises(ValueError, match=re.escape("V shape (2, 16, 16, 1, 1)")):
        GenConnection(g, 1, np.zeros((2, 1, 1, 16, 16)), np.zeros((2, 16, 16, 1, 1)))


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
    conn_a = np.zeros((2, 1, 1, *g.sizes), dtype=np.complex128)
    conn_a[1, 0, 0] = 1j * a2
    conn = GenConnection(g, 1, conn_a, np.zeros_like(conn_a))
    psi = psi_const(g)
    got = curvature(conn, psi)

    d1a2 = (np.roll(a2, -1, axis=0) - np.roll(a2, 1, axis=0)) / (2 * g.spacings[0])
    psi0 = exp_two_form(GradedForm.from_two_form_matrix(1j * std_omega(1)))
    base = wedge(GradedForm.blade(1, (0, 1), 1.0), psi0)
    want = np.einsum("c,...->c...", base.coeffs, 1j * d1a2)[:, None, None]
    assert max_abs(got.data - want) < 1e-12


def test_curvature_line_lie_identity():
    # r=1, V = i v, b = 0: curvature equals F_A^psi + i L_v psi
    g = make_grid()
    psi = psi_const(g)
    conn_a = np.zeros((2, 1, 1, *g.sizes), dtype=np.complex128)
    for mu in range(2):
        conn_a[mu, 0, 0] = 1j * trig_scalar(g, RNG)
    v = np.stack([trig_scalar(g, RNG), trig_scalar(g, RNG)])
    conn_v = np.zeros_like(conn_a)
    conn_v[0, 0, 0] = 1j * v[0]
    conn_v[1, 0, 0] = 1j * v[1]
    conn = GenConnection(g, 1, conn_a, conn_v)
    got = curvature(conn, psi)

    fa = curvature(GenConnection(g, 1, conn_a, np.zeros_like(conn_a)), psi)
    lie = lie_derivative(g, v, psi)
    want = fa.data + 1j * lie.data[:, None, None]
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("varying", [False, True], ids=["constant-b", "varying-b"])
def test_exp_wedge_series_is_the_wedge_with_exp_b(n, varying):
    # e^{-b} ^ F by b_transform_field, which u_window_defect takes, against
    # the series and the wedge summed row by row apart from the kernels
    rng = np.random.default_rng([n, varying])
    g = make_grid(n, 8)
    t = blade_tables(n)
    shape = (t.size, 2, 2) + g.sizes
    f = EndFormField(g, 2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    m = rng.standard_normal((2 * n, 2 * n) + (g.sizes if varying else ()))
    b = m - np.swapaxes(m, 0, 1)
    if not varying:
        b[0, -1] = b[-1, 0] = 0.0  # a zero entry, whose blade the walk skips
    want = loop_wedge(t, loop_exp(t, two_form_blades(-b)), f.data)
    got = b_transform_field(-b, f).data
    assert got.tobytes() == want.tobytes()


def dense_u_window(f, b, omega):
    # the U-window check as one projector product per k over the whole grid,
    # with e^{-b} ^ f summed row by row apart from the kernels
    n = f.grid.n
    t = blade_tables(n)
    g = loop_wedge(t, loop_exp(t, two_form_blades(-b)), f.data) if np.any(b) else f.data
    cols = g.reshape(4**n, -1)
    dec = UDecomposition(gcs_from_spinor(GradedForm(n, exp_blades(t, two_form_blades(1j * omega)))))
    outside = [k for k in range(-n, n + 1) if k not in (-n, -n + 2)]
    return max(max_abs(dec.projector(k) @ cols) for k in outside) / (max_abs(g) + 1e-30)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("bkind", ["zero-b", "constant-b", "varying-b"])
def test_u_window_defect_matches_dense_projector_products(n, rank, bkind):
    # a generic omega, not the standard block, so every P_k is dense
    rng = np.random.default_rng([n, rank, len(bkind)])
    g = make_grid(n, 16 if n == 1 else 8)
    m = rng.standard_normal((2 * n, 2 * n))
    omega = std_omega(n) + 0.5 * (m - m.T)
    assert abs(np.linalg.det(omega)) > 1e-2
    if n == 2:
        dec = UDecomposition(gcs_from_spinor(exp_two_form(GradedForm.from_two_form_matrix(1j * omega))))
        for k in (-1, 1, 2):
            assert np.count_nonzero(dec.projector(k)) == 128
    shape = (4**n, rank, rank) + g.sizes
    f = EndFormField(g, rank, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    m = rng.standard_normal((2 * n, 2 * n) + (g.sizes if bkind == "varying-b" else ()))
    b = 0.3 * (m - np.swapaxes(m, 0, 1)) * (bkind != "zero-b")
    want = dense_u_window(f, b, omega)
    assert want > 0.1  # a random field is far outside the window
    got = fields.u_window_defect(f, b, gcs_symplectic(omega))
    assert abs(got - want) <= 1e-15 * want


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
    delta = np.einsum("mij...,njk...,nm->ik...", conn.V, conn.V, bmat)
    pred = psi_b.data[:, None, None] * delta
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
    psi = psi_const(g)
    assert max_abs(mean_curvature_from(curvature(GenConnection.zero(g, 2), psi), psi)) == 0.0


def test_mean_curvature_hym_oracle():
    # b=0, V=0: K = Herm(KAHLER_UPROJ_COEFF * Lambda_omega F_A)
    g = make_grid()
    r = 2
    conn = random_conn(g, r, RNG, with_v=False)
    psi = psi_const(g)
    got = mean_curvature_from(curvature(conn, psi), psi)

    om_inv = np.linalg.inv(std_omega(1))
    fmat = conn.field_strength()  # (2n, 2n, *sizes, r, r)
    lam = 0.5 * np.einsum("mnij...,nm->ij...", fmat, om_inv)
    want = constants.KAHLER_UPROJ_COEFF * lam
    want = (want + np.swapaxes(want, 0, 1).conj()) / 2
    assert max_abs(got - want) < 1e-10


def test_mean_curvature_line_bundle_oracle():
    # r=1, V=iv, b=c*omega: K = Re(KAHLER_UPROJ_COEFF*Lambda(F_A + c i L_v omega))
    g = make_grid()
    c = 0.4
    psi = psi_const(g, c=c)
    conn_a = np.zeros((2, 1, 1, *g.sizes), dtype=np.complex128)
    for mu in range(2):
        conn_a[mu, 0, 0] = 1j * trig_scalar(g, RNG)
    v = np.stack([trig_scalar(g, RNG), trig_scalar(g, RNG)])
    conn_v = np.zeros_like(conn_a)
    conn_v[0, 0, 0] = 1j * v[0]
    conn_v[1, 0, 0] = 1j * v[1]
    conn = GenConnection(g, 1, conn_a, conn_v)
    got = mean_curvature_from(curvature(conn, psi), psi)[0, 0]

    om_inv = np.linalg.inv(std_omega(1))
    fmat = conn.field_strength()[:, :, 0, 0]
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
    vfield = np.zeros((2, r, r, *g.sizes), dtype=np.complex128)
    for mu in range(2):
        vfield[mu] += (z[mu] * w - np.conj(z[mu]) * w.conj().T)[:, :, None, None]
    conn = GenConnection(g, r, np.zeros_like(vfield), vfield)
    got = mean_curvature_from(curvature(conn, psi), psi)
    want = constants.COHIGGS_SCALE * (w @ w.conj().T - w.conj().T @ w)
    assert max_abs(got - want[:, :, None, None]) < 1e-12
    comm = w @ w.conj().T - w.conj().T @ w
    assert max_abs(comm - np.diag([1.0, -1.0])) < 1e-14


def test_eh_residual_flat_and_gauge():
    g = make_grid()
    psi = psi_const(g)
    flat = curvature(GenConnection.zero(g, 2), psi)
    field, norm = eh_residual_from(mean_curvature_from(flat, psi), psi, 0.0)
    assert norm == 0.0 and max_abs(field) == 0.0

    conn = random_conn(g, 2, RNG)
    _, n0 = eh_residual_from(mean_curvature_from(curvature(conn, psi), psi), psi, 0.1)
    u = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))[0]
    conn_g = GenConnection(
        g, 2, np.einsum("ij,mjk...,kl->mil...", u, conn.A, u.conj().T),
        np.einsum("ij,mjk...,kl->mil...", u, conn.V, u.conj().T),
    )
    _, n1 = eh_residual_from(mean_curvature_from(curvature(conn_g, psi), psi), psi, 0.1)
    assert abs(n0 - n1) < 1e-12 * max(1.0, n0)


def test_eh_b_invariance():
    g = make_grid(1, 32)
    psi = psi_const(g)
    bmat = np.array([[0.0, 0.45], [-0.45, 0.0]])
    for r in (1, 2):
        conn = random_conn(g, r, RNG)
        _, n0 = eh_residual_from(mean_curvature_from(curvature(conn, psi), psi), psi, 0.07)
        psi_b = b_transform_field(bmat, psi)
        f_b = curvature(bfield_act(bmat, conn), psi_b)
        _, n1 = eh_residual_from(mean_curvature_from(f_b, psi_b), psi_b, 0.07)
        assert abs(n0 - n1) < 1e-10 * max(1.0, n0)


# ---------------------------------------------------------------------------
# Chern pairing


def test_chern_trivial_flat():
    g = make_grid()
    psi = psi_const(g)
    chern = chern_from(curvature(GenConnection.zero(g, 1), psi), psi)
    assert abs(chern) < 1e-13
    assert abs(lambda_from(chern, psi, 1)) < 1e-13


def test_chern_v_independence():
    g = make_grid()
    psi = psi_const(g, c=0.2)
    conn = random_conn(g, 2, RNG)
    conn_no_v = GenConnection(g, 2, conn.A, np.zeros_like(conn.V))
    c1 = chern_from(curvature(conn, psi), psi)
    c2 = chern_from(curvature(conn_no_v, psi), psi)
    assert abs(c1 - c2) < 1e-10 * max(1.0, abs(c1))


def test_chern_gauge_independence():
    g = make_grid()
    psi = psi_const(g)
    conn = random_conn(g, 2, RNG)
    u = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))[0]
    conn_g = GenConnection(
        g, 2, np.einsum("ij,mjk...,kl->mil...", u, conn.A, u.conj().T),
        np.einsum("ij,mjk...,kl->mil...", u, conn.V, u.conj().T),
    )
    c1 = chern_from(curvature(conn, psi), psi)
    assert abs(c1 - chern_from(curvature(conn_g, psi), psi)) < 1e-10


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
    lhs = g.integrate(mukai_field(d_field(f1), f2))
    rhs = g.integrate(mukai_field(f1, d_field(f2)))
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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_gm_structures_are_kahler_at_b_zero(n, r):
    # J1 acts as its (4n, 4n) matrix on the stacked (V, A) of gm_metric:
    # omega_GM(a, J a) = g_GM(J a, J a) and g_GM(J a, J c) = g_GM(a, c)
    g = make_grid(n, 16 if n == 1 else 8)
    psi = psi_const(g)
    pair = GKPair(standard_complex(n), gcs_symplectic(std_omega(n)))
    rng = np.random.default_rng([n, r])

    def rotate(a):
        e = np.einsum("jk,k...->j...", pair.J1.J, np.concatenate([a.V, a.A]))
        return ConnVariation(e[2 * n :], e[: 2 * n])

    for _ in range(4):
        a, c = random_variation(g, r, rng), random_variation(g, r, rng)
        ja, jc = rotate(a), rotate(c)
        norm = gm_metric(g, ja, ja, pair, psi)
        assert abs(gm_symplectic(g, a, ja, psi) - norm) <= 1e-14 * norm
        scale = np.sqrt(gm_metric(g, a, a, pair, psi) * gm_metric(g, c, c, pair, psi))
        assert abs(gm_metric(g, ja, jc, pair, psi) - gm_metric(g, a, c, pair, psi)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# moment map


def test_moment_trivial_cases():
    g = make_grid()
    psi = psi_const(g)
    conn = random_conn(g, 2, RNG)
    zero_xi = np.zeros((2, 2, *g.sizes), dtype=np.complex128)
    assert moment_value(g, conn, zero_xi, psi) == 0.0
    flat = GenConnection.zero(g, 2)
    assert abs(moment_value(g, flat, random_xi(g, 2, RNG), psi)) < 1e-13


def test_moment_equals_mean_curvature_pairing():
    g = make_grid()
    psi = psi_const(g, c=0.25)
    conn = random_conn(g, 2, RNG)
    xi = random_xi(g, 2, RNG)
    mv = moment_value(g, conn, xi, psi)
    k = mean_curvature_from(curvature(conn, psi), psi)
    vol = vol_density(g, psi)
    integrand = np.einsum("ij...,ji...->...", xi, k)
    want = -g.integrate(vol * integrand.imag)
    assert abs(mv - want) < 1e-10 * max(1.0, abs(mv))


def test_moment_value_and_curvature_take_a_non_closed_psi_as_it_is():
    # validation is the caller's: neither function checks psi
    g = make_grid()
    bad = nonclosed_psi(g)
    with pytest.raises(ValueError, match="closed"):
        validate_spinor_field(g, bad)
    for r in (1, 2):
        conn = random_conn(g, r, RNG)
        xi = random_xi(g, r, RNG)
        assert np.isfinite(moment_value(g, conn, xi, bad))
        assert np.all(np.isfinite(curvature(conn, bad).data))


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
# gauge facts that hold exactly on the grid


@pytest.mark.parametrize("n", [1, 2])
def test_rank_one_curvature_is_gauge_invariant(n):
    # at rank 1 every commutator vanishes, so connection_derivative(c, xi) is
    # (d xi, 0), and the periodic central differences commute: d(d xi) drops
    # out of F bit for bit up to roundoff, even for a xi of grid scale
    rng = np.random.default_rng([n, 17])
    g = make_grid(n, 16 if n == 1 else 8)
    psi = psi_const(g, c=0.2)
    conn = random_conn(g, 1, rng)
    xi = 1j * rng.standard_normal(g.sizes)[None, None]
    f = curvature(conn, psi).data
    moved = curvature(shift_connection(conn, connection_derivative(conn, xi), 1.0), psi).data
    assert max_abs(moved - f) <= 1e-12 * max_abs(f)


@pytest.mark.parametrize("n", [1, 2])
def test_curvature_is_equivariant_under_a_constant_gauge_direction(n):
    # for a constant xi the variation ([A, xi], [V, xi]) is pointwise
    # conjugation, which commutes with the differences, so at rank 2 the
    # first-order change of F is [F, xi]; F is quadratic in (A, V), so the
    # central difference of unit step is that change exactly
    rng = np.random.default_rng([n, 18])
    g = make_grid(n, 16 if n == 1 else 8)
    psi = psi_const(g, c=0.2)
    conn = random_conn(g, 2, rng)
    x = random_skew(rng, 2)
    xi = np.broadcast_to(x.reshape((2, 2) + (1,) * (2 * n)), (2, 2, *g.sizes)).copy()
    var = connection_derivative(conn, xi)
    plus, minus = (curvature(shift_connection(conn, var, s), psi).data for s in (1.0, -1.0))
    f = curvature(conn, psi).data
    want = np.einsum("bij...,jk->bik...", f, x) - np.einsum("ij,bjk...->bik...", x, f)
    assert max_abs(want) > 0.1 * max_abs(f)
    assert max_abs((plus - minus) / 2.0 - want) <= 1e-13 * max_abs(f)


# ---------------------------------------------------------------------------
# dbar residual


def test_dbar_flat_and_constant():
    # every term of the closed form is an exact zero here: D m = 0,
    # m(x + h) - 2m + m(x - h) = 0, and rank-1 commutators vanish bit for bit
    g = make_grid()
    j = gcs_complex(np.array([[0.0, -1.0], [1.0, 0.0]]))
    for r in (1, 2):
        assert dbar_residual(g, GenConnection.zero(g, r), j) == 0.0
    vconst = np.zeros((2, 1, 1, *g.sizes), dtype=np.complex128)
    vconst[0] += 0.3j
    vconst[1] += 0.1j
    conn = GenConnection(g, 1, np.zeros_like(vconst), vconst)
    assert dbar_residual(g, conn, j) == 0.0


def dbar_residual_per_section(grid, conn, j):
    """dbar_residual in operator form: each test section exp(i phase(k)) e_i
    on its own through dbar_a dbar_b - dbar_b dbar_a, with the zeroth-order
    part rebuilt by per-mu einsums in every application."""
    lbar = j.minus_i_eigenbasis()
    n2 = 2 * grid.n
    r = conn.rank

    def op(a, s):
        v = lbar[:n2, a]
        eta = lbar[n2:, a]
        out = np.zeros_like(s)
        for mu in range(n2):
            if v[mu] != 0:
                out += v[mu] * (
                    _diff(grid, s, mu)
                    + np.einsum("ij...,j...->i...", conn.A[mu], s)
                )
            if eta[mu] != 0:
                out += eta[mu] * np.einsum("ij...,j...->i...", conn.V[mu], s)
        return out

    worst = 0.0
    for wave in (np.zeros(n2, dtype=int), *np.eye(n2, dtype=int)):
        scalar = np.exp(1j * grid.phase(wave))
        for i in range(r):
            s = np.zeros((r, *grid.sizes), dtype=np.complex128)
            s[i] = scalar
            ops = [op(a, s) for a in range(n2)]
            for a in range(n2):
                for b in range(a + 1, n2):
                    res = op(a, ops[b]) - op(b, ops[a])
                    worst = max(worst, float(np.max(np.abs(res))))
    return worst


@pytest.mark.parametrize("n, size", [(1, 16), (2, 8)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_dbar_matches_per_section_reference(n, size, r):
    # the closed-form commutator field per direction pair and wave, against
    # each section pushed through both first-order operators; the wave
    # correction's angle is 2 pi h / P, so non-unit periods move it
    rng = np.random.default_rng([n, r, 12])
    m = rng.standard_normal((2 * n, 2 * n))
    bmat = 0.3 * (m - m.T)
    for periods in (None, np.linspace(0.6, 1.8, 2 * n)):
        g = TorusGrid(n, (size,) * (2 * n), periods)
        for j in (
            standard_complex(n),
            gcs_symplectic(std_omega(n)),
            gcs_b_transform(bmat, standard_complex(n)),
        ):
            for conn in (GenConnection.zero(g, r), random_conn(g, r, rng, amp=0.3)):
                got, want = dbar_residual(g, conn, j), dbar_residual_per_section(g, conn, j)
                assert abs(got - want) <= 1e-13 * max(1.0, want)
            assert dbar_residual(g, GenConnection.zero(g, r), j) == 0.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_dbar_wave_terms_count(n, r):
    # V^0 = 0.3i I (-1)^{x_0}: D_0 of a Nyquist mode is 0, so the k = 0 field
    # vanishes and the whole defect comes from the e_0 wave's
    # second-difference term, (sin(2 pi / 8) / 2h) 4 |v^0 eta_0| 0.3
    g = make_grid(n, 8)
    v = np.zeros((2 * n, r, r, *g.sizes), dtype=np.complex128)
    checker = (-1.0) ** np.arange(8).reshape((8,) + (1,) * (2 * n - 1))
    v[0] = 0.3j * np.eye(r).reshape((r, r) + (1,) * (2 * n)) * checker
    conn = GenConnection(g, r, np.zeros_like(v), v)
    j = standard_complex(n)
    got, want = dbar_residual(g, conn, j), dbar_residual_per_section(g, conn, j)
    assert abs(got - want) <= 1e-13 * want
    assert got > 1.0
    assert abs(got - np.sin(2 * np.pi / 8) / (2 / 8) * 4 * 0.5 * 0.3) <= 1e-13


def test_dbar_peaks_under_fifteen_matrix_fields(traced_peak):
    # each pair's shifted terms are built, read and dropped inside the pair:
    # the four zeroth-order fields, the pair's M_ab, its wave corrections
    # and one term's temporaries, 11.6 (r, r, *sizes) fields.  Holding every
    # term for the whole call goes past 15
    rng = np.random.default_rng(28)
    g = make_grid(2, 10)
    conn = random_conn(g, 2, rng)
    matrix_field = 16 * 2**2 * 10**4
    assert traced_peak(lambda: dbar_residual(g, conn, standard_complex(2))) <= 15 * matrix_field


def test_dbar_detects_nonholomorphic():
    g = make_grid()
    j = gcs_complex(np.array([[0.0, -1.0], [1.0, 0.0]]))
    v = np.zeros((2, 1, 1, *g.sizes), dtype=np.complex128)
    v[0, 0, 0] = 1j * trig_scalar(g, RNG, amp=1.0)
    conn = GenConnection(g, 1, np.zeros_like(v), v)
    assert dbar_residual(g, conn, j) > 1e-3


# ---------------------------------------------------------------------------
# spinor field validation


def nonclosed_psi(g):
    """e^{i omega} plus a dx^2 piece whose d is nonzero; n = 1."""
    x = g.meshes()
    om = std_omega(1)
    data = np.zeros((4, *g.sizes), dtype=np.complex128)
    base = exp_two_form(GradedForm.from_two_form_matrix(1j * om)).coeffs
    for c in range(4):
        data[c] = base[c]
    data[2] += 0.2 * np.sin(2 * np.pi * x[0])
    return FormField(g, data)


def test_validate_rejects_nonclosed():
    g = make_grid()
    with pytest.raises(ValueError, match="closed"):
        validate_spinor_field(g, nonclosed_psi(g))


def test_validate_rejects_degenerate_point():
    g = make_grid()
    x = g.meshes()
    base = exp_two_form(GradedForm.from_two_form_matrix(1j * std_omega(1))).coeffs
    scale = 1.0 - np.exp(-((x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2) * 200.0)
    data = np.einsum("c,...->c...", base, scale.astype(np.complex128))
    with pytest.raises(ValueError, match="degenerate"):
        validate_spinor_field(g, FormField(g, data))
    with pytest.raises(ValueError, match=r"degenerate spinor at grid point \(8, 8\)"):
        vol_density(g, FormField(g, data))


def test_validate_classifies_each_distinct_sample_value_once(monkeypatch):
    # sample values are told apart by their bytes: a -0.0 where the other
    # points hold +0.0 is classified on its own, although it is == to them
    calls = []
    real = fields.classify_spinor

    def counted(phi):
        calls.append(phi.coeffs.tobytes())
        return real(phi)

    monkeypatch.setattr(fields, "classify_spinor", counted)
    g = make_grid(2, 8)
    psi = psi_const(g)
    validate_spinor_field(g, psi)
    assert len(calls) == 1

    data = psi.data.copy()
    c = int(np.flatnonzero(data[(slice(None), 0, 0, 0, 0)] == 0)[0])
    data[c, 4, 0, 0, 0] = complex(-0.0, 0.0)
    calls.clear()
    validate_spinor_field(g, FormField(g, data))
    assert len(calls) == 2

    # a value failing the type test is named at its first sample point:
    # (0, 8) and (8, 8) hold it, (0, 0) and (8, 0) hold the constant value
    g = make_grid()
    data = psi_const(g).data.copy()
    data[0, 0, 8] *= 1.0 + 2.0**-52  # one ulp off the constant value
    data[:, 8, 8] = data[:, 0, 8]
    bad = data[:, 0, 8].tobytes()

    def failing(phi):
        calls.append(phi.coeffs.tobytes())
        cls = real(phi)
        return dataclasses.replace(cls, type_number=2) if calls[-1] == bad else cls

    monkeypatch.setattr(fields, "classify_spinor", failing)
    calls.clear()
    with pytest.raises(ValueError, match=r"spinor at \(0, 8\) is not of symplectic type"):
        validate_spinor_field(g, FormField(g, data))
    assert len(calls) == 2


@pytest.mark.parametrize("size", [8, 10])
def test_validate_reads_a_constant_spinor_at_its_one_point(traced_peak, size):
    # a constant psi's scale is read at its one point and its d is +0 blade
    # by blade, so no psi-sized |psi| or d psi is built: only vol_density's
    # scalar densities, a sixteenth of psi each at n = 2
    g = make_grid(2, size)
    psi = psi_const(g, c=0.2)
    got = []
    peak = traced_peak(lambda: got.append(validate_spinor_field(g, psi)))
    assert peak <= 0.25 * 16 * 4**2 * g.npoints
    full = FormField(g, np.ascontiguousarray(psi.data))
    assert got == [validate_spinor_field(g, full)] == [0.0]


def test_vol_density_positive():
    g = make_grid()
    vol = vol_density(g, psi_const(g, c=0.3))
    assert np.all(vol > 0)
    assert max_abs(vol - 2.0) < 1e-12  # i^{-1}<psi, psibar>_s = 2 at n=1


def test_vol_density_names_a_negative_point_in_plain_integers():
    # e^{-i omega} pairs to -2 with its conjugate at n = 1: the point is
    # printed as Python integers, not as numpy scalars
    g = make_grid()
    psi = FormField.constant(g, exp_two_form(GradedForm.from_two_form_matrix(-1j * std_omega(1))))
    with pytest.raises(ValueError, match=r"not positive at \(0, 0\)$"):
        vol_density(g, psi)


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
    a = np.zeros((2, 2, 2, *g.sizes), dtype=np.complex128)
    a[0, 0, 1] = 1.0  # not skew-Hermitian
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


def random_field(grid, rng, rank):
    """A form field (rank None) or a rank-r endomorphism field of random data."""
    shape = (4**grid.n,) + (() if rank is None else (rank, rank)) + grid.sizes
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return FormField(grid, data) if rank is None else EndFormField(grid, rank, data)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rank", [None, 2])
def test_b_transform_field_is_table_order_multiply_adds(n, rank):
    # e^b, constant or varying, is applied as out[i|j] += (e^b[i] s) f[j],
    # one pair of the wedge table at a time in table order: bit for bit a
    # sequential sum over every pair (the pairs it skips add only +-0)
    rng = np.random.default_rng(8 + n)
    g = make_grid(n, 8)
    f = random_field(g, rng, rank)
    t = blade_tables(n)
    m = rng.normal(size=(2 * n, 2 * n))
    mv = rng.normal(size=(2 * n, 2 * n) + g.sizes)
    for b in (m - m.T, mv - np.swapaxes(mv, 0, 1)):
        eb = exp_blades(t, two_form_blades(b))
        if b.ndim == 2:
            assert eb.tobytes() == exp_two_form(GradedForm.from_two_form_matrix(b)).coeffs.tobytes()
        got = b_transform_field(b, f)
        assert type(got) is type(f)
        assert got.data.shape == f.data.shape

        sequential = np.zeros_like(f.data)
        for i, j, s in zip(t.wedge_i, t.wedge_j, t.wedge_s):
            sequential[i | j] += (eb[i] * s) * f.data[j]
        assert got.data.tobytes() == sequential.tobytes()


def test_b_transform_field_peaks_near_one_field(traced_peak):
    # the multiply-adds build no (pairs, *sizes) product: the traced peak
    # is the result plus one blade's temporary
    rng = np.random.default_rng(5)
    g = make_grid(2, 8)
    f = random_field(g, rng, None)
    bmat = np.kron(np.eye(2), np.array([[0.0, 0.3], [-0.3, 0.0]]))
    peak = traced_peak(lambda: b_transform_field(bmat, f))
    assert peak <= 2 * f.data.nbytes


def test_b_transform_field_stacked_walk_peaks_within_its_bound(traced_peak):
    # at n = 1 on 28^2 the wedge's 5 live rows (e^b's blades 1 and dx^0 ^ dx^1
    # against f's) make a 61 KB product, just under _STACK_BYTES, so the walk
    # stacks them: the peak is the result plus temporaries bounded by a few
    # times _STACK_BYTES, not a multiple of the field
    rng = np.random.default_rng(5)
    g = make_grid(1, 28)
    f = random_field(g, rng, None)
    assert 5 * f.data[0].nbytes < _backend._STACK_BYTES <= 5 * 16 * 30 * 30  # 30^2: one row at a time
    bmat = np.array([[0.0, 0.3], [-0.3, 0.0]])
    peak = traced_peak(lambda: b_transform_field(bmat, f))
    assert peak <= f.data.nbytes + 4 * _backend._STACK_BYTES


def at_every_point(x, shape):
    """x (k,) repeated at every point of a batch of the given shape."""
    return np.ascontiguousarray(np.broadcast_to(x.reshape((-1,) + (1,) * len(shape)), x.shape + shape))


@pytest.mark.parametrize("n", [1, 2])
def test_each_blade_product_has_one_set_of_bits_on_every_route(n):
    # the wedge, the spin action and the Mukai pairing of one pair of forms
    # give the bits of the forms alone at every point of a small batch,
    # whose rows the walk stacks, of a batch one row of which reaches
    # _STACK_BYTES, which it walks one row at a time, and of constant fields
    # at both sides of that size
    t = blade_tables(n)
    rng = np.random.default_rng([n, 27])
    a, b = (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size) for _ in range(2))
    v, xi = (rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim) for _ in range(2))
    m = rng.standard_normal((t.dim, t.dim))
    fa, fb, e, bm = GradedForm(n, a), GradedForm(n, b), GenVector(v, xi), m - m.T
    want = {
        "wedge": wedge(fa, fb).coeffs,
        "interior": interior(v, fa).coeffs,
        "wedge1": clifford_act(GenVector(0 * v, xi), fa).coeffs,
        "clifford": clifford_act(e, fa).coeffs,
        "mukai": np.array([mukai_pair(fa, fb)]),
        "b-transform": b_transform(bm, fa).coeffs,
    }
    wide = _backend._STACK_BYTES // 16  # complex entries in one row's product
    assert len(t.wedge_rows[0]) * 3 * 16 < _backend._STACK_BYTES
    for shape in [(3,), (wide,)]:
        ab, bb = at_every_point(a, shape), at_every_point(b, shape)
        vb, xib = at_every_point(v, shape), at_every_point(xi, shape)
        got = {
            "wedge": _backend.wedge_batch(t, ab, bb),
            "interior": _backend.interior_batch(t, vb, ab),
            "wedge1": _backend.wedge1_batch(t, xib, ab),
            "clifford": _backend.clifford_batch(t, vb, xib, ab),
            "mukai": _backend.mukai_batch(t, ab, bb)[None],
        }
        for key, out in got.items():
            assert same_bits(out, at_every_point(want[key], shape)), (key, shape)
    for size in [8, 64] if n == 1 else [8]:
        g = make_grid(n, size)
        fa_field, fb_field = FormField.constant(g, fa), FormField.constant(g, fb)
        var = ConnVariation(*(at_every_point(c, (1, 1) + g.sizes) for c in (xi, v)))
        got = {
            "clifford": variation_act(g, var, fa_field.data)[:, 0, 0],
            "mukai": mukai_field(fa_field, fb_field)[None],
            "b-transform": b_transform_field(bm, fa_field).data,
        }
        for key, out in got.items():
            assert same_bits(out, at_every_point(want[key], g.sizes)), (key, size)


@pytest.mark.parametrize("n", [1, 2])
def test_walk_leaves_out_dead_rows_on_either_path(n):
    # a row whose form blade or vector component is zero is left out, in a
    # small batch and in one walked one row at a time: an infinite top blade
    # meets no zero to make 0 * inf = NaN, so every blade its live rows do
    # not reach stays exactly zero
    t = blade_tables(n)
    top = t.size - 1
    for shape in [(3,), (_backend._STACK_BYTES // 16,)]:
        a = np.zeros((t.size,) + shape, dtype=complex)
        a[top] = np.inf
        e0 = at_every_point(np.eye(t.dim)[0] + 0j, shape)
        dx0 = at_every_point(np.eye(t.size)[1] + 0j, shape)
        with np.errstate(invalid="ignore"):  # inf * (1 + 0j) in the live rows
            got = {
                # i_0 of the top blade reaches top - 1 alone; dx^0 ^ top is no row
                "interior": (_backend.interior_batch(t, e0, a), [top - 1]),
                "clifford": (_backend.clifford_batch(t, e0, 0 * e0, a), [top - 1]),
                "wedge": (_backend.wedge_batch(t, dx0, a), []),
            }
        for key, (out, reached) in got.items():
            assert (np.delete(out, reached, axis=0) == 0).all(), (key, shape)


@pytest.mark.parametrize("n, size, rank", [(1, 8, 2), (1, 64, 1), (2, 8, 1)])
def test_field_products_match_the_form_products_at_every_point(n, size, rank):
    # b_transform_field, mukai_field and gm_symplectic's spin action on
    # varying fields give, at each point, the bits of b_transform,
    # mukai_pair and clifford_act on that point's forms
    rng = np.random.default_rng([n, size, rank, 27])
    g = make_grid(n, size)
    f1, f2 = random_field(g, rng, None), random_field(g, rng, None)
    var = ConnVariation(*(rng.standard_normal((2 * n, rank, rank) + g.sizes) + 0j for _ in range(2)))
    m = rng.standard_normal((2 * n, 2 * n))
    bm = m - m.T
    moved = b_transform_field(bm, f1).data
    paired = mukai_field(f1, f2)
    acted = variation_act(g, var, f1.data)
    for p in itertools.product(*map(range, g.sizes)):
        at = (slice(None),) + p
        fa, fb = f1.value_at(p), f2.value_at(p)
        assert moved[at].tobytes() == b_transform(bm, fa).coeffs.tobytes()
        assert paired[p].tobytes() == np.complex128(mukai_pair(fa, fb)).tobytes()
        for i, j in itertools.product(range(rank), repeat=2):
            e = GenVector(var.V[(slice(None), i, j) + p], var.A[(slice(None), i, j) + p])
            assert acted[(slice(None), i, j) + p].tobytes() == clifford_act(e, fa).coeffs.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mukai_partner_blade_is_the_reversal(n):
    # mukai_field reads f2's partner blades as the view f2.data[::-1]
    t = blade_tables(n)
    assert np.array_equal(t.mukai_comp, np.arange(t.size)[::-1])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("end1, end2", [(False, False), (False, True), (True, False), (True, True)])
def test_mukai_field_equals_gathered_signed_einsum_bitwise(n, r, end1, end2):
    # the reversed view with the signs as a third einsum operand gives the
    # bits of the gathered, signed copy contracted by a two-operand einsum
    rng = np.random.default_rng([n, r, end1, end2])
    g = make_grid(n, 8)
    f1 = random_field(g, rng, r if end1 else None)
    f2 = random_field(g, rng, r if end2 else None)
    t = blade_tables(n)
    idx = (slice(None),) + (None,) * (f2.data.ndim - 1)
    twisted = t.mukai_s[idx] * f2.data[t.mukai_comp]
    spec = {
        (False, False): "c...,c...->...",
        (False, True): "c...,cij...->ij...",
        (True, False): "cij...,c...->ij...",
        (True, True): "cij...,cjk...->ik...",
    }[end1, end2]
    want = np.einsum(spec, f1.data, twisted)
    got = mukai_field(f1, f2)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_basis_scatter_matches_kernel_bitwise(n, r):
    # dx^mu ^ and i_mu taken on the source blades only, out[dst] +=
    # sign * data[src] into zeros, agree bit for bit with the general
    # kernels fed a one-hot vector (one (dim,) array for every point),
    # signed zeros included
    t = blade_tables(n)
    rng = np.random.default_rng([n, r])
    shape = (t.size, r, r) + (3,) * (2 * n)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data[rng.random(shape) < 0.2] = 0.0
    data.real[rng.random(shape) < 0.1] = -0.0
    data.imag[rng.random(shape) < 0.1] = -0.0
    for mu in range(t.dim):
        onehot = np.zeros(t.dim, dtype=np.complex128)
        onehot[mu] = 1.0
        lo, hi = t.axis_lo[mu], t.axis_hi[mu]
        for src, dst, kernel in (
            (lo, hi, _backend.wedge1_batch),
            (hi, lo, _backend.interior_batch),
        ):
            got = np.zeros_like(data)
            got[dst] += _signed(t.axis_s[mu], data[src])
            want = kernel(t, onehot, data)
            assert np.array_equal(got, want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, size", [(1, 16), (2, 8)])
@pytest.mark.parametrize("r", [1, 2])
def test_derived_quantities_from_curvature_match_wrappers_bitwise(n, size, r):
    rng = np.random.default_rng([n, r, 7])
    g = make_grid(n, size)
    conn = random_conn(g, r, rng, amp=0.3)
    psi = psi_const(g, c=0.4)
    # one F shared by every *_from reading gives the bits of a fresh F per reading
    f = curvature(conn, psi)
    k = mean_curvature_from(f, psi)
    chern = chern_from(f, psi)
    lam = lambda_from(chern, psi, r)
    res, norm = eh_residual_from(k, psi, lam)
    assert np.array_equal(k, mean_curvature_from(curvature(conn, psi), psi))
    assert chern == chern_from(curvature(conn, psi), psi)
    assert lam == lambda_from(chern_from(curvature(conn, psi), psi), psi, r)
    fresh_k = mean_curvature_from(curvature(conn, psi), psi)
    want_res, want_norm = eh_residual_from(fresh_k, psi, lam)
    assert np.array_equal(res, want_res) and norm == want_norm


@pytest.mark.parametrize("n", [1, 2])
def test_commutators_reach_bracket_only_above_rank_one(monkeypatch, n):
    # field_strength takes one bracket per unordered pair at every rank (at
    # r = 1 it comes back as F's difference part untouched); at r = 1 the
    # [A_mu, .] of covariant_d and [V^mu, V^nu] of curvature are +0 and
    # never asked for
    shapes = []
    real = fields._bracket

    def counted(x, y, ngrid, out=None):
        shapes.append(x.shape[-ngrid - 1])
        return real(x, y, ngrid, out)

    monkeypatch.setattr("genkf.fields._bracket", counted)
    n2 = 2 * n
    g = make_grid(n, 8)
    psi = psi_const(g, c=0.3)
    rng = np.random.default_rng([n, 3])
    # the commutators go one dx^mu ^ table row at a time: every row for
    # covariant_d, and in curvature the rows of the blades that V . psi
    # reaches from psi's live blades
    t = blade_tables(n)
    live = np.any(psi.data.reshape(4**n, -1), axis=1)
    vlive = np.zeros_like(live)
    for mu in range(n2):
        vlive[t.axis_lo[mu][live[t.axis_hi[mu]]]] = True
    vrows = sum(np.count_nonzero(vlive[t.axis_lo[mu]]) for mu in range(n2))
    pairs = n2 * (n2 - 1) // 2
    for r in (1, 2):
        conn = random_conn(g, r, rng)
        a = EndFormField(g, r, complex_with_zeros(rng, (4**n, r, r, *g.sizes)))
        counts = []
        for run in (
            conn.field_strength,
            lambda: covariant_d(conn, a),
            lambda: curvature(conn, psi),
        ):
            shapes.clear()
            run()
            assert set(shapes) <= {r}
            counts.append(len(shapes))
        strength, cov, curv = counts
        assert strength == pairs
        if r == 1:
            assert cov == 0 and curv == strength
        else:
            assert cov == n2 * 4**n // 2
            assert curv == strength + vrows + pairs


@st.composite
def matrix_pairs(draw):
    """Two complex (*lead, r, r, *grid) stacks, r = 1..3, ngrid = 1 or 2 grid
    axes, with broadcastable leading and grid shapes, and a third stack of
    their broadcast shape."""
    r = draw(st.integers(1, 3))
    ngrid = draw(st.integers(1, 2))
    leads = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3))
    grids = draw(
        hnp.mutually_broadcastable_shapes(
            num_shapes=2, min_dims=ngrid, max_dims=ngrid, max_side=3
        )
    )
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)

    def stack(shape):
        re = draw(hnp.arrays(np.float64, shape, elements=entries))
        im = draw(hnp.arrays(np.float64, shape, elements=entries))
        return re + 1j * im

    x, y = (
        stack(lead + (r, r) + grid) for lead, grid in zip(leads.input_shapes, grids.input_shapes)
    )
    out = stack(leads.result_shape + (r, r) + grids.result_shape)
    return ngrid, x, y, out


@settings(max_examples=200, deadline=None)
@given(drawn=matrix_pairs())
def test_bracket_matches_the_matmul_commutator(drawn):
    # against x @ y - y @ x with the matrix axes moved last, and back; into
    # out the sum (out + x y) - y x also rounds on out's scale
    ngrid, x, y, out = drawn
    rows, cols = -ngrid - 2, -ngrid - 1

    def last(m):
        return np.moveaxis(m, (rows, cols), (-2, -1))

    def peak(m):
        return float(np.max(np.abs(m), initial=0.0))

    want = np.moveaxis(last(x) @ last(y) - last(y) @ last(x), (-2, -1), (rows, cols))
    ax, ay = np.abs(last(x)), np.abs(last(y))
    bound = 1e-15 * (peak(ax @ ay) + peak(ay @ ax))
    got = _bracket(x, y, ngrid)
    assert got.shape == want.shape and got.dtype == np.complex128
    assert peak(got - want) <= bound
    summed = _bracket(x, y, ngrid, out=out.copy())
    assert peak(summed - (out + want)) <= bound + 1e-15 * peak(out)
    assert np.array_equal(_bracket(y, x, ngrid), -got)
    if x.shape[rows] == 1:
        assert not np.signbit(got.view(np.float64)).any() and not np.any(got)
        kept = out.copy()
        assert _bracket(x, y, ngrid, out=kept) is kept and kept.tobytes() == out.tobytes()


def test_fields_takes_every_commutator_through_bracket():
    # no second commutator path: fields has no @ and no matmul beside _bracket
    tree = ast.parse(Path(fields.__file__).read_text())
    found = [
        type(node).__name__
        for node in ast.walk(tree)
        if isinstance(node, ast.MatMult)
        or isinstance(node, ast.Name) and node.id == "matmul"
        or isinstance(node, ast.Attribute) and node.attr == "matmul"
    ]
    assert found == []


# ---------------------------------------------------------------------------
# coordinate steps on the blades they reach, against the full-array formulas


def signed_zeros(rng, arr, zero=0.2, neg=0.1):
    """Scatter exact zeros and negative zeros into a complex array."""
    arr[rng.random(arr.shape) < zero] = 0.0
    arr.real[rng.random(arr.shape) < neg] = -0.0
    arr.imag[rng.random(arr.shape) < neg] = -0.0
    return arr


def full_step(t, mu, data, src, dst):
    """A coordinate step as a fresh full-size zero array plus one scatter-add."""
    sign = t.axis_s[mu].reshape((-1,) + (1,) * (data.ndim - 1))
    out = np.zeros(data.shape, dtype=data.dtype)
    out[dst[mu]] += sign * data[src[mu]]
    return out


def roll_diff(grid, arr, mu):
    """Central difference along grid axis mu; the 2n grid axes trail: the
    np.roll difference with its float64 parts times 1/(2h)."""
    axis = mu - 2 * grid.n
    out = np.ascontiguousarray(np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis))
    parts = out.view(np.float64)
    parts *= 1.0 / (2.0 * grid.spacings[mu])
    return out


def full_d(grid, data):
    t = blade_tables(grid.n)
    out = np.zeros_like(data)
    for mu in range(2 * grid.n):
        diff = roll_diff(grid, data, mu)
        out += full_step(t, mu, diff, t.axis_lo, t.axis_hi)
    return out


def entry_product(x, y, ngrid):
    """x y over the (r, r) axes before the ngrid grid axes, each entry
    sum_j x_ij y_jk summed j ascending into a fresh array: the order in
    which _bracket sums each of its two products."""
    grid = (slice(None),) * ngrid
    r = x.shape[-ngrid - 1]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    for i, k in itertools.product(range(r), repeat=2):
        o = out[(..., i, k) + grid]
        o[...] = x[(..., i, 0) + grid] * y[(..., 0, k) + grid]
        for j in range(1, r):
            o += x[(..., i, j) + grid] * y[(..., j, k) + grid]
    return out


def full_covariant_d(conn, data):
    t = blade_tables(conn.grid.n)
    n2 = 2 * conn.grid.n
    out = full_d(conn.grid, data)
    for mu in range(n2):
        amu = conn.A[mu][None]
        comm = entry_product(amu, data, n2) - entry_product(data, amu, n2)
        out += full_step(t, mu, comm, t.axis_lo, t.axis_hi)
    return out


def full_field_strength(conn):
    """F[mu, nu] = D_mu A_nu - D_nu A_mu + [A_mu, A_nu] by np.roll
    differences; u(1) is abelian, so at rank 1 no commutator enters."""
    grid, A, n2 = conn.grid, conn.A, 2 * conn.grid.n
    out = np.zeros((n2, n2) + A.shape[1:], dtype=np.complex128)
    for mu in range(n2):
        for nu in range(mu + 1, n2):
            fmn = roll_diff(grid, A[nu], mu) - roll_diff(grid, A[mu], nu)
            if conn.rank > 1:
                fmn = fmn + entry_product(A[mu], A[nu], n2) - entry_product(A[nu], A[mu], n2)
            out[mu, nu] = fmn
            out[nu, mu] = -fmn
    return out


def full_curvature(conn, psi_data, ordered=False):
    """The curvature as full-array formulas; ordered=True sums the quadratic
    term over ordered pairs mu != nu with the 1/2, as written in the law."""
    grid, r = conn.grid, conn.rank
    t = blade_tables(grid.n)
    n2 = 2 * grid.n
    V = conn.V

    def wedge(mu, data):
        return full_step(t, mu, data, t.axis_lo, t.axis_hi)

    def interior(mu, data):
        return full_step(t, mu, data, t.axis_hi, t.axis_lo)

    def times(blade, mat):
        return blade[:, None, None] * mat

    out = np.zeros((t.size, r, r, *grid.sizes), dtype=np.complex128)
    strength = full_field_strength(conn)
    for mu in range(n2):
        for nu in range(mu + 1, n2):
            out += times(wedge(mu, wedge(nu, psi_data)), strength[mu, nu])
    ipsi = [interior(mu, psi_data) for mu in range(n2)]
    vpsi = np.zeros_like(out)
    for mu in range(n2):
        vpsi += times(ipsi[mu], V[mu])
    out += full_covariant_d(conn, vpsi)
    for mu in range(n2):
        for nu in range(n2) if ordered else range(mu + 1, n2):
            if mu != nu:
                comm = entry_product(V[mu], V[nu], n2) - entry_product(V[nu], V[mu], n2)
                term = times(interior(mu, ipsi[nu]), comm)
                out += 0.5 * term if ordered else term
    return out


def full_variation_act(grid, var, psi_data, rank):
    t = blade_tables(grid.n)
    out = np.zeros((t.size, rank, rank, *grid.sizes), dtype=np.complex128)
    for mu in range(2 * grid.n):
        wedged = full_step(t, mu, psi_data, t.axis_lo, t.axis_hi)
        out += wedged[:, None, None] * var.A[mu]
        contracted = full_step(t, mu, psi_data, t.axis_hi, t.axis_lo)
        out += contracted[:, None, None] * var.V[mu]
    return out


def full_gm_symplectic(grid, a1, a2, psi):
    rank = a1.A.shape[1]
    s1 = EndFormField(grid, rank, full_variation_act(grid, a1, psi.data, rank))
    s2 = EndFormField(grid, rank, full_variation_act(grid, a2, np.conj(psi.data), rank))
    paired = mukai_field(s1, s2)
    integrand = ((1j ** (-grid.n)) * np.einsum("ii...->...", paired)).imag
    return float(grid.integrate(integrand))


def skew_with_zeros(rng, grid, r, zero, neg):
    """Skew-Hermitian (2n, r, r, *sizes) field, zero at some points and with
    -0 on some diagonal real parts."""
    shape = (2 * grid.n, r, r, *grid.sizes)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = m - np.swapaxes(m, 1, 2).conj()
    np.moveaxis(a, (1, 2), (-2, -1))[rng.random((shape[0], *grid.sizes)) < zero] = 0.0
    eye = (slice(None), np.arange(r), np.arange(r))
    diag = a.real[eye]  # exact zeros: the matrices are skew-Hermitian
    a.real[eye] = np.where(rng.random(diag.shape) < neg, -0.0, diag)
    return a


def complex_with_zeros(rng, shape, zero=0.2, neg=0.1):
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return signed_zeros(rng, data, zero, neg)


def same_bits(got, want):
    return (
        np.array_equal(got, want)
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    zero=st.sampled_from([0.0, 0.2, 0.6]),
    neg=st.sampled_from([0.0, 0.1, 0.5]),
    sizes=st.lists(st.sampled_from([8, 10]), min_size=2, max_size=2),
)
def test_field_operators_match_full_array_formulas_bitwise(n, r, seed, zero, neg, sizes):
    # d, covariant d, curvature and the variation action on the blades they
    # reach equal the full-array formulas (fresh zero array per coordinate
    # step, np.roll differences) bit for bit, signed zeros included
    rng = np.random.default_rng(seed)
    sizes = sizes if n == 1 else (8,) * 4
    g = TorusGrid(n, sizes, periods=rng.uniform(0.5, 2.0, 2 * n))
    shape = (4**n, *g.sizes)
    psi = FormField(g, complex_with_zeros(rng, shape, zero, neg))
    a = EndFormField(g, r, complex_with_zeros(rng, (4**n, r, r, *g.sizes), zero, neg))
    skews = [skew_with_zeros(rng, g, r, zero, neg) for _ in range(2)]
    conn = GenConnection(g, r, *skews)
    assert same_bits(d_field(psi).data, full_d(g, psi.data))
    assert same_bits(d_field(a).data, full_d(g, a.data))
    assert same_bits(covariant_d(conn, a).data, full_covariant_d(conn, a.data))
    got = curvature(conn, psi).data
    assert same_bits(got, full_curvature(conn, psi.data))
    # the unordered quadratic sum rests on [V^mu, V^nu] and i_mu i_nu both
    # being antisymmetric in (mu, nu): the ordered half-sum agrees
    ordered = full_curvature(conn, psi.data, ordered=True)
    assert max_abs(got - ordered) <= 1e-13 * max(1.0, max_abs(ordered))
    var_shape = (2 * n, r, r, *g.sizes)
    a1, a2 = (
        ConnVariation(*(complex_with_zeros(rng, var_shape, zero, neg) for _ in range(2)))
        for _ in range(2)
    )
    got = variation_act(g, a1, psi.data)
    assert same_bits(got, full_variation_act(g, a1, psi.data, r))
    got = gm_symplectic(g, a1, a2, psi)
    want = full_gm_symplectic(g, a1, a2, psi)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_diff_matches_roll_formula_bitwise(n):
    # smallest legal size, so both wrap faces sit next to the interior slab
    g = TorusGrid(n, (8,) * (2 * n), periods=np.linspace(0.7, 1.9, 2 * n))
    rng = np.random.default_rng(n)
    t = blade_tables(n)
    data = complex_with_zeros(rng, (t.size, 2, 2, *g.sizes))
    strided = np.moveaxis(data, 0, -1)[0, 1, ..., 1]  # grid axes only, strided
    real = rng.standard_normal(g.sizes)
    real[rng.random(g.sizes) < 0.2] = -0.0
    for mu in range(2 * n):
        assert same_bits(_diff(g, data, mu), roll_diff(g, data, mu))
        assert same_bits(_diff(g, strided, mu), roll_diff(g, strided, mu))
        assert same_bits(_diff(g, real, mu), roll_diff(g, real, mu))
        # numpy's complex division by 2h + 0j, (a + b*0) * (1/2h), gives the
        # same values on finite data: only the sign of a zero part differs
        axis = mu - 2 * n
        divided = (np.roll(data, -1, axis) - np.roll(data, 1, axis)) / (2.0 * g.spacings[mu])
        assert np.array_equal(_diff(g, data, mu), divided)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_psibar_pairings_match_the_conjugate_field_bitwise(n, r):
    # mean_curvature_from, chern_from, vol_density and lambda_from pair with
    # psibar over psi's live partner blades, conjugating one blade at a
    # time: the bits of mukai_field against the whole conjugate field,
    # signed zeros and dead blades included
    rng = np.random.default_rng(10 * n + r)
    g = TorusGrid(n, (8,) * (2 * n), periods=np.linspace(0.7, 1.9, 2 * n))
    t = blade_tables(n)
    data = complex_with_zeros(rng, (t.size, *g.sizes), zero=0.0, neg=0.0)
    dead = rng.permutation(t.size)[: t.size // 4]
    data[dead] = data[t.size - 1 - dead] = 0.0  # dead blades, partners too, so <psi, psibar> != 0
    psi = FormField(g, data)
    f = EndFormField(g, r, complex_with_zeros(rng, (t.size, r, r, *g.sizes)))
    psibar = psi.conjugate()
    k = mukai_field(f, psibar) / mukai_field(psi, psibar)
    assert same_bits(mean_curvature_from(f, psi), (k + np.swapaxes(k, 0, 1).conj()) / 2.0)
    chern = complex(g.integrate(mukai_field(trace_field(f), psibar)))
    assert np.complex128(chern_from(f, psi)).tobytes() == np.complex128(chern).tobytes()
    got = fields._pair_psibar(psi, g.sizes, psi.data.__getitem__)
    assert same_bits(got, mukai_field(psi, psibar))


@pytest.mark.parametrize("n", [1, 2])
def test_moment_value_matches_the_whole_field_pairing(n):
    # moment_value sums psi[c] tr(xi Fbar[top - c]) without building xi psi
    g = TorusGrid(n, (8,) * (2 * n))
    psi = psi_const(g, c=0.25)
    conn = random_conn(g, 2, np.random.default_rng(n))
    xi = random_xi(g, 2, np.random.default_rng(n + 10))
    xipsi = EndFormField(g, 2, psi.data[:, None, None] * xi)
    paired = mukai_field(xipsi, curvature(conn, psi.conjugate()))
    want = float(g.integrate(((1j ** (-n)) * np.einsum("ii...->...", paired)).imag))
    assert abs(moment_value(g, conn, xi, psi) - want) <= 1e-14 * abs(want)


def below(blades, mu):
    """(-1)^(number of bits of each blade below bit mu), as floats."""
    return np.array([(-1.0) ** bin(m & ((1 << mu) - 1)).count("1") for m in blades.tolist()])


def axis_matrices(t):
    """dx^mu ^ and i_mu as signed permutation matrices, one per axis."""
    wedge1, inter1 = [], []
    for mu in range(t.dim):
        m = np.zeros((t.size, t.size))
        m[t.axis_hi[mu], t.axis_lo[mu]] = t.axis_s[mu]
        wedge1.append(m)
        inter1.append(m.T)
    return wedge1, inter1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_tables_compose_two_axis_steps(n):
    # curvature's dx^mu ^ dx^nu ^ is the wedge table's rows of that blade,
    # and its i_mu i_nu the same rows target to source with negated signs:
    # both equal the products of the single-axis signed permutation matrices
    t = blade_tables(n)
    wedge1, inter1 = axis_matrices(t)
    for mu in range(t.dim):
        for nu in range(mu + 1, t.dim):
            lo, hi, s = fields._pair_rows(t, mu, nu)
            both = 1 << mu | 1 << nu
            assert len(set(lo.tolist())) == t.size // 4
            assert not np.any(lo & both) and np.array_equal(hi, lo | both)
            wedge2 = np.zeros((t.size, t.size))
            wedge2[hi, lo] = s
            inter2 = np.zeros((t.size, t.size))
            inter2[lo, hi] = -s
            assert np.array_equal(wedge2, wedge1[mu] @ wedge1[nu])
            assert np.array_equal(inter2, inter1[mu] @ inter1[nu])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axis_d_and_mukai_tables_match_their_formulas(n):
    # the tables derived from the wedge table, against the sign formulas
    # they replace: (-1)^(bits below mu) for dx^mu ^, and the Mukai sign
    # of a blade and its complement times the complement's involution
    t = blade_tables(n)
    blades = np.arange(t.size)
    for mu in range(t.dim):
        lo = blades[blades >> mu & 1 == 0]
        assert np.array_equal(t.axis_lo[mu], lo)
        assert np.array_equal(t.axis_hi[mu], lo | 1 << mu)
        assert np.array_equal(t.axis_s[mu], below(lo, mu))
    for h in range(t.size):
        want = [(mu, h ^ 1 << mu, float(below(np.array([h ^ 1 << mu]), mu)[0]))
                for mu in range(t.dim) if h >> mu & 1]
        assert list(t.d_rows[h]) == want
    for l in range(t.size):
        # i_mu's rows into l, mu ascending; l is dropped after its last reader
        want = [(mu, l | 1 << mu, float(below(np.array([l]), mu)[0]))
                for mu in range(t.dim) if not l >> mu & 1]
        assert list(t.i_rows[l]) == want
        drops = [h for h in range(t.size) if l in t.d_drop[h]]
        assert drops == ([] if l == t.size - 1 else [max(h for _, h, _ in want)])
    top = t.size - 1
    assert np.array_equal(t.mukai_comp, top ^ blades)
    want = [_wedge_sign(i, top ^ i) * t.invol[top ^ i] for i in range(t.size)]
    assert np.array_equal(t.mukai_s, np.array(want, dtype=np.float64))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("bkind", ["constant-psi", "constant-b", "varying-b"])
def test_live_blade_loops_match_every_blade_loops_bitwise(n, r, bkind):
    # psi = e^{b + i omega} is even, so curvature and the spin action skip at
    # least half the table rows; the rows skipped only added +-0, so the bits
    # are those of the full-array formulas over every blade
    rng = np.random.default_rng([n, r, len(bkind)])
    g = make_grid(n, 16 if n == 1 else 8)
    m = rng.standard_normal((2 * n, 2 * n) + (g.sizes if bkind == "varying-b" else ()))
    b = 0.3 * (m - np.swapaxes(m, 0, 1)) * (bkind != "constant-psi")
    omega = std_omega(n).reshape((2 * n, 2 * n) + (1,) * (b.ndim - 2))
    psi = fields.exp_two_form_field(g, b + 1j * omega)
    live = np.any(psi.data.reshape(4**n, -1), axis=1)
    assert np.count_nonzero(live) <= 4**n // 2
    conn = random_conn(g, r, rng)
    var = random_variation(g, r, rng)
    for spinor in (psi, psi.conjugate()):
        assert same_bits(curvature(conn, spinor).data, full_curvature(conn, spinor.data))
        got = variation_act(g, var, spinor.data)
        assert same_bits(got, full_variation_act(g, var, spinor.data, r))


def conn_with_v(conn, vkind):
    """conn with V as it is, zero, or with V^0 = 0."""
    v = conn.V * (vkind != "zero-V")
    if vkind == "V0-zero":
        v[0] = 0.0
    return GenConnection(conn.grid, conn.rank, conn.A, v)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("vkind", ["random-V", "zero-V", "V0-zero"])
def test_lazy_v_psi_blades_match_every_blade_loops_bitwise(n, r, vkind):
    # d^A(V . psi) builds each blade of V . psi when a target first reads
    # it: at V = 0 every built blade is zero, so dead, and at V^0 = 0 those
    # fed by i_0 alone are; the bits stay those of the full-array formulas
    rng = np.random.default_rng([n, r, len(vkind), 26])
    g = make_grid(n, 16 if n == 1 else 8)
    conn = conn_with_v(random_conn(g, r, rng), vkind)
    m = rng.standard_normal((2 * n, 2 * n))
    omega = std_omega(n)
    for b in (0.0 * m, 0.3 * (m - m.T)):
        psi = fields.exp_two_form_field(g, b + 1j * omega)
        for spinor in (psi, psi.conjugate()):
            assert same_bits(curvature(conn, spinor).data, full_curvature(conn, spinor.data))


@pytest.mark.parametrize("vkind, calls", [("random-V", 16), ("V0-zero", 12), ("zero-V", 0)])
def test_curvature_differentiates_each_live_v_psi_blade_once_per_reader(
    monkeypatch, vkind, calls
):
    # on e^{i omega} at n = 2, V . psi lives on the 8 odd blades: each
    # 1-blade is read by 3 targets and each 3-blade by the top one, so
    # d^A(V . psi) takes 4 * 3 + 4 * 1 = 16 differences, besides F's 12.
    # V^0 = 0 kills dx^1 (3 readers) and dx^1 dx^2 dx^3 (1 reader), V = 0
    # every blade.  Each blade is built once; at most 4 are held at a time
    rng = np.random.default_rng(26)
    g = make_grid(2, 8)
    conn = conn_with_v(random_conn(g, 2, rng), vkind)
    psi = fields.exp_two_form_field(g, 1j * std_omega(2))
    t = blade_tables(2)
    vpsi = np.zeros((16, 2, 2, *g.sizes), dtype=np.complex128)
    for mu in range(4):
        vpsi[t.axis_lo[mu]] += _signed(t.axis_s[mu], psi.data[t.axis_hi[mu], None, None]) * conn.V[mu]
    live = np.any(vpsi.reshape(16, -1), axis=1)
    assert sum(4 - t.deg[l] for l in range(16) if live[l]) == calls

    diffs, built, alive_at_build = [], [], []
    d_live = fields._d_live

    def counted(grid, arr, mu):
        diffs.append(mu)
        return _diff(grid, arr, mu)

    def tracked(grid, blade, out, a=None):
        def build(l):
            built.append(l)
            u = blade(l)
            if u is not None:
                alive_at_build.append(len(alive) + 1)
                alive.add(l)
                weakref.finalize(u, alive.discard, l)
            return u

        alive = set()
        return d_live(grid, build, out, a)

    monkeypatch.setattr(fields, "_diff", counted)
    monkeypatch.setattr(fields, "_d_live", tracked)
    got = curvature(conn, psi).data
    assert len(diffs) == 12 + calls
    assert sorted(built) == list(range(15))
    assert max(alive_at_build, default=0) <= 4
    assert len(alive_at_build) == np.count_nonzero(live)
    assert same_bits(got, full_curvature(conn, psi.data))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_per_target_d_and_per_pair_strength_match_batched_loops_bitwise(n, r):
    # d_field and covariant_d sum each target blade's terms in one buffer,
    # field_strength builds each F_{mu nu} through the helper curvature
    # uses; the sums keep the full-array formulas' order, so the bits are theirs
    rng = np.random.default_rng([n, r, 22])
    g = make_grid(n, 16 if n == 1 else 8)
    conn = random_conn(g, r, rng)
    form = FormField(g, complex_with_zeros(rng, (4**n, *g.sizes)))
    end = EndFormField(g, r, complex_with_zeros(rng, (4**n, r, r, *g.sizes)))
    assert same_bits(d_field(form).data, full_d(g, form.data))
    assert same_bits(d_field(end).data, full_d(g, end.data))
    assert same_bits(covariant_d(conn, end).data, full_covariant_d(conn, end.data))
    assert same_bits(conn.field_strength(), full_field_strength(conn))


@pytest.mark.parametrize("kind, calls", [("0-form", 4), ("e^{i omega}", 8)])
def test_d_field_differentiates_only_live_blades(monkeypatch, kind, calls):
    # d of a 0-form takes 2n = 4 differences at n = 2; a form on the blades
    # of e^{i omega} (1, dx^0 dx^1, dx^2 dx^3, top) takes 4 + 2 + 2 + 0: a
    # dead blade is never differentiated, and the bits stay those of the
    # full-array formula
    rng = np.random.default_rng(25)
    g = make_grid(2, 8)
    if kind == "0-form":
        blades = np.zeros((16, 1, 1, 1, 1))
        blades[0] = 1.0
    else:
        blades = fields.exp_two_form_field(g, 1j * std_omega(2)).data
    f = FormField(g, blades * complex_with_zeros(rng, g.sizes))
    seen = []

    def counted(grid, arr, mu):
        seen.append(mu)
        return _diff(grid, arr, mu)

    monkeypatch.setattr(fields, "_diff", counted)
    got = d_field(f).data
    assert len(seen) == calls
    assert same_bits(got, full_d(g, f.data))


@pytest.mark.parametrize("r, varying", [(1, False), (2, False), (2, True)],
                         ids=["rank-1", "rank-2", "rank-2-varying-b"])
def test_curvature_peaks_under_one_and_three_quarter_fields(traced_peak, r, varying):
    # only the result is full size: each F_{mu nu}, each table row, each
    # target blade of d^A(V . psi) and each blade of V . psi (at most 4 held
    # at a time) is one (r, r, *sizes) temporary, a sixteenth of a field
    rng = np.random.default_rng(22)
    g = make_grid(2, 8)
    conn = random_conn(g, r, rng)
    m = rng.standard_normal((4, 4) + (g.sizes if varying else ()))
    b = 0.3 * (m - np.swapaxes(m, 0, 1)) * varying
    omega = std_omega(2).reshape((4, 4) + (1,) * (b.ndim - 2))
    psi = fields.exp_two_form_field(g, b + 1j * omega)
    field = 16 * 4**2 * 8**4 * r**2
    assert traced_peak(lambda: curvature(conn, psi)) <= 1.75 * field


@pytest.mark.parametrize("bkind, bound", [("zero-b", 0.25), ("constant-b", 1.6), ("varying-b", 1.6)],
                         ids=["zero-b", "constant-b", "varying-b"])
def test_u_window_defect_peaks_under_two_fields(traced_peak, bkind, bound):
    # e^{-b} ^ F is summed row by row into its result: besides it only the
    # blades of b and e^{-b}, a quarter field each at rank 2, and one
    # blade's product are held; max|g| is taken blade by blade.  At b = 0
    # g is F's own array, so only one row and one blade's |.| are held
    rng = np.random.default_rng(23)
    g = make_grid(2, 8)
    f = random_field(g, rng, 2)
    m = rng.standard_normal((4, 4) + (g.sizes if bkind == "varying-b" else ()))
    b = 0.3 * (m - np.swapaxes(m, 0, 1)) * (bkind != "zero-b")
    js = gcs_symplectic(std_omega(2))
    peak = traced_peak(lambda: fields.u_window_defect(f, b, js))
    assert peak <= bound * f.data.nbytes


# ---------------------------------------------------------------------------
# a constant field is one point


CONSTANT_B = {
    1: [[0.0, 0.3], [-0.3, 0.0]],
    2: [[0.0, 0.3, 0.1, -0.2], [-0.3, 0.0, 0.4, 0.05], [-0.1, -0.4, 0.0, 0.2], [0.2, -0.05, -0.2, 0.0]],
}


def owner(x):
    """The array that owns x's memory."""
    while x.base is not None:
        x = x.base
    return x


def is_one_point(data):
    return not any(data.strides[1:])


@pytest.mark.parametrize("n", [1, 2])
def test_a_constant_b_document_spinor_is_one_read_only_point(n):
    cfg = build_config({"n": n, "psi": {"b": CONSTANT_B[n]}}, grid_size=8)
    data = cfg.psi.data
    assert data.shape == (4**n,) + cfg.grid.sizes
    assert is_one_point(data)
    assert owner(data).nbytes == 16 * 4**n
    with pytest.raises(ValueError, match="read-only"):
        data[0] = 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_conjugate_and_constant_b_transform_keep_one_point_with_the_full_bits(n):
    g = make_grid(n, 8)
    psi = psi_const(g, c=0.2)
    full = FormField(g, np.ascontiguousarray(psi.data))
    bmat = np.array(CONSTANT_B[n])
    for got, want in (
        (psi.conjugate(), full.conjugate()),
        (b_transform_field(bmat, psi), b_transform_field(bmat, full)),
        (b_transform_field(-bmat, b_transform_field(bmat, psi)),
         b_transform_field(-bmat, b_transform_field(bmat, full))),
    ):
        assert is_one_point(got.data) and owner(got.data).nbytes == 16 * 4**n
        assert want.data.flags.c_contiguous
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_a_varying_b_spinor_stays_a_full_c_contiguous_field(n):
    entry = {"i": 0, "j": 1, "coeff": [{"c": 0.2, "trig": "sin", "k": [1] + [0] * (2 * n - 1)}]}
    cfg = build_config({"n": n, "psi": {"b": {"entries": [entry]}}}, grid_size=8)
    for data in (cfg.psi.data, cfg.psi.conjugate().data):
        assert data.flags.c_contiguous and data.flags.writeable


@pytest.mark.parametrize("n", [1, 2])
def test_blades_live_reads_a_broadcast_field_without_a_field_size_copy(traced_peak, n):
    # any over the grid axes as they lie: reshape(len, -1) would copy a
    # field broadcast along some grid axes and not others
    g = make_grid(n, 16 if n == 1 else 8)
    f = random_field(g, np.random.default_rng(7), None).data
    f[1] = 0.0
    point, slab = f[(...,) + (slice(0, 1),) * (2 * n)], f[:, :1]
    for part in (point, slab):
        data = np.broadcast_to(part, f.shape)
        got = []
        peak = traced_peak(lambda: got.append(_backend._blades_live(data)))
        want = _backend._blades_live(np.ascontiguousarray(data))
        assert got[0].tolist() == want.tolist() == [l != 1 for l in range(4**n)]
        assert peak < data.nbytes / 4
