"""Re-derive every frozen constant from its defining identity.

Each test solves for the constant numerically (never assuming the frozen
value on the way) and then compares against genkf.constants.  A failure
here means the algebra conventions drifted; fix the drift, not the table.

Field-level constants (moment derivative, line EH scale, co-Higgs
reduction) are re-derived in the grid section at the bottom once against
small deterministic configurations.
"""

import numpy as np
import pytest

from genkf import constants
from genkf.multivector import (
    GenVector,
    GradedForm,
    clifford_act,
    exp_two_form,
    mukai_pair,
    neutral_pairing_matrix,
    wedge,
)
from genkf.structures import UDecomposition, clifford_matrix, gcs_from_spinor

RNG = np.random.default_rng(771020)


def random_omega(n, rng=RNG):
    m = rng.normal(size=(2 * n, 2 * n))
    m = m - m.T
    # keep it invertible and well clear of degeneracy
    return m + 2.0 * np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def random_b(n, rng=RNG):
    m = rng.normal(size=(2 * n, 2 * n))
    return m - m.T


def random_form(n, rng=RNG):
    size = 4**n
    return GradedForm(n, rng.normal(size=size) + 1j * rng.normal(size=size))


def symplectic_spinor(n, b=None, omega=None):
    if omega is None:
        omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    two_form = 1j * omega if b is None else b + 1j * omega
    return exp_two_form(GradedForm.from_two_form_matrix(two_form)), omega


# ---------------------------------------------------------------------------
# ADJUNCTION_SIGN


@pytest.mark.parametrize("n", [1, 2])
def test_adjunction_sign_rederived(n):
    derived = None
    for _ in range(20):
        e = GenVector(
            RNG.normal(size=2 * n) + 1j * RNG.normal(size=2 * n),
            RNG.normal(size=2 * n) + 1j * RNG.normal(size=2 * n),
        )
        a = random_form(n)
        b = random_form(n)
        lhs = mukai_pair(clifford_act(e, a), b)
        rhs = mukai_pair(a, clifford_act(e, b))
        if abs(rhs) > 1e-9:
            ratio = lhs / rhs
            if derived is None:
                derived = ratio
            assert abs(ratio - derived) < 1e-9
    assert derived is not None
    assert abs(derived - constants.ADJUNCTION_SIGN) < 1e-12


# ---------------------------------------------------------------------------
# PAIR_RE_SIGN / PAIR_IM_SIGN


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("with_b", [False, True])
def test_pairing_signs_rederived(n, with_b):
    b = random_b(n) if with_b else None
    psi, _ = symplectic_spinor(n, b=b)
    psibar = psi.conjugate()
    j = gcs_from_spinor(psi).J
    q = neutral_pairing_matrix(n)
    vol = (1j ** (-n) * mukai_pair(psi, psibar)).real
    assert vol > 0

    dim4 = 4 * n
    pair = np.empty((dim4, dim4), dtype=np.complex128)
    basis = np.eye(dim4)
    for i in range(dim4):
        for k in range(dim4):
            ei = GenVector.from_array(basis[:, i])
            ek = GenVector.from_array(basis[:, k])
            pair[i, k] = 1j ** (-n) * mukai_pair(clifford_act(ei, psi), clifford_act(ek, psibar))

    # solve <e_i, e_k> vol = s_re * Re pair[i, k] entrywise
    mask_re = np.abs(pair.real) > 1e-9
    s_re = (q * vol)[mask_re] / pair.real[mask_re]
    assert np.max(np.abs(s_re - s_re.flat[0])) < 1e-9
    assert abs(s_re.flat[0] - constants.PAIR_RE_SIGN) < 1e-9

    jq = j.T @ q
    mask_im = np.abs(pair.imag) > 1e-9
    s_im = (jq * vol)[mask_im] / pair.imag[mask_im]
    assert np.max(np.abs(s_im - s_im.flat[0])) < 1e-9
    assert abs(s_im.flat[0] - constants.PAIR_IM_SIGN) < 1e-9

    # and the parts with no signal really are zero on both sides
    assert np.max(np.abs(pair.real[~mask_re])) < 1e-9
    assert np.max(np.abs((q * vol)[~mask_re])) < 1e-9
    assert np.max(np.abs((jq * vol)[~mask_im])) < 1e-9


# ---------------------------------------------------------------------------
# KAHLER_UPROJ_COEFF


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("with_b", [False, True])
def test_u_projection_coefficient_rederived(n, with_b):
    b = random_b(n) if with_b else None
    psi, omega = symplectic_spinor(n, b=b)
    psibar = psi.conjugate()
    bmat = random_b(n)
    bform = GradedForm.from_two_form_matrix(bmat)
    lam = 0.5 * np.trace(bmat @ np.linalg.inv(omega))

    # route 1: Mukai pairing against the conjugate line
    coeff_mukai = mukai_pair(wedge(bform, psi), psibar) / mukai_pair(psi, psibar)

    # route 2: eigenspace projector of the induced structure
    dec = UDecomposition(gcs_from_spinor(psi))
    proj = dec.project(-n, wedge(bform, psi))
    live = np.argmax(np.abs(psi.coeffs))
    coeff_proj = proj.coeffs[live] / psi.coeffs[live]
    assert np.max(np.abs(proj.coeffs - coeff_proj * psi.coeffs)) < 1e-8 * max(
        1.0, abs(coeff_proj)
    )

    assert abs(coeff_mukai - coeff_proj) < 1e-8
    assert abs(lam) > 1e-6
    derived = coeff_mukai / lam
    assert abs(derived - constants.KAHLER_UPROJ_COEFF) < 1e-8


# ---------------------------------------------------------------------------
# pointwise kernel of the co-Higgs reduction: in a frame z_i with
# omega(z_i, zbar_j) = -i delta_ij, the psi-line part of z_i . zbar_j . psi
# is -(1/2) delta_ij psi.


@pytest.mark.parametrize("n", [1, 2])
def test_cohiggs_frame_projection(n):
    psi, omega = symplectic_spinor(n)
    psibar = psi.conjugate()
    # unitary frame pinned by i omega(z_i, zbar_j) = delta_ij
    frame = []
    for i in range(n):
        z = np.zeros(2 * n, dtype=np.complex128)
        z[2 * i] = 1.0
        z[2 * i + 1] = 1j
        h = 1j * (z @ omega @ np.conj(z))
        assert h.real > 0
        frame.append(z / np.sqrt(h.real))
    for i, zi in enumerate(frame):
        for j, zj in enumerate(frame):
            assert abs(1j * (zi @ omega @ np.conj(zj)) - (1.0 if i == j else 0.0)) < 1e-12
    for i, zi in enumerate(frame):
        for j, zj in enumerate(frame):
            acted = clifford_act(
                GenVector(zi, np.zeros(2 * n)),
                clifford_act(GenVector(np.conj(zj), np.zeros(2 * n)), psi),
            )
            coeff = mukai_pair(acted, psibar) / mukai_pair(psi, psibar)
            want = -0.5 if i == j else 0.0
            assert abs(coeff - want) < 1e-12


# ---------------------------------------------------------------------------
# spin action consistency: clifford_matrix of a vector equals the direct
# action on every basis blade (guards the matrix route used above)


def test_clifford_matrix_consistency():
    n = 2
    e = GenVector(
        RNG.normal(size=2 * n) + 1j * RNG.normal(size=2 * n),
        RNG.normal(size=2 * n) + 1j * RNG.normal(size=2 * n),
    )
    m = clifford_matrix(e.as_array(), n)
    a = random_form(n)
    direct = clifford_act(e, a)
    assert np.max(np.abs(m @ a.coeffs - direct.coeffs)) < 1e-12


# ---------------------------------------------------------------------------
# grid section: field-level constants, re-derived against the discrete
# pipeline on small deterministic tori.  Same rule as above: solve for the
# constant, then compare with the frozen value.

from genkf.fields import (  # noqa: E402
    ConnVariation,
    FormField,
    GenConnection,
    TorusGrid,
    connection_derivative,
    curvature,
    gm_symplectic,
    lie_derivative,
    mean_curvature_from,
    moment_value,
    shift_connection,
)

STD_OMEGA_1 = np.kron(np.eye(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _grid():
    return TorusGrid(1, (16, 16))


def _trig(grid, rng, amp=0.1):
    xs = grid.meshes()
    out = np.zeros(grid.sizes)
    for _ in range(3):
        k = rng.integers(-2, 3, size=2 * grid.n)
        c = amp * rng.normal()
        phase = 2.0 * np.pi * sum(k[m] * xs[m] for m in range(2 * grid.n))
        out += c * np.cos(phase + rng.uniform(0.0, 2.0 * np.pi))
    return out


def _grid_psi(grid, c=0.0):
    form = exp_two_form(
        GradedForm.from_two_form_matrix((c + 1j) * STD_OMEGA_1.astype(complex))
    )
    return FormField.constant(grid, form)


def _grid_conn(grid, r, rng, with_v=True):
    shape = (2 * grid.n, r, r, *grid.sizes)
    a = np.zeros(shape, dtype=np.complex128)
    v = np.zeros(shape, dtype=np.complex128)
    for mu in range(2 * grid.n):
        for arr in (a, v) if with_v else (a,):
            m = np.zeros((r, r, *grid.sizes), dtype=np.complex128)
            for i in range(r):
                for j in range(r):
                    m[i, j] = _trig(grid, rng) + 1j * _trig(grid, rng)
            arr[mu] = (m - np.swapaxes(m, 0, 1).conj()) / 2.0
    return GenConnection(grid, r, a, v)


def _skew_field(grid, r, rng):
    m = np.zeros((r, r, *grid.sizes), dtype=np.complex128)
    for i in range(r):
        for j in range(r):
            m[i, j] = _trig(grid, rng) + 1j * _trig(grid, rng)
    return (m - np.swapaxes(m, 0, 1).conj()) / 2.0


def test_moment_derivative_sign_rederived():
    rng = np.random.default_rng(40097)
    grid = _grid()
    psi = _grid_psi(grid, c=0.2)
    conn = _grid_conn(grid, 2, rng)
    xi = _skew_field(grid, 2, rng)
    var_conn = _grid_conn(grid, 2, rng)
    a = ConnVariation(var_conn.A, var_conn.V)
    t = 1e-4
    deriv = (
        moment_value(grid, shift_connection(conn, a, t), xi, psi)
        - moment_value(grid, shift_connection(conn, a, -t), xi, psi)
    ) / (2.0 * t)
    pairing = gm_symplectic(grid, connection_derivative(conn, xi), a, psi)
    assert abs(pairing) > 1e-6  # nondegenerate configuration
    derived = deriv / pairing
    assert abs(derived - constants.MOMENT_DERIVATIVE_SIGN) < 1e-4


def test_line_eh_scale_rederived():
    rng = np.random.default_rng(51211)
    grid = _grid()
    c = 0.4
    psi = _grid_psi(grid, c=c)
    shape = (2, 1, 1, *grid.sizes)
    a = np.zeros(shape, dtype=np.complex128)
    v_field = np.stack([_trig(grid, rng), _trig(grid, rng)])
    v = np.zeros(shape, dtype=np.complex128)
    for mu in range(2):
        a[mu, 0, 0] = 1j * _trig(grid, rng)
        v[mu, 0, 0] = 1j * v_field[mu]
    conn = GenConnection(grid, 1, a, v)
    k = mean_curvature_from(curvature(conn, psi), psi)[0, 0].real

    om_field = FormField.constant(
        grid, GradedForm.from_two_form_matrix(STD_OMEGA_1.astype(complex))
    )
    lvo = lie_derivative(grid, v_field, om_field)
    total = conn.field_strength()[:, :, 0, 0].astype(np.complex128)
    total[0, 1] += c * 1j * lvo.data[3]
    total[1, 0] -= c * 1j * lvo.data[3]
    lam = 0.5 * np.einsum("mn...,nm->...", total, np.linalg.inv(STD_OMEGA_1))

    # the EH normalization reads Lambda = LINE_EH_SCALE * K * i pointwise
    live = np.abs(k) > 1e-3 * np.max(np.abs(k))
    derived = (lam[live] / (1j * k[live])).real
    assert np.max(np.abs(lam[live] / (1j * k[live]) - derived)) < 1e-6
    assert np.max(np.abs(derived - constants.LINE_EH_SCALE)) < 1e-6


def test_cohiggs_constants_rederived():
    rng = np.random.default_rng(62323)
    grid = _grid()
    psi = _grid_psi(grid)

    # scale from the Higgs-field half: A = 0, V from W in the unitary frame
    w = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [-0.2 + 0.05j, -0.1 - 0.2j]])
    z = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    v = np.zeros((2, 2, 2, *grid.sizes), dtype=np.complex128)
    for mu in range(2):
        v[mu] = (z[mu] * w - np.conj(z[mu]) * w.conj().T)[:, :, None, None]
    conn_w = GenConnection(grid, 2, np.zeros_like(v), v)
    k_w = mean_curvature_from(curvature(conn_w, psi), psi)
    comm = w @ w.conj().T - w.conj().T @ w
    derived_scale = (k_w[0, 0, 0, 0] / comm[0, 0]).real
    assert np.max(np.abs(k_w[:, :, 0, 0] - derived_scale * comm)) < 1e-10
    assert abs(derived_scale - constants.COHIGGS_SCALE) < 1e-10

    # F sign from the curvature half: V = 0, nonabelian A
    conn_a = _grid_conn(grid, 2, rng, with_v=False)
    k_a = mean_curvature_from(curvature(conn_a, psi), psi)
    lam = 0.5 * np.einsum(
        "mnij...,nm->ij...",
        conn_a.field_strength(),
        np.linalg.inv(STD_OMEGA_1),
    )
    ref = (1j * lam + np.swapaxes(1j * lam, 0, 1).conj()) / 2.0
    live = np.abs(ref) > 1e-3 * np.max(np.abs(ref))
    derived_sign = (k_a[live] / (derived_scale * ref[live])).real
    assert np.max(np.abs(derived_sign - constants.COHIGGS_F_SIGN)) < 1e-8
    assert np.max(np.abs(k_a - derived_scale * constants.COHIGGS_F_SIGN
                         * ref)) < 1e-10
