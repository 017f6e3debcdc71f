"""Generalized structure tests.

The 4x4 block matrices at n=1 are frozen by hand; spinor-kernel spans are
checked against explicitly listed generalized vectors, and the two
construction routes (block formula vs kernel of the spinor) must agree.
"""

import ast
import pathlib

import numpy as np
import pytest

import genkf
from genkf import structures
from genkf.multivector import (
    GenVector,
    GradedForm,
    b_transform,
    exp_two_form,
    mukai_pair,
    neutral_pairing,
)
from genkf.structures import (
    GCStructure,
    GKPair,
    UDecomposition,
    classify_spinor,
    gcs_b_transform,
    gcs_complex,
    gcs_from_spinor,
    gcs_symplectic,
    gk_validate,
    spinor_kernel,
    spinor_line,
)

RNG = np.random.default_rng(515151)

J_STD = np.array([[0.0, -1.0], [1.0, 0.0]])  # J d1 = d2
OMEGA_STD = np.array([[0.0, 1.0], [-1.0, 0.0]])  # omega = dx1 ^ dx2


def random_omega(n, rng=RNG):
    """Random invertible antisymmetric matrix (a constant symplectic form)."""
    while True:
        m = rng.standard_normal((2 * n, 2 * n))
        m = m - m.T
        if abs(np.linalg.det(m)) > 1e-3:
            return m


def psi_from_omega(b, omega):
    return exp_two_form(GradedForm.from_two_form_matrix(b + 1j * omega))


def in_span(columns, vector, tol=1e-10):
    """Least-squares membership test."""
    sol, *_ = np.linalg.lstsq(columns, vector, rcond=None)
    return np.linalg.norm(columns @ sol - vector) < tol


# ---------------------------------------------------------------------------
# block constructors (frozen 4x4 matrices)


def test_gcs_complex_blocks():
    got = gcs_complex(J_STD).J
    expect = np.zeros((4, 4))
    expect[:2, :2] = J_STD
    expect[2:, 2:] = -J_STD.T
    assert np.allclose(got, expect)


def test_gcs_symplectic_blocks():
    got = gcs_symplectic(OMEGA_STD).J
    expect = np.zeros((4, 4))
    expect[:2, 2:] = -np.linalg.inv(OMEGA_STD)
    expect[2:, :2] = OMEGA_STD
    assert np.allclose(got, expect)
    # concrete entries, by hand from the -i eigenspace {d1 - i dx2, d2 + i dx1}
    assert np.allclose(
        got,
        np.array(
            [
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
            ]
        ),
    )


@pytest.mark.parametrize("n", [1, 2])
def test_gcs_axioms_random_symplectic(n):
    for _ in range(5):
        s = gcs_symplectic(random_omega(n))
        assert s.square_defect() < 1e-10
        assert s.orthogonality_defect() < 1e-10


def test_gcs_rejects_non_square_root():
    with pytest.raises(ValueError):
        gcs_complex(np.array([[0.0, 2.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        GCStructure(np.eye(4))


def test_gcs_rejects_a_j_that_is_not_finite():
    # a NaN defect compares False with any bound, so finiteness is checked
    # first: inverting a subnormal omega overflows to inf entries
    with pytest.raises(ValueError, match="not finite"):
        GCStructure(np.full((4, 4), np.nan))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        gcs_symplectic([[0.0, 1e-310], [-1e-310, 0.0]])


# ---------------------------------------------------------------------------
# spinor kernels and classification


def test_kernel_of_dz():
    # ker(dx1 + i dx2) = span{d1 + i d2, dx1 + i dx2}
    phi = GradedForm.blade(1, (0,)) + 1j * GradedForm.blade(1, (1,))
    k = spinor_kernel(phi)
    assert k.shape == (4, 2)
    assert in_span(k, np.array([1.0, 1j, 0.0, 0.0]))
    assert in_span(k, np.array([0.0, 0.0, 1.0, 1j]))


def test_kernel_of_symplectic_exponential():
    # ker(e^{i omega}) = span{d1 - i dx2, d2 + i dx1}
    psi = psi_from_omega(np.zeros((2, 2)), OMEGA_STD)
    k = spinor_kernel(psi)
    assert k.shape == (4, 2)
    assert in_span(k, np.array([1.0, 0.0, 0.0, -1j]))
    assert in_span(k, np.array([0.0, 1.0, 1j, 0.0]))


def test_classify_types():
    psi = psi_from_omega(np.zeros((2, 2)), OMEGA_STD)
    c = classify_spinor(psi)
    assert c.is_pure and c.is_nondegenerate and c.type_number == 0
    phi = GradedForm.blade(1, (0,)) + 1j * GradedForm.blade(1, (1,))
    c = classify_spinor(phi)
    assert c.is_pure and c.is_nondegenerate and c.type_number == 1
    # real decomposable one-form: pure but degenerate (kernel equals its conjugate)
    c = classify_spinor(GradedForm.blade(1, (0,)))
    assert c.is_pure and not c.is_nondegenerate
    # non-pure: kernel too small
    c = classify_spinor(GradedForm.scalar(1, 1.0) + GradedForm.blade(1, (0,)))
    assert not c.is_pure and c.kernel_dim < 2


def test_kernel_isotropy_random():
    for n in (1, 2):
        psi = psi_from_omega(random_omega(n), random_omega(n))
        k = spinor_kernel(psi)
        assert k.shape[1] == 2 * n
        for i in range(2 * n):
            for j in range(2 * n):
                e1 = GenVector.from_array(k[:, i])
                e2 = GenVector.from_array(k[:, j])
                assert abs(neutral_pairing(e1, e2)) < 1e-10


def test_structure_from_spinor_reuses_the_classified_kernel(monkeypatch):
    # gcs_from_spinor takes the kernel classify_spinor computed (one SVD),
    # and its Gram-product isotropy defect is the pairwise maximum
    calls = []
    real = structures.spinor_kernel
    monkeypatch.setattr(structures, "spinor_kernel", lambda phi: calls.append(1) or real(phi))
    for n in (1, 2):
        psi = psi_from_omega(random_omega(n), random_omega(n))
        cls = classify_spinor(psi)
        k = real(psi)
        assert np.array_equal(cls.kernel, k)
        pairwise = max(
            abs(neutral_pairing(GenVector.from_array(a), GenVector.from_array(b)))
            for a in k.T
            for b in k.T
        )
        assert abs(cls.isotropy_defect - pairwise) <= 1e-15
        calls.clear()
        gcs_from_spinor(psi)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# spinor <-> structure roundtrips


def omega_draws(n, count=10):
    """Random nondegenerate two-forms with their condition numbers."""
    rng = np.random.default_rng([n, 2017])
    for _ in range(count):
        omega = random_omega(n, rng)
        yield omega, np.linalg.cond(omega)


# Both routes round; their gap grows with cond(omega): in 200 draws per n it was
# at most 3.4e-15 * cond(omega) (projectors) and 2.0e-15 * cond(omega) (J).
ROUTE_TOL = 64 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2])
def test_symplectic_roundtrip(n):
    # u_window_defect decomposes gcs_symplectic(omega) for psi's e^{i omega}
    for omega, cond in omega_draws(n):
        via_spinor = gcs_from_spinor(psi_from_omega(np.zeros_like(omega), omega)).J
        direct = gcs_symplectic(omega).J
        assert np.max(np.abs(via_spinor - direct)) <= ROUTE_TOL * cond * np.max(np.abs(direct))


def test_complex_roundtrip():
    phi = GradedForm.blade(1, (0,)) + 1j * GradedForm.blade(1, (1,))
    assert np.max(np.abs(gcs_from_spinor(phi).J - gcs_complex(J_STD).J)) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_spinor_line_roundtrip(n):
    omega = random_omega(n)
    b = random_omega(n)
    psi = psi_from_omega(b, omega)
    line = spinor_line(gcs_from_spinor(psi))
    assert np.max(np.abs(line.coeffs - psi.coeffs)) < 1e-8


def test_gcs_from_degenerate_spinor_rejected():
    with pytest.raises(ValueError):
        gcs_from_spinor(GradedForm.blade(1, (0,)))


# ---------------------------------------------------------------------------
# b-field transform


@pytest.mark.parametrize("n", [1, 2])
def test_b_transform_dual_route(n):
    # conjugating the structure matches transforming the spinor
    for _ in range(5):
        omega = random_omega(n)
        bmat = random_omega(n)
        psi = psi_from_omega(np.zeros_like(omega), omega)
        j0 = gcs_from_spinor(psi)
        route_matrix = gcs_b_transform(bmat, j0)
        route_spinor = gcs_from_spinor(
            b_transform(GradedForm.from_two_form_matrix(bmat), psi)
        )
        assert np.max(np.abs(route_matrix.J - route_spinor.J)) < 1e-8


# ---------------------------------------------------------------------------
# eigenspace decomposition of the spin representation


@pytest.mark.parametrize("n", [1, 2])
def test_u_decomposition_dimensions(n):
    from math import comb

    omega = random_omega(n)
    dec = UDecomposition(gcs_symplectic(omega))
    for k in range(-n, n + 1):
        assert dec.dimension(k) == comb(2 * n, k + n)


@pytest.mark.parametrize("n", [1, 2])
def test_u_decomposition_resolution_and_eigen(n):
    omega = random_omega(n)
    bmat = random_omega(n)
    psi = psi_from_omega(bmat, omega)
    j = gcs_from_spinor(psi)
    dec = UDecomposition(j)
    total = np.zeros((4**n, 4**n), dtype=complex)
    for k in range(-n, n + 1):
        p = dec.projector(k)
        # eigenprojector of the spin operator: op @ p = i k p
        assert np.max(np.abs(dec.operator @ p - 1j * k * p)) < 1e-8
        total += p
    assert np.max(np.abs(total - np.eye(4**n))) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_psi_line_is_lowest_eigenspace(n):
    omega = random_omega(n)
    psi = psi_from_omega(random_omega(n), omega)
    dec = UDecomposition(gcs_from_spinor(psi))
    proj = dec.project(-n, psi)
    assert np.max(np.abs(proj.coeffs - psi.coeffs)) < 1e-8
    for k in range(-n + 1, n + 1):
        assert dec.project(k, psi).norm() < 1e-8 * psi.norm()


def test_u_projection_mixes_only_adjacent_degrees():
    # U^{k} pairs only with U^{-k}: cross Mukai pairings vanish
    n = 2
    omega = random_omega(n)
    psi = psi_from_omega(np.zeros((4, 4)), omega)
    dec = UDecomposition(gcs_from_spinor(psi))
    rng = np.random.default_rng(7)
    a = GradedForm(n, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    b = GradedForm(n, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    for j in range(-n, n + 1):
        for k in range(-n, n + 1):
            val = mukai_pair(dec.project(j, a), dec.project(k, b))
            if j + k != 0:
                assert abs(val) < 1e-8


def svd_gram_projectors(j):
    """The U^k projectors from an orthonormal (SVD) basis of L and the Gram
    inverse of its pairing with the conjugate basis: the construction that
    UDecomposition replaced by J's own entries."""
    n = j.n
    q = structures.neutral_pairing_matrix(n)
    k = j.minus_i_eigenbasis()
    f = np.conj(k)
    dual = f @ np.linalg.inv(k.T @ q @ f)
    size = 4**n
    op = np.zeros((size, size), dtype=np.complex128)
    for i in range(k.shape[1]):
        op += structures.clifford_matrix(dual[:, i], n) @ structures.clifford_matrix(k[:, i], n)
    op = 0.5j * op - 1j * n * np.eye(size)
    out = {}
    for kk in range(-n, n + 1):
        p = np.eye(size, dtype=np.complex128)
        for m in range(-n, n + 1):
            if m != kk:
                p = p @ (op - 1j * m * np.eye(size)) / (1j * (kk - m))
        out[kk] = p
    return out


@pytest.mark.parametrize("n, counts", [(1, [4, 2, 4]), (2, [16, 16, 12, 16, 16])])
def test_standard_symplectic_projectors_are_exactly_sparse(n, counts):
    # J's entries are 0 and +-1, so every entry of op_J and of each P_k is a
    # small dyadic number, computed without rounding
    dec = UDecomposition(gcs_symplectic(np.kron(np.eye(n), OMEGA_STD)))
    for k, count in zip(range(-n, n + 1), counts):
        p = dec.projector(k)
        assert np.count_nonzero(p) == count
        assert set(np.abs(p[p != 0]).tolist()) <= {0.25, 0.5, 1.0}


@pytest.mark.parametrize("n", [1, 2])
def test_projectors_match_the_svd_gram_construction(n):
    for omega, cond in omega_draws(n):
        j = gcs_symplectic(omega)
        dec = UDecomposition(j)
        for k, want in svd_gram_projectors(j).items():
            err = np.max(np.abs(dec.projector(k) - want))
            assert err <= ROUTE_TOL * cond * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# compatible pairs


def kaehler_pair(n=1):
    if n == 1:
        return GKPair(gcs_complex(J_STD), gcs_symplectic(OMEGA_STD))
    j = np.kron(np.eye(n), J_STD)
    om = np.kron(np.eye(n), OMEGA_STD)
    return GKPair(gcs_complex(j), gcs_symplectic(om))


@pytest.mark.parametrize("n", [1, 2])
def test_kaehler_pair_valid(n):
    pair = kaehler_pair(n)
    rep = gk_validate(pair.J1, pair.J2)
    assert rep["commutator"] < 1e-12
    assert rep["metric_symmetry"] < 1e-12
    assert rep["metric_min_eigenvalue"] > 0
    assert rep["square_defect"] < 1e-12
    assert rep["valid"]


def test_gk_pair_b_transform_stays_valid():
    pair = kaehler_pair(1)
    bmat = random_omega(1)
    j1 = gcs_b_transform(bmat, pair.J1)
    j2 = gcs_b_transform(bmat, pair.J2)
    rep = gk_validate(j1.J, j2.J)
    assert rep["valid"]


def test_noncommuting_pair_rejected():
    # in four dimensions a form with a (2,0)+(0,2) part fails to commute
    j1 = gcs_complex(np.kron(np.eye(2), J_STD))
    om = np.zeros((4, 4))
    om[0, 2] = om[3, 1] = 1.0
    om[2, 0] = om[1, 3] = -1.0
    j2 = gcs_symplectic(om)
    rep = gk_validate(j1.J, j2.J)
    assert rep["commutator"] > 0.5
    assert not rep["valid"]
    with pytest.raises(ValueError):
        GKPair(j1, j2)


def test_indefinite_pair_rejected():
    # J paired with itself commutes but G = J^2 = -1 has no positivity
    j1 = gcs_complex(J_STD)
    rep = gk_validate(j1, j1)
    assert rep["commutator"] < 1e-14
    assert rep["metric_min_eigenvalue"] < 0
    assert not rep["valid"]


# the places in src/genkf outside specio (which builds the document's pair,
# RunConfig.pair) and structures (which defines them) that may call
# standard_complex or gcs_symplectic: self-contained standard instances
_OWN_STANDARD_PAIRS = {
    "verify._analysis_checks": "the symbol rows' frozen tables are the standard pair's",
    "analysis.cohiggs_residual": "its Higgs field is holomorphic for the standard J",
}


def test_the_document_pair_is_built_in_specio_only():
    # a command reads cfg.pair; a consumer that built (standard_complex(n),
    # gcs_symplectic(omega)) itself could drift from the document's pair
    callers = set()
    for path in pathlib.Path(genkf.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("standard_complex", "gcs_symplectic"):
                    callers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert any(c.startswith("specio.") for c in callers)
    outside = {c for c in callers if c.split(".")[0] not in ("specio", "structures")}
    assert outside == set(_OWN_STANDARD_PAIRS)
