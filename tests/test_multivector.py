"""Exterior/Clifford algebra tests.

Oracles here are deliberately independent of the package implementation:
wedge and interior products are recomputed over tuple-keyed dicts with
bubble-sort parity, and the small Mukai values are frozen by hand.
"""

import numpy as np
import pytest

import genkf
from genkf import _backend, _kernels_py
from genkf.multivector import (
    GenVector,
    GradedForm,
    b_transform,
    clifford_act,
    exp_two_form,
    interior,
    mukai_pair,
    neutral_pairing,
    neutral_pairing_matrix,
    two_form_matrix,
    wedge,
)

RNG = np.random.default_rng(20260823)


# ---------------------------------------------------------------------------
# oracles


def sort_parity(axes):
    """Bubble-sort a tuple of distinct axes; return (sorted tuple, sign)."""
    axes = list(axes)
    sign = 1
    changed = True
    while changed:
        changed = False
        for p in range(len(axes) - 1):
            if axes[p] > axes[p + 1]:
                axes[p], axes[p + 1] = axes[p + 1], axes[p]
                sign = -sign
                changed = True
    return tuple(axes), sign


def to_dict(form):
    """Coefficients keyed by ascending axis tuples."""
    out = {}
    for mask in range(form.coeffs.size):
        c = form.coeffs[mask]
        if c != 0:
            key = tuple(mu for mu in range(2 * form.n) if mask >> mu & 1)
            out[key] = c
    return out


def oracle_wedge(fa, fb):
    """Wedge product over dicts: concatenate axis tuples, sort, track parity."""
    da, db = to_dict(fa), to_dict(fb)
    out = {}
    for ka, ca in da.items():
        for kb, cb in db.items():
            if set(ka) & set(kb):
                continue
            key, sign = sort_parity(ka + kb)
            out[key] = out.get(key, 0) + sign * ca * cb
    res = GradedForm.zero(fa.n)
    for key, c in out.items():
        mask = sum(1 << mu for mu in key)
        res.coeffs[mask] = c
    return res


def oracle_interior(vec, form):
    """i_v over dicts: delete one axis at a time with alternating sign."""
    d = to_dict(form)
    out = {}
    for key, c in d.items():
        for pos, mu in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            out[rest] = out.get(rest, 0) + ((-1) ** pos) * vec[mu] * c
    res = GradedForm.zero(form.n)
    for key, c in out.items():
        mask = sum(1 << mu for mu in key)
        res.coeffs[mask] = c
    return res


def random_form(n, rng=RNG):
    c = rng.standard_normal(1 << (2 * n)) + 1j * rng.standard_normal(1 << (2 * n))
    return GradedForm(n, c)


def random_genvector(n, rng=RNG, real=False):
    if real:
        v = rng.standard_normal(2 * n)
        x = rng.standard_normal(2 * n)
    else:
        v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    return GenVector(v, x)


def random_two_form(n, rng=RNG, real=True):
    m = rng.standard_normal((2 * n, 2 * n))
    if not real:
        m = m + 1j * rng.standard_normal((2 * n, 2 * n))
    m = (m - m.T) / 2
    return GradedForm.from_two_form_matrix(m)


# ---------------------------------------------------------------------------
# wedge / interior


def test_backend_seam_reexports_numpy_kernels():
    assert genkf.kernel_backend == _backend.BACKEND_NAME == "python"
    for name in ("wedge_batch", "interior_batch", "wedge1_batch", "clifford_batch", "mukai_batch"):
        assert getattr(_backend, name) is getattr(_kernels_py, name)


def test_wedge_basis_blades():
    # dx1 ^ dx2 = +blade{0,1}; dx2 ^ dx1 = -blade{0,1}
    n = 2
    dx1 = GradedForm.blade(n, (0,))
    dx2 = GradedForm.blade(n, (1,))
    w = wedge(dx1, dx2)
    assert w.coeffs[0b0011] == 1.0
    w = wedge(dx2, dx1)
    assert w.coeffs[0b0011] == -1.0
    # dx2 ^ dx13 = dx1 ^ dx2 ^ dx3 with one transposition
    w = wedge(dx2, GradedForm.blade(n, (0, 2)))
    assert w.coeffs[0b0111] == -1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_matches_oracle(n):
    for _ in range(25):
        fa, fb = random_form(n), random_form(n)
        expect = oracle_wedge(fa, fb)
        got = wedge(fa, fb)
        assert np.max(np.abs(got.coeffs - expect.coeffs)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_graded_commutativity(n):
    for _ in range(10):
        ka = int(RNG.integers(0, 2 * n + 1))
        kb = int(RNG.integers(0, 2 * n + 1))
        fa = random_form(n).degree_part(ka)
        fb = random_form(n).degree_part(kb)
        lhs = wedge(fa, fb)
        rhs = wedge(fb, fa) * ((-1.0) ** (ka * kb))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_interior_basis_signs():
    # i_{d2}(dx1 ^ dx2) = -dx1 ; i_{d1}(dx1 ^ dx2) = +dx2
    n = 1
    w = GradedForm.blade(n, (0, 1))
    got = interior(np.array([0.0, 1.0]), w)
    assert got.coeffs[0b01] == -1.0 and got.coeffs[0b10] == 0.0
    got = interior(np.array([1.0, 0.0]), w)
    assert got.coeffs[0b10] == 1.0 and got.coeffs[0b01] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interior_matches_oracle(n):
    for _ in range(25):
        f = random_form(n)
        v = RNG.standard_normal(2 * n) + 1j * RNG.standard_normal(2 * n)
        expect = oracle_interior(v, f)
        got = interior(v, f)
        assert np.max(np.abs(got.coeffs - expect.coeffs)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interior_antiderivation(n):
    for _ in range(10):
        ka = int(RNG.integers(0, 2 * n + 1))
        fa = random_form(n).degree_part(ka)
        fb = random_form(n)
        v = RNG.standard_normal(2 * n) + 1j * RNG.standard_normal(2 * n)
        lhs = interior(v, wedge(fa, fb))
        rhs = wedge(interior(v, fa), fb) + wedge(fa, interior(v, fb)) * (
            (-1.0) ** ka
        )
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_interior_squares_to_zero():
    for n in (1, 2, 3):
        f = random_form(n)
        v = RNG.standard_normal(2 * n)
        twice = interior(v, interior(v, f))
        assert np.max(np.abs(twice.coeffs)) < 1e-12


# ---------------------------------------------------------------------------
# neutral pairing and Clifford relation


def test_neutral_pairing_values():
    # <v + xi, u + eta> = (xi(u) + eta(v)) / 2
    e1 = GenVector([1.0, 0.0], [0.0, 0.0])
    e2 = GenVector([0.0, 0.0], [1.0, 0.0])
    assert neutral_pairing(e1, e2) == 0.5
    assert neutral_pairing(e1, e1) == 0.0
    assert neutral_pairing(e2, e2) == 0.0


def test_neutral_pairing_signature():
    for n in (1, 2):
        q = neutral_pairing_matrix(n)
        assert np.allclose(q, q.T)
        ev = np.linalg.eigvalsh(q)
        assert np.sum(ev > 0) == 2 * n and np.sum(ev < 0) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_relation(n):
    # e.e' + e'.e = 2 <e, e'>  acting on any form
    for _ in range(50):
        e1, e2 = random_genvector(n), random_genvector(n)
        f = random_form(n)
        lhs = clifford_act(e1, clifford_act(e2, f)) + clifford_act(
            e2, clifford_act(e1, f)
        )
        rhs = f * (2.0 * neutral_pairing(e1, e2))
        scale = max(1.0, np.max(np.abs(rhs.coeffs)))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-12


# ---------------------------------------------------------------------------
# involution and Mukai pairing


def test_involution_sign_table():
    # +1 on degrees 0,1 mod 4 ; -1 on degrees 2,3 mod 4
    n = 4
    f = GradedForm(n, np.ones(1 << (2 * n), dtype=complex))
    g = f.involution()
    expected = {0: 1, 1: 1, 2: -1, 3: -1, 4: 1, 5: 1, 6: -1, 7: -1, 8: 1}
    for mask in range(1 << (2 * n)):
        deg = bin(mask).count("1")
        assert g.coeffs[mask] == expected[deg]


def test_mukai_frozen_values():
    # by hand at n=1, omega = dx1^dx2:
    #   <1, dx1^dx2>_s = (1 ^ sigma(dx1^dx2))_top = -1
    #   <e^{i omega}, e^{-i omega}>_s = ((1+iw) ^ (1+iw))_top = 2i
    n = 1
    one = GradedForm.scalar(n, 1.0)
    top = GradedForm.blade(n, (0, 1))
    assert mukai_pair(one, top) == -1.0
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    psi = exp_two_form(1j * GradedForm.from_two_form_matrix(omega))
    psibar = psi.conjugate()
    assert abs(mukai_pair(psi, psibar) - 2j) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_symmetry(n):
    # <a, b>_s = (-1)^n <b, a>_s
    for _ in range(50):
        fa, fb = random_form(n), random_form(n)
        assert abs(
            mukai_pair(fa, fb) - (-1.0) ** n * mukai_pair(fb, fa)
        ) < 1e-12 * max(1.0, abs(mukai_pair(fa, fb)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_adjunction_sign(n):
    # <e.a, b>_s = -<a, e.b>_s, uniformly in the degrees
    trials = 200 if n == 1 else 50
    for _ in range(trials):
        e = random_genvector(n)
        ka = int(RNG.integers(0, 2 * n + 1))
        kb = int(RNG.integers(0, 2 * n + 1))
        fa = random_form(n).degree_part(ka)
        fb = random_form(n).degree_part(kb)
        lhs = mukai_pair(clifford_act(e, fa), fb)
        rhs = -mukai_pair(fa, clifford_act(e, fb))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_mukai_adjunction_exhaustive_blades_n1():
    n = 1
    blades = [(), (0,), (1,), (0, 1)]
    basis_e = [
        GenVector([1.0, 0.0], [0.0, 0.0]),
        GenVector([0.0, 1.0], [0.0, 0.0]),
        GenVector([0.0, 0.0], [1.0, 0.0]),
        GenVector([0.0, 0.0], [0.0, 1.0]),
    ]
    for e in basis_e:
        for ba in blades:
            for bb in blades:
                fa = GradedForm.blade(n, ba)
                fb = GradedForm.blade(n, bb)
                lhs = mukai_pair(clifford_act(e, fa), fb)
                rhs = -mukai_pair(fa, clifford_act(e, fb))
                assert abs(lhs - rhs) < 1e-14


# ---------------------------------------------------------------------------
# exponentials and b-transform


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_two_form_series(n):
    b = random_two_form(n, real=False)
    e = exp_two_form(b)
    # independent series: sum b^k / k! by repeated oracle wedge
    acc = GradedForm.scalar(n, 1.0)
    term = GradedForm.scalar(n, 1.0)
    for k in range(1, n + 1):
        term = oracle_wedge(term, b) * (1.0 / k)
        acc = acc + term
    assert np.max(np.abs(e.coeffs - acc.coeffs)) < 1e-12
    # degree-0 part is 1, odd parts vanish
    assert e.coeffs[0] == 1.0
    for mask in range(1 << (2 * n)):
        if bin(mask).count("1") % 2 == 1:
            assert e.coeffs[mask] == 0.0


def test_exp_two_form_accepts_matrix():
    m = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert np.allclose(
        exp_two_form(m).coeffs, exp_two_form(GradedForm.from_two_form_matrix(m)).coeffs
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b_transform_preserves_mukai(n):
    for _ in range(20):
        b = random_two_form(n)
        fa, fb = random_form(n), random_form(n)
        lhs = mukai_pair(b_transform(b, fa), b_transform(b, fb))
        rhs = mukai_pair(fa, fb)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_b_transform_composes():
    n = 2
    b1, b2 = random_two_form(n), random_two_form(n)
    f = random_form(n)
    lhs = b_transform(b1, b_transform(b2, f))
    rhs = b_transform(b1 + b2, f)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_two_form_matrix_roundtrip():
    n = 2
    b = random_two_form(n)
    m = two_form_matrix(b)
    assert np.allclose(m, -m.T)
    back = GradedForm.from_two_form_matrix(m)
    assert np.max(np.abs(back.coeffs - b.coeffs)) < 1e-14


# ---------------------------------------------------------------------------
# guards


def test_dimension_guards():
    with pytest.raises(ValueError):
        GradedForm(5, np.zeros(4**5, dtype=complex))
    with pytest.raises(ValueError):
        GradedForm(2, np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        wedge(random_form(1), random_form(2))


def test_genvector_roundtrip():
    e = random_genvector(2)
    arr = e.as_array()
    back = GenVector.from_array(arr)
    assert np.allclose(back.vec, e.vec) and np.allclose(back.covec, e.covec)
