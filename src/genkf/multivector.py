"""Exterior algebra on R^{2n} with the spin action of T + T*.

A GradedForm is a complex multivector: 4^n coefficients indexed by blade
bitmask (bit mu set = factor dx^{mu+1}, ascending order inside a blade).
A GenVector e = v + xi pairs by <v + xi, u + eta> = (xi(u) + eta(v)) / 2
and acts on forms by i_v + (xi ^ .); then e.e' + e'.e = 2<e, e'>.

The Mukai pairing is <a, b>_s = (a ^ sigma(b))_{top}, with sigma the
parity involution (+1 on degrees 0,1 mod 4; -1 on degrees 2,3 mod 4).
"""

from __future__ import annotations

import numpy as np

from . import _backend as _k
from ._tables import MAX_N, blade_tables

__all__ = [
    "GradedForm",
    "GenVector",
    "wedge",
    "interior",
    "clifford_act",
    "mukai_pair",
    "exp_two_form",
    "exp_blades",
    "b_transform",
    "neutral_pairing",
    "neutral_pairing_matrix",
    "two_form_blades",
    "is_skew",
    "skew_within",
    "real_two_form_matrix",
]

_SKEW_TOL = 1e-12


class GradedForm:
    """Inhomogeneous complex form on R^{2n}, coefficients over all blades."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        size = 1 << (2 * n)
        if coeffs.shape != (size,):
            raise ValueError(
                f"need {size} blade coefficients for n={n}, got shape {coeffs.shape}"
            )
        self.n = n
        self.coeffs = coeffs.copy()

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GradedForm":
        return cls(n, np.zeros(1 << (2 * n), dtype=np.complex128))

    @classmethod
    def scalar(cls, n: int, value) -> "GradedForm":
        out = cls.zero(n)
        out.coeffs[0] = value
        return out

    @classmethod
    def blade(cls, n: int, axes, coeff=1.0) -> "GradedForm":
        """Basis blade dx^{a1+1} ^ ... for ascending distinct axes."""
        axes = tuple(axes)
        if len(set(axes)) != len(axes) or any(not 0 <= a < 2 * n for a in axes):
            raise ValueError(f"axes must be distinct in [0, {2 * n}), got {axes}")
        if tuple(sorted(axes)) != axes:
            raise ValueError(f"axes must be ascending, got {axes}")
        out = cls.zero(n)
        out.coeffs[sum(1 << a for a in axes)] = coeff
        return out

    @classmethod
    def from_two_form_matrix(cls, m) -> "GradedForm":
        """Two-form from its antisymmetric coefficient matrix m[mu, nu] = B(d_mu, d_nu)."""
        m = np.asarray(m, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"need a (2n, 2n) matrix, got shape {m.shape}")
        if not is_skew(m, m.T):
            raise ValueError("two-form matrix must be antisymmetric")
        return cls(m.shape[0] // 2, two_form_blades(m))

    # -- structure ----------------------------------------------------------

    def degree_part(self, k: int) -> "GradedForm":
        t = blade_tables(self.n)
        out = GradedForm.zero(self.n)
        sel = t.deg == k
        out.coeffs[sel] = self.coeffs[sel]
        return out

    def degrees(self):
        """Sorted degrees with a nonzero coefficient (1e-12 cutoff)."""
        t = blade_tables(self.n)
        live = np.abs(self.coeffs) > 1e-12
        return sorted(set(t.deg[live].tolist()))

    def involution(self) -> "GradedForm":
        t = blade_tables(self.n)
        return GradedForm(self.n, self.coeffs * t.invol)

    def conjugate(self) -> "GradedForm":
        return GradedForm(self.n, np.conj(self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "GradedForm"):
        if not isinstance(other, GradedForm) or other.n != self.n:
            raise ValueError("operands live on different spaces")

    def __add__(self, other):
        self._check_same(other)
        return GradedForm(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return GradedForm(self.n, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return GradedForm(self.n, self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GradedForm(n={self.n}, degrees={self.degrees()})"


class GenVector:
    """Complexified generalized vector v + xi in (T + T*) x C."""

    __slots__ = ("vec", "covec")

    def __init__(self, vec, covec):
        self.vec = np.asarray(vec, dtype=np.complex128)
        self.covec = np.asarray(covec, dtype=np.complex128)
        if self.vec.shape != self.covec.shape or self.vec.ndim != 1:
            raise ValueError("vec and covec must be 1-d of equal length")
        if self.vec.size % 2:
            raise ValueError("components must have even length 2n")

    @property
    def n(self) -> int:
        return self.vec.size // 2

    @classmethod
    def from_array(cls, arr) -> "GenVector":
        arr = np.asarray(arr, dtype=np.complex128)
        half = arr.size // 2
        return cls(arr[:half], arr[half:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.vec, self.covec])

    def __repr__(self):
        return f"GenVector(n={self.n})"


# ---------------------------------------------------------------------------
# operations


def wedge(a: GradedForm, b: GradedForm) -> GradedForm:
    if a.n != b.n:
        raise ValueError("operands live on different spaces")
    t = blade_tables(a.n)
    return GradedForm(a.n, _k.wedge_batch(t, a.coeffs, b.coeffs))


def interior(v, a: GradedForm) -> GradedForm:
    """Interior product i_v a for a tangent vector v (component array)."""
    t = blade_tables(a.n)
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (t.dim,):
        raise ValueError(f"vector must have {t.dim} components")
    return GradedForm(a.n, _k.interior_batch(t, v, a.coeffs))


def clifford_act(e: GenVector, a: GradedForm) -> GradedForm:
    if e.n != a.n:
        raise ValueError("operands live on different spaces")
    t = blade_tables(a.n)
    return GradedForm(a.n, _k.clifford_batch(t, e.vec, e.covec, a.coeffs))


def mukai_pair(a: GradedForm, b: GradedForm) -> complex:
    if a.n != b.n:
        raise ValueError("operands live on different spaces")
    t = blade_tables(a.n)
    return complex(_k.mukai_batch(t, a.coeffs, b.coeffs))


def exp_two_form(b) -> GradedForm:
    """e^b = sum b^k / k! for a two-form b; the series stops at k = n."""
    if not isinstance(b, GradedForm):
        b = GradedForm.from_two_form_matrix(b)
    if any(d != 2 for d in b.degrees()):
        raise ValueError(f"exp_two_form needs a pure two-form, degrees {b.degrees()}")
    return GradedForm(b.n, exp_blades(blade_tables(b.n), b.coeffs))


def exp_blades(t, b: np.ndarray) -> np.ndarray:
    """e^b = sum b^k / k!, k <= n, for two-form coefficients b (size, *batch);
    each term is (the last term ^ b) / k, added in order."""
    acc = np.zeros_like(b)
    acc[0] = 1.0
    term = acc
    for k in range(1, t.n + 1):
        term = _k.wedge_batch(t, term, b)
        term *= 1.0 / k
        acc += term
    return acc


def b_transform(b, a: GradedForm) -> GradedForm:
    """e^b ^ a; preserves the Mukai pairing for any two-form b."""
    return wedge(exp_two_form(b), a)


def neutral_pairing(e1: GenVector, e2: GenVector) -> complex:
    return complex((e1.covec @ e2.vec + e2.covec @ e1.vec) / 2.0)


def neutral_pairing_matrix(n: int) -> np.ndarray:
    """Gram matrix of the neutral pairing in the (vec | covec) coordinates."""
    eye = np.eye(2 * n)
    zero = np.zeros((2 * n, 2 * n))
    return np.block([[zero, eye], [eye, zero]]) / 2.0


def two_form_blades(m) -> np.ndarray:
    """Blade coefficients (4^n, *batch) of a two-form m[mu, nu, *batch]: the
    entry m[mu, nu], mu < nu, on the blade dx^mu ^ dx^nu, zero elsewhere."""
    m = np.asarray(m)
    mu, nu = np.triu_indices(m.shape[0], 1)
    out = np.zeros((1 << m.shape[0], *m.shape[2:]), dtype=np.complex128)
    out[(1 << mu) | (1 << nu)] = m[mu, nu]
    return out


def skew_within(defect, peak) -> bool:
    """The skew rule on defect = max|m + adjoint| and peak = max|m|:
    defect <= 1e-12 * max(1, peak).  A NaN defect passes; finiteness is
    checked on input.  A caller that reduces m a block at a time passes the
    two maxima over all of m, NaN kept (np.max, not max)."""
    return not defect > _SKEW_TOL * max(1.0, peak)


def is_skew(m, adjoint) -> bool:
    """The skew test (skew_within) of m, with adjoint the transpose of m
    (antisymmetric) or its conjugate transpose (skew-Hermitian)."""
    return skew_within(np.max(np.abs(m + adjoint)), np.max(np.abs(m)))


def real_two_form_matrix(m, n: int, what: str) -> np.ndarray:
    """m as a real antisymmetric (2n, 2n) matrix; ValueError naming `what` if not."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > _SKEW_TOL * max(1.0, np.max(np.abs(m))):
            raise ValueError(f"{what} must be real")
        m = m.real
    m = m.astype(float)
    if m.shape != (2 * n, 2 * n):
        raise ValueError(f"{what} has shape {m.shape}, expected {(2 * n, 2 * n)}")
    if not is_skew(m, m.T):
        raise ValueError(f"{what} must be antisymmetric")
    return m
