"""Generalized (almost) complex structures on R^{2n} + (R^{2n})*.

A structure is a real matrix J on the 4n-dimensional sum with J^2 = -1
preserving the neutral pairing.  Its -i eigenspace L determines and is
determined by a pure spinor line in the exterior algebra; both directions
are implemented and must agree (tested as a dual route).

The spin representation of J acts on forms with spectrum {ik}, k = -n..n;
the k-th eigenspace is built here from the invariant operator

    op_J = (i/2) sum_a c(Q^{-1} e_a) c(P_L e_a) - i n Id

over the standard basis {e_a} of R^{4n}, with Q the neutral pairing (so
Q^{-1} e_a is e_a's pairing dual) and P_L = (1 + iJ)/2 the projection onto
L along its conjugate.  The sum is basis-free, so it equals the sum over
any basis of L and its dual in the conjugate eigenspace; written in the
standard basis it reads J's own entries, and a J of small dyadic entries
gives exact operators and projectors.  The spinor line generates the
lowest (-in) piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _backend as _k
from ._tables import blade_tables
from .multivector import GradedForm, is_skew, neutral_pairing_matrix

__all__ = [
    "GCStructure",
    "GKPair",
    "SpinorClass",
    "UDecomposition",
    "classify_spinor",
    "clifford_matrix",
    "gcs_b_transform",
    "gcs_complex",
    "gcs_from_spinor",
    "gcs_symplectic",
    "gk_validate",
    "spinor_kernel",
    "spinor_line",
    "standard_complex",
]

_KERNEL_SVD_TOL = 1e-10
_STRUCTURE_TOL = 1e-8  # J^2 = -1, pairing and GK-pair defects
_ISOTROPY_TOL = 1e-10
_DEGREE_TOL = 1e-12

# The standard structures pair coordinates (2i, 2i+1) blockwise:
# J e_{2i} = e_{2i+1} and omega = sum_i dx^{2i} ^ dx^{2i+1}.
_J_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])
OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def clifford_matrix(e, n: int) -> np.ndarray:
    """Matrix of the spin action of e (length-4n components) on blade coefficients."""
    t = blade_tables(n)
    e = np.asarray(e, dtype=np.complex128)
    if e.shape != (4 * n,):
        raise ValueError(f"need 4n = {4 * n} components, got {e.shape}")
    # column J of the identity is blade J: the action maps it to column J
    eye = np.eye(t.size, dtype=np.complex128)
    return _k.clifford_batch(t, e[: t.dim], e[t.dim :], eye)


class GCStructure:
    """Almost generalized complex structure: J^2 = -1, pairing-orthogonal."""

    __slots__ = ("n", "J")

    def __init__(self, J):
        J = np.asarray(J, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 4:
            raise ValueError(f"J must be a (4n, 4n) matrix, got {J.shape}")
        if not np.all(np.isfinite(J)):
            raise ValueError("J has entries that are not finite")
        self.n = J.shape[0] // 4
        self.J = J
        if not self.square_defect() <= _STRUCTURE_TOL:
            raise ValueError(f"J^2 != -1 (defect {self.square_defect():.3e})")
        if not self.orthogonality_defect() <= _STRUCTURE_TOL:
            raise ValueError(
                f"J does not preserve the pairing (defect {self.orthogonality_defect():.3e})"
            )

    def square_defect(self) -> float:
        return float(np.max(np.abs(self.J @ self.J + np.eye(4 * self.n))))

    def orthogonality_defect(self) -> float:
        q = neutral_pairing_matrix(self.n)
        return float(np.max(np.abs(self.J.T @ q @ self.J - q)))

    def minus_i_eigenbasis(self) -> np.ndarray:
        """Orthonormal column basis of the -i eigenspace L."""
        p = (np.eye(4 * self.n) + 1j * self.J) / 2.0
        return np.linalg.svd(p)[0][:, : 2 * self.n]

    def __repr__(self):
        return f"GCStructure(n={self.n})"


def gcs_complex(j_small) -> GCStructure:
    """Diagonal structure of an almost complex J: blocks (J, -J^T)."""
    j_small = np.asarray(j_small, dtype=float)
    dim = j_small.shape[0]
    if np.max(np.abs(j_small @ j_small + np.eye(dim))) > 1e-10:
        raise ValueError("input matrix does not square to -1")
    out = np.zeros((2 * dim, 2 * dim))
    out[:dim, :dim] = j_small
    out[dim:, dim:] = -j_small.T
    return GCStructure(out)


def standard_complex(n: int) -> GCStructure:
    """gcs_complex of the standard complex structure on R^{2n}."""
    return gcs_complex(np.kron(np.eye(n), _J_BLOCK))


def gcs_symplectic(omega) -> GCStructure:
    """Off-diagonal structure of a symplectic form: blocks (-Omega^{-1}, Omega)."""
    omega = np.asarray(omega, dtype=float)
    dim = omega.shape[0]
    if not is_skew(omega, omega.T):
        raise ValueError("omega matrix must be antisymmetric")
    out = np.zeros((2 * dim, 2 * dim))
    out[:dim, dim:] = -np.linalg.inv(omega)
    out[dim:, :dim] = omega
    return GCStructure(out)


def spinor_kernel(phi: GradedForm) -> np.ndarray:
    """Column basis of {e : e . phi = 0} in (vec | covec) coordinates."""
    if not np.any(phi.coeffs):  # no squares: a huge finite phi must not overflow
        raise ValueError("zero spinor has no kernel structure")
    t = blade_tables(phi.n)
    dim4 = 4 * phi.n
    basis = np.eye(dim4, dtype=np.complex128)
    # column I = coefficients of e_I . phi
    m = _k.clifford_batch(t, basis[: t.dim], basis[t.dim :], phi.coeffs)
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > _KERNEL_SVD_TOL * s[0]))
    return vh[rank:].conj().T


@dataclass(frozen=True)
class SpinorClass:
    kernel_dim: int
    isotropy_defect: float
    is_pure: bool
    is_nondegenerate: bool
    type_number: int
    kernel: np.ndarray = field(repr=False, compare=False)  # spinor_kernel(phi)


def classify_spinor(phi: GradedForm) -> SpinorClass:
    k = spinor_kernel(phi)
    kdim = k.shape[1]
    iso = float(np.max(np.abs(k.T @ neutral_pairing_matrix(phi.n) @ k), initial=0.0))
    pure = kdim == 2 * phi.n and iso < _ISOTROPY_TOL
    if kdim:
        stacked = np.hstack([k, np.conj(k)])
        s = np.linalg.svd(stacked, compute_uv=False)
        nondeg = pure and bool(s[-1] > _KERNEL_SVD_TOL * s[0])
    else:
        nondeg = False
    t = blade_tables(phi.n)
    live = np.abs(phi.coeffs) > _DEGREE_TOL * np.max(np.abs(phi.coeffs))
    type_number = int(np.min(t.deg[live]))
    return SpinorClass(kdim, iso, pure, nondeg, type_number, k)


def gcs_from_spinor(phi: GradedForm) -> GCStructure:
    """Structure whose -i eigenspace is the kernel of a pure nondegenerate spinor."""
    cls = classify_spinor(phi)
    if not cls.is_pure:
        raise ValueError(
            f"spinor is not pure (kernel dim {cls.kernel_dim}, "
            f"isotropy defect {cls.isotropy_defect:.3e})"
        )
    if not cls.is_nondegenerate:
        raise ValueError("spinor is degenerate: kernel meets its conjugate")
    k = cls.kernel
    basis = np.hstack([k, np.conj(k)])
    eig = np.concatenate(
        [-1j * np.ones(k.shape[1]), 1j * np.ones(k.shape[1])]
    )
    jc = basis @ np.diag(eig) @ np.linalg.inv(basis)
    imag_defect = float(np.max(np.abs(jc.imag)))
    if imag_defect > 1e-8:
        raise ValueError(f"reconstructed structure is not real (defect {imag_defect:.3e})")
    return GCStructure(jc.real)


def spinor_line(j: GCStructure) -> GradedForm:
    """Generator of the pure spinor line of J, normalized so the dominant
    minimal-degree coefficient is 1."""
    t = blade_tables(j.n)
    basis = j.minus_i_eigenbasis()
    rows = [clifford_matrix(basis[:, i], j.n) for i in range(basis.shape[1])]
    stacked = np.vstack(rows)
    _, s, vh = np.linalg.svd(stacked)
    null_dim = int(np.sum(s < _KERNEL_SVD_TOL * s[0]))
    if null_dim != 1:
        raise ValueError(f"spinor line is not one-dimensional (got {null_dim})")
    coeffs = vh[-1].conj()
    mags = np.abs(coeffs)
    live = mags > _DEGREE_TOL * mags.max()
    min_deg = int(np.min(t.deg[live]))
    sel = (t.deg == min_deg) & live
    pivot = np.argmax(np.where(sel, mags, 0.0))
    return GradedForm(j.n, coeffs / coeffs[pivot])


def gcs_b_transform(b, j: GCStructure) -> GCStructure:
    """Conjugate J by the shear [[I, 0], [b, I]]; matches e^b on spinor lines."""
    b = np.asarray(b, dtype=float)
    dim = 2 * j.n
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    c = np.block([[eye, zero], [b, eye]])
    c_inv = np.block([[eye, zero], [-b, eye]])
    return GCStructure(c @ j.J @ c_inv)


class UDecomposition:
    """Eigenspace decomposition of forms under the spin action of J.

    The operator is op_J of the module docstring, read off J's entries in
    the standard basis: no eigenbasis, no Gram inverse.  For the standard
    symplectic structure gcs_symplectic(omega) every entry of op_J and of
    each projector is exact, and the projectors are sparse: at n = 2 they
    have 16/16/12/16/16 nonzeros, each of magnitude 1/4, 1/2 or 1.
    """

    __slots__ = ("structure", "operator", "_projectors")

    def __init__(self, j: GCStructure):
        self.structure = j
        n = j.n
        dual = 4.0 * neutral_pairing_matrix(n)  # Q^{-1} = 4 Q: column a is e_a's dual
        onto_l = (np.eye(4 * n) + 1j * j.J) / 2.0
        size = blade_tables(n).size
        op = np.zeros((size, size), dtype=np.complex128)
        for a in range(4 * n):
            op += clifford_matrix(dual[:, a], n) @ clifford_matrix(onto_l[:, a], n)
        self.operator = 0.5j * op - 1j * n * np.eye(size)
        self._projectors = {}

    def projector(self, k: int) -> np.ndarray:
        n = self.structure.n
        if not -n <= k <= n:
            raise ValueError(f"k must be in [-{n}, {n}], got {k}")
        if k not in self._projectors:
            size = self.operator.shape[0]
            p = np.eye(size, dtype=np.complex128)
            for m in range(-n, n + 1):
                if m == k:
                    continue
                p = p @ (self.operator - 1j * m * np.eye(size)) / (1j * (k - m))
            self._projectors[k] = p
        return self._projectors[k]

    def dimension(self, k: int) -> int:
        return int(round(np.trace(self.projector(k)).real))

    def project(self, k: int, form: GradedForm) -> GradedForm:
        return GradedForm(self.structure.n, self.projector(k) @ form.coeffs)


class GKPair:
    """Commuting pair of structures with positive definite mixed metric."""

    __slots__ = ("J1", "J2", "n")

    def __init__(self, J1: GCStructure, J2: GCStructure):
        rep = gk_validate(J1, J2)
        if not rep["valid"]:
            raise ValueError(f"not a compatible pair: {rep}")
        self.J1 = J1
        self.J2 = J2
        self.n = J1.n

    def g_hat(self) -> np.ndarray:
        # Sign convention follows the pairing normalization e.e' + e'.e =
        # +2<e,e'>: with it, +J1 J2 is the involution whose metric <G e, e>
        # is positive definite on the standard pair.
        return self.J1.J @ self.J2.J

    def metric_matrix(self) -> np.ndarray:
        """Gram matrix of <G e, e'>; symmetric positive definite."""
        return self.g_hat().T @ neutral_pairing_matrix(self.n)

    def __repr__(self):
        return f"GKPair(n={self.n})"


def gk_validate(J1, J2) -> dict:
    """Compatibility report for a candidate pair (accepts matrices or structures).

    The metric (J1 J2)^T Q, Q the neutral pairing, is positive when its
    smallest eigenvalue times max|J1| max|J2| exceeds _STRUCTURE_TOL.  J^2 =
    -1 makes (J1 J2)^{-1} = J2 J1, so that product is the eigenvalue's own
    scale: for omega = c omega_0 the eigenvalue is min(c, 1/c)/2 and J2's
    entries are c and 1/c, so the test does not depend on c, and at c = 1
    it is min_eig > _STRUCTURE_TOL.
    """
    j1 = J1.J if isinstance(J1, GCStructure) else np.asarray(J1, dtype=float)
    j2 = J2.J if isinstance(J2, GCStructure) else np.asarray(J2, dtype=float)
    n = j1.shape[0] // 4
    eye = np.eye(4 * n)
    commutator = float(np.max(np.abs(j1 @ j2 - j2 @ j1)))
    ghat = j1 @ j2
    square_defect = float(np.max(np.abs(ghat @ ghat - eye)))
    metric = ghat.T @ neutral_pairing_matrix(n)
    metric_symmetry = float(np.max(np.abs(metric - metric.T)))
    sym = (metric + metric.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    valid = (
        commutator < _STRUCTURE_TOL
        and square_defect < _STRUCTURE_TOL
        and metric_symmetry < _STRUCTURE_TOL
        and min_eig * np.max(np.abs(j1)) * np.max(np.abs(j2)) > _STRUCTURE_TOL
    )
    return {
        "commutator": commutator,
        "square_defect": square_defect,
        "metric_symmetry": metric_symmetry,
        "metric_min_eigenvalue": min_eig,
        "valid": bool(valid),
    }
