"""Numpy kernels for batched blade-coefficient algebra.

Every function takes coefficient arrays with one flat batch axis:
``a`` has shape (B, size) complex128 and vector/covector component arrays
have shape (B, dim).  The layers reach them through ``_backend``.
"""

from __future__ import annotations

import numpy as np

from ._tables import BladeTables

BACKEND_NAME = "python"


def wedge_batch(t: BladeTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[p] = a[p] ^ b[p] for each batch row p."""
    prod = a[:, t.wedge_i] * b[:, t.wedge_j] * t.wedge_s
    segsum = np.add.reduceat(prod, t.wedge_starts, axis=1)
    out = np.zeros_like(a)
    out[:, t.wedge_cols] = segsum
    return out


def interior_batch(t: BladeTables, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out[p] = i_{v[p]} a[p], contracting each axis component in turn."""
    out = np.zeros_like(a)
    for mu in range(t.dim):
        out[:, t.axis_lo[mu]] += (
            v[:, mu, None] * t.axis_s[mu] * a[:, t.axis_hi[mu]]
        )
    return out


def wedge1_batch(t: BladeTables, xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out[p] = (sum_mu xi[p, mu] dx^mu) ^ a[p]."""
    out = np.zeros_like(a)
    for mu in range(t.dim):
        out[:, t.axis_hi[mu]] += (
            xi[:, mu, None] * t.axis_s[mu] * a[:, t.axis_lo[mu]]
        )
    return out


def clifford_batch(
    t: BladeTables, v: np.ndarray, xi: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Spin action of v + xi: interior product plus one-form wedge."""
    return interior_batch(t, v, a) + wedge1_batch(t, xi, a)


def mukai_batch(t: BladeTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Top-degree coefficient of a ^ sigma(b), one value per batch row."""
    return np.sum(a * t.mukai_s * b[:, t.mukai_comp], axis=1)
