"""Numpy kernels for blade-coefficient algebra, blade axis first: the one
kernel module, so an outside profiler can wrap its five public kernels in
one place.  A kernel calls only private steps, never a public kernel, so no
wrapped kernel runs inside another.  Every function takes coefficient
arrays of shape (size, *batch) complex128 and vector/covector component
arrays of shape (dim, *batch): the same layout as ``GradedForm.coeffs``
(no batch axes) and the field data (batch axes = any (r, r) matrix axes,
then the grid axes).  Batch axes are padded on the left and broadcast as
numpy's do, so a (size, 1, 1) form or a (dim,) vector acts at every point,
and a (size, *sizes) form acts on every matrix entry of a
(size, r, r, *sizes) field.
"""

from __future__ import annotations

import numpy as np

from ._tables import BladeTables

BACKEND_NAME = "python"


def _batch_ndim(*arrays) -> int:
    return max(x.ndim for x in arrays) - 1


def _lift(x: np.ndarray, nb: int) -> np.ndarray:
    """x (k, *batch) with its batch axes padded on the left to nb axes."""
    return x.reshape(x.shape[:1] + (1,) * (nb + 1 - x.ndim) + x.shape[1:])


def _column(sign: np.ndarray, nb: int) -> np.ndarray:
    """One sign per blade, shaped to multiply (blades, *batch) arrays."""
    return sign.reshape((-1,) + (1,) * nb)


def _blades_live(data: np.ndarray) -> np.ndarray:
    """(size,) mask of the blades of (size, *batch) data that hold any nonzero entry."""
    return np.any(data.reshape(data.shape[0], -1), axis=1)


def wedge_batch(t: BladeTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[:, p] = a[:, p] ^ b[:, p] at each batch point p."""
    nb = _batch_ndim(a, b)
    a, b = _lift(a, nb), _lift(b, nb)
    prod = a[t.wedge_i] * b[t.wedge_j] * _column(t.wedge_s, nb)
    segsum = np.add.reduceat(prod, t.wedge_starts, axis=0)
    out = np.zeros((t.size,) + segsum.shape[1:], dtype=segsum.dtype)
    out[t.wedge_cols] = segsum
    return out


def _wedge_rows(t: BladeTables, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a ^ f as out[i|j] += (a[i] s) f[j], one wedge-table row (i, j, s) at a
    time in table order, over the rows whose blade i is live in a and j in f:
    on finite input the bits of the sequential sum over every row (a skipped
    row adds +-0, see _axis_steps), with no (rows, *batch) product built.
    For sparse operands such as e^b and b; dense small forms take wedge_batch.
    Rows take one-blade slices, not numpy scalars, whose products may round
    apart from the (fused) array loop's: a form alone keeps its batch bits.
    """
    keep = _blades_live(a)[t.wedge_i] & _blades_live(f)[t.wedge_j]
    rows = zip(t.wedge_i[keep].tolist(), t.wedge_j[keep].tolist(), t.wedge_s[keep].tolist())
    out = np.zeros((t.size,) + np.broadcast_shapes(a.shape[1:], f.shape[1:]),
                   dtype=np.result_type(a, f))
    for i, j, s in rows:
        out[i | j:(i | j) + 1] += (a[i:i + 1] * s) * f[j:j + 1]
    return out


def _axis_steps(t, comps, a, src, dst):
    """sum_mu (sign comps[mu]) a[src[mu]], each term scattered to dst[mu].

    A constant vector (comps of shape (dim,)) skips its zero components:
    on a finite a their terms are +-0, which change no bit of an
    accumulator started at +0 (it never becomes -0 when rounding to nearest).
    """
    nb = _batch_ndim(comps, a)
    a = _lift(a, nb)
    shape = np.broadcast_shapes(comps.shape[1:], a.shape[1:])
    out = np.zeros((t.size,) + shape, dtype=np.result_type(comps, a))
    for mu in range(t.dim):
        if comps.ndim == 1 and comps[mu] == 0:
            continue
        out[dst[mu]] += _column(t.axis_s[mu], nb) * comps[mu] * a[src[mu]]
    return out


def interior_batch(t: BladeTables, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out[:, p] = i_{v[:, p]} a[:, p], contracting each axis component in turn."""
    return _axis_steps(t, v, a, t.axis_hi, t.axis_lo)


def wedge1_batch(t: BladeTables, xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out[:, p] = (sum_mu xi[mu, p] dx^mu) ^ a[:, p]."""
    return _axis_steps(t, xi, a, t.axis_lo, t.axis_hi)


def clifford_batch(
    t: BladeTables, v: np.ndarray, xi: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Spin action of v + xi: interior product plus one-form wedge."""
    return _axis_steps(t, v, a, t.axis_hi, t.axis_lo) + _axis_steps(t, xi, a, t.axis_lo, t.axis_hi)


def mukai_batch(t: BladeTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Top-degree coefficient of a ^ sigma(b), one value per batch point."""
    nb = _batch_ndim(a, b)
    prod = _lift(a, nb) * _column(t.mukai_s, nb) * _lift(b, nb)[t.mukai_comp]
    # numpy sums a contiguous last axis pairwise but an outer axis in
    # sequence; with the blades last, each point sums as its form alone does
    return np.moveaxis(prod, 0, -1).copy().sum(axis=-1)
