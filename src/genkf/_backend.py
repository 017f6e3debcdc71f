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

The wedge and the spin action have one implementation, the row walk
_add_rows over the walk rows of the blade tables, which fields' curvature
also takes for its pair rows: a product gets the same bits whichever
route reaches it, a form alone, a batch or a field.
"""

from __future__ import annotations

import numpy as np

from ._tables import BladeTables

# bytes of all rows' stacked product from which _add_rows goes one row at a
# time; timed on 2 vCPUs, one row at a time wins from about 48 KB at n = 1,
# and the stacked product slows 2-3x past about 128 KB at n = 1 and 2
_STACK_BYTES = 1 << 16


def _lift(x: np.ndarray, nb: int) -> np.ndarray:
    """x (k, *batch) with its batch axes padded on the left to nb axes."""
    return x.reshape(x.shape[:1] + (1,) * (nb + 1 - x.ndim) + x.shape[1:])


def _blades_live(data: np.ndarray) -> np.ndarray:
    """(size,) mask of the blades of (size, *batch) data that hold any nonzero entry."""
    return data.reshape(len(data), -1).any(1)


def _add_rows(out, x, ys, rows):
    """out[h] += (s x[l]) y[m] for each row (h, l, m, s) of rows, returned,
    with y the arrays ys stacked along axis 0; x, each of ys and out are
    (blades, *batch) arrays with the same number of axes, out C-contiguous.

    Each target is summed in row order, starting from what out holds, one
    of two ways by the size of the rows' products; both give the same bits.
    Below _STACK_BYTES the rows are stacked into one (rows, *batch) product,
    added by np.add.at in index order, so its temporaries stay within a few
    times _STACK_BYTES.  Larger products go one row at a time and build
    nothing of (rows, *batch) size.  A row takes one-blade slices, not numpy
    scalars, whose products may round apart from the (fused) array loop's,
    so a form alone keeps its batch bits.

    A row whose x blade or y component is all zero adds +-0 on finite input,
    which moves no bit of a sum started at +0 (never -0 when rounding to
    nearest); callers leave such rows out, as _walk does.
    """
    h, l, m, s = rows
    if len(h) * out[0].nbytes < _STACK_BYTES:
        y = ys[0] if len(ys) == 1 else np.concatenate(np.broadcast_arrays(*ys))
        prod = (s.reshape((-1,) + (1,) * (out.ndim - 1)) * x[l]) * y[m]
        # np.add.at's fast one-axis loop, on a view as out is C-contiguous
        width = out[0].size
        flat = h if width == 1 else (h[:, None] * width + np.arange(width)).ravel()
        np.add.at(out.reshape(-1), flat, prod.reshape(-1))
        return out
    comps = [c[k:k + 1] for c in ys for k in range(len(c))]
    for hh, ll, mm, ss in zip(*(a.tolist() for a in rows)):
        out[hh:hh + 1] += (ss * x[ll:ll + 1]) * comps[mm]
    return out


def _walk(rows, x, *ys):
    """The sums of _add_rows from +0 over the rows whose x blade and y
    component are live, broadcasting x and ys as the kernels do."""
    nb = max(c.ndim for c in (x, *ys)) - 1
    x, ys = _lift(x, nb), [_lift(c, nb) for c in ys]
    shape = np.broadcast(x[0], *(c[0] for c in ys)).shape
    out = np.zeros((len(x),) + shape, dtype=np.result_type(x, *ys))
    live_y = _blades_live(ys[0]) if len(ys) == 1 else np.concatenate([_blades_live(c) for c in ys])
    return _add_rows(out, x, ys, rows.compress(_blades_live(x)[rows[1]] & live_y[rows[2]], axis=1))


def wedge_batch(t: BladeTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[:, p] = a[:, p] ^ b[:, p] at each batch point p."""
    return _walk(t.wedge_rows, a, b)


def interior_batch(t: BladeTables, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out[:, p] = i_{v[:, p]} a[:, p], over the spin action's i_mu rows."""
    return _walk(t.interior_rows, a, v)


def wedge1_batch(t: BladeTables, xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out[:, p] = (sum_mu xi[mu, p] dx^mu) ^ a[:, p], over its dx^mu ^ rows."""
    return _walk(t.wedge1_rows, a, xi)


def clifford_batch(
    t: BladeTables, v: np.ndarray, xi: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Spin action of v + xi, i_v + xi ^, one axis at a time: for mu
    ascending, xi_mu dx^mu ^ a, then v^mu i_mu a."""
    return _walk(t.clifford_rows, a, v, xi)


def mukai_batch(t: BladeTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Top-degree coefficient of a ^ sigma(b), one value per batch point.

    mukai_comp[c] = top ^ c is the reversal, so b's partner blades are a
    view and the signs enter the contraction as a third operand: no copy.
    """
    return np.einsum("c...,c,c...->...", a, t.mukai_s, b[::-1])
