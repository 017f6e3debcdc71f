"""Structure tables for the exterior/Clifford algebra on R^{2n}.

Basis blades of the full exterior algebra are indexed by bitmasks
S in [0, 4^n): bit mu set means dx^{mu+1} is a factor, and the blade is
the ascending product dx^{s1} ^ ... ^ dx^{sk}, s1 < ... < sk.

The kernels in _backend and the field operators in fields index
coefficient arrays through the frozen integer tables built here.  Every
such array has the blade axis first, (size, *batch), so a table selects
along axis 0.

Only the wedge table computes a sign (_wedge_sign): the axis, d, i and
Mukai tables, the walk rows of the wedge and the spin action, and the
pair rows of fields._pair_rows, are rows of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_N = 4


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _wedge_sign(si: int, sj: int) -> int:
    """Sign of dx^{si} ^ dx^{sj} relative to the ascending blade dx^{si|sj}.

    Counts inversions: pairs (s, t), s in si, t in sj, with s > t.
    """
    sign = 1
    for s in range(2 * MAX_N):
        if si >> s & 1:
            lower = sj & ((1 << s) - 1)
            if _popcount(lower) & 1:
                sign = -sign
    return sign


@dataclass(frozen=True)
class BladeTables:
    """Frozen index tables for one value of n (coefficients are length 4^n)."""

    n: int
    dim: int            # 2n real dimensions
    size: int           # 4^n blades
    deg: np.ndarray     # (size,) blade degree
    invol: np.ndarray   # (size,) sign of the parity involution per blade
    # wedge COO, sorted by output blade i | j
    wedge_i: np.ndarray
    wedge_j: np.ndarray
    wedge_s: np.ndarray
    # per-axis contraction/extension tables: blades without bit mu <-> with
    axis_lo: np.ndarray   # (dim, size//2) blades without bit mu
    axis_hi: np.ndarray   # (dim, size//2) same blades with bit mu set
    axis_s: np.ndarray    # (dim, size//2) sign (-1)^{# factors below mu}
    # the same dx^mu ^ rows grouped by target blade: d_rows[h] holds
    # (mu, source, sign) for each bit mu of h, mu ascending, as Python numbers
    d_rows: tuple
    # read target to source they are i_mu's rows, grouped by i_mu's target:
    # i_rows[l] holds (mu, source, sign) for each bit mu not in l, mu ascending
    i_rows: tuple
    # d_drop[h]: the sources whose last reader in d_rows order is target h
    d_drop: tuple
    # Mukai pair table: <a,b>_s = sum_i mukai_s[i] * a[i] * b[comp[i]]
    mukai_comp: np.ndarray
    mukai_s: np.ndarray
    # (4, rows) integer rows (target, blade, component, sign) of
    # _backend._add_rows: the wedge table's, component b's blade; dx^mu ^'s
    # and i_mu's, mu ascending, component mu; the spin action's, for each mu
    # dx^mu ^'s with xi_mu then i_mu's with v^mu, v and xi stacked
    wedge_rows: np.ndarray
    wedge1_rows: np.ndarray
    interior_rows: np.ndarray
    clifford_rows: np.ndarray


@lru_cache(maxsize=None)
def blade_tables(n: int) -> BladeTables:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
    dim = 2 * n
    size = 1 << dim
    top = size - 1

    deg = np.array([_popcount(m) for m in range(size)], dtype=np.int64)
    # involution: +1 on degrees 0,1 mod 4; -1 on degrees 2,3 mod 4
    invol = np.where((deg % 4) < 2, 1, -1).astype(np.int64)

    wi, wj, wk, ws = [], [], [], []
    for i in range(size):
        for j in range(size):
            if i & j:
                continue
            wi.append(i)
            wj.append(j)
            wk.append(i | j)
            ws.append(_wedge_sign(i, j))
    order = np.argsort(np.asarray(wk), kind="stable")
    wedge_i = np.asarray(wi, dtype=np.int64)[order]
    wedge_j = np.asarray(wj, dtype=np.int64)[order]
    wedge_k = np.asarray(wk, dtype=np.int64)[order]
    wedge_s = np.asarray(ws, dtype=np.float64)[order]

    # dx^mu's rows: the blades without bit mu, ascending, and dx^mu ^'s sign
    axis = np.array([np.flatnonzero(wedge_i == 1 << mu) for mu in range(dim)])
    axis_lo, axis_hi, axis_s = wedge_j[axis], wedge_k[axis], wedge_s[axis]
    d_rows = [[] for _ in range(size)]
    i_rows = [[] for _ in range(size)]
    for mu in range(dim):
        for l, h, s in zip(axis_lo[mu].tolist(), axis_hi[mu].tolist(), axis_s[mu].tolist()):
            d_rows[h].append((mu, l, s))
            i_rows[l].append((mu, h, s))
    # a source's readers l | 1 << mu grow with mu, so its last row is read last
    d_drop = [[] for _ in range(size)]
    for l, rows in enumerate(i_rows[:-1]):
        d_drop[rows[-1][1]].append(l)

    # the last size rows hold i ^ (top ^ i), i ascending; top ^ i = top - i
    comp = top - np.arange(size, dtype=np.int64)
    mukai_s = wedge_s[-size:] * invol[comp]

    axis_mu = np.repeat(np.arange(dim), size // 2).reshape(dim, -1)
    wedge1 = np.stack([axis_hi, axis_lo, axis_mu, axis_s.astype(np.int64)])
    interior = wedge1[[1, 0, 2, 3]]
    spin = np.concatenate([wedge1 + np.array([0, 0, dim, 0])[:, None, None], interior], axis=2)

    return BladeTables(
        n=n,
        dim=dim,
        size=size,
        deg=deg,
        invol=invol,
        wedge_i=wedge_i,
        wedge_j=wedge_j,
        wedge_s=wedge_s,
        axis_lo=axis_lo,
        axis_hi=axis_hi,
        axis_s=axis_s,
        d_rows=tuple(map(tuple, d_rows)),
        i_rows=tuple(map(tuple, i_rows)),
        d_drop=tuple(map(tuple, d_drop)),
        mukai_comp=comp,
        mukai_s=mukai_s,
        wedge_rows=np.stack([wedge_k, wedge_i, wedge_j, wedge_s.astype(np.int64)]),
        wedge1_rows=wedge1.reshape(4, -1),
        interior_rows=interior.reshape(4, -1),
        clifford_rows=spin.reshape(4, -1),
    )
