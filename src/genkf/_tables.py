"""Structure tables for the exterior/Clifford algebra on R^{2n}.

Basis blades of the full exterior algebra are indexed by bitmasks
S in [0, 4^n): bit mu set means dx^{mu+1} is a factor, and the blade is
the ascending product dx^{s1} ^ ... ^ dx^{sk}, s1 < ... < sk.

The kernels in _kernels_py and the coordinate wedge/interior in fields
index coefficient arrays through the frozen integer tables built here.
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
    # wedge COO, sorted by output blade k
    wedge_i: np.ndarray
    wedge_j: np.ndarray
    wedge_k: np.ndarray
    wedge_s: np.ndarray
    wedge_starts: np.ndarray  # segment starts into the COO arrays
    wedge_cols: np.ndarray    # output blade per segment
    # per-axis contraction/extension tables: blades without bit mu <-> with
    axis_lo: np.ndarray   # (dim, size//2) blades without bit mu
    axis_hi: np.ndarray   # (dim, size//2) same blades with bit mu set
    axis_s: np.ndarray    # (dim, size//2) sign (-1)^{# factors below mu}
    # Mukai pair table: <a,b>_s = sum_i mukai_s[i] * a[i] * b[comp[i]]
    mukai_comp: np.ndarray
    mukai_s: np.ndarray


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
    cols, starts = np.unique(wedge_k, return_index=True)

    half = size // 2
    axis_lo = np.empty((dim, half), dtype=np.int64)
    axis_hi = np.empty((dim, half), dtype=np.int64)
    axis_s = np.empty((dim, half), dtype=np.float64)
    for mu in range(dim):
        bit = 1 << mu
        pos = 0
        for m in range(size):
            if m & bit:
                continue
            axis_lo[mu, pos] = m
            axis_hi[mu, pos] = m | bit
            axis_s[mu, pos] = -1.0 if _popcount(m & (bit - 1)) & 1 else 1.0
            pos += 1

    comp = np.array([top ^ i for i in range(size)], dtype=np.int64)
    mukai_s = np.array(
        [_wedge_sign(i, top ^ i) * invol[top ^ i] for i in range(size)],
        dtype=np.float64,
    )

    return BladeTables(
        n=n,
        dim=dim,
        size=size,
        deg=deg,
        invol=invol,
        wedge_i=wedge_i,
        wedge_j=wedge_j,
        wedge_k=wedge_k,
        wedge_s=wedge_s,
        wedge_starts=starts.astype(np.int64),
        wedge_cols=cols.astype(np.int64),
        axis_lo=axis_lo,
        axis_hi=axis_hi,
        axis_s=axis_s,
        mukai_comp=comp,
        mukai_s=mukai_s,
    )
