"""The one seam through which the layers reach the blade kernels.

Layers import the kernels from here rather than from ``_kernels_py``, so
an outside profiler can wrap these five names in one place.
"""

from __future__ import annotations

from ._kernels_py import (
    BACKEND_NAME,
    clifford_batch,
    interior_batch,
    mukai_batch,
    wedge1_batch,
    wedge_batch,
)

__all__ = [
    "BACKEND_NAME",
    "wedge_batch",
    "interior_batch",
    "wedge1_batch",
    "clifford_batch",
    "mukai_batch",
]
