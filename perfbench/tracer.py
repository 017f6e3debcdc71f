"""Outside-in span tracer for the genkf layers.

The tracer wraps every public function defined in each genkf layer module
(and the five kernel entry points of ``genkf._backend``), then rebinds each
wrapper in every loaded ``genkf.*`` module that holds the original.  That
second step matters: ``cli``, ``verify`` and ``analysis`` use
``from .fields import curvature``, so patching only the defining module
would miss their calls.  The backend implementation modules are left
alone, because their internal calls (``clifford_batch`` calling
``interior_batch``) are not layer entry points.

Spans are kept in flat lists in memory and written out once, after the
command returns.  The stack is a single list, so tracing assumes the
command runs in one thread (``GENKF_THREADS`` unset).

``layer_metrics`` turns a written trace into the per-layer metrics of the
benchmark; a layer's self time is its spans' durations minus the time
covered by their wrapped children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = {
    "specio": "genkf.specio",
    "multivector": "genkf.multivector",
    "structures": "genkf.structures",
    "fields": "genkf.fields",
    "analysis": "genkf.analysis",
    "verify": "genkf.verify",
    "report": "genkf.report",
}
KERNEL_MODULE = "genkf._backend"
KERNEL_NAMES = (
    "wedge_batch",
    "interior_batch",
    "wedge1_batch",
    "clifford_batch",
    "mukai_batch",
)
BACKEND_IMPLEMENTATIONS = ("genkf._kernels_py", "genkf._kernels")
# numpy.linalg.svd is traced only below this span, as the rank test of the
# symbol complex; svd calls elsewhere (structures) stay untraced.
SVD_NAME = "numpy.svd"
SVD_SCOPE = "analysis.symbol_exactness"


def _array_key(arr):
    """Shape, dtype and a 64-bit hash of the bytes: equal for bitwise-equal arrays."""
    import numpy as np

    arr = np.asarray(arr)
    return arr.shape, arr.dtype.str, hash(arr.tobytes())


def _psi_array(psi):
    for attr in ("data", "coeffs"):
        if hasattr(psi, attr):
            return getattr(psi, attr)
    return psi


class Tracer:
    """Records one span per wrapped call, plus counters at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.stack = []
        self.counters = {
            "kernels.rows": 0,
            "kernels.bytes": 0,
            "fields.curvature.repeats": 0,
            "report.bytes": 0,
        }
        self._curvature_inputs = set()
        self._rebound = []

    def wrap(self, name, fn, before=None, after=None, scope=None):
        """Return a wrapper of fn that records a span named name.

        before(args, kwargs) runs ahead of the span and after(args, result)
        behind it; with a scope, calls outside a span of that name are
        passed through unrecorded.
        """
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self.stack, self.clock
        scope_id = None if scope is None else self.names.index(scope)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scope_id is not None and not any(names[i] == scope_id for i in stack):
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters at layer boundaries ---------------------------------------

    def _count_kernel(self, args, result):
        counters = self.counters
        counters["kernels.rows"] += args[1].shape[0]
        nbytes = result.nbytes
        for a in args[1:]:
            nbytes += a.nbytes
        counters["kernels.bytes"] += nbytes

    def _count_curvature(self, args, kwargs):
        conn = args[0] if args else kwargs["conn"]
        psi = args[1] if len(args) > 1 else kwargs["psi"]
        key = tuple(_array_key(arr) for arr in (conn.A, conn.V, _psi_array(psi)))
        if key in self._curvature_inputs:
            self.counters["fields.curvature.repeats"] += 1
        self._curvature_inputs.add(key)

    def _count_render(self, args, result):
        self.counters["report.bytes"] += len(result.encode("utf-8"))

    # -- installation ---------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers of the already imported genkf package."""
        hooks = {
            "fields.curvature": (self._count_curvature, None),
            "report.render": (None, self._count_render),
        }
        wrappers = {}
        for layer, modname in LAYER_MODULES.items():
            mod = sys.modules[modname]
            for attr, value in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == modname
                    and not attr.startswith("_")
                ):
                    before, after = hooks.get(f"{layer}.{attr}", (None, None))
                    wrappers[id(value)] = (
                        value,
                        self.wrap(f"{layer}.{attr}", value, before, after),
                    )
        backend = sys.modules[KERNEL_MODULE]
        for attr in KERNEL_NAMES:
            value = getattr(backend, attr)
            wrappers[id(value)] = (
                value,
                self.wrap(f"kernels.{attr}", value, after=self._count_kernel),
            )
        for modname, mod in sorted(sys.modules.items()):
            if modname.split(".")[0] != "genkf" or modname in BACKEND_IMPLEMENTATIONS:
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])

        import numpy.linalg

        self._rebind(
            numpy.linalg, "svd", self.wrap(SVD_NAME, numpy.linalg.svd, scope=SVD_SCOPE)
        )

    def uninstall(self):
        while self._rebound:
            owner, attr, value = self._rebound.pop()
            setattr(owner, attr, value)

    def dump(self):
        return {
            "names": self.names,
            "span_name": self.span_name,
            "span_parent": self.span_parent,
            "span_start": self.span_start,
            "span_end": self.span_end,
            "counters": self.counters,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


# ---------------------------------------------------------------------------
# reading a trace


def self_times(parents, starts, ends):
    """Each span's duration minus the durations of its direct children.

    Spans are numbered in the order they started, so a child's index is
    always larger than its parent's.
    """
    covered = [0.0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(parents))]


def _outermost(names, parents, idx):
    """True when no ancestor of span idx has the same name."""
    name, p = names[idx], parents[idx]
    while p >= 0:
        if names[p] == name:
            return False
        p = parents[p]
    return True


# per-function metrics: (metric name, traced function, "calls" or "s")
FUNCTION_METRICS = (
    ("fields.d_field.s", "fields.d_field", "s"),
    ("fields.mukai_field.s", "fields.mukai_field", "s"),
    ("fields.covariant_d.s", "fields.covariant_d", "s"),
    ("fields.curvature.calls", "fields.curvature", "calls"),
    ("fields.curvature.s", "fields.curvature", "s"),
    ("fields.mean_curvature.calls", "fields.mean_curvature", "calls"),
    ("analysis.solve_eh_line.s", "analysis.solve_eh_line", "s"),
    ("structures.clifford_matrix.calls", "structures.clifford_matrix", "calls"),
    ("structures.spinor_line.calls", "structures.spinor_line", "calls"),
    ("analysis.symbol_exactness.s", "analysis.symbol_exactness", "s"),
    ("analysis.svd.calls", SVD_NAME, "calls"),
    ("analysis.svd.s", SVD_NAME, "s"),
    ("report.render.s", "report.render", "s"),
    ("specio.build_config.s", "specio.build_config", "s"),
    ("verify.run_suite.s", "verify.run_suite", "s"),
)
LAYERS = ("kernels", "fields", "structures", "multivector", "analysis", "report", "specio", "verify")


def layer_metrics(trace):
    """Per-layer calls, self seconds and the named per-function figures.

    A function's seconds count only its outermost spans, so a recursive
    or re-entrant call is not counted twice.
    """
    names = [trace["names"][i] for i in trace["span_name"]]
    parents = trace["span_parent"]
    starts, ends = trace["span_start"], trace["span_end"]
    own = self_times(parents, starts, ends)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    calls, secs = {}, {}
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own[i]
        calls[name] = calls.get(name, 0) + 1
    wanted = {fn for _, fn, kind in FUNCTION_METRICS if kind == "s"}
    for i, name in enumerate(names):
        if name in wanted and _outermost(names, parents, i):
            secs[name] = secs.get(name, 0.0) + ends[i] - starts[i]
    for metric, fn, kind in FUNCTION_METRICS:
        out[metric] = calls.get(fn, 0) if kind == "calls" else secs.get(fn, 0.0)

    counters = trace["counters"]
    out["kernels.rows"] = counters["kernels.rows"]
    out["kernels.mb_computed"] = counters["kernels.bytes"] / 1e6
    out["fields.curvature.repeats"] = counters["fields.curvature.repeats"]
    out["report.bytes"] = counters["report.bytes"]
    return out
