"""Run one genkf command in a fresh process and record what it cost.

run.py starts this script once per measured command:

    python3 child.py --src SRC --record OUT.json [--trace TRACE.json] -- <genkf argv>

It imports ``genkf.cli`` from SRC, notes the monotonic time just before
calling ``genkf.cli.main(argv)`` (the parent noted it just before starting
the process, so the difference is the set-up time), and writes the
command's wall seconds, CPU seconds and peak RSS to OUT.json.  With
--setup-only it stops before calling main; with --provenance it records
the library versions instead.  With --trace the layers are wrapped by
tracer.Tracer and the spans go to TRACE.json, never into the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS's own thread count, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance():
    import numpy

    import genkf

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "kernel_backend": genkf.kernel_backend,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--provenance", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    import genkf.cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    record = {}
    if args.provenance:
        record["provenance"] = provenance()
    code = 0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    record["ready"] = time.monotonic()
    if not (args.setup_only or args.provenance):
        code = genkf.cli.main(argv)
        done = time.monotonic()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        record["wall_s"] = done - record["ready"]
        record["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        record["maxrss_kb"] = ru1.ru_maxrss
    record["exit"] = code
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
