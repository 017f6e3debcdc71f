"""The benchmark's four workloads: one genkf command on one input document.

Every workload is closed-loop with one client: the next command starts
only after the previous process has exited.  The benchmark's --seed is
passed on as genkf's --seed, which seeds the random connection, the verify
RNG and the symbol trial directions; the documents themselves are fixed,
so the same seed always gives the same inputs.

Left out of the ROADMAP's document set: n = 2 at 12^4 (25 s a command,
too long for the benchmark's number of runs; 10^4 keeps the same shape of
work) and the default n = 1 commands at 32^2 and 128^2 (0.06-0.34 s of
work behind about 0.23 s of import, so they would mostly time start-up).
"""

from __future__ import annotations

from dataclasses import dataclass

_RANDOM = {"random": {"amp": 0.1, "modes": 2}}


@dataclass(frozen=True)
class Workload:
    command: str
    document: dict
    extra_args: tuple

    def argv(self, doc_path, report_path, seed):
        return [
            self.command,
            "--input", str(doc_path),
            "--output", str(report_path),
            "--seed", str(seed),
            *self.extra_args,
        ]


WORKLOADS = {
    # Large-array fields work with the non-abelian rank-2 products:
    # covariant_d dominates and curvature() runs 5x per command.  The report
    # dump is the biggest (1.8 MB), so report rendering shows too; analysis
    # does no work.
    "curvature-n2r2": Workload(
        command="curvature",
        document={
            "n": 2,
            "grid": {"sizes": [10, 10, 10, 10]},
            "bundle": {"rank": 2},
            "connection": {"A": _RANDOM, "V": _RANDOM},
        },
        extra_args=(),
    ),
    # The default command and the identity suite (41 checks).  Same layers
    # as curvature-n2r2 but at rank 1, so covariant_d is small, curvature()
    # runs 21x and kernels take most of the time.  Together with
    # curvature-n2r2 this separates a gain from fewer recomputations from a
    # gain in the small-matrix products.
    "verify-n2r1": Workload(
        command="verify",
        document={
            "n": 2,
            "grid": {"sizes": [10, 10, 10, 10]},
            "bundle": {"rank": 1},
            "connection": {"A": _RANDOM, "V": _RANDOM},
        },
        extra_args=(),
    ),
    # Symbol assembly in analysis, structures and multivector with tiny
    # kernel batches (13013 clifford_matrix calls) and one SVD rank test per
    # symbol map.  fields does no work, so a fields optimisation predicts no
    # change here.  The grid is the smallest allowed; symbols never uses it.
    "symbols-n2r2": Workload(
        command="symbols",
        document={
            "n": 2,
            "grid": {"sizes": [8, 8, 8, 8]},
            "bundle": {"rank": 2},
        },
        extra_args=("--trials", "1000"),
    ),
    # The dense-probe solver path: a varying b-field makes the spinor
    # non-constant, so 2306 mean_curvature calls on 576-point grids build the
    # linear map before 25 CG iterations.  fields is reached through many
    # tiny calls, so per-call overhead is timed, not array throughput.  The
    # constant-spinor path converges in 2 iterations and would hide the
    # solver.
    "solve-n1-varb": Workload(
        command="solve",
        document={
            "n": 1,
            "grid": {"sizes": [24, 24]},
            "bundle": {"rank": 1},
            "psi": {
                "b": {
                    "entries": [
                        {
                            "i": 0,
                            "j": 1,
                            "coeff": [
                                {"c": 0.2, "trig": "sin", "k": [1, 0]},
                                {"c": 0.1, "trig": "cos", "k": [0, 2]},
                            ],
                        }
                    ]
                }
            },
            "connection": {"A": _RANDOM},
        },
        extra_args=(),
    ),
}
