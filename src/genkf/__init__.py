"""genkf: generalized connections and Einstein-Hermitian analysis on flat tori.

Layers, bottom up:

  multivector   exterior/Clifford algebra on R^{2n}, Mukai pairing
  structures    generalized (almost) complex structures, pure spinors,
                eigenspace decompositions, compatible pairs
  fields        periodic grids, form/endomorphism fields, generalized
                connections, curvature and moment-map functionals
  analysis      symbol-sequence exactness, the co-Higgs residual,
                the rank-one Einstein-Hermitian solver
  cli           `genkf` command line (verify / curvature / solve / symbols / report)
"""

# a literal, not read from _backend: importing the package loads no numpy,
# so the genkf command can fix its BLAS threads first (see cli)
kernel_backend = "python"
__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
