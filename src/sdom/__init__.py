"""Numerical workbench for sparse domination of multilinear singular
integral operators on dyadic grids.

The package measures, on finite grids, the objects a sparse domination
argument is made of: kernel regularity constants, discrete operator
truncations, grand maximal gaps, the stopping-time construction of a
1/2-sparse cube family with verified witnesses, the resulting empirical
domination constants, and multilinear weight characteristics.

Every name is imported from the module that defines it (``sdom.grid``,
``sdom.kernels``, ...); the package root re-exports none of them.
"""

__version__ = "0.1.0"

import numpy as _np

# Freeing one large block raises glibc's dynamic mmap threshold
# (mallopt(3), M_MMAP_THRESHOLD) to its size.  Below that threshold the
# temporaries of `eval_batch` (one per elementwise step, each the size
# of a kernel row) are reused from the heap; above it they are mapped
# and unmapped on every call.  The dominate-1d benchmark's rows of
# 16,384 slot tuples make them 128 KiB, glibc's default threshold.  Over
# its 16 `dominate` configs, run once each in one process (2-core Xeon,
# Python 3.11, numpy 2.4), the block keeps minor page faults near 370
# where they are about 124,000 without it, and wall time at 2.1 s where
# it is 2.3-2.8 s.  The block is never written, so it adds nothing to
# the resident set.
_np.empty(16 << 20, dtype=_np.uint8)
