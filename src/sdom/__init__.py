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
# (mallopt(3), M_MMAP_THRESHOLD) to its size.  Below that threshold large
# temporaries are reused from the heap; above it they are mapped and
# unmapped on every call, and their pages faulted in anew.  With each
# benchmark workload's ops run once in a fresh process (2-core Xeon,
# Python 3.11, numpy 2.4), the minor faults during the ops with and
# without the block are 49 and 49 on dominate-1d, about 3,080 and
# 8,500-10,200 on mixed-2d-t2, and 527 and about 97,070 on regularity-1d
# (0.10-0.16 s and 0.22 s; in one run without it, 735).  The block is
# never written, so it adds nothing to the resident set.
_np.empty(16 << 20, dtype=_np.uint8)
