"""Numerical workbench for sparse domination of multilinear singular
integral operators on dyadic grids.

The package measures, on finite grids, the objects a sparse domination
argument is made of: kernel regularity constants, discrete operator
truncations, grand maximal gaps, the stopping-time construction of a
1/2-sparse cube family with verified witnesses, the resulting empirical
domination constants, and multilinear weight characteristics.
"""

__version__ = "0.1.0"

import numpy as _np

# Freeing one large block raises glibc's dynamic mmap threshold
# (mallopt(3), M_MMAP_THRESHOLD) to its size.  Below that threshold the
# 2 MiB temporaries of the kernel-evaluation loops (one per elementwise
# step of `eval_batch` on a block of 2^18 slot tuples) are reused from
# the heap; above it they are mapped and unmapped on every call.  On two
# `dominate` configs (the gauss and rademacher inputs of the dominate-1d
# benchmark at r = 1; 2-core Xeon, Python 3.11, numpy 2.4) the block
# keeps minor page faults near 430 where they are about 125,000 without
# it, and wall time at 0.6 s where it is 0.9 s.  The block is never
# written, so it adds nothing to the resident set.
_np.empty(16 << 20, dtype=_np.uint8)

from .bank import BankSpec, make_bank, single_input
from .builder import (
    BuilderNodeStats,
    DominationReport,
    adaptive_threshold,
    build_sparse_family,
    cz_select,
    domination_constant,
)
from .grid import (
    DyadicCube,
    GridCube,
    GridFunction,
    GridSpec,
    cell_box,
    cell_centers,
    children,
    cube_cell_count,
    cube_flat_indices,
    cube_values,
    local_average,
    support_in,
    triple_cube,
)
from .kernels import (
    EstimateReport,
    KernelSpec,
    Modulus,
    SamplePlan,
    SingularPointError,
    bilinear_odd_kernel,
    custom_kernel,
    dini_norm,
    dini_synthetic_kernel,
    h2_constant,
    hormander_constant,
    mpt_kernel,
    mpt_truncated_kernel,
    x_independent_kernel,
    zero_kernel,
)
from .maximal import (
    ALL_GRID_CUBES,
    DYADIC,
    CubeFamilyMode,
    MTBoundReport,
    best_of_shifted,
    grand_maximal,
    local_grand_maximal,
    m_delta,
    mt_pointwise_bound_check,
    multilinear_maximal,
    shifted_modes,
)
from .operators import OperatorSpec, apply, apply_truncated
from .parallel import get_thread_count, parallel_map, set_thread_count
from .sparse import (
    InvariantViolation,
    SparseEntry,
    SparseFamily,
    SparsityReport,
    carleson_sum,
    sparse_eval,
    verify_witness_sparsity,
)
from .weights import (
    WeightTuple,
    WeightedReport,
    power_weight,
    trend_correlation,
    vec_ap_characteristic,
    weighted_norm_ratio,
)
