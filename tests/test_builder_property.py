"""The stopping construction is 1/2-sparse on random inputs and roots.

For m, n in {1, 2}, small grids, the ``dini_synthetic``, ``bilinear_odd``
and ``zero`` kernels and the dyadic, all-cubes and shifted families,
``build_sparse_family`` runs on a random root whose tripled cube fits
the domain, with random inputs supported in the root and random zeros
inside it.  The family must pass the witness check, stay within the
Carleson bound 1/gamma = 2, come out sorted, and every node must meet
the per-node bounds of ``test_build_generic_invariants``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdom.builder import build_sparse_family
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices
from sdom.kernels import Modulus, bilinear_odd_kernel, dini_synthetic_kernel, zero_kernel
from sdom.maximal import ALL_GRID_CUBES, DYADIC, shifted_modes
from sdom.operators import OperatorSpec
from sdom.sparse import carleson_sum, verify_witness_sparsity

# grid depths, and the least depth below the root at which a node's
# 2^-(n+2) budget admits an exceptional cell, so the construction can recurse
DEPTHS = {1: (5, 7), 2: (4, 4)}
BELOW = {1: 3, 2: 2}


@st.composite
def builds(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    kernels = [zero_kernel(m), dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.5), m)]
    if (m, n) == (2, 1):
        kernels.append(bilinear_odd_kernel())
    kernel = draw(st.sampled_from(kernels))
    grid = GridSpec(n=n, L=draw(st.integers(*DEPTHS[n])), origin=(0.0,) * n, side=8.0)
    mode = draw(st.sampled_from([DYADIC, ALL_GRID_CUBES, *shifted_modes(n)]))
    # the tripled root fits when no index sits on the domain's boundary
    level = draw(st.integers(2, grid.L - BELOW[n]))
    root = DyadicCube(level, tuple(draw(st.integers(1, (1 << level) - 2)) for _ in range(n)))
    return OperatorSpec(kernel, grid), mode, root


@settings(max_examples=60, deadline=None)
@given(
    case=builds(),
    r=st.sampled_from([1.0, 2.0]),
    zeros=st.sampled_from([0.0, 0.3, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_is_half_sparse_on_random_inputs_and_roots(case, r, zeros, seed):
    op, mode, root = case
    grid = op.grid
    rng = np.random.default_rng(seed)
    idx = cube_flat_indices(grid, root)
    fs = []
    for _ in range(op.kernel.m):
        v = np.zeros(grid.num_cells)
        v[idx] = rng.standard_normal(idx.size) * (rng.random(idx.size) >= zeros)
        fs.append(GridFunction(grid, v))
    family, stats, _ = build_sparse_family(op, fs, root, r, mode)
    assert verify_witness_sparsity(family).ok
    assert carleson_sum(family) <= 2.0
    keys = [e.cube.sort_key() for e in family.entries]
    assert keys == sorted(keys)
    assert len(stats) == len(family.entries)
    for node_stats in stats:
        node = cube_flat_indices(grid, node_stats.cube).size
        assert node_stats.sum_pj_ratio <= 0.5
        assert node_stats.e_count << (grid.n + 2) <= node
        assert node_stats.tau >= 0.0
        assert node_stats.witness_count >= node - node // 2
