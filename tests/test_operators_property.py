"""``apply`` and its truncation to a cube on random inputs, m and n in {1, 2}.

Two properties: truncating to a cube Q changes nothing, bit for bit,
when every input is supported in 3Q; and ``apply`` equals the direct
sum over slot tuples, each evaluated on its own through ``eval_batch``.
Inputs carry random zeros, so empty slots and skipped cells occur.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdom.grid import DyadicCube, GridFunction, GridSpec, cell_centers, cube_flat_indices, triple_cube
from sdom.kernels import (
    Modulus,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    eval_batch,
    mpt_kernel,
    x_independent_kernel,
)
from sdom.operators import OperatorSpec, apply

from reference_maximal import apply_truncated

DINI = Modulus("log", c=1.0, eps=0.5)

# (m, n) -> kernels and grid depths; side 7 keeps every cell-center
# difference off the boundary-logarithmic kernel's singular offset 4
KERNELS = {
    (1, 1): (mpt_kernel(1.0, 2.0), dini_synthetic_kernel(DINI, 1)),
    (2, 1): (bilinear_odd_kernel(), dini_synthetic_kernel(DINI, 2)),
    (1, 2): (dini_synthetic_kernel(DINI, 1), x_independent_kernel(1)),
    (2, 2): (dini_synthetic_kernel(DINI, 2),),
}
DEPTHS = {(1, 1): (1, 5), (2, 1): (1, 4), (1, 2): (1, 3), (2, 2): (1, 2)}
SIDE = 7.0


@st.composite
def operators(draw):
    m, n = draw(st.sampled_from(sorted(KERNELS)))
    kernel = draw(st.sampled_from(KERNELS[(m, n)]))
    L = draw(st.integers(*DEPTHS[(m, n)]))
    return OperatorSpec(kernel, GridSpec(n=n, L=L, origin=(-1.0,) * n, side=SIDE))


def random_inputs(op, cells, seed, density):
    """m inputs with random values on ``cells`` (a random share zero)."""
    rng = np.random.default_rng(seed)
    fs = []
    for _ in range(op.kernel.m):
        v = np.zeros(op.grid.num_cells)
        v[cells] = rng.normal(size=cells.size) * (rng.random(cells.size) < density)
        fs.append(GridFunction(op.grid, v))
    return tuple(fs)


@settings(max_examples=60, deadline=None)
@given(op=operators(), data=st.data(), seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.3, 0.7, 1.0]))
def test_truncation_to_a_supporting_cube_is_bitwise_apply(op, data, seed, density):
    grid = op.grid
    level = data.draw(st.integers(0, grid.L), label="level")
    index = tuple(data.draw(st.integers(0, (1 << level) - 1), label="index") for _ in range(grid.n))
    q = DyadicCube(level, index)
    fs = random_inputs(op, cube_flat_indices(grid, triple_cube(grid, q)), seed, density)
    assert np.array_equal(apply_truncated(op, fs, q).values, apply(op, fs).values)


def direct_apply(op, fs):
    """Sum over every slot tuple off the diagonal, one tuple at a time."""
    grid = op.grid
    pts = cell_centers(grid)
    hm = grid.cell_volume() ** op.kernel.m
    out, scale = np.zeros(grid.num_cells), np.zeros(grid.num_cells)
    for x in range(grid.num_cells):
        for ys in itertools.product(range(grid.num_cells), repeat=op.kernel.m):
            weight = math.prod(f.values[y] for f, y in zip(fs, ys))
            if x in ys or weight == 0.0:
                continue
            val, valid = eval_batch(op.kernel, pts[x], *np.moveaxis(pts[list(ys)][None], 1, 0))
            assert valid[0]
            out[x] += val[0] * weight * hm
            scale[x] += abs(val[0] * weight * hm)
    return out, scale


@settings(max_examples=40, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.3, 0.7, 1.0]))
def test_apply_is_the_direct_tuple_sum(op, seed, density):
    fs = random_inputs(op, np.arange(op.grid.num_cells), seed, density)
    want, scale = direct_apply(op, fs)
    got = apply(op, fs).values
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
