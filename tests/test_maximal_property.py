"""The one-pass truncation gaps against the cube-major reference.

``grand_maximal`` and ``local_grand_maximal`` must equal
``tests/reference_maximal.py`` bit for bit, for m and n in {1, 2}, over
the dyadic, all-cubes and shifted families, at one and two threads.
The x loop is cut into blocks of three cells whatever the row length,
so blocks are merged on these small grids too.  Inputs carry random
zeros; a sparse variant puts one slot on a single cell, so some cubes Q
see no nonzero cell of that slot in 3Q.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_maximal as ref
from sdom import operators
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices, triple_cube
from sdom.kernels import Modulus, bilinear_odd_kernel, dini_synthetic_kernel, mpt_kernel
from sdom.maximal import ALL_GRID_CUBES, DYADIC, family_boxes, grand_maximal, local_grand_maximal, shifted_modes
from sdom.operators import OperatorSpec
from sdom.parallel import set_thread_count

DINI = Modulus("power", c=1.0, eps=0.5)

# (m, n) -> kernels and grid depths; side 7 keeps every cell-centre
# difference off the boundary-logarithmic kernel's singular offset 4
KERNELS = {
    (1, 1): (mpt_kernel(1.0, 2.0), dini_synthetic_kernel(DINI, 1)),
    (2, 1): (bilinear_odd_kernel(), dini_synthetic_kernel(DINI, 2)),
    (1, 2): (dini_synthetic_kernel(DINI, 1),),
    (2, 2): (dini_synthetic_kernel(DINI, 2),),
}
DEPTHS = {(1, 1): (1, 5), (2, 1): (1, 4), (1, 2): (1, 3), (2, 2): (1, 2)}
SIDE = 7.0


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    set_thread_count(1)


@st.composite
def cases(draw):
    m, n = draw(st.sampled_from(sorted(KERNELS)))
    kernel = draw(st.sampled_from(KERNELS[(m, n)]))
    L = draw(st.integers(*DEPTHS[(m, n)]))
    op = OperatorSpec(kernel, GridSpec(n=n, L=L, origin=(-1.0,) * n, side=SIDE))
    mode = draw(st.sampled_from([DYADIC, ALL_GRID_CUBES, *shifted_modes(n)]))
    return op, mode


def inputs(op, cells, seed, density, lone_slot):
    """m inputs with random values on ``cells``, a share of them zero;
    slot ``lone_slot`` (when not None) keeps only its first nonzero cell."""
    rng = np.random.default_rng(seed)
    fs = []
    for s in range(op.kernel.m):
        v = np.zeros(op.grid.num_cells)
        v[cells] = rng.normal(size=cells.size) * (rng.random(cells.size) < density)
        if s == lone_slot:
            v[np.flatnonzero(v)[1:]] = 0.0
        fs.append(GridFunction(op.grid, v))
    return tuple(fs)


def small_blocks():
    return mock.patch.multiple(operators, _XBLOCK=3, _PARALLEL_ROW=0)


def assert_same(got, want):
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()


PARAMS = dict(
    case=cases(),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 0.7, 1.0]),
    lone=st.booleans(),
    threads=st.sampled_from([1, 2]),
)


@settings(max_examples=60, deadline=None)
@given(**PARAMS)
def test_grand_maximal_is_the_cube_major_reference(case, seed, density, lone, threads):
    op, mode = case
    fs = inputs(op, np.arange(op.grid.num_cells), seed, density, 0 if lone else None)
    want = ref.grand_maximal(op, fs, mode)
    set_thread_count(threads)
    with small_blocks():
        assert_same(grand_maximal(op, fs, mode), want)


@settings(max_examples=60, deadline=None)
@given(**PARAMS, data=st.data())
def test_local_grand_maximal_is_the_cube_major_reference(case, seed, density, lone, threads, data):
    op, mode = case
    grid = op.grid
    level = data.draw(st.integers(0, grid.L), label="level")
    index = tuple(data.draw(st.integers(0, (1 << level) - 1), label="index") for _ in range(grid.n))
    q0 = DyadicCube(level, index)
    fs = inputs(op, cube_flat_indices(grid, triple_cube(grid, q0)), seed, density, op.kernel.m - 1 if lone else None)
    want = ref.local_grand_maximal(op, fs, q0, mode)
    set_thread_count(threads)
    with small_blocks():
        assert_same(local_grand_maximal(op, fs, q0, mode), want)


def test_a_cube_whose_triple_misses_one_slot():
    # slot 0 lives on cell 0 only, so every cube far enough right has no
    # nonzero slot-0 cell in its triple; slot 1 is dense
    grid = GridSpec(n=1, L=4, origin=(-1.0,), side=SIDE)
    op = OperatorSpec(bilinear_odd_kernel(), grid)
    f0 = np.zeros(grid.num_cells)
    f0[0] = 1.5
    f1 = np.linspace(-1.0, 2.0, grid.num_cells)
    fs = (GridFunction(grid, f0), GridFunction(grid, f1))
    missing = [b for b in family_boxes(grid, DYADIC) if 2 * b[0][0] - b[1][0] > 0]
    assert missing
    for mode in (DYADIC, ALL_GRID_CUBES, *shifted_modes(1)):
        assert_same(grand_maximal(op, fs, mode), ref.grand_maximal(op, fs, mode))
        q0 = DyadicCube(1, (0,))
        assert_same(local_grand_maximal(op, fs, q0, mode), ref.local_grand_maximal(op, fs, q0, mode))
