"""The one-pass truncation gaps against the cube-major reference.

``grand_maximal`` and ``local_grand_maximal`` must equal
``tests/reference_maximal.py`` bit for bit, the local variant's
reference truncation on q0 included, for m and n in {1, 2}, over
the dyadic, all-cubes and shifted families, at one and two threads.
The x loop is cut into tasks of five cells whatever the row length,
and the kernel rows into blocks of at most 512 (x, y) pairs, so tasks
are split on these small grids too, and blocks of several rows cut
through cubes and, in two dimensions, span more than one grid row.
Inputs carry random zeros; a sparse variant puts one slot on a single
cell, so some cubes Q see no nonzero cell of that slot in 3Q.  The
localized inputs live either on 3 q0 alone or on the whole grid, so
that the values outside 3 q0, which the localized gap must not read,
are there to be misread.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_maximal as ref
from sdom import operators
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices, triple_cube
from sdom.kernels import Modulus, bilinear_odd_kernel, dini_synthetic_kernel, mpt_kernel
from sdom.maximal import (
    ALL_GRID_CUBES,
    DYADIC,
    CubeFamilyMode,
    family_boxes,
    grand_maximal,
    local_grand_maximal,
    shifted_modes,
)
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
    return mock.patch.multiple(operators, _XBLOCK=5, _PARALLEL_ROW=0, _PAIR_BLOCK=512)


def assert_same(got, want):
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()


def assert_same_local(got, want):
    """Local gaps and their reference truncation on q0's cells."""
    assert_same(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


PARAMS = dict(
    case=cases(),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 0.7, 1.0]),
    lone=st.booleans(),
    threads=st.sampled_from([1, 2]),
)


@settings(max_examples=60, deadline=None)
@given(**PARAMS)
# a 2-D m = 2 case with blocks of several rows: their sub-box products
# must be laid out in C order before they are summed
@example(
    case=(OperatorSpec(dini_synthetic_kernel(DINI, 2), GridSpec(n=2, L=3, origin=(-1.0, -1.0), side=SIDE)), DYADIC),
    seed=0, density=0.7, lone=True, threads=1,
)
# each run is one cube's cells on one grid row: all-cubes at L = 2, where
# the side-4 cube holds runs on all four rows and 5-cell tasks cut rows,
# and a shifted family at L = 3, where tasks cut rows of 8 mid-row
@example(
    case=(OperatorSpec(dini_synthetic_kernel(DINI, 1), GridSpec(n=2, L=2, origin=(-1.0, -1.0), side=SIDE)), ALL_GRID_CUBES),
    seed=3, density=1.0, lone=False, threads=1,
)
@example(
    case=(
        OperatorSpec(dini_synthetic_kernel(DINI, 1), GridSpec(n=2, L=3, origin=(-1.0, -1.0), side=SIDE)),
        CubeFamilyMode("shifted", (1, 2)),
    ),
    seed=5, density=1.0, lone=False, threads=1,
)
def test_grand_maximal_is_the_cube_major_reference(case, seed, density, lone, threads):
    op, mode = case
    fs = inputs(op, np.arange(op.grid.num_cells), seed, density, 0 if lone else None)
    want = ref.grand_maximal(op, fs, mode)
    set_thread_count(threads)
    with small_blocks():
        assert_same(grand_maximal(op, fs, mode), want)


@settings(max_examples=60, deadline=None)
@given(**PARAMS, outside=st.booleans(), pick=st.tuples(*(st.integers(0, 1 << 12),) * 3))
# inputs over the whole grid around a small and a mid-level q0, in one and two dimensions
@example(
    case=(OperatorSpec(bilinear_odd_kernel(), GridSpec(n=1, L=4, origin=(-1.0,), side=SIDE)), DYADIC),
    seed=20260819, density=1.0, lone=False, threads=1, outside=True, pick=(2, 1, 0),
)
@example(
    case=(OperatorSpec(dini_synthetic_kernel(DINI, 1), GridSpec(n=2, L=3, origin=(-1.0, -1.0), side=SIDE)), ALL_GRID_CUBES),
    seed=7, density=0.7, lone=False, threads=2, outside=True, pick=(1, 1, 0),
)
# all-cubes around an odd-index q0 in one dimension: runs start mid-block
@example(
    case=(OperatorSpec(bilinear_odd_kernel(), GridSpec(n=1, L=4, origin=(-1.0,), side=SIDE)), ALL_GRID_CUBES),
    seed=11, density=1.0, lone=False, threads=1, outside=True, pick=(2, 1, 0),
)
def test_local_grand_maximal_is_the_cube_major_reference(case, seed, density, lone, threads, outside, pick):
    op, mode = case
    grid = op.grid
    level = pick[0] % (grid.L + 1)  # q0: a level, then an index on it
    q0 = DyadicCube(level, tuple(i % (1 << level) for i in pick[1 : 1 + grid.n]))
    cells = np.arange(grid.num_cells) if outside else cube_flat_indices(grid, triple_cube(grid, q0))
    fs = inputs(op, cells, seed, density, op.kernel.m - 1 if lone else None)
    want = ref.local_grand_maximal(op, fs, q0, mode)
    set_thread_count(threads)
    with small_blocks():
        assert_same_local(local_grand_maximal(op, fs, q0, mode), want)


def test_a_cube_whose_triple_misses_one_slot():
    # slot 0 lives on cell 0 only, so every cube far enough right has no
    # nonzero slot-0 cell in its triple; slot 1 is dense
    grid = GridSpec(n=1, L=4, origin=(-1.0,), side=SIDE)
    op = OperatorSpec(bilinear_odd_kernel(), grid)
    f0 = np.zeros(grid.num_cells)
    f0[0] = 1.5
    f1 = np.linspace(-1.0, 2.0, grid.num_cells)
    fs = (GridFunction(grid, f0), GridFunction(grid, f1))
    missing = [lo for lo, hi in family_boxes(grid, DYADIC) if np.any(2 * lo - hi > 0)]
    assert missing
    for mode in (DYADIC, ALL_GRID_CUBES, *shifted_modes(1)):
        assert_same(grand_maximal(op, fs, mode), ref.grand_maximal(op, fs, mode))
        q0 = DyadicCube(1, (0,))
        assert_same_local(local_grand_maximal(op, fs, q0, mode), ref.local_grand_maximal(op, fs, q0, mode))
