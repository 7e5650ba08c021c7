"""The build that reads its nodes off the root's truncation sums against
the per-node build.

`sdom.builder.build_sparse_family` runs one ``local_grand_maximal`` pass,
at the root; for the dyadic family every node below it reads its gaps
off the root's table of truncation sums.  ``reference_builder`` keeps
the build in which every node ran its own pass.  Over m and n in
{1, 2}, the dyadic, all-cubes and shifted families, roots from one cell
up to a few levels above the grid's, r in {1, 2}, dense and sparse
inputs, sides at which the kernels hit singular points or overflow, row
blocks of a few (x, y) pairs, tasks of a few cells and one or two
threads, the two must give the same family, node stats and root values
bit for bit, or raise the same exception type with the same message.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_builder as ref
from sdom import operators
from sdom.bank import single_input
from sdom.builder import build_sparse_family
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices
from sdom.kernels import Modulus, bilinear_odd_kernel, dini_synthetic_kernel, mpt_kernel
from sdom.maximal import ALL_GRID_CUBES, DYADIC, shifted_modes
from sdom.operators import OperatorSpec
from sdom.parallel import set_thread_count

DINI = Modulus("power", c=1.0, eps=0.5)
KERNELS = {
    (1, 1): (mpt_kernel(1.0, 2.0), dini_synthetic_kernel(DINI, 1)),
    (2, 1): (bilinear_odd_kernel(), dini_synthetic_kernel(DINI, 2)),
    (1, 2): (dini_synthetic_kernel(DINI, 1),),
    (2, 2): (dini_synthetic_kernel(DINI, 2),),
}
DEPTHS = {1: (6, 7, 8), 2: (3, 4)}
# 7 keeps cell-centre differences off mpt's singular offset 4, which 8
# hits; at 8e-110 the odd bilinear kernel's denominator underflows
SIDES = (7.0, 7.0, 8.0, 8e-110)


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    set_thread_count(1)


@st.composite
def builds(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (2, 1), (1, 2), (2, 2)]))  # 1-D trees grow deepest
    grid = GridSpec(n=n, L=draw(st.sampled_from(DEPTHS[n])), origin=(0.0,) * n, side=draw(st.sampled_from(SIDES)))
    # the tripled root fits when no index sits on the domain's boundary;
    # the coarse roots are the ones with nodes below them
    level = draw(st.sampled_from([2, 2, 2, 3, *range(2, grid.L + 1)]))
    root = DyadicCube(level, tuple(draw(st.integers(1, (1 << level) - 2)) for _ in range(n)))
    seed = draw(st.integers(0, 2**32 - 1))
    # the bank's indicator and rademacher inputs make the deepest trees
    shape = draw(st.sampled_from(["dense", "sparse", "spike", "gauss", *("indicator", "rademacher") * 2]))
    if shape in ("dense", "sparse"):
        cells = cube_flat_indices(grid, root)
        size = cells.size if shape == "dense" else min(3, cells.size)
        rng = np.random.default_rng(seed)
        fs = []
        for _ in range(m):
            v = np.zeros(grid.num_cells)
            v[rng.choice(cells, size=size, replace=False)] = rng.standard_normal(size)
            fs.append(GridFunction(grid, v))
    else:
        fs = single_input(grid, m, shape, seed=seed % 100, entry=seed % 7, support=root)
    mode = draw(st.one_of(st.just(DYADIC), st.just(ALL_GRID_CUBES), st.sampled_from(shifted_modes(n))))
    return OperatorSpec(draw(st.sampled_from(KERNELS[(m, n)])), grid), tuple(fs), root, mode


def outcome(build):
    """Family, node stats and root values, floats as hex, or the error's
    type and text."""
    try:
        family, stats, tf = build()
    except Exception as exc:
        return type(exc), str(exc)
    return (
        [(e.cube.sort_key(), e.witness, e.tau.hex()) for e in family.entries],
        [
            (s.cube.sort_key(), s.scale.hex(), s.tau.hex(), s.e_count, s.selected_count, s.sum_pj_ratio.hex(), s.witness_count)
            for s in stats
        ],
        None if tf is None else tf.tobytes(),
    )


def deep():
    """The golden ``dominate_deep`` build: nodes on four levels."""
    grid = GridSpec(n=1, L=8, origin=(0.0,), side=8.0)
    root = DyadicCube(2, (1,))
    fs = single_input(grid, 2, "rademacher", seed=3, entry=0, support=root)
    return OperatorSpec(bilinear_odd_kernel(), grid), fs, root, DYADIC


def mpt_root_hit():
    """Singular at offset 4 in a root row: x cell 12 against y cell 8."""
    grid = GridSpec(n=1, L=5, origin=(0.0,), side=32.0)
    root = DyadicCube(2, (1,))
    v = np.zeros(grid.num_cells)
    v[cube_flat_indices(grid, root)] = 1.0
    return OperatorSpec(mpt_kernel(1.0, 2.0), grid), (GridFunction(grid, v),), root, DYADIC


# tiny sides overflow on purpose, on worker threads too
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=builds(), r=st.sampled_from([1.0, 2.0]), block=st.sampled_from([1, 7, 512, 1 << 14]), threads=st.sampled_from([1, 2]))
@example(case=deep(), r=1.0, block=1 << 14, threads=1)
@example(case=deep(), r=2.0, block=7, threads=2)
@example(case=mpt_root_hit(), r=1.0, block=7, threads=2)
def test_build_is_the_per_node_build(case, r, block, threads):
    op, fs, root, mode = case
    want = outcome(lambda: ref.build_sparse_family(op, fs, root, r, mode, root_values=True))
    set_thread_count(threads)
    with mock.patch.multiple(operators, _PAIR_BLOCK=block, _XBLOCK=5, _PARALLEL_ROW=0):
        got = outcome(lambda: build_sparse_family(op, fs, root, r, mode, root_values=True))
    assert got == want
