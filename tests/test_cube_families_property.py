"""The corner-array cube families against the per-cube references.

(a) The blocks of ``family_boxes``, concatenated, are the reference's
cubes in the reference's order, for every family kind in one and two
dimensions, over the whole domain or inside a dyadic cube.  (b) The
block scorers (``multilinear_maximal``, ``m_delta`` and
``vec_ap_characteristic``) equal the per-cube scalar references bit for
bit on random inputs with zeros, and the characteristic also on weight
shapes at the edges of its candidate rule.  (c) ``cz_select`` equals
the recursive reference and meets the postconditions of acceptance
criterion 1.  (d) The family inequalities of acceptance criterion 4
hold on random one-dimensional inputs.  The acceptance seeds are kept
as examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_builder
import reference_maximal as ref
from sdom.builder import cz_select
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices
from sdom.maximal import (
    ALL_GRID_CUBES,
    DYADIC,
    best_of_shifted,
    family_boxes,
    m_delta,
    multilinear_maximal,
    shifted_modes,
)
from sdom.weights import WeightTuple, vec_ap_characteristic

DEPTHS = {1: 6, 2: 3}


@st.composite
def grids_and_modes(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = GridSpec(n=n, L=draw(st.integers(1, DEPTHS[n])), origin=(0.0,) * n, side=8.0)
    mode = draw(st.sampled_from([DYADIC, ALL_GRID_CUBES, *shifted_modes(n)]))
    return grid, mode


def values(rng, grid, zeros):
    """Random signed cell values, a share ``zeros`` of them zero."""
    v = rng.standard_normal(grid.num_cells) * rng.lognormal(0.0, 2.0, grid.num_cells)
    v[rng.random(grid.num_cells) < zeros] = 0.0
    return GridFunction(grid, v)


def same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=grids_and_modes(), data=st.data())
def test_blocks_concatenate_to_the_reference_cubes(case, data):
    grid, mode = case
    within = None
    if data.draw(st.booleans(), label="within"):
        level = data.draw(st.integers(0, grid.L), label="level")
        index = tuple(data.draw(st.integers(0, (1 << level) - 1), label="index") for _ in range(grid.n))
        within = DyadicCube(level, index)
    blocks = list(family_boxes(grid, mode, within))
    sides = []
    for lo, hi in blocks:
        assert lo.ndim == 2 and lo.shape[1] == grid.n and lo.shape == hi.shape and len(lo) > 0
        assert lo.dtype.kind == hi.dtype.kind == "i"
        width = hi - lo
        assert np.all(width == width[0, 0])  # cubes of one side per block
        sides.append(int(width[0, 0]))
    # coarsest level first for the dyadic kinds, smallest side first for all
    assert sides == sorted(sides, reverse=mode.kind != "all") and len(set(sides)) == len(sides)
    got = [(tuple(a), tuple(b)) for lo, hi in blocks for a, b in zip(lo.tolist(), hi.tolist())]
    assert got == list(ref.family_boxes(grid, mode, within))


@settings(max_examples=100, deadline=None)
@given(
    case=grids_and_modes(),
    m=st.sampled_from([1, 2]),
    delta=st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
    zeros=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_maximal_scorers_are_the_per_cube_references(case, m, delta, zeros, seed):
    grid, mode = case
    rng = np.random.default_rng(seed)
    fs = tuple(values(rng, grid, zeros) for _ in range(m))
    assert same_bits(multilinear_maximal(fs, mode).values, ref.multilinear_maximal(fs, mode).values)
    assert same_bits(m_delta(fs[0], delta, mode).values, ref.m_delta(fs[0], delta, mode).values)


def weight_values(rng, grid, shape):
    """Positive cell weights: lognormal, or one of the shapes that the
    examples below use, with the exponents their seeds draw, to reach the
    edges of the candidate rule."""
    if shape == "ones":  # every score is exactly one: every cube is a candidate
        return np.ones(grid.num_cells)
    if shape == "mirror":  # whole numbers, so a cube and its mirror image tie bit for bit
        v = rng.integers(1, 100, (grid.cells_per_side,) * grid.n).astype(float)
        return (v + np.flip(v)).ravel()
    if shape == "flat":  # scores a few ulps apart, which a last-bit change in a power can reorder
        return 1.0 + rng.random(grid.num_cells) * 1e-13
    if shape == "underflow":  # every dual weight underflows to zero, and so does every score
        return np.full(grid.num_cells, 1e300)
    if shape == "overflow":  # finite averages and powers whose products overflow to inf
        parity = np.indices((grid.cells_per_side,) * grid.n).sum(axis=0).ravel() % 2
        return np.where(parity == 1, 1e300, 1e-300)
    if shape == "nan":  # the joint weight's prefix sums overflow, so later box sums read inf - inf
        v = rng.lognormal(0.0, 1.0, grid.num_cells)
        v[:2] = 1e308
        return v
    return rng.lognormal(0.0, 1.0, grid.num_cells)


@settings(max_examples=100, deadline=None)
@given(
    case=grids_and_modes(),
    m=st.sampled_from([1, 2]),
    r=st.sampled_from([1.0, 1.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    shape=st.just("lognormal"),
)
@example(case=(GridSpec(n=2, L=2, origin=(0.0, 0.0), side=8.0), DYADIC), m=1, r=1.5, seed=2746, shape="lognormal")  # below zero
@example(case=(GridSpec(n=1, L=8, origin=(0.0,), side=8.0), ALL_GRID_CUBES), m=2, r=1.5, seed=1, shape="lognormal")  # 32,896 cubes: five groups
@example(case=(GridSpec(n=2, L=3, origin=(0.0, 0.0), side=8.0), ALL_GRID_CUBES), m=2, r=2.0, seed=0, shape="ones")
@example(case=(GridSpec(n=1, L=6, origin=(0.0,), side=8.0), ALL_GRID_CUBES), m=1, r=1.0, seed=0, shape="mirror")
@example(case=(GridSpec(n=1, L=4, origin=(0.0,), side=8.0), ALL_GRID_CUBES), m=2, r=1.0, seed=27, shape="flat")
@example(case=(GridSpec(n=1, L=3, origin=(0.0,), side=8.0), ALL_GRID_CUBES), m=1, r=1.0, seed=2, shape="underflow")
@example(case=(GridSpec(n=1, L=3, origin=(0.0,), side=8.0), ALL_GRID_CUBES), m=1, r=1.0, seed=0, shape="overflow")
@example(case=(GridSpec(n=1, L=3, origin=(0.0,), side=8.0), ALL_GRID_CUBES), m=1, r=1.0, seed=0, shape="nan")
def test_characteristic_is_the_per_cube_reference(case, m, r, seed, shape):
    grid, mode = case
    rng = np.random.default_rng(seed)
    weights = tuple(GridFunction(grid, weight_values(rng, grid, shape)) for _ in range(m))
    exponents = tuple(r + float(e) for e in rng.uniform(0.1, 3.0, m))
    wt = WeightTuple(weights, exponents, r)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow and nan shapes warn on both sides
        try:
            want = ref.vec_ap_characteristic(wt, mode)
        except TypeError:  # a 2-D dual sum rounds below zero: the reference compares a complex power
            with pytest.raises(ArithmeticError, match="rounds below zero"):
                vec_ap_characteristic(wt, mode)
            return
        assert same_bits(vec_ap_characteristic(wt, mode), want)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2]), L=st.integers(1, 5), level=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@example(n=1, L=10, level=0, seed=20260819)  # acceptance criterion 1's grids and seed
@example(n=2, L=6, level=0, seed=20260819)
def test_cz_select_is_the_recursion_and_meets_its_postconditions(n, L, level, seed):
    grid = GridSpec(n=n, L=L, origin=(0.0,) * n, side=8.0)
    level = min(level, L)
    rng = np.random.default_rng(seed)
    q0 = DyadicCube(level, tuple(int(k) for k in rng.integers(0, 1 << level, size=n)))
    cells = cube_flat_indices(grid, q0)
    budget = cells.size >> (n + 2)
    e_cells = rng.choice(cells, size=int(rng.integers(0, budget + 1)), replace=False)
    out = cz_select(grid, q0, e_cells.tolist())
    assert out == reference_builder.cz_select(grid, q0, e_cells.tolist())
    assert out == sorted(out, key=lambda c: c.sort_key())
    eset = set(e_cells.tolist())
    seen, covered = set(), set()
    for p in out:
        assert q0.contains(p) and p.level > q0.level
        box = set(cube_flat_indices(grid, p).tolist())
        assert not box & seen
        seen |= box
        inter = len(box & eset)
        assert inter * 2 ** (n + 1) > len(box)  # above the selection density
        assert 2 * inter <= len(box)  # the parent was not selected
        if p.level > q0.level + 1:  # maximal: the parent is below the density
            parent = DyadicCube(p.level - 1, tuple(k >> 1 for k in p.index))
            pbox = set(cube_flat_indices(grid, parent).tolist())
            assert len(pbox & eset) * 2 ** (n + 1) <= len(pbox)
        covered |= box & eset
    assert covered == eset


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2]), L=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(m=1, L=6, seed=4)  # acceptance criterion 4's grid and seed
@example(m=2, L=6, seed=4)
def test_family_inequalities_in_one_dimension(m, L, seed):
    grid = GridSpec(n=1, L=L, origin=(0.0,), side=8.0)
    rng = np.random.default_rng(seed)
    fs = tuple(values(rng, grid, 0.2) for _ in range(m))
    dy = multilinear_maximal(fs, DYADIC).values
    al = multilinear_maximal(fs, ALL_GRID_CUBES).values
    best = best_of_shifted(lambda mode: multilinear_maximal(fs, mode), grid).values
    assert np.all(dy <= al)
    assert np.all(al <= 6.0**m * best)
