"""The shell engine against the direct-sum reference on random plans.

Random explicit plans over dyadic cubes, with sample points that often
land on the quadrature lattice (so singular tuples are skipped), x = z
pairs, and cubes repeated at non-adjacent plan positions.  Each kept
sample must give the reference's series, shell peak and skip count at
its own plan position, and the reports must agree.  ``regularity``
must return the two reports of ``hormander_constant`` and
``h2_constant`` bit for bit.

The engine's shell tables and skip counts must also be bitwise those of
``reference_estimators.cube_tables``, which evaluates every row with
``eval_batch``, for every kernel a config can name, on grids whose
centre differences are not all exact and on plans with points off the
lattice class, so that the pair-table gather (with and without invalid
entries), the offset-table gather and the per-row fallback all run.

The plan expansion must give the configs of
``reference_estimators.plan_configs``, the cube-by-cube loop, byte for
byte and in order.  On explicit plans with a cube repeated out of
order, points that differ only in the sign of zero, and a cube whose
pairs are all degenerate, the array front end must give
``reference_estimators.reference_rows``' tables, skip counts and sample
counts, and the reports read off them, bit for bit, at one and two
threads.

The reports read off the shell tables must be those of
``reference_estimators.kr_report`` and ``h2_report``, the per-sample
loops, bit for bit, errors included: on drawn tables (ties, all-zero
tables, huge entries, measure powers and decay factors that overflow)
and on the tables of the engine.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from reference_estimators import (
    annulus_series,
    cube_tables,
    h2_report,
    kr_report,
    plan_configs,
    quad_axes,
    reference_h2,
    reference_hormander,
    reference_rows,
    reference_series,
    reference_shells,
    shell_order,
    shell_peak,
)
from sdom import kernels
from sdom.grid import GridSpec
from sdom.parallel import set_thread_count
from sdom.kernels import (
    Modulus,
    SamplePlan,
    _h2_report,
    _kr_report,
    _lattice_indices,
    _lattice_points,
    _quad_lattice,
    _sample_tables,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    enumerate_plan,
    h2_constant,
    hormander_constant,
    mpt_kernel,
    mpt_truncated_kernel,
    offset_table,
    plan_error,
    regularity,
    x_independent_kernel,
    zero_kernel,
)

from fake_kernels import fake_kernel

REL_TOL = 1e-12
DINI = Modulus("power", c=1.0, eps=0.7)

# (m, n) -> kernels and the grid depths kept small enough for the reference
# (x_independent scores zero, which pins the reports of massless tables)
KERNELS = {
    (1, 1): (mpt_kernel(1.0, 2.0), mpt_truncated_kernel(1.0, 2.0, 1), dini_synthetic_kernel(DINI, 1)),
    (2, 1): (bilinear_odd_kernel(), dini_synthetic_kernel(DINI, 2), x_independent_kernel(2)),
    (1, 2): (dini_synthetic_kernel(DINI, 1), x_independent_kernel(1)),
    (2, 2): (dini_synthetic_kernel(DINI, 2),),
}
DEPTHS = {(1, 1): (3, 6), (2, 1): (3, 6), (1, 2): (2, 4), (2, 2): (2, 3)}

# offsets in units of a quarter side: multiples of 1/2 put points on
# cell centers of the finest cubes, so some land on the lattice
OFFSETS = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))


@st.composite
def cases(draw):
    m, n = draw(st.sampled_from(sorted(KERNELS)))
    kernel = draw(st.sampled_from(KERNELS[(m, n)]))
    L = draw(st.integers(*DEPTHS[(m, n)]))
    grid = GridSpec(n=n, L=L, origin=(0.0,) * n, side=8.0)
    r = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.integers(0, L))
        side = grid.side / (1 << lam)
        idx = [draw(st.integers(0, (1 << lam) - 1)) for _ in range(n)]
        pool.append((np.array([(i + 0.5) * side for i in idx]), side))
    cubes, pairs = [], []
    for _ in range(draw(st.integers(1, 6))):
        center, side = pool[draw(st.integers(0, len(pool) - 1))]
        x = center + side / 4 * np.array([draw(OFFSETS) for _ in range(n)])
        z = x if draw(st.integers(0, 5)) == 0 else center + side / 4 * np.array([draw(OFFSETS) for _ in range(n)])
        cubes.append((center, side))
        pairs.append((x, z))
    return kernel, grid, r, n / r + 0.5, SamplePlan(cubes=tuple(cubes), pairs=tuple(pairs))


def _rows(sampled):
    """``_sample_tables``' result as the per-sample references read it:
    (config, table, skipped) per kept sample in plan order, each config
    (center, side, x, z) with a Python float side."""
    kept, groups, skipped, _, _ = sampled
    rows = [None] * len(skipped)
    for _, pos, T in groups:
        for i, table in zip(pos.tolist(), T):
            rows[i] = ((kept[0][i], float(kept[1][i]), kept[2][i], kept[3][i]), table, int(skipped[i]))
    return rows


def _as_rows(sampled):
    """(rows, degenerate pairs, samples, covers_all), as ``reference_rows`` returns them."""
    _, _, skipped, samples, bounded = sampled
    return _rows(sampled), samples["pairs"] - len(skipped), samples, bounded


def _grouped(rows, samples, bounded):
    """Rows of (config, table, skipped) in ``_sample_tables``' form: kept
    arrays, and the tables stacked per side and shape."""
    kept, groups = tuple(np.array([cfg[k] for cfg, _, _ in rows]) for k in range(4)), {}
    for i, (cfg, table, _) in enumerate(rows):
        groups.setdefault((cfg[1], table.shape), []).append(i)
    stacked = [(side, np.array(pos), np.array([rows[i][1] for i in pos])) for (side, _), pos in groups.items()]
    return kept, stacked, np.array([sk for *_, sk in rows]), samples, bounded


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_report(got, want):
    assert got.k_max == want.k_max
    assert got.skipped == want.skipped
    assert got.samples == want.samples
    assert got.tail_flag == want.tail_flag
    assert len(got.terms) == len(want.terms)
    assert all(_close(a, b) for a, b in zip((got.value,) + got.terms, (want.value,) + want.terms))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_engine_matches_reference(case):
    kernel, grid, r, delta, plan = case
    if all(np.array_equal(x, z) for x, z in plan.pairs):
        with pytest.raises(ValueError):
            hormander_constant(kernel, grid, r, plan)
        return
    rows = _rows(_sample_tables(kernel, grid, r, plan))
    series = reference_series(kernel, grid, r, plan)
    shells = reference_shells(kernel, grid, r, delta, plan)
    assert len(rows) == len(series) == len(shells)
    for (cfg, table, skipped), (ref_terms, ref_sk), (ref_v, ref_j0, ref_sk2) in zip(rows, series, shells):
        assert skipped == ref_sk == ref_sk2
        terms = annulus_series(table, cfg[1], r, grid)
        assert len(terms) == len(ref_terms)
        assert all(_close(a, b) for a, b in zip(terms, ref_terms))
        v, j0 = shell_peak(table, cfg, r, delta, grid)
        assert _close(v, ref_v)
        assert j0 == ref_j0
    _same_report(hormander_constant(kernel, grid, r, plan), reference_hormander(kernel, grid, r, plan))
    _same_report(h2_constant(kernel, grid, r, delta, plan), reference_h2(kernel, grid, r, delta, plan))


def test_repeated_cube_keeps_plan_positions():
    # one cube at plan positions 0 and 2 around another cube: every
    # sample must keep its own series after the engine groups by cube
    grid = GridSpec(n=1, L=6, origin=(0.0,), side=8.0)
    kernel = bilinear_odd_kernel()
    a, b = (np.array([3.0]), 2.0), (np.array([5.0]), 1.0)
    plan = SamplePlan(
        cubes=(a, b, a),
        pairs=((np.array([2.6]), np.array([3.5])), (np.array([5.1]), np.array([4.8])), (np.array([3.3]), np.array([2.75]))),
    )
    rows = _rows(_sample_tables(kernel, grid, 2.0, plan))
    ref = reference_series(kernel, grid, 2.0, plan)
    for (cfg, table, skipped), (ref_terms, ref_sk) in zip(rows, ref):
        assert skipped == ref_sk
        assert np.allclose(annulus_series(table, cfg[1], 2.0, grid), ref_terms, rtol=REL_TOL, atol=0.0)
    assert len({tuple(annulus_series(t, c[1], 2.0, grid)) for c, t, _ in rows}) == 3


FIELDS = ("value", "terms", "k_max", "tail_flag", "skipped", "samples")


def _identical(got, want):
    # repr tells -0.0 from 0.0 and prints every float round-trip exactly
    for field in FIELDS:
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_regularity_is_the_pair_bit_for_bit(case):
    kernel, grid, r, delta, plan = case
    if all(np.array_equal(x, z) for x, z in plan.pairs):
        with pytest.raises(ValueError) as want:
            hormander_constant(kernel, grid, r, plan)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            regularity(kernel, grid, r, delta, plan)
        return
    kr, h2 = regularity(kernel, grid, r, delta, plan)
    _identical(kr, hormander_constant(kernel, grid, r, plan))
    _identical(h2, h2_constant(kernel, grid, r, delta, plan))


def test_regularity_refuses_what_the_pair_refuses():
    grid = GridSpec(n=1, L=4, origin=(0.0,), side=8.0)
    kernel = bilinear_odd_kernel()
    plan = SamplePlan(levels=(1,), max_pairs=2)
    with pytest.raises(ValueError) as kr_error:
        hormander_constant(kernel, grid, 0.5, plan)
    with pytest.raises(ValueError, match=f"^{re.escape(str(kr_error.value))}$"):
        regularity(kernel, grid, 0.5, 3.0, plan)
    for delta in (0.5, 0.25):  # n/r = 0.5 at r = 2
        hormander_constant(kernel, grid, 2.0, plan)
        with pytest.raises(ValueError) as h2_error:
            h2_constant(kernel, grid, 2.0, delta, plan)
        with pytest.raises(ValueError, match=f"^{re.escape(str(h2_error.value))}$"):
            regularity(kernel, grid, 2.0, delta, plan)


def _neighbour_singular(x, y0, y1):
    # non-finite wherever the two slots are neighbouring cells (h = 0.5),
    # so singular tuples sit outside Q^m with one slot inside Q
    y0, y1 = y0[..., 0], y1[..., 0]
    vals = 1.0 / (1.0 + np.abs(x[0] - y0) + 2.0 * np.abs(x[0] - y1))
    return np.where(np.abs(np.abs(y0 - y1) - 0.5) < 1e-12, np.inf, vals)


def test_skips_off_the_full_diagonal_match_the_reference(monkeypatch):
    # every other two-slot kernel here is singular only where a slot
    # meets x, which a miscount of the rows inside Q^m does not change
    # unless x is a lattice point; this one is singular across shells
    grid = GridSpec(n=1, L=4, origin=(0.0,), side=8.0)
    kernel = fake_kernel(monkeypatch, 2, _neighbour_singular)
    plan = SamplePlan(
        cubes=((np.array([3.0]), 2.0), (np.array([5.0]), 4.0), (np.array([1.0]), 2.0)),
        pairs=((np.array([2.6]), np.array([3.3])), (np.array([4.2]), np.array([5.9])), (np.array([0.6]), np.array([1.25]))),
    )
    kr, h2 = regularity(kernel, grid, 2.0, 1.0, plan)
    want_kr = reference_hormander(kernel, grid, 2.0, plan)
    want_h2 = reference_h2(kernel, grid, 2.0, 1.0, plan)
    assert kr.skipped == want_kr.skipped == h2.skipped == want_h2.skipped > 0
    _same_report(kr, want_kr)
    _same_report(h2, want_h2)


# every kernel variant a config can name, by (m, n)
ROW_KERNELS = {
    (1, 1): (
        zero_kernel(1),
        x_independent_kernel(1),
        mpt_kernel(1.0, 2.0),
        mpt_truncated_kernel(1.0, 2.0, 1),
        dini_synthetic_kernel(DINI, 1),
    ),
    (2, 1): (zero_kernel(2), x_independent_kernel(2), bilinear_odd_kernel(), dini_synthetic_kernel(DINI, 2)),
    (1, 2): (zero_kernel(1), x_independent_kernel(1), dini_synthetic_kernel(DINI, 1)),
    (2, 2): (zero_kernel(2), x_independent_kernel(2), dini_synthetic_kernel(DINI, 2)),
}
ROW_DEPTHS = {(1, 1): (1, 7), (2, 1): (1, 5), (1, 2): (1, 4), (2, 2): (1, 3)}
ORIGINS = (0.0, 0.375, 0.1)
SIDES = (8.0, 14.0, 1e-3)


@st.composite
def row_cases(draw):
    m, n = draw(st.sampled_from(sorted(ROW_KERNELS)))
    kernel = draw(st.sampled_from(ROW_KERNELS[(m, n)]))
    side = draw(st.sampled_from(SIDES))
    lo, hi = ROW_DEPTHS[(m, n)]
    if kernel.variant.startswith("mpt") and side < 1:
        hi = 2  # the support box spans 5 units, some 10^4 cells at L = 2
    grid = GridSpec(n=n, L=draw(st.integers(lo, hi)), origin=tuple(draw(st.sampled_from(ORIGINS)) for _ in range(n)), side=side)
    r = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, grid.L), min_size=1, max_size=2, unique=True))
        return kernel, grid, r, SamplePlan(levels=tuple(levels), pair_depth=draw(st.integers(1, 2)), max_pairs=draw(st.integers(1, 4)))
    cubes, pairs = [], []
    for _ in range(draw(st.integers(1, 4))):
        lam = draw(st.integers(0, grid.L))
        cube_side = grid.side / (1 << lam)
        center = np.array([o + (draw(st.integers(0, (1 << lam) - 1)) + 0.5) * cube_side for o in grid.origin])
        x, z = (center + cube_side / 4 * np.array([draw(OFFSETS) for _ in range(n)]) for _ in range(2))
        cubes.append((center, cube_side))
        pairs.append((x, z))
    if all(np.array_equal(x, z) for x, z in pairs):
        pairs[0] = (cubes[0][0], cubes[0][0] + cubes[0][1] / 8)
    return kernel, grid, r, SamplePlan(cubes=tuple(cubes), pairs=tuple(pairs))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row_cases())
# the golden corpus's estimator grids: the dyadic one and the two whose centre differences are not exact
@example(case=(mpt_kernel(1.0, 2.0), GridSpec(n=1, L=6, origin=(0.0,), side=8.0), 2.0, SamplePlan(levels=(2, 3), max_pairs=4)))
@example(case=(mpt_kernel(1.0, 2.0), GridSpec(n=1, L=8, origin=(0.1,), side=14.0), 2.0, SamplePlan(levels=(2, 3), max_pairs=4)))
@example(
    case=(dini_synthetic_kernel(DINI, 1), GridSpec(n=2, L=5, origin=(0.375, 0.1), side=1e-3), 2.0, SamplePlan(levels=(1, 2), max_pairs=4))
)
# a separation cube family (ell = 2 at L = 8) and the 2-D kr plan of the mixed benchmark workload
@example(case=(mpt_truncated_kernel(1.5, 2.0, 2), GridSpec(n=1, L=8, origin=(0.0,), side=8.0), 2.0, SamplePlan(levels=(4, 5, 6), max_pairs=6)))
@example(case=(dini_synthetic_kernel(DINI, 1), GridSpec(n=2, L=3, origin=(0.0, 0.0), side=8.0), 2.0, SamplePlan(levels=(1, 2), pair_depth=1, max_pairs=3)))
# plain mpt sampled at lattice points: its pair tables hold invalid entries (t = 0 and the singular t = 4)
@example(case=(mpt_kernel(1.0, 2.0), GridSpec(n=1, L=6, origin=(0.0,), side=8.0), 2.0, SamplePlan(levels=(3,), max_pairs=4)))
# a plan whose every tuple outside the cube is singular, which the estimators refuse
@example(
    case=(
        mpt_kernel(1.0, 2.0),
        GridSpec(n=1, L=1, origin=(0.0,), side=8.0),
        1.0,
        SamplePlan(cubes=((np.array([4.0]), 8.0),), pairs=((np.array([2.0]), np.array([3.0])),)),
    )
)
# the one-dimensional shell pass: a comb with no live lattice point, so every
# shell it serves reads 0; the separation family at r = 1 (maxima); and an
# explicit plan whose cubes are served whole, not at all, and in part
@example(case=(mpt_truncated_kernel(1.0, 2.0, 0), GridSpec(n=1, L=2, origin=(0.0,), side=8.0), 2.0, SamplePlan(levels=(0,), pair_depth=1)))
@example(case=(mpt_truncated_kernel(1.5, 2.0, 2), GridSpec(n=1, L=8, origin=(0.0,), side=8.0), 1.0, SamplePlan(levels=(4, 5, 6), max_pairs=6)))
@example(
    case=(
        mpt_kernel(1.0, 2.0),
        GridSpec(n=1, L=6, origin=(0.0,), side=8.0),
        2.0,
        SamplePlan(
            cubes=((np.array([1.0]), 2.0), (np.array([2.5]), 1.0), (np.array([5.0]), 2.0)),
            pairs=((np.array([0.625]), np.array([1.375])), (np.array([2.3125]), np.array([2.6875])), (np.array([4.625]), np.array([5.0625]))),
        ),
    )
)
def test_shell_tables_are_the_row_by_row_reference_bit_for_bit(case):
    kernel, grid, r, plan = case
    assume(plan_error(plan, grid) is None)  # an offset of 1 can round a point off the half cube
    try:
        rows = _rows(_sample_tables(kernel, grid, r, plan))
    except FloatingPointError as error:  # a plan that measures nothing is refused, as golden kr_every_tuple_singular pins
        if not str(error).startswith("every slot tuple outside the cube is singular"):
            raise
        rows = [(cfg, None, None) for cfg in zip(*enumerate_plan(plan, grid)) if not np.array_equal(cfg[2], cfg[3])]
    axes = quad_axes(kernel, grid)
    cubes = {}
    for pos, (cfg, _, _) in enumerate(rows):
        cubes.setdefault((tuple(cfg[0]), cfg[1]), []).append(pos)
    for (center, side), positions in cubes.items():
        want = cube_tables(kernel, axes, r, np.array(center), side, [rows[i][0][2:] for i in positions])
        q = shell_order(axes, np.array(center), side)[1][1]
        for pos, (table, skipped) in zip(positions, want):
            if rows[pos][1] is None:  # refused: the reference skips every tuple outside Q^m, at least one
                assert 0 < skipped == math.prod(map(len, axes)) ** kernel.m - q**kernel.m
                continue
            assert rows[pos][1].shape == table.shape
            assert rows[pos][1].tobytes() == table.tobytes()
            assert rows[pos][2] == skipped


def _distinct_points(grid, plan):
    points = {}
    for _, _, x, z in zip(*enumerate_plan(plan, grid)):
        points.setdefault(x.tobytes(), x)
        points.setdefault(z.tobytes(), z)
    return list(points.values())


def test_offset_table_serves_the_lattice_class_of_its_reference():
    # on the dyadic grid every difference is exact: the points an odd
    # number of cells from the lattice (level 2, which comes first) are
    # one class with the table's reference point, and the lattice
    # points themselves (level 3) are another, which keeps eval_batch
    grid = GridSpec(n=1, L=6, origin=(0.0,), side=8.0)
    kernel = mpt_kernel(1.0, 2.0)
    points = np.array(_distinct_points(grid, SamplePlan(levels=(2, 3), max_pairs=4)))
    axes, _ = _quad_lattice(kernel, grid)
    cells = _lattice_points(_lattice_indices(kernel, grid))
    vals, valid, row, col = offset_table(kernel, grid, points, cells)
    on_class = {p.tobytes() for p in points if float(p[0] / grid.h) % 1.0 == 0.0}
    assert {p.tobytes() for p, k in zip(points, row) if k >= 0} == on_class and 0 < len(on_class) < len(points)
    # the table row of each served point is its eval_batch row
    pts = _lattice_points(axes)
    for p, k in zip(points, row):
        if k >= 0:
            want_vals, want_valid = kernels.eval_batch(kernel, p, pts)
            assert vals[k + col].tobytes() == want_vals.tobytes()
            assert np.array_equal(want_valid, valid[k + col])
    # a kernel that is not a function of x - y gets no table
    for other in (x_independent_kernel(1), zero_kernel(1), x_independent_kernel(2), zero_kernel(2)):
        assert offset_table(other, grid, points, cells) is None
    # two slots get one: the same class is served, and its rows in both
    # slots are the eval_batch rows over the cells
    kernel = bilinear_odd_kernel()
    table = offset_table(kernel, grid, points, cells)
    assert {p.tobytes() for p, k in zip(points, table[2]) if k >= 0} == on_class
    _assert_rows_are_eval_batch(kernel, grid, points, cells, table)


def _assert_rows_are_eval_batch(kernel, grid, points, cells, table):
    """Every served point's rows off the table, at flat index row + col in
    one slot and (row + col1) * N + row + col2 in two, are bitwise its
    ``eval_batch`` rows over the cell coordinates."""
    vals, valid, row, col = table
    A = grid.origin + grid.h * (cells + 0.5)
    at = (col[:, None] * len(vals) + col if kernel.m == 2 else col).ravel()
    for p, k in zip(points, row.tolist()):
        if k >= 0:
            want_vals, want_valid = kernels.eval_batch(kernel, p, *((A[:, None], A[None, :]) if kernel.m == 2 else (A,)))
            off = k * (len(vals) + 1) if kernel.m == 2 else k
            assert vals.take(at + off).tobytes() == want_vals.ravel().tobytes()
            assert valid.take(at + off).tobytes() == want_valid.ravel().tobytes()


def _served_by_brute_force(grid, points, cells):
    """Which points the all-pairs bitwise check serves: along every axis,
    p - y for every cell coordinate y is bitwise p0 - y', y' spelt at the
    cell s = rint((p - p0) / h) cells over, as the table spells it."""
    p0, served = points[0], []
    for p in points:
        s = np.rint((p - p0) / grid.h).astype(np.int64)
        ok = True
        for a in range(grid.n):
            y = grid.origin[a] + grid.h * (cells[:, a] + 0.5)
            spelt = grid.origin[a] + grid.h * ((cells[:, a] - s[a]) + 0.5)
            ok &= (p[a] - y).tobytes() == (p0[a] - spelt).tobytes()
        served.append(ok)
    return served


@st.composite
def served_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    exact = draw(st.booleans())
    origins, sides = ((0.0, 0.375, -0.375), (8.0, 14.0)) if exact else ((0.1, 0.375, 0.7, 1.1), (1e-3, 8.0, 10.0))
    grid = GridSpec(n=n, L=draw(st.integers(1, 5 if n == 1 else 3)), origin=tuple(draw(st.sampled_from(origins)) for _ in range(n)), side=draw(st.sampled_from(sides)))
    kernel = draw(st.sampled_from([dini_synthetic_kernel(DINI, 1)] + ([mpt_kernel(1.0, 2.0), bilinear_odd_kernel()] if n == 1 else [])))
    cells = _lattice_points(_lattice_indices(kernel, grid)).astype(np.int64)
    if draw(st.booleans()):  # a subset of the lattice, as the operators ask for
        cells = cells[sorted(set(draw(st.lists(st.integers(0, len(cells) - 1), min_size=1, max_size=6))))]
    points = []
    for _ in range(draw(st.integers(1, 6))):
        k = [draw(st.integers(-3, grid.cells_per_side + 3)) for _ in range(n)]
        frac = draw(st.sampled_from([0.0, 0.5, 0.25, 0.1, 1 / 3]))
        p = np.array([o + grid.h * (i + frac) for o, i in zip(grid.origin, k)])
        nudge = draw(st.sampled_from([0, 0, 0, 1, -1]))  # one ulp off
        points.append(np.nextafter(p, p + nudge) if nudge else p)
    if exact and draw(st.integers(0, 3)) == 0:
        points.append(np.full(n, draw(st.sampled_from([0.0, -0.0]))))
    return kernel, grid, np.array(points), cells


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(served_cases())
# a cell centre at 0.0 and a point at -0.0: the differences to it differ in sign only
@example(
    case=(
        mpt_kernel(1.0, 2.0),
        GridSpec(n=1, L=5, origin=(-0.375,), side=8.0),
        np.array([[0.5], [-0.0], [0.0]]),
        _lattice_points(_lattice_indices(mpt_kernel(1.0, 2.0), GridSpec(n=1, L=5, origin=(-0.375,), side=8.0))),
    )
)
# an inexact grid, where p - p0 = s h does not decide which points are served
@example(
    case=(
        dini_synthetic_kernel(DINI, 1),
        GridSpec(n=1, L=4, origin=(1.1,), side=10.0),
        np.array([[7.50625], [6.25625], [6.725], [12.0375], [3.13125]]),
        _lattice_points(_lattice_indices(dini_synthetic_kernel(DINI, 1), GridSpec(n=1, L=4, origin=(1.1,), side=10.0))),
    )
)
def test_offset_table_serves_what_the_all_pairs_check_serves(case):
    kernel, grid, points, cells = case
    table = offset_table(kernel, grid, points, cells)
    assume(table is not None)  # a table past the size limit, or one whose evaluation raises
    assert [k >= 0 for k in table[2].tolist()] == _served_by_brute_force(grid, points, cells)
    _assert_rows_are_eval_batch(kernel, grid, points, cells, table)


def test_separation_evaluates_one_table_row_per_ell(monkeypatch):
    # at L >= ell + 8 every sample point of a separation plan lies an
    # integer number of cells from the first, in one lattice class, so
    # each ell's kernel is evaluated once, as its table
    calls = []
    inner = kernels.eval_batch

    def counted(spec, x, *ys):
        calls.append(spec.ell)
        return inner(spec, x, *ys)

    monkeypatch.setattr(kernels, "eval_batch", counted)
    grid = GridSpec(n=1, L=9, origin=(0.0,), side=8.0)
    for ell in (0, 1):
        regularity(mpt_truncated_kernel(1.0, 2.0, ell), grid, 2.0, 1.0, SamplePlan(levels=(ell + 2, ell + 3, ell + 4), max_pairs=6))
    assert calls == [0, 1]


def test_bilinear_estimator_evaluates_only_the_table_blocks(monkeypatch):
    # every sample point of the benchmark's bilinear plan is in the class
    # of the first, so its 48 points' rows are read off one 492 x 492
    # table, evaluated in blocks of at most _CHECK_BLOCK entries, 66
    # first-slot rows each
    shapes = []
    inner = kernels.eval_batch

    def counted(spec, x, *ys):
        shapes.append(np.broadcast_shapes(*(y.shape[:-1] for y in ys)))
        return inner(spec, x, *ys)

    monkeypatch.setattr(kernels, "eval_batch", counted)
    grid = GridSpec(n=1, L=8, origin=(0.0,), side=8.0)
    hormander_constant(bilinear_odd_kernel(), grid, 1.9235, SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=3))
    assert shapes == [(66, 492)] * 7 + [(30, 492)]


@st.composite
def plan_cases(draw):
    n, pair_depth = draw(st.sampled_from([1, 2])), draw(st.integers(1, 3))
    top = 6 if n == 1 else 3 if pair_depth < 3 else 1  # the reference sorts every candidate pair of every cube
    grid = GridSpec(
        n=n,
        L=draw(st.integers(1, top)),
        origin=tuple(draw(st.sampled_from(ORIGINS)) for _ in range(n)),
        side=draw(st.sampled_from(SIDES)),
    )
    levels = draw(st.lists(st.integers(0, grid.L), min_size=1, max_size=3, unique=True))
    candidates = math.comb(1 << (pair_depth * n), 2)
    return grid, SamplePlan(levels=tuple(levels), pair_depth=pair_depth, max_pairs=draw(st.integers(1, candidates + 1)))


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(plan_cases())
# the plans of the benchmark workloads: regularity-1d at ell = 4, mixed-2d-t2's bilinear and 2-D dini plans
@example(case=(GridSpec(n=1, L=12, origin=(0.0,), side=8.0), SamplePlan(levels=(6, 7, 8), pair_depth=2, max_pairs=6)))
@example(case=(GridSpec(n=1, L=8, origin=(0.0,), side=8.0), SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=3)))
@example(case=(GridSpec(n=2, L=6, origin=(0.0, 0.0), side=8.0), SamplePlan(levels=(1, 2), pair_depth=1, max_pairs=3)))
def test_plan_expansion_is_the_cube_by_cube_reference(case):
    grid, plan = case
    got, want = enumerate_plan(plan, grid), plan_configs(plan, grid)
    for a, b in zip(got, map(np.array, zip(*want)), strict=True):  # centers, sides, xs, zs
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# table entries: finite and nonnegative, as the engine gives them, mostly zero
ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 1e-300, 5e-324, 1e300, 1.7e308]), st.floats(0.0, 10.0)
)


@st.composite
def report_cases(draw):
    """(grid, r, delta, rows) with drawn shell tables; sides and pairs
    span scales whose measure powers, |Q| powers, decay factors and
    2^{m delta j} overflow or underflow."""
    m, n = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    r = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    delta = n / r + draw(st.sampled_from([0.25, 1.0, 1.0, 3.0, 150.0]))
    grid = GridSpec(n=n, L=draw(st.integers(1, 4)), origin=(0.0,) * n, side=draw(st.sampled_from([8.0] * 4 + [1e-3, 1e-200, 1e160])))
    sides = [grid.side / (1 << lam) for lam in range(grid.L + 1)]
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.integers(0, 3)) == 0:  # a tie with an earlier sample
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        side = draw(st.sampled_from(sides))
        J = draw(st.integers(1, 5))
        if draw(st.integers(0, 4)) == 0:
            table = np.zeros((J,) * m)
        else:
            table = np.array(draw(st.lists(ENTRIES, min_size=J**m, max_size=J**m))).reshape((J,) * m)
        center = np.full(n, side / 2)
        x = center + side / 4 * np.array([draw(OFFSETS) for _ in range(n)])
        z = x + side * draw(st.sampled_from([0.25] * 8 + [1e-3, 1e-210, 1e150, 1e300])) * (1 + np.arange(n))
        rows.append(((center, side, x, z), table, draw(st.integers(0, 3))))
    return grid, r, delta, rows


def _tie_rows(*tables):
    """One sample per table, all of one cube and one pair."""
    cfg = (np.array([4.0]), 8.0, np.array([3.0]), np.array([5.0]))
    return [(cfg, np.array(t), 0) for t in tables]


def _report_or_error(fn, *args):
    try:
        with np.errstate(over="ignore"):  # sums of finite terms that overflow warn on both sides
            report = fn(*args)
    except Exception as error:  # noqa: BLE001 - the type and message are compared
        return type(error), str(error)
    return tuple(repr(getattr(report, field)) for field in FIELDS)


# regularity-1d at seed 0: separation of the truncated kernel, beta 0.8796, L = 12
SEPARATION = [
    (mpt_truncated_kernel(0.8796, 2.0, ell), SamplePlan(levels=(ell + 2, ell + 3, ell + 4), pair_depth=2, max_pairs=6))
    for ell in (2, 3, 4)
]


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(report_cases())
@example(case=(GridSpec(n=1, L=12, origin=(0.0,), side=8.0), 2.0, 1.0, SEPARATION))
# the m = 2 and 2-D plans of the mixed benchmark workload, at r = 1 and 2.5
@example(case=(GridSpec(n=1, L=6, origin=(0.0,), side=8.0), 1.0, 1.5, [(bilinear_odd_kernel(), SamplePlan(levels=(2, 3), max_pairs=3))]))
@example(case=(GridSpec(n=1, L=6, origin=(0.0,), side=8.0), 2.5, 1.0, [(bilinear_odd_kernel(), SamplePlan(levels=(2, 3), max_pairs=3))]))
@example(
    case=(
        GridSpec(n=2, L=4, origin=(0.0, 0.0), side=8.0),
        2.0,
        1.5,
        [(dini_synthetic_kernel(DINI, 1), SamplePlan(levels=(1, 2), pair_depth=1, max_pairs=3))],
    )
)
# ties between samples whose series (kr: 4 side both, terms (4 side,) against
# (0, 4 side)) or deepest shells (h2: j0 1 against 2) differ: the first wins
@example(case=(GridSpec(n=1, L=3, origin=(0.0,), side=8.0), 1.0, 2.0, _tie_rows([0.0, 2.0, 0.0], [0.0, 0.0, 1.0])))
@example(case=(GridSpec(n=1, L=3, origin=(0.0,), side=8.0), 1.0, 2.0, _tie_rows([0.0, 4.0, 0.0], [0.0, 0.0, 1.0])))
def test_reports_are_the_per_sample_reference_bit_for_bit(case):
    grid, r, delta, source = case
    if isinstance(source[0][1], SamplePlan):  # the engine's tables, one run per (kernel, plan)
        sampled = [_sample_tables(kernel, grid, r, plan) for kernel, plan in source]
        cases = [(tables, _as_rows(tables)) for tables in sampled]
    else:  # one degenerate pair besides the drawn rows
        samples = {"cubes": 1, "pairs": len(source) + 1}
        cases = [(_grouped(source, samples, True), (source, 1, samples, True))]
    for tables, rows in cases:
        assert _report_or_error(_kr_report, tables, r, grid) == _report_or_error(kr_report, rows, r, grid)
        assert _report_or_error(_h2_report, tables, r, delta, grid) == _report_or_error(h2_report, rows, r, delta, grid)


def _explicit(*samples):
    """An explicit one-dimensional plan of (center, side, x, z) samples."""
    return SamplePlan(
        cubes=tuple((np.array([c]), side) for c, side, _, _ in samples),
        pairs=tuple((np.array([x]), np.array([z])) for _, _, x, z in samples),
    )


# cells of side 1/4 centred on the multiples of 1/4, 0.0 among them: the
# offset table serves the points on the lattice, not -1.125 and 2.375, and
# not -0.0, whose difference to the cell at 0.0 differs from 0.0's in sign
FRONT_GRID = GridSpec(n=1, L=5, origin=(-4.125,), side=8.0)
A, B, C, D = (-1.0, 2.0), (2.5, 1.0), (2.0, 4.0), (-2.5, 1.0)  # (centre, side) of dyadic cubes
FRONT_PLANS = {
    "cube repeated out of order": _explicit((*A, -1.5, -0.5), (*B, 2.25, 2.75), (*A, -1.125, -0.75), (*C, 1.0, 2.5), (*B, 2.375, 2.5)),
    # -0.0 and 0.0 are one cube centre but two sample points
    "signed zeros": _explicit((0.0, 8.0, 0.0, 1.0), (-0.0, 8.0, -0.0, 1.0), (*A, -1.5, -0.5), (0.0, 8.0, 1.0, -0.0)),
    "degenerate cube": _explicit((*A, -1.5, -0.5), (*D, -2.5, -2.5), (*B, 2.25, 2.75), (*D, -2.75, -2.75), (*A, -0.75, -1.25)),
}


@pytest.mark.parametrize("chunk", [None, 64])  # 64: no pair tables, and one task per cube
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", [mpt_kernel(1.0, 2.0), bilinear_odd_kernel()], ids=["mpt", "bilinear"])
@pytest.mark.parametrize("name", sorted(FRONT_PLANS))
def test_array_front_end_is_the_reference_bit_for_bit(monkeypatch, name, kernel, threads, chunk):
    plan, grid, r, delta = FRONT_PLANS[name], FRONT_GRID, 2.0, 1.0
    if chunk:
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
    set_thread_count(threads)
    try:
        sampled = _sample_tables(kernel, grid, r, plan)
        kr, h2 = regularity(kernel, grid, r, delta, plan)
    finally:
        set_thread_count(1)
    (got, *counts), (want, *want_counts) = _as_rows(sampled), reference_rows(kernel, grid, r, plan)
    assert counts == want_counts  # degenerate pairs, sample counts, bounded support
    for (cfg, table, skipped), (want_cfg, want_table, want_skipped) in zip(got, want, strict=True):
        assert repr(cfg) == repr(want_cfg)
        assert (table.shape, table.tobytes(), skipped) == (want_table.shape, want_table.tobytes(), want_skipped)
    _identical(kr, kr_report((want, *want_counts), r, grid))
    _identical(h2, h2_report((want, *want_counts), r, delta, grid))
