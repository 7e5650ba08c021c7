"""The shell engine against the direct-sum reference on random plans.

Random explicit plans over dyadic cubes, with sample points that often
land on the quadrature lattice (so singular tuples are skipped), x = z
pairs, and cubes repeated at non-adjacent plan positions.  Each kept
sample must give the reference's series, shell peak and skip count at
its own plan position, and the reports must agree.  ``regularity``
must return the two reports of ``hormander_constant`` and
``h2_constant`` bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_estimators import (
    reference_h2,
    reference_hormander,
    reference_series,
    reference_shells,
)
from sdom.grid import GridSpec
from sdom.kernels import (
    Modulus,
    SamplePlan,
    _annulus_series,
    _sample_tables,
    _shell_peak,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    h2_constant,
    hormander_constant,
    mpt_kernel,
    mpt_truncated_kernel,
    regularity,
    x_independent_kernel,
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
    rows, _, _, _ = _sample_tables(kernel, grid, r, plan)
    series = reference_series(kernel, grid, r, plan)
    shells = reference_shells(kernel, grid, r, delta, plan)
    assert len(rows) == len(series) == len(shells)
    for (cfg, table, skipped), (ref_terms, ref_sk), (ref_v, ref_j0, ref_sk2) in zip(rows, series, shells):
        assert skipped == ref_sk == ref_sk2
        terms = _annulus_series(table, cfg[1], r, grid)
        assert len(terms) == len(ref_terms)
        assert all(_close(a, b) for a, b in zip(terms, ref_terms))
        v, j0 = _shell_peak(table, cfg, r, delta, grid)
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
    rows, _, _, _ = _sample_tables(kernel, grid, 2.0, plan)
    ref = reference_series(kernel, grid, 2.0, plan)
    for (cfg, table, skipped), (ref_terms, ref_sk) in zip(rows, ref):
        assert skipped == ref_sk
        assert np.allclose(_annulus_series(table, cfg[1], 2.0, grid), ref_terms, rtol=REL_TOL, atol=0.0)
    assert len({tuple(_annulus_series(t, c[1], 2.0, grid)) for c, t, _ in rows}) == 3


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
