"""The joint weight characteristic is at least one and does not change
when each weight is multiplied by a positive constant.

Scaling w_i by c_i scales the joint weight by the product of the
c_i^{p/p_i} and each dual average to its power by c_i^{-p/p_i}, so
every cube's score is unchanged in exact arithmetic, for every family
kind and n in {1, 2}.  In floating point the box sums round
differently, so the two characteristics agree to a relative tolerance.
The draws of `tests/test_weights.py::test_characteristic_at_least_one_and_scale_invariant`
(seed 14, its five weights, scale 7) are explicit examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdom.grid import GridFunction, GridSpec
from sdom.maximal import ALL_GRID_CUBES, DYADIC, shifted_modes
from sdom.weights import WeightTuple, vec_ap_characteristic


def family(kind, n, shift):
    if kind == "shifted":
        modes = shifted_modes(n)
        return modes[shift % len(modes)]
    return DYADIC if kind == "dyadic" else ALL_GRID_CUBES


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    L=st.integers(1, 5),
    kind=st.sampled_from(["dyadic", "all", "shifted"]),
    shift=st.integers(0, 7),
    exponents=st.sampled_from([(2.0,), (3.0,), (2.0, 3.0), (4.0, 2.5)]),
    r=st.sampled_from([1.0, 1.5]),
    seed=st.integers(0, 2**32 - 1),
    draw=st.integers(0, 4),
    scales=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
)
@example(n=1, L=5, kind="dyadic", shift=0, exponents=(2.0,), r=1.0, seed=14, draw=0, scales=[7.0, 7.0])
@example(n=1, L=5, kind="dyadic", shift=0, exponents=(2.0,), r=1.0, seed=14, draw=1, scales=[7.0, 7.0])
@example(n=1, L=5, kind="dyadic", shift=0, exponents=(2.0,), r=1.0, seed=14, draw=2, scales=[7.0, 7.0])
@example(n=1, L=5, kind="dyadic", shift=0, exponents=(2.0,), r=1.0, seed=14, draw=3, scales=[7.0, 7.0])
@example(n=1, L=5, kind="dyadic", shift=0, exponents=(2.0,), r=1.0, seed=14, draw=4, scales=[7.0, 7.0])
def test_characteristic_is_at_least_one_and_scale_invariant(n, L, kind, shift, exponents, r, seed, draw, scales):
    g = GridSpec(n=n, L=min(L, 4 if n == 2 else L), origin=(0.0,) * n, side=1.0)
    mode = family(kind, n, shift)
    # the seed's (draw + 1)-th normal vector onwards, one per weight
    vals = np.exp(np.random.default_rng(seed).normal(size=(draw + len(exponents), g.num_cells)))[draw:]
    wt = WeightTuple(tuple(GridFunction(g, v) for v in vals), exponents, r)
    scaled = WeightTuple(tuple(GridFunction(g, c * v) for c, v in zip(scales, vals)), exponents, r)
    c = vec_ap_characteristic(wt, mode)
    assert c >= 1.0 - 1e-10
    assert vec_ap_characteristic(scaled, mode) == pytest.approx(c, rel=1e-12)
