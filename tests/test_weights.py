import re

import numpy as np
import pytest

from sdom.bank import BankSpec, make_bank
from sdom.grid import BoxSums, GridFunction, GridSpec, cell_centers
from sdom.kernels import mpt_kernel, zero_kernel
from sdom.maximal import ALL_GRID_CUBES, DYADIC, family_boxes, shifted_modes
from sdom.operators import OperatorSpec, apply
from sdom.weights import (
    WeightTuple,
    power_weight,
    vec_ap_characteristic,
    weighted_norm_ratio,
)

import reference_maximal
from acceptance_suite import trend_correlation


def ones_weight(g):
    return GridFunction(g, np.ones(g.num_cells))


def lp_norm(g, p):
    return float(np.sum(np.abs(g.values) ** p) * g.grid.cell_volume()) ** (1.0 / p)


def test_weight_tuple_validation():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    w = ones_weight(g)
    with pytest.raises(ValueError, match="strictly positive"):
        WeightTuple((GridFunction(g, np.zeros(g.num_cells)),), (2.0,), 1.0)
    with pytest.raises(ValueError, match="must exceed r"):
        WeightTuple((w,), (2.0,), 2.0)
    with pytest.raises(ValueError):
        WeightTuple((w,), (2.0, 3.0), 1.0)
    with pytest.raises(ValueError):
        WeightTuple((w,), (2.0,), 0.5)
    other = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    with pytest.raises(ValueError):
        WeightTuple((w, ones_weight(other)), (2.0, 2.0), 1.0)


def test_p_and_bound_exponent():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    w = ones_weight(g)
    wt = WeightTuple((w, w), (3.0, 4.0), 1.0)
    assert wt.p == pytest.approx(12.0 / 7.0, rel=1e-15)
    # conjugates of p_i/r are 1.5 and 4/3; both below p, so the floor wins
    assert wt.bound_exponent() == 1.0
    wt2 = WeightTuple((w, w), (3.0, 4.0), 2.0)
    assert wt2.bound_exponent() == pytest.approx(1.75, rel=1e-15)


def test_all_ones_characteristic_is_one():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    w = ones_weight(g)
    for r, ps in ((1.0, (2.0,)), (1.0, (3.0, 4.0)), (2.0, (3.0, 5.0))):
        wt = WeightTuple((w,) * len(ps), ps, r)
        for mode in [DYADIC, ALL_GRID_CUBES] + shifted_modes(1):
            assert vec_ap_characteristic(wt, mode) == 1.0


def test_characteristic_at_least_one_and_scale_invariant():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=1.0)
    rng = np.random.default_rng(14)
    for _ in range(5):
        vals = np.exp(rng.normal(size=g.num_cells))
        w = GridFunction(g, vals)
        wt = WeightTuple((w,), (2.0,), 1.0)
        c = vec_ap_characteristic(wt, DYADIC)
        assert c >= 1.0 - 1e-10
        scaled = WeightTuple((GridFunction(g, 7.0 * vals),), (2.0,), 1.0)
        assert vec_ap_characteristic(scaled, DYADIC) == pytest.approx(c, rel=1e-12)


def test_characteristic_mode_chain():
    g = GridSpec(n=1, L=6, origin=(0.0,), side=1.0)
    w = power_weight(g, 1.5)
    wt = WeightTuple((w,), (2.0,), 1.0)
    dy = vec_ap_characteristic(wt, DYADIC)
    al = vec_ap_characteristic(wt, ALL_GRID_CUBES)
    assert dy <= al
    best = dy
    for mode in shifted_modes(1):
        best = max(best, vec_ap_characteristic(wt, mode))
    # each of the two averages in a score loses at most a factor 6 when a
    # box is replaced by its containing shifted cube: 6^{1 + p(p-r)/(p r)}
    assert al <= 36.0 * best * (1.0 + 1e-12)


def test_negative_average_under_an_integral_power_does_not_raise():
    # A 2-D dual sum cancels below zero.  With p = 3 and r = 1 its power
    # is 2, where Python's ``**`` gives a float, so the score is kept.
    g = GridSpec(n=2, L=2, origin=(0.0, 0.0), side=8.0)
    w = GridFunction(g, np.random.default_rng(13).lognormal(0.0, 20.0, g.num_cells))
    wt = WeightTuple((w,), (3.0,), 1.0)
    assert wt.p * (3.0 - 1.0) / 3.0 == 2.0
    dual = BoxSums(g, w.values ** -0.5)
    assert any(np.any(dual.box_sum(lo, hi) < 0.0) for lo, hi in family_boxes(g, DYADIC))
    got = vec_ap_characteristic(wt, DYADIC)
    assert got.hex() == reference_maximal.vec_ap_characteristic(wt, DYADIC).hex()


def test_dual_power_overflow_names_the_weight_and_cube():
    # one weight value of 5e-324 makes the dual weight w^(-r/(p-r)) about
    # 5.9e107 on cell 5, and its power (p-r)/r = 3 overflows; the first
    # family cube holding it, the single cell, is named.  The CLI's power
    # weights at their default floor of 1e-8 cannot get here: w >= floor
    # keeps every dual average to its power at most 1/floor = 1e8.
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    v = np.ones(g.num_cells)
    v[5] = 5e-324
    wt = WeightTuple((GridFunction(g, v),), (4.0,), 1.0)
    want = "weight 0: dual average over cells [5] to [5] overflows under the power 3.0 (5.871356456934502e+107)"
    with pytest.raises(OverflowError, match=f"^{re.escape(want)}$"):
        vec_ap_characteristic(wt, ALL_GRID_CUBES)


def test_np_power_is_within_one_ulp_of_python_power():
    # the characteristic's candidate rule rests on this, whatever loops numpy dispatches to
    rng = np.random.default_rng(28)
    u = rng.uniform(-300.0, 300.0, 100_000)
    a = 10.0**u
    e = rng.uniform(0.05, 1.0, u.size) * np.minimum(20.0, 300.0 / np.abs(u))  # results within 1e-300 to 1e300
    exact = np.array([x**y for x, y in zip(a.tolist(), e.tolist())])
    ulps = np.abs(np.power(a, e).view(np.int64) - exact.view(np.int64))
    assert ulps.max() <= 1


def test_power_weight_shapes():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=2.0)
    flat = power_weight(g, 0.0)
    assert np.array_equal(flat.values, np.ones(g.num_cells))
    w = power_weight(g, 2.0)
    assert np.all(w.values > 0)
    mid = g.origin[0] + g.side / 2
    centers = cell_centers(g)[:, 0]
    d = np.abs(centers - mid)
    assert np.allclose(w.values, np.maximum(d**2, 1e-8), rtol=0, atol=0)
    neg = power_weight(g, -0.5, center=(centers[3],))
    assert np.all(np.isfinite(neg.values)) and np.all(neg.values > 0)


def test_weighted_ratio_unweighted_cross_check():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=14.0)
    op = OperatorSpec(mpt_kernel(1.0, 2.0), g)
    bank = make_bank(g, 1, BankSpec(shapes=("gauss",), count_per_shape=2, seed=4))
    wt = WeightTuple((ones_weight(g),), (2.0,), 1.0)
    rep = weighted_norm_ratio(op, wt, bank)
    assert rep.characteristic == 1.0
    assert rep.bound == 1.0
    for (label, fs), ratio in zip(bank, rep.ratios):
        tf = apply(op, fs)
        assert ratio == lp_norm(tf, wt.p) / lp_norm(fs[0], 2.0)


def test_weighted_ratio_zero_operator():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(zero_kernel(1), g)
    bank = make_bank(g, 1, BankSpec(shapes=("gauss",), count_per_shape=2, seed=4))
    wt = WeightTuple((power_weight(g, 1.0),), (3.0,), 1.0)
    rep = weighted_norm_ratio(op, wt, bank)
    assert rep.max_ratio == 0.0
    assert all(r == 0.0 for r in rep.ratios)
    assert rep.bound == pytest.approx(rep.characteristic ** rep.exponent, rel=1e-15)


def test_weighted_ratio_validation():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(zero_kernel(1), g)
    wt = WeightTuple((ones_weight(g),), (2.0,), 1.0)
    with pytest.raises(ValueError):
        weighted_norm_ratio(op, wt, [])
    other = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    wt_other = WeightTuple((ones_weight(other),), (2.0,), 1.0)
    bank = make_bank(g, 1, BankSpec(shapes=("gauss",), count_per_shape=1, seed=0))
    with pytest.raises(ValueError):
        weighted_norm_ratio(op, wt_other, bank)
    wt2 = WeightTuple((ones_weight(g), ones_weight(g)), (2.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        weighted_norm_ratio(op, wt2, bank)
    zero = GridFunction(g, np.zeros(g.num_cells))
    with pytest.raises(ArithmeticError, match=r"^bank input 'z': the weighted norms multiply to 0 at component 0 \(exponent 2\.0\)$"):
        weighted_norm_ratio(op, wt, [("z", (zero,))])


def test_trend_correlation():
    assert trend_correlation([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4]) == 1.0
    assert trend_correlation([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == -1.0
    with pytest.raises(ValueError):
        trend_correlation([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        trend_correlation([1.0, 2.0, 3.0], [1.0, 2.0])
