import numpy as np
import pytest

from sdom.bank import BankSpec, make_bank
from sdom.grid import GridFunction, GridSpec, cell_centers
from sdom.kernels import mpt_kernel, zero_kernel
from sdom.maximal import ALL_GRID_CUBES, DYADIC, shifted_modes
from sdom.operators import OperatorSpec, apply
from sdom.weights import (
    WeightTuple,
    power_weight,
    vec_ap_characteristic,
    weighted_norm_ratio,
)

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
    with pytest.raises(ValueError, match="identically zero component"):
        weighted_norm_ratio(op, wt, [("z", (zero,))])


def test_trend_correlation():
    assert trend_correlation([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4]) == 1.0
    assert trend_correlation([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) == -1.0
    with pytest.raises(ValueError):
        trend_correlation([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        trend_correlation([1.0, 2.0, 3.0], [1.0, 2.0])
