import json
import math

import numpy as np
import pytest

from sdom import (
    GridSpec,
    KernelSpec,
    Modulus,
    SamplePlan,
    SingularPointError,
    bilinear_odd_kernel,
    custom_kernel,
    dini_norm,
    dini_synthetic_kernel,
    eval_kernel,
    h2_constant,
    hormander_constant,
    mpt_kernel,
    mpt_truncated_kernel,
    x_independent_kernel,
    zero_kernel,
)

# Dimensional comparison constants for the synthetic Dini kernels,
# recorded from reference runs (n=1, levels (2,3) plan, L=8): the
# hormander K_1 estimate divided by the Dini norm of the modulus.
DINI_K1_RATIO = {1: 6.1, 2: 38.8}


def test_mpt_point_value():
    k = mpt_kernel(beta=1.0, r=2.0)
    t = 4.0 + 1.0 / math.e
    val = eval_kernel(k, (t,), ((0.0,),))
    # |t-4|^{-1/2} (log(e/|t-4|))^{-1} = e^{1/2} / 2
    assert val == pytest.approx(math.exp(0.5) / 2.0, rel=0, abs=1e-15)
    assert val == pytest.approx(0.8243606353500641, rel=0, abs=1e-15)


def test_mpt_outside_support():
    k = mpt_kernel(beta=1.0, r=2.0)
    assert eval_kernel(k, (2.5,), ((0.0,),)) == 0.0
    assert eval_kernel(k, (5.5,), ((0.0,),)) == 0.0
    assert eval_kernel(k, (0.0,), ((-3.5,),)) != 0.0


def test_mpt_singular_at_four():
    k = mpt_kernel(beta=1.0, r=2.0)
    with pytest.raises(SingularPointError):
        eval_kernel(k, (4.0,), ((0.0,),))
    with pytest.raises(SingularPointError):
        eval_kernel(k, (1.0,), ((1.0,),))  # x = y diagonal


def test_bilinear_odd_symmetry():
    k = bilinear_odd_kernel()
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal()
        y1, y2 = x + rng.normal(), x + rng.normal()
        a = eval_kernel(k, (x,), ((y1,), (y2,)))
        b = eval_kernel(k, (x,), ((2 * x - y1,), (2 * x - y2,)))
        assert a == pytest.approx(-b, rel=1e-14)


def test_mpt_truncated_teeth():
    # teeth are (3 + k/2^l, 3 + (3k+1)/(3*2^l)], k = 0..2^{l+1}-1
    ell = 2
    k = mpt_truncated_kernel(1.0, 2.0, ell)
    full = mpt_kernel(1.0, 2.0)
    for tooth in range(1 << (ell + 1)):
        lo = 3.0 + tooth / 2.0 ** ell
        hi = 3.0 + (3 * tooth + 1) / (3.0 * 2.0 ** ell)
        inside = 0.5 * (lo + hi)
        outside = hi + 0.25 * (1.0 / 2.0 ** ell - (hi - lo))
        assert eval_kernel(k, (inside,), ((0.0,),)) == eval_kernel(full, (inside,), ((0.0,),))
        assert eval_kernel(k, (outside,), ((0.0,),)) == 0.0
        # lower endpoint is open, upper closed
        assert eval_kernel(k, (lo,), ((0.0,),)) == 0.0
        if abs(hi - 4.0) > 1e-9:
            assert eval_kernel(k, (hi,), ((0.0,),)) != 0.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        mpt_kernel(beta=0.0, r=2.0)
    with pytest.raises(ValueError):
        mpt_truncated_kernel(1.0, 2.0, -1)
    with pytest.raises(ValueError):
        Modulus(kind="power", c=1.0, eps=0.0)


def test_kernel_json_roundtrip():
    for spec in (
        zero_kernel(2),
        x_independent_kernel(1),
        bilinear_odd_kernel(),
        mpt_kernel(1.5, 2.0),
        mpt_truncated_kernel(1.0, 2.0, 3),
        dini_synthetic_kernel(Modulus(kind="power", c=2.0, eps=0.5), 2, amplitude=0.7),
        dini_synthetic_kernel(Modulus(kind="log", c=1.0, eps=1.0), 1),
    ):
        back = KernelSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert back.variant == spec.variant
        assert back.m == spec.m
        assert back.beta == spec.beta
        assert back.ell == spec.ell
        assert back.amplitude == spec.amplitude
    cust = custom_kernel(lambda x, y: 0.0, 1)
    with pytest.raises(ValueError):
        cust.to_json_dict()


def test_dini_norm_analytic():
    assert dini_norm(Modulus(kind="power", c=1.0, eps=1.0)) == pytest.approx(1.0, abs=1e-6)
    assert dini_norm(Modulus(kind="power", c=1.0, eps=0.5)) == pytest.approx(2.0, abs=1e-5)
    # omega(t) = (log(e/t))^{-2}; substitute u = log(e/t): integral 1
    assert dini_norm(Modulus(kind="log", c=1.0, eps=1.0)) == pytest.approx(1.0, abs=1e-3)
    # scaling is linear
    assert dini_norm(Modulus(kind="power", c=3.0, eps=1.0)) == pytest.approx(3.0, abs=3e-6)


def test_dini_norm_divergent():
    flat = Modulus(kind="custom", fn=lambda t: np.where(np.asarray(t) > 0, 1.0, 0.0))
    with pytest.raises(ValueError):
        dini_norm(flat)


def test_hormander_zero_and_x_independent():
    g = GridSpec(n=1, L=6, origin=(0.0,), side=4.0)
    plan = SamplePlan(levels=(1, 2), pair_depth=2, max_pairs=4)
    for spec in (zero_kernel(1), zero_kernel(2), x_independent_kernel(1), x_independent_kernel(2)):
        rep = hormander_constant(spec, g, 2.0, plan)
        assert rep.value == 0.0
        rep1 = hormander_constant(spec, g, 1.0, plan)
        assert rep1.value == 0.0


def test_h2_zero_and_x_independent():
    g = GridSpec(n=1, L=6, origin=(0.0,), side=4.0)
    plan = SamplePlan(levels=(1, 2), pair_depth=2, max_pairs=4)
    for spec in (zero_kernel(2), x_independent_kernel(2)):
        rep = h2_constant(spec, g, 2.0, 1.0, plan)
        assert rep.value == 0.0


def test_h2_rejects_small_delta():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=4.0)
    plan = SamplePlan(levels=(1,))
    with pytest.raises(ValueError):
        h2_constant(bilinear_odd_kernel(), g, 2.0, 0.5, plan)  # need delta > n/r = 0.5


def test_report_value_is_term_sum():
    g = GridSpec(n=1, L=8, origin=(0.0,), side=8.0)
    k = bilinear_odd_kernel()
    plan = SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=4)
    rep = hormander_constant(k, g, 2.0, plan)
    assert rep.value > 0
    assert rep.value == pytest.approx(sum(rep.terms), rel=1e-12)
    assert rep.k_max == len(rep.terms)
    assert rep.skipped == 0
    assert sum(rep.samples.values()) > 0


def test_plan_monotonicity():
    # adding cubes to the plan never decreases the reported max
    g = GridSpec(n=1, L=8, origin=(0.0,), side=8.0)
    k = bilinear_odd_kernel()
    small = SamplePlan(levels=(3,), pair_depth=2, max_pairs=4)
    big = SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=4)
    bigger = SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=8)
    a = hormander_constant(k, g, 2.0, small).value
    b = hormander_constant(k, g, 2.0, big).value
    c = hormander_constant(k, g, 2.0, bigger).value
    assert a <= b <= c
    ha = h2_constant(k, g, 2.0, 1.0, small).value
    hb = h2_constant(k, g, 2.0, 1.0, big).value
    assert ha <= hb


def test_explicit_pair_skip_counting():
    g = GridSpec(n=1, L=6, origin=(0.0,), side=8.0)
    k = bilinear_odd_kernel()
    # off the cell-center lattice, so no quadrature node sits on the
    # singular set and the only skip is the degenerate x == z pair
    x = np.array([3.03])
    plan = SamplePlan(cubes=((np.array([3.0]), 1.0),) * 2, pairs=((x, x), (x, x + 0.11)))
    rep = hormander_constant(k, g, 1.0, plan)
    assert rep.skipped == 1
    assert rep.value > 0


def test_on_lattice_diagonal_hits_are_skipped():
    g = GridSpec(n=1, L=6, origin=(0.0,), side=8.0)
    k = bilinear_odd_kernel()
    x = np.array([3.0625])  # exact cell center
    plan = SamplePlan(cubes=((np.array([3.0]), 1.0),), pairs=((x, x + 0.125),))
    rep = hormander_constant(k, g, 1.0, plan)
    # product annuli contain tuples with one slot equal to x or z
    assert rep.skipped > 0
    assert rep.value > 0 and np.isfinite(rep.value)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan()
    with pytest.raises(ValueError):
        SamplePlan(levels=(1,), cubes=((np.zeros(1), 1.0),), pairs=((np.zeros(1), np.ones(1)),))
    with pytest.raises(ValueError):
        SamplePlan(levels=())
    with pytest.raises(ValueError):
        SamplePlan(cubes=((np.zeros(1), 1.0),), pairs=())
    plan = SamplePlan(levels=(1, 2), pair_depth=2, max_pairs=6)
    back = SamplePlan.from_json_dict(json.loads(json.dumps(plan.to_json_dict())))
    assert back.levels == plan.levels and back.max_pairs == plan.max_pairs


def test_mpt_refinement_agreement():
    # the L=10 vs L=11 estimates of K_r for the boundary-log kernel agree to 5%
    k = mpt_kernel(beta=1.0, r=2.0)
    plan = SamplePlan(levels=(2, 3, 4, 5), pair_depth=2, max_pairs=6)
    vals = []
    for L in (10, 11):
        g = GridSpec(n=1, L=L, origin=(0.0,), side=8.0)
        rep = hormander_constant(k, g, 2.0, plan)
        assert rep.skipped == 0
        vals.append(rep.value)
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


def test_mpt_h2_stability():
    k = mpt_kernel(beta=1.0, r=2.0)
    plan = SamplePlan(levels=(2, 3, 4), pair_depth=2, max_pairs=6)
    vals = []
    for L in (10, 11):
        g = GridSpec(n=1, L=L, origin=(0.0,), side=8.0)
        vals.append(h2_constant(k, g, 2.0, 1.0, plan).value)
    assert np.isfinite(vals).all()
    assert max(vals) / min(vals) < 2.0


def test_dini_synthetic_k1_comparison():
    # K_1 <= c * dini_norm with the recorded dimensional constant c,
    # stable to +-50% across two resolutions
    w = Modulus(kind="power", c=1.0, eps=0.7)
    dn = dini_norm(w)
    plan = SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=4)
    for m in (1, 2):
        k = dini_synthetic_kernel(w, m)
        ratios = []
        for L in (8, 9):
            g = GridSpec(n=1, L=L, origin=(0.0,), side=8.0)
            rep = hormander_constant(k, g, 1.0, plan)
            ratios.append(rep.value / dn)
        c = DINI_K1_RATIO[m]
        for ratio in ratios:
            assert 0.5 * c <= ratio <= 1.5 * c


def test_dini_synthetic_per_scale_decay():
    # past k > log2(1 + 4 sqrt(n)) = 2.32... the annulus terms decay
    plan = SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=4)
    for kind, eps in (("power", 0.7), ("log", 1.0)):
        w = Modulus(kind=kind, c=1.0, eps=eps)
        for m in (1, 2):
            k = dini_synthetic_kernel(w, m)
            g = GridSpec(n=1, L=8, origin=(0.0,), side=8.0)
            rep = hormander_constant(k, g, 1.0, plan)
            terms = rep.terms
            assert len(terms) >= 4
            for i in range(2, len(terms) - 1):
                assert terms[i + 1] <= terms[i]


def test_truncated_sequence_separation_trend():
    # small-scale preview of the separation experiment: K_r flat, h2 growing
    g = GridSpec(n=1, L=11, origin=(0.0,), side=8.0)
    krs, h2s = [], []
    for ell in (2, 3):
        k = mpt_truncated_kernel(1.0, 2.0, ell)
        plan = SamplePlan(levels=(ell + 2, ell + 3, ell + 4), pair_depth=2, max_pairs=4)
        krs.append(hormander_constant(k, g, 2.0, plan).value)
        h2s.append(h2_constant(k, g, 2.0, 1.0, plan).value)
    assert max(krs) / min(krs) < 2.0
    assert h2s[1] > h2s[0]
