"""End-to-end acceptance checks.

Each test pins one advertised guarantee of the package at its stated
tolerance and prints a single PASS line with the measured numbers; a
failed assertion is the FAIL line.  The shared kernel/input suite
(``acceptance_suite.cases``) is built once and reused by the sparsity, domination, and maximal-bound
checks.
"""

import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from sdom import cli
from sdom.bank import BankSpec, make_bank
from sdom.builder import build_sparse_family, cz_select, domination_constant
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices
from sdom.kernels import (
    Modulus,
    SamplePlan,
    dini_norm,
    h2_constant,
    hormander_constant,
    mpt_kernel,
    mpt_truncated_kernel,
    regularity,
    x_independent_kernel,
)
from sdom.maximal import (
    ALL_GRID_CUBES,
    DYADIC,
    best_of_shifted,
    mt_pointwise_bound_check,
    multilinear_maximal,
)
from sdom.operators import OperatorSpec
from sdom.parallel import set_thread_count
from sdom.sparse import verify_witness_sparsity
from sdom.weights import (
    WeightTuple,
    power_weight,
    vec_ap_characteristic,
    weighted_norm_ratio,
)

from acceptance_suite import cases, trend_correlation

CZ_TRIALS = 100
CZ_GRIDS = ((1, 10), (2, 6))
CZ_TIME_LIMIT = 10.0

SUITE_MIN_CASES = 12
GAMMA = 0.5

STABILITY_WINDOW = (0.25, 4.0)
DOMINATION_TIME_LIMIT = 300.0

COVER_TRIALS = 50
COVER_L = 6

DINI_TOL = 1e-5
MPT_REL_TOL = 0.05

SEPARATION_ELLS = (2, 3, 4, 5)
SEPARATION_KR_FACTOR = 2.0
SEPARATION_H2_RATIO = 1.3
SEPARATION_TIME_LIMIT = 600.0

WEIGHT_SCALE_RTOL = 1e-12
WEIGHT_LOWER_SLACK = 1e-10
WEIGHT_TRIALS = 50
SPEARMAN_MIN = 0.5


STABILITY_CASES = ("bilin-bumps-L6", "bilin-bumps-L7")


def _grid(n, L, side):
    return GridSpec(n=n, L=L, origin=(0.0,) * n, side=side)


@lru_cache(maxsize=1)
def built_suite():
    out = []
    for case in cases():
        family, stats, tf_root = build_sparse_family(case.operator, case.inputs, case.root, case.r)
        out.append((case, family, stats, tf_root))
    return tuple(out)


def test_criterion_1_cz_postconditions_exact():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    for n, L in CZ_GRIDS:
        grid = _grid(n, L, 8.0)
        root = DyadicCube(0, (0,) * n)
        total = 2 ** (n * L)
        cap = total >> (n + 2)
        for _ in range(CZ_TRIALS):
            k = int(rng.integers(1, cap + 1))
            e_cells = tuple(sorted(int(v) for v in rng.choice(total, size=k, replace=False)))
            eset = set(e_cells)
            seen = set()
            covered = set()
            for p in cz_select(grid, root, e_cells):
                cells = set(int(c) for c in cube_flat_indices(grid, p))
                assert not (cells & seen)
                seen |= cells
                inter = len(cells & eset)
                assert inter * 2 ** (n + 1) >= len(cells)
                assert 2 * inter <= len(cells)
                covered |= cells & eset
            assert covered == eset
    elapsed = time.monotonic() - t0
    assert elapsed < CZ_TIME_LIMIT
    print(f"criterion 1: PASS ({CZ_TRIALS} trials per grid, {elapsed:.2f}s)")


def test_criterion_2_half_sparseness_exact():
    assert len(built_suite()) >= SUITE_MIN_CASES
    for case, family, stats, _ in built_suite():
        assert family.gamma == GAMMA, case.name
        rep = verify_witness_sparsity(family)
        assert rep.ok, case.name
        for st in stats:
            assert st.sum_pj_ratio <= 0.5, case.name
    print(f"criterion 2: PASS ({len(built_suite())} cases, gamma={GAMMA})")


def test_criterion_3_domination_and_stability():
    t0 = time.monotonic()
    doms = {}
    for case, family, _, tf_root in built_suite():
        dom = domination_constant(case.operator, case.inputs, family, case.r, tf_root)
        assert math.isfinite(dom.c_emp), case.name
        assert not dom.support_flag, case.name
        doms[case.name] = dom.c_emp
    assert doms[STABILITY_CASES[0]] > 0.0
    ratio = doms[STABILITY_CASES[1]] / doms[STABILITY_CASES[0]]
    assert STABILITY_WINDOW[0] <= ratio <= STABILITY_WINDOW[1]
    elapsed = time.monotonic() - t0
    assert elapsed < DOMINATION_TIME_LIMIT
    print(f"criterion 3: PASS (stability ratio {ratio:.3f}, {elapsed:.1f}s)")


def test_criterion_4_mode_oracle_inequalities():
    grid = _grid(1, COVER_L, 8.0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(COVER_TRIALS):
        m = 1 + trial % 2
        fs = tuple(GridFunction(grid, rng.standard_normal(grid.cells_per_side)) for _ in range(m))
        dy = multilinear_maximal(fs, DYADIC).values
        al = multilinear_maximal(fs, ALL_GRID_CUBES).values
        assert np.all(dy <= al)
        best = best_of_shifted(lambda mode: multilinear_maximal(fs, mode), grid).values
        cap = 6.0 ** m
        assert np.all(al <= cap * best)
        with np.errstate(invalid="ignore"):
            worst = max(worst, float(np.nanmax(np.where(best > 0, al / np.where(best > 0, best, 1.0), 0.0))))
    print(f"criterion 4: PASS ({COVER_TRIALS} inputs, worst all/best factor {worst:.3f})")


def test_criterion_5_kernel_functionals():
    plan = SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=4)
    g = _grid(1, 5, 8.0)
    for m in (1, 2):
        kr = hormander_constant(x_independent_kernel(m), g, 1.0, plan)
        h2 = h2_constant(x_independent_kernel(m), g, 1.0, 1.5, plan)
        assert kr.value == 0.0
        assert h2.value == 0.0

    d1 = dini_norm(Modulus("power", c=1.0, eps=1.0))
    d2 = dini_norm(Modulus("power", c=1.0, eps=0.5))
    assert abs(d1 - 1.0) <= DINI_TOL
    assert abs(d2 - 2.0) <= DINI_TOL

    plan_mpt = SamplePlan(levels=(2, 3, 4), pair_depth=2, max_pairs=6)
    vals = {}
    for L in (10, 11):
        vals[L] = hormander_constant(mpt_kernel(1.0, 2.0), _grid(1, L, 8.0), 2.0, plan_mpt).value
    rel = abs(vals[11] - vals[10]) / vals[10]
    assert rel <= MPT_REL_TOL
    print(f"criterion 5: PASS (dini errors {abs(d1 - 1.0):.1e}/{abs(d2 - 2.0):.1e}, resolution drift {rel:.3%})")


def test_criterion_6_truncation_separation():
    t0 = time.monotonic()
    grid = _grid(1, 13, 8.0)
    kr_vals = []
    h2_vals = []
    for ell in SEPARATION_ELLS:
        kernel = mpt_truncated_kernel(1.0, 2.0, ell)
        plan = SamplePlan(levels=(ell + 2, ell + 3, ell + 4), pair_depth=2, max_pairs=6)
        kr, h2 = regularity(kernel, grid, 2.0, 1.0, plan)  # both from one pass of shell tables
        kr_vals.append(kr.value)
        h2_vals.append(h2.value)
    assert max(kr_vals) <= SEPARATION_KR_FACTOR * min(kr_vals)
    ratios = [h2_vals[i + 1] / h2_vals[i] for i in range(len(h2_vals) - 1)]
    for rho in ratios:
        assert rho >= SEPARATION_H2_RATIO
    elapsed = time.monotonic() - t0
    assert elapsed < SEPARATION_TIME_LIMIT
    print(
        "criterion 6: PASS (kr spread {:.3f}, h2 ratios {}, {:.0f}s)".format(
            max(kr_vals) / min(kr_vals), [f"{x:.3f}" for x in ratios], elapsed
        )
    )


def test_criterion_7_maximal_truncation_bound():
    vals = {}
    for case in cases():
        rep = mt_pointwise_bound_check(case.operator, case.inputs, case.r)
        assert math.isfinite(rep.c_emp), case.name
        assert not rep.infinite_flag, case.name
        vals[case.name] = rep.c_emp
    assert vals[STABILITY_CASES[0]] > 0.0
    ratio = vals[STABILITY_CASES[1]] / vals[STABILITY_CASES[0]]
    assert STABILITY_WINDOW[0] <= ratio <= STABILITY_WINDOW[1]
    print(f"criterion 7: PASS ({len(vals)} cases, stability ratio {ratio:.3f})")


def test_criterion_8_weight_lab():
    g = _grid(1, 4, 8.0)
    cells = g.cells_per_side
    ones = GridFunction(g, np.ones(cells))
    assert vec_ap_characteristic(WeightTuple((ones,), (2.0,), 1.0)) == 1.0
    assert vec_ap_characteristic(WeightTuple((ones, ones), (3.0, 4.0), 1.0)) == 1.0

    rng = np.random.default_rng(8)
    for trial in range(WEIGHT_TRIALS):
        m = 1 + trial % 2
        expos = (2.0,) if m == 1 else (3.0, 4.0)
        ws = tuple(GridFunction(g, np.exp(rng.normal(0.0, 1.5, cells))) for _ in range(m))
        char = vec_ap_characteristic(WeightTuple(ws, expos, 1.0))
        assert char >= 1.0 - WEIGHT_LOWER_SLACK
        scaled = tuple(
            GridFunction(g, c * w.values) for c, w in zip((1e-3, 1e4), ws)
        )
        char2 = vec_ap_characteristic(WeightTuple(scaled, expos, 1.0))
        assert abs(char2 - char) <= WEIGHT_SCALE_RTOL * char

    grid = _grid(1, 8, 14.0)
    op = OperatorSpec(mpt_kernel(1.0, 2.0), grid)
    bank = make_bank(grid, 1, BankSpec(shapes=("gauss",), count_per_shape=3, seed=2))
    chars = []
    maxes = []
    for a in (0.5, 1.0, 2.0, 3.0):
        wt = WeightTuple((power_weight(grid, a),), (2.0,), 1.0)
        rep = weighted_norm_ratio(op, wt, bank)
        chars.append(rep.characteristic)
        maxes.append(rep.max_ratio)
    rho = trend_correlation(chars, maxes)
    assert rho >= SPEARMAN_MIN
    print(f"criterion 8: PASS ({WEIGHT_TRIALS} random weights, trend correlation {rho:.2f})")


def test_criterion_9_thread_count_determinism(tmp_path):
    cfg = {
        "grid": {"n": 1, "L": 6, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "root": {"level": 2, "index": [1]},
        "r": 1.0,
        "inputs": {"kind": "bank", "shape": "gauss", "seed": 9, "entry": 0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    try:
        for command in ("build", "dominate"):
            blobs = []
            for threads in ("1", "2", "max"):
                out = tmp_path / f"{command}-{threads}"
                code = cli.main(
                    [command, "--config", str(cfg_path), "--out", str(out), "--threads", threads]
                )
                assert code == 0
                names = sorted(p.name for p in out.iterdir())
                blobs.append({n: (out / n).read_bytes() for n in names})
            assert blobs[0] == blobs[1] == blobs[2]
    finally:
        set_thread_count(1)
    print("criterion 9: PASS (build and dominate byte-identical at 1/2/max threads)")
