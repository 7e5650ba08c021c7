import numpy as np
import pytest

from sdom.grid import DyadicCube, GridCube, GridFunction, GridSpec, cube_flat_indices
from sdom.kernels import Modulus, bilinear_odd_kernel, dini_synthetic_kernel, mpt_kernel, zero_kernel
from sdom.maximal import (
    ALL_GRID_CUBES,
    DYADIC,
    CubeFamilyMode,
    best_of_shifted,
    family_boxes,
    grand_maximal,
    local_grand_maximal,
    MTBoundReport,
    m_delta,
    mt_pointwise_bound_check,
    multilinear_maximal,
    shifted_modes,
)
from sdom.operators import OperatorSpec, apply

from fake_kernels import fake_kernel
from reference_maximal import apply_truncated, family_boxes as reference_family_boxes


def brute_boxes_1d(num_cells, mode):
    if mode == "all":
        for s in range(1, num_cells + 1):
            for a in range(num_cells - s + 1):
                yield a, a + s
    else:
        w = num_cells
        while w >= 1:
            for a in range(0, num_cells, w):
                yield a, a + w
            w //= 2


def brute_sup_1d(values, num_cells, mode, score):
    out = np.zeros(num_cells)
    for a, b in brute_boxes_1d(num_cells, mode):
        out[a:b] = np.maximum(out[a:b], score(values[a:b]))
    return out


def test_mode_validation_and_parse():
    with pytest.raises(ValueError):
        CubeFamilyMode("diag")
    with pytest.raises(ValueError):
        CubeFamilyMode("shifted", (0,))
    with pytest.raises(ValueError):
        CubeFamilyMode("shifted", (3,))
    with pytest.raises(ValueError):
        CubeFamilyMode("dyadic", (1,))
    m = CubeFamilyMode.parse("shifted:1,2")
    assert m.shifts == (1, 2)
    assert CubeFamilyMode.parse("dyadic") == DYADIC
    assert len(shifted_modes(1)) == 2
    assert len(shifted_modes(2)) == 8


def test_family_boxes_counts():
    g = GridSpec(n=1, L=2, origin=(0.0,), side=1.0)
    assert [len(lo) for lo, _ in family_boxes(g, ALL_GRID_CUBES)] == [4, 3, 2, 1]
    assert [len(lo) for lo, _ in family_boxes(g, DYADIC)] == [1, 2, 4]
    q = DyadicCube(1, (0,))
    inside = [(lo.tolist(), hi.tolist()) for lo, hi in family_boxes(g, DYADIC, within=q)]
    assert inside == [([[0]], [[2]]), ([[0], [1]], [[1], [2]])]
    # the all-cubes corners, sliced from one array of side-1 corners, against the per-cube reference
    g9 = GridSpec(n=1, L=9, origin=(0.0,), side=1.0)
    g4 = GridSpec(n=2, L=4, origin=(0.0, 0.0), side=1.0)
    for grid, within, sides in (
        (g9, None, 512),
        (g4, DyadicCube(2, (1, 2)), 4),  # cells [4, 8) x [8, 12)
        (g4, GridCube((3, 5), (6, 4)), 4),  # a rectangle: sides up to its shorter extent
    ):
        blocks = list(family_boxes(grid, ALL_GRID_CUBES, within))
        assert [int(hi[0, 0] - lo[0, 0]) for lo, hi in blocks] == list(range(1, sides + 1))
        got = [(tuple(a), tuple(b)) for lo, hi in blocks for a, b in zip(lo.tolist(), hi.tolist())]
        assert got == list(reference_family_boxes(grid, ALL_GRID_CUBES, within))


def test_ones_give_one_everywhere():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    f = GridFunction(g, np.ones(g.num_cells))
    for mode in [DYADIC, ALL_GRID_CUBES] + shifted_modes(1):
        out = multilinear_maximal((f, f), mode)
        assert np.array_equal(out.values, np.ones(g.num_cells))


def test_multilinear_matches_brute_force():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    rng = np.random.default_rng(4)
    f1 = GridFunction(g, rng.normal(size=g.num_cells))
    f2 = GridFunction(g, rng.normal(size=g.num_cells))
    for mode, name in ((DYADIC, "dyadic"), (ALL_GRID_CUBES, "all")):
        got = multilinear_maximal((f1, f2), mode).values
        want = np.zeros(g.num_cells)
        for a, b in brute_boxes_1d(g.num_cells, name):
            sc = np.mean(np.abs(f1.values[a:b])) * np.mean(np.abs(f2.values[a:b]))
            want[a:b] = np.maximum(want[a:b], sc)
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_multilinear_matches_brute_force_2d():
    g = GridSpec(n=2, L=2, origin=(0.0, 0.0), side=1.0)
    rng = np.random.default_rng(5)
    s = g.cells_per_side
    vals = rng.normal(size=g.num_cells)
    f = GridFunction(g, vals)
    got = multilinear_maximal((f,), ALL_GRID_CUBES).values.reshape(s, s)
    arr = np.abs(vals).reshape(s, s)
    want = np.zeros((s, s))
    for w in range(1, s + 1):
        for i in range(s - w + 1):
            for j in range(s - w + 1):
                sc = np.mean(arr[i : i + w, j : j + w])
                want[i : i + w, j : j + w] = np.maximum(want[i : i + w, j : j + w], sc)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_m_delta_properties():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.normal(size=g.num_cells))
    # delta = 1 is literally the one-slot average maximal
    assert np.array_equal(m_delta(f, 1.0, DYADIC).values, multilinear_maximal((f,), DYADIC).values)
    const = GridFunction(g, np.full(g.num_cells, -2.5))
    assert np.allclose(m_delta(const, 0.5, ALL_GRID_CUBES).values, 2.5, rtol=1e-12)
    # power means increase with the exponent
    lo = m_delta(f, 0.5, DYADIC).values
    hi = m_delta(f, 2.0, DYADIC).values
    assert np.all(lo <= hi * (1.0 + 1e-12))
    with pytest.raises(ValueError):
        m_delta(f, 0.0)
    with pytest.raises(ValueError):
        m_delta(f, float("inf"))


def test_mode_monotonicity_exact():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=1.0)
    rng = np.random.default_rng(7)
    f1 = GridFunction(g, rng.normal(size=g.num_cells))
    f2 = GridFunction(g, rng.normal(size=g.num_cells))
    allv = multilinear_maximal((f1, f2), ALL_GRID_CUBES).values
    assert np.all(multilinear_maximal((f1, f2), DYADIC).values <= allv)
    for mode in shifted_modes(1):
        assert np.all(multilinear_maximal((f1, f2), mode).values <= allv)


def test_all_cubes_within_covering_factor_of_shifted():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=1.0)
    rng = np.random.default_rng(8)
    f = GridFunction(g, rng.normal(size=g.num_cells))
    allv = multilinear_maximal((f,), ALL_GRID_CUBES).values
    best = best_of_shifted(lambda mode: multilinear_maximal((f,), mode), g).values
    assert np.all(allv <= 6.0 * best * (1.0 + 1e-12))


def test_outputs_nonnegative():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.normal(size=g.num_cells))
    assert np.all(multilinear_maximal((f,), DYADIC).values >= 0)
    assert np.all(m_delta(f, 2.0, DYADIC).values >= 0)


def test_grand_maximal_matches_direct_truncations():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    rng = np.random.default_rng(10)
    fs = (
        GridFunction(g, rng.normal(size=g.num_cells)),
        GridFunction(g, rng.normal(size=g.num_cells)),
    )
    got = grand_maximal(op, fs, DYADIC).values
    t_full = apply(op, fs).values
    want = np.zeros(g.num_cells)
    for lev in range(g.L + 1):
        for i in range(1 << lev):
            q = DyadicCube(lev, (i,))
            xs = cube_flat_indices(g, q)
            t_q = apply_truncated(op, fs, q).values
            sc = np.max(np.abs(t_full[xs] - t_q[xs]))
            want[xs] = np.maximum(want[xs], sc)
    assert np.array_equal(got, want)


def test_local_grand_maximal_matches_direct():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    rng = np.random.default_rng(11)
    fs = (
        GridFunction(g, rng.normal(size=g.num_cells)),
        GridFunction(g, rng.normal(size=g.num_cells)),
    )
    q0 = DyadicCube(1, (0,))
    got = local_grand_maximal(op, fs, q0, DYADIC)[0].values
    x0 = cube_flat_indices(g, q0)
    ref = apply_truncated(op, fs, q0).values
    want = np.zeros(g.num_cells)
    for lev in range(1, g.L + 1):
        for i in range(1 << lev):
            q = DyadicCube(lev, (i,))
            if not q0.contains(q):
                continue
            xs = cube_flat_indices(g, q)
            t_q = apply_truncated(op, fs, q).values
            sc = np.max(np.abs(ref[xs] - t_q[xs]))
            want[xs] = np.maximum(want[xs], sc)
    assert np.array_equal(got, want)
    assert np.all(got[~np.isin(np.arange(g.num_cells), x0)] == 0.0)


def test_local_grand_single_cell_is_zero():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=14.0)
    op = OperatorSpec(mpt_kernel(1.0, 2.0), g)
    f = GridFunction(g, np.ones(g.num_cells))
    q0 = DyadicCube(g.L, (5,))
    out = local_grand_maximal(op, (f,), q0, DYADIC)[0]
    assert np.array_equal(out.values, np.zeros(g.num_cells))


def test_mt_bound_zero_cases():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    f = GridFunction(g, np.ones(g.num_cells))
    rep = mt_pointwise_bound_check(OperatorSpec(zero_kernel(1), g), (f,), 1.0)
    assert rep.c_emp == 0.0 and not rep.infinite_flag
    zero = GridFunction(g, np.zeros(g.num_cells))
    op = OperatorSpec(zero_kernel(1), g)
    rep = mt_pointwise_bound_check(op, (zero,), 2.0)
    assert rep.c_emp == 0.0 and not rep.infinite_flag and rep.argmax_cell == -1
    with pytest.raises(ValueError):
        mt_pointwise_bound_check(op, (f,), 0.5)


def test_mt_bound_finite_on_generic_case():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=14.0)
    op = OperatorSpec(mpt_kernel(1.0, 2.0), g)
    rng = np.random.default_rng(12)
    f = GridFunction(g, np.abs(rng.normal(size=g.num_cells)) + 0.1)
    rep = mt_pointwise_bound_check(op, (f,), 2.0)
    assert np.isfinite(rep.c_emp) and rep.c_emp >= 0.0
    assert not rep.infinite_flag
    assert 0 <= rep.argmax_cell < g.num_cells


def _two_pass_bound_check(op, fs, r):
    """``mt_pointwise_bound_check`` with T f from a separate ``apply``,
    as it was computed before the grand maximal's reference was reused."""
    gap = grand_maximal(op, fs).values
    md = m_delta(apply(op, fs), r / 4.0).values
    denom = multilinear_maximal([GridFunction(op.grid, np.abs(f.values) ** r) for f in fs]).values ** (1.0 / r)
    num = np.maximum(gap - md, 0.0)
    pos = denom > 0.0
    flag = bool(np.any(~pos & (num > 0.0)))
    if not np.any(pos):
        return MTBoundReport(c_emp=0.0, infinite_flag=flag, argmax_cell=-1)
    ratios = np.where(pos, num / np.where(pos, denom, 1.0), 0.0)
    arg = int(np.argmax(ratios))
    return MTBoundReport(c_emp=float(ratios[arg]), infinite_flag=flag, argmax_cell=arg)


def _outcome(fn, *args):
    try:
        rep = fn(*args)
    except ArithmeticError as error:
        return type(error), str(error)
    return repr((rep.c_emp, rep.infinite_flag, rep.argmax_cell))


@pytest.mark.parametrize(
    "op, scale",
    [
        (OperatorSpec(bilinear_odd_kernel(), GridSpec(n=1, L=5, origin=(0.0,), side=8.0)), 1.0),
        (OperatorSpec(dini_synthetic_kernel(Modulus("log", 1.5, 0.4), 2), GridSpec(n=2, L=3, origin=(0.0, 0.0), side=8.0)), 1.0),
        (OperatorSpec(mpt_kernel(1.0, 2.0), GridSpec(n=1, L=5, origin=(0.0,), side=14.0)), 1.0),
        # T f overflows: both forms refuse it with the same error
        (OperatorSpec(bilinear_odd_kernel(), GridSpec(n=1, L=4, origin=(0.0,), side=8.0)), 1e200),
    ],
    ids=["bilinear_odd", "dini_m2_n2", "mpt", "overflow"],
)
def test_mt_bound_reads_t_f_off_the_grand_maximal(op, scale):
    rng = np.random.default_rng(7)
    fs = tuple(GridFunction(op.grid, scale * rng.normal(size=op.grid.num_cells)) for _ in range(op.kernel.m))
    for r in (1.0, 2.0):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _outcome(mt_pointwise_bound_check, op, fs, r) == _outcome(_two_pass_bound_check, op, fs, r)


def test_local_pass_names_the_first_cell_whose_reference_is_not_finite():
    # the L = 4 build root of cells 4-7 with both inputs 1 there but 1e200
    # at cell 7: every row meets the product 1e400 at (7, 7), so T f is
    # -inf on cells 4-6 (and NaN on 7, where that tuple is singular), and
    # the first cell whose own reference is not finite is cell 4
    grid = GridSpec(n=1, L=4, origin=(0.0,), side=16.0)
    root = DyadicCube(2, (1,))
    v = np.zeros(grid.num_cells)
    v[cube_flat_indices(grid, root)] = 1.0
    v[7] = 1e200
    fs = (GridFunction(grid, v), GridFunction(grid, v.copy()))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="^truncation gap is not finite at cell 4$"):
            local_grand_maximal(OperatorSpec(bilinear_odd_kernel(), grid), fs, root)


def test_local_pass_names_the_cell_whose_own_reference_overflows(monkeypatch):
    # only cell 7's row overflows: its reference is inf and cells 4-6 keep
    # finite ones, while the gap of the root cube, inf - inf, is NaN on
    # every cell of it, so the first non-finite gap would be cell 4's
    grid = GridSpec(n=1, L=4, origin=(0.0,), side=16.0)
    root = DyadicCube(2, (1,))
    kernel = fake_kernel(monkeypatch, 1, lambda x, y: np.full(y.shape[:-1], 1e300 if 7 < x[0] < 8 else 1.0))
    v = np.zeros(grid.num_cells)
    v[cube_flat_indices(grid, root)] = 1e10
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="^truncation gap is not finite at cell 7$"):
            local_grand_maximal(OperatorSpec(kernel, grid), (GridFunction(grid, v),), root)
