import numpy as np
import pytest

from sdom.bank import single_input
from sdom.builder import (
    adaptive_threshold,
    build_sparse_family,
    cz_select,
    domination_constant,
)
from sdom.grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_flat_indices,
    local_average,
    triple_cube,
)
from sdom.kernels import bilinear_odd_kernel, mpt_kernel, zero_kernel
from sdom.maximal import local_grand_maximal
from sdom.operators import OperatorSpec, apply_on_cells
from sdom.parallel import set_thread_count
from sdom.sparse import verify_witness_sparsity

from fake_kernels import fake_kernel
from reference_maximal import apply_truncated


def _one(x, y):
    return np.ones(y.shape[:-1])


def test_adaptive_threshold_hand_values():
    # 16 cells in n = 1: budget 16 / 8 = 2, threshold is the 3rd largest
    vals = np.arange(1.0, 17.0)
    assert adaptive_threshold(vals, 1) == 14.0
    # n = 2 halves the budget: 16 / 16 = 1, so the 2nd largest
    assert adaptive_threshold(vals, 2) == 15.0
    const = np.full(32, 2.5)
    assert adaptive_threshold(const, 1) == 2.5
    # nodes below 2^{n+2} cells get an empty exceptional set
    assert adaptive_threshold(np.array([5.0, 1.0]), 1) == 5.0
    with pytest.raises(ValueError):
        adaptive_threshold(np.array([]), 1)
    with pytest.raises(ValueError):
        adaptive_threshold(np.array([-1.0]), 1)
    with pytest.raises(ValueError):
        adaptive_threshold(np.array([np.inf]), 1)


def test_cz_select_single_cell():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    root = DyadicCube(0, (0,))
    out = cz_select(g, root, [0])
    # share at [0, 1/2) is exactly the density 1/4: not strictly above,
    # so descent continues to the 2-cell cube
    assert out == [DyadicCube(2, (0,))]
    covered = set()
    for q in out:
        covered |= set(cube_flat_indices(g, q).tolist())
    assert {0} <= covered


def test_cz_select_two_far_cells():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    root = DyadicCube(0, (0,))
    out = cz_select(g, root, [0, 15])
    assert out == [DyadicCube(3, (0,)), DyadicCube(3, (7,))]
    cells = [set(cube_flat_indices(g, q).tolist()) for q in out]
    assert cells[0] & cells[1] == set()


def test_cz_select_density_bounds():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    root = DyadicCube(0, (0,))
    for q in cz_select(g, root, [3, 11]):
        e_in = len({3, 11} & set(cube_flat_indices(g, q).tolist()))
        total = cube_flat_indices(g, q).size
        assert e_in * 4 > total  # strictly above lambda = 1/4
        assert 2 * e_in <= total  # never above 1/2 (parent was not selected)


def test_cz_select_preconditions():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    root = DyadicCube(0, (0,))
    child = DyadicCube(1, (0,))
    assert cz_select(g, root, []) == []
    assert cz_select(g, DyadicCube(3, (2,)), []) == []
    with pytest.raises(ValueError):
        cz_select(g, child, [7])  # outside the node
    with pytest.raises(ValueError):
        cz_select(g, root, [0, 7])  # budget is 1 cell at 8 cells


def test_build_zero_input_gives_empty_family():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    root = DyadicCube(2, (1,))
    zero = GridFunction(g, np.zeros(g.num_cells))
    family, stats, _ = build_sparse_family(op, (zero, zero), root, 1.0)
    assert family.entries == ()
    assert stats == []
    rep = verify_witness_sparsity(family)
    assert rep.ok and rep.worst_ratio == 1.0


def test_build_zero_kernel_indicator_single_entry():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    op = OperatorSpec(zero_kernel(2), g)
    root = DyadicCube(2, (1,))
    idx = cube_flat_indices(g, root)
    v = np.zeros(g.num_cells)
    v[idx] = 1.0
    f = GridFunction(g, v)
    family, stats, _ = build_sparse_family(op, (f, f), root, 2.0)
    assert len(family.entries) == 1
    e = family.entries[0]
    assert e.cube == root
    assert e.witness == tuple(idx.tolist())
    # normalization is the product of 2-averages over the tripled root:
    # (|Q0| / |3 Q0|)^{1/2} per slot
    assert stats[0].scale == pytest.approx(3.0 ** (-2.0 / 2.0), rel=1e-14)
    assert e.tau == pytest.approx(3.0, rel=1e-14)
    assert stats[0].e_count == 0 and stats[0].selected_count == 0
    assert verify_witness_sparsity(family).ok


def test_build_validation():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    f = GridFunction(g, np.ones(g.num_cells))
    with pytest.raises(ValueError):
        build_sparse_family(op, (f, f), DyadicCube(0, (0,)), 1.0)  # 3Q0 clipped
    root = DyadicCube(2, (1,))
    with pytest.raises(ValueError):
        build_sparse_family(op, (f, f), root, 1.0)  # support leaks outside
    v = np.zeros(g.num_cells)
    v[cube_flat_indices(g, root)] = 1.0
    g_f = GridFunction(g, v)
    with pytest.raises(ValueError):
        build_sparse_family(op, (g_f, g_f), root, 0.5)
    with pytest.raises(TypeError):
        build_sparse_family(op, (g_f, g_f), "root", 1.0)


def test_build_generic_invariants():
    g = GridSpec(n=1, L=8, origin=(0.0,), side=8.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    root = DyadicCube(2, (1,))
    fs = single_input(g, 2, "gauss", seed=7, entry=0, support=root)
    family, stats, _ = build_sparse_family(op, fs, root, 1.0)
    assert len(family.entries) >= 2
    assert len({e.cube.level for e in family.entries}) >= 2
    assert family.gamma == 0.5
    rep = verify_witness_sparsity(family)
    assert rep.ok
    keys = [e.cube.sort_key() for e in family.entries]
    assert keys == sorted(keys)
    assert len(stats) == len(family.entries)
    for st in stats:
        node = cube_flat_indices(g, st.cube).size
        assert st.sum_pj_ratio <= 0.5
        assert st.e_count * 8 <= node
        assert st.tau >= 0.0
        assert st.witness_count >= node - node // 2


def test_build_deterministic_across_threads():
    g = GridSpec(n=1, L=7, origin=(0.0,), side=8.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    root = DyadicCube(2, (1,))
    fs = single_input(g, 2, "gauss", seed=3, entry=1, support=root)
    try:
        set_thread_count(1)
        fam1, _, _ = build_sparse_family(op, fs, root, 1.0)
        set_thread_count(4)
        fam2, _, _ = build_sparse_family(op, fs, root, 1.0)
    finally:
        set_thread_count(1)
    assert fam1.to_json() == fam2.to_json()


# The localisation lemma bounds |T(f chi_3Q0)| on a node Q0 by the input
# product plus the localized grand maximal gap; these tests check its
# two sides, the truncated operator and the gap, on hand examples.


def test_lemma_zero_kernel():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(zero_kernel(1), g)
    f = GridFunction(g, np.ones(g.num_cells))
    q0 = DyadicCube(2, (1,))
    assert np.array_equal(apply_truncated(op, (f,), q0).values, np.zeros(g.num_cells))
    assert np.array_equal(local_grand_maximal(op, (f,), q0)[0].values, np.zeros(g.num_cells))


def test_lemma_far_spike_is_absorbed_by_the_gap():
    # input far outside the node: the truncated operator is matched by a
    # single-cell competitor, so the gap eats everything and no flag trips
    g = GridSpec(n=1, L=6, origin=(0.0,), side=14.0)
    op = OperatorSpec(mpt_kernel(1.0, 2.0), g)
    v = np.zeros(g.num_cells)
    v[2] = 1.0
    f = GridFunction(g, v)
    q0 = DyadicCube(2, (1,))
    idx = cube_flat_indices(g, q0)
    assert np.all(f.values[idx] == 0.0)  # no input mass on the node itself
    tq = np.abs(apply_truncated(op, (f,), q0).values[idx])
    assert np.any(tq > 0.0)  # the node does see the spike
    gap = local_grand_maximal(op, (f,), q0)[0].values[idx]
    assert np.all(np.maximum(tq - gap, 0.0) <= 1e-12 * np.max(tq))


def test_lemma_single_cell_direct_value(monkeypatch):
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    k = fake_kernel(monkeypatch, 1, _one)
    op = OperatorSpec(k, g)
    v = np.zeros(g.num_cells)
    v[3], v[4], v[5] = 1.0, 0.5, 2.0
    f = GridFunction(g, v)
    q0 = DyadicCube(3, (4,))  # the single cell carrying 0.5
    # T over the tripled cell sums the two neighbors: (1 + 2) * h = 3/8
    assert apply_truncated(op, (f,), q0).values[4] == 3.0 / 8.0
    # a single-cell node has no competitor, so its gap is zero
    assert np.array_equal(local_grand_maximal(op, (f,), q0)[0].values, np.zeros(g.num_cells))


def test_domination_hand_example(monkeypatch):
    g = GridSpec(n=1, L=6, origin=(0.0,), side=1.0)
    k = fake_kernel(monkeypatch, 1, _one)
    op = OperatorSpec(k, g)
    root = DyadicCube(2, (1,))
    idx = cube_flat_indices(g, root)
    v = np.zeros(g.num_cells)
    v[idx] = 1.0
    f = GridFunction(g, v)
    family, _, _ = build_sparse_family(OperatorSpec(zero_kernel(1), g), (f,), root, 1.0)
    assert len(family.entries) == 1
    rep = domination_constant(op, (f,), family, 1.0, apply_on_cells(op, (f,), idx))
    # T f = (|root cells| - 1) h on root cells, the sparse form is 1 there
    assert rep.c_emp == pytest.approx(15.0 / 64.0, rel=1e-14)
    assert rep.argmax_cell in idx.tolist()
    assert not rep.support_flag


def test_domination_zero_operator():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(zero_kernel(1), g)
    root = DyadicCube(2, (1,))
    idx = cube_flat_indices(g, root)
    v = np.zeros(g.num_cells)
    v[idx] = 1.0
    f = GridFunction(g, v)
    family, _, _ = build_sparse_family(op, (f,), root, 1.0)
    rep = domination_constant(op, (f,), family, 1.0, apply_on_cells(op, (f,), idx))
    assert rep.c_emp == 0.0
    assert not rep.support_flag


def test_domination_support_flag(monkeypatch):
    from sdom.sparse import SparseEntry, SparseFamily

    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    k = fake_kernel(monkeypatch, 1, _one)
    op = OperatorSpec(k, g)
    root = DyadicCube(2, (1,))
    idx = cube_flat_indices(g, root)
    v = np.zeros(g.num_cells)
    v[idx] = 1.0
    f = GridFunction(g, v)
    child = DyadicCube(3, (2,))
    family = SparseFamily(
        g, root, 0.5, (SparseEntry(child, tuple(cube_flat_indices(g, child).tolist()), 0.0),)
    )
    rep = domination_constant(op, (f,), family, 1.0, apply_on_cells(op, (f,), idx))
    assert rep.support_flag
