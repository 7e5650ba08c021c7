import dataclasses
import json

import numpy as np
import pytest

from sdom.grid import DyadicCube, GridFunction, GridSpec
from sdom.sparse import (
    SparseEntry,
    SparseFamily,
    carleson_sum,
    sparse_eval,
    verify_witness_sparsity,
)


def grid_l2():
    return GridSpec(n=1, L=2, origin=(0.0,), side=1.0)


def test_entry_validation():
    with pytest.raises(ValueError):
        SparseEntry(DyadicCube(0, (0,)), (2, 1), 0.0)
    with pytest.raises(ValueError):
        SparseFamily(grid_l2(), DyadicCube(0, (0,)), 0.0, ())
    with pytest.raises(ValueError):
        SparseFamily(grid_l2(), DyadicCube(0, (0,)), 1.5, ())
    with pytest.raises(TypeError):
        SparseFamily(grid_l2(), DyadicCube(0, (0,)), 0.5, ("nope",))


def test_full_witnesses_are_one_sparse():
    g = grid_l2()
    fam = SparseFamily(
        g,
        DyadicCube(0, (0,)),
        1.0,
        (
            SparseEntry(DyadicCube(1, (0,)), (0, 1), 0.0),
            SparseEntry(DyadicCube(1, (1,)), (2, 3), 0.0),
        ),
    )
    rep = verify_witness_sparsity(fam)
    assert rep.ok and rep.containment_ok and rep.disjoint_ok and rep.count_ok
    assert rep.worst_ratio == 1.0


def test_nested_chain_half_sparse():
    g = grid_l2()
    fam = SparseFamily(
        g,
        DyadicCube(0, (0,)),
        0.5,
        (
            SparseEntry(DyadicCube(0, (0,)), (2, 3), 1.0),
            SparseEntry(DyadicCube(1, (0,)), (0, 1), 2.0),
        ),
    )
    rep = verify_witness_sparsity(fam)
    assert rep.ok
    assert rep.worst_index == 0
    assert rep.worst_ratio == 0.5
    # the count clause is an exact integer comparison at gamma = 1/2
    assert not verify_witness_sparsity(dataclasses.replace(fam, gamma=0.75)).ok
    assert verify_witness_sparsity(dataclasses.replace(fam, gamma=0.25)).ok


def test_every_cube_to_depth_two_cannot_be_half_sparse():
    # the full dyadic tree on 4 cells needs 2+1+1+1+1+1+1 = 8 witness
    # cells but only 4 exist, so every candidate assignment fails
    g = grid_l2()
    cubes = [DyadicCube(0, (0,))]
    cubes += [DyadicCube(1, (i,)) for i in range(2)]
    cubes += [DyadicCube(2, (i,)) for i in range(4)]

    full = SparseFamily(
        g,
        DyadicCube(0, (0,)),
        0.5,
        tuple(
            SparseEntry(q, tuple(range(q.index[0] << (2 - q.level), (q.index[0] + 1) << (2 - q.level))), 0.0)
            for q in cubes
        ),
    )
    rep = verify_witness_sparsity(full)
    assert not rep.ok and not rep.disjoint_ok

    greedy = SparseFamily(
        g,
        DyadicCube(0, (0,)),
        0.5,
        (
            SparseEntry(DyadicCube(2, (0,)), (0,), 0.0),
            SparseEntry(DyadicCube(2, (1,)), (1,), 0.0),
            SparseEntry(DyadicCube(2, (2,)), (2,), 0.0),
            SparseEntry(DyadicCube(2, (3,)), (3,), 0.0),
            SparseEntry(DyadicCube(1, (0,)), (), 0.0),
            SparseEntry(DyadicCube(1, (1,)), (), 0.0),
            SparseEntry(DyadicCube(0, (0,)), (), 0.0),
        ),
    )
    rep = verify_witness_sparsity(greedy)
    assert not rep.ok and not rep.count_ok and rep.disjoint_ok


def test_carleson_sum_values():
    g = grid_l2()
    root = DyadicCube(0, (0,))
    assert carleson_sum(SparseFamily(g, root, 0.5, ())) == 0.0
    single = SparseFamily(g, root, 0.5, (SparseEntry(root, (0, 1), 0.0),))
    assert carleson_sum(single) == 1.0
    chain = SparseFamily(
        g,
        root,
        0.5,
        (
            SparseEntry(root, (2, 3), 0.0),
            SparseEntry(DyadicCube(1, (0,)), (1,), 0.0),
            SparseEntry(DyadicCube(2, (0,)), (0,), 0.0),
        ),
    )
    rep = verify_witness_sparsity(chain)
    assert rep.ok
    # (4 + 2 + 1) / 4, exact in binary floats
    assert carleson_sum(chain) == 1.75
    assert carleson_sum(chain) <= 1.0 / chain.gamma


def test_sparse_eval_hand_example():
    g = GridSpec(n=1, L=1, origin=(0.0,), side=1.0)
    root = DyadicCube(0, (0,))
    fam = SparseFamily(
        g,
        root,
        0.5,
        (
            SparseEntry(root, (1,), 0.0),
            SparseEntry(DyadicCube(1, (0,)), (0,), 0.0),
        ),
    )
    f = GridFunction(g, np.array([1.0, 0.0]))
    out = sparse_eval(fam, (f, f), 1.0)
    # root contributes (1/2)^2 on both cells, the child adds 1^2 on cell 0
    assert np.array_equal(out.values, np.array([1.25, 0.25]))


def test_sparse_eval_monotone_in_entries_and_r():
    g = grid_l2()
    root = DyadicCube(0, (0,))
    rng = np.random.default_rng(13)
    f = GridFunction(g, rng.normal(size=g.num_cells))
    small = SparseFamily(g, root, 0.5, (SparseEntry(root, (0, 1), 0.0),))
    big = SparseFamily(
        g,
        root,
        0.5,
        (SparseEntry(root, (0, 1), 0.0), SparseEntry(DyadicCube(1, (1,)), (2,), 0.0)),
    )
    a = sparse_eval(small, (f,), 1.0).values
    b = sparse_eval(big, (f,), 1.0).values
    assert np.all(a <= b)
    lo = sparse_eval(big, (f,), 1.0).values
    hi = sparse_eval(big, (f,), 3.0).values
    assert np.all(lo <= hi * (1.0 + 1e-12))


def test_sparse_eval_validation():
    g = grid_l2()
    root = DyadicCube(0, (0,))
    fam = SparseFamily(g, root, 0.5, (SparseEntry(root, (0, 1), 0.0),))
    f = GridFunction(g, np.ones(g.num_cells))
    with pytest.raises(ValueError):
        sparse_eval(fam, (f,), 0.5)
    other = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    h = GridFunction(other, np.ones(other.num_cells))
    with pytest.raises(ValueError):
        sparse_eval(fam, (h,), 1.0)


def test_family_json_roundtrip():
    g = grid_l2()
    root = DyadicCube(0, (0,))
    fam = SparseFamily(
        g,
        root,
        0.5,
        (
            SparseEntry(root, (2, 3), 1.25),
            SparseEntry(DyadicCube(1, (0,)), (0, 1), 0.5),
        ),
    )
    d = json.loads(fam.to_json())
    entries = tuple(
        SparseEntry(DyadicCube(e["level"], tuple(e["index"])), tuple(e["witness_cells"]), e["tau"])
        for e in d["entries"]
    )
    grid = GridSpec(d["grid"]["n"], d["grid"]["L"], tuple(d["grid"]["origin"]), d["grid"]["side"])
    back = SparseFamily(grid, DyadicCube.from_json_dict(d["root"]), d["gamma"], entries)
    assert back.grid == fam.grid
    assert back.root == fam.root
    assert back.gamma == fam.gamma
    assert len(back.entries) == len(fam.entries)
    for a, b in zip(back.entries, fam.entries):
        assert a.cube == b.cube and a.witness == b.witness and a.tau == b.tau
    f = GridFunction(g, np.arange(float(g.num_cells)))
    assert np.array_equal(
        sparse_eval(back, (f,), 2.0).values, sparse_eval(fam, (f,), 2.0).values
    )
