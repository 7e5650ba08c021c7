import numpy as np

from sdom.grid import cube_flat_indices
from sdom.suite import cases


def test_suite_shape():
    cs = cases()
    assert len(cs) >= 12
    names = [c.name for c in cs]
    assert len(set(names)) == len(names)


def test_inputs_live_in_root():
    for c in cases():
        assert len(c.inputs) == c.kernel.m
        inside = cube_flat_indices(c.grid, c.root)
        for f in c.inputs:
            mask = np.zeros(f.values.size, dtype=bool)
            mask[inside] = True
            assert not np.any(f.values[~mask] != 0.0), c.name


def test_stability_pair_same_geometry():
    by_name = {c.name: c for c in cases()}
    a, b = by_name["bilin-bumps-L6"], by_name["bilin-bumps-L7"]
    assert a.grid.side == b.grid.side and a.grid.origin == b.grid.origin
    assert b.grid.L == a.grid.L + 1
    assert a.root == b.root
    assert a.kernel.variant == b.kernel.variant == "bilinear_odd"
    # coarse bump values are close to the fine bump at shared points
    fine = b.inputs[0].values
    coarse = a.inputs[0].values
    paired = 0.5 * (fine[0::2] + fine[1::2])
    assert np.max(np.abs(paired - coarse)) < 0.05 * max(1.0, np.max(coarse))
