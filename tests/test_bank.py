import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdom.bank import SHAPES, BankSpec, _stream, make_bank, single_input
from sdom.grid import DyadicCube, GridSpec, cube_flat_indices, support_in


def test_bank_spec_validation():
    with pytest.raises(ValueError):
        BankSpec(shapes=("spike", "blob"))
    with pytest.raises(ValueError):
        BankSpec(shapes=("spike", "spike"))
    with pytest.raises(ValueError):
        BankSpec(count_per_shape=0)
    with pytest.raises(ValueError, match="must not be empty"):
        BankSpec(shapes=())


def test_frozen_stream_values():
    # pinned before the generator was ever used elsewhere; any change to
    # the keying or sampling order breaks stored experiment configs
    g = GridSpec(n=1, L=4, origin=(0.0,), side=8.0)
    bank = make_bank(g, 2, BankSpec(shapes=("spike", "gauss"), count_per_shape=2, seed=3))
    sums = {label: [float(f.values.sum()) for f in fs] for label, fs in bank}
    assert sums["spike-0"] == [2.0, 2.0]
    assert sums["gauss-0"] == [4.789949125857982, 2.0114139175654984]
    assert sums["gauss-1"] == [6.868735864134207, 8.476366351280754]


def test_reproducible_and_independent_of_bank_layout():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=4.0)
    a = make_bank(g, 2, BankSpec(shapes=("gauss",), count_per_shape=3, seed=11))
    b = make_bank(g, 2, BankSpec(shapes=("gauss",), count_per_shape=3, seed=11))
    for (la, fa), (lb, fb) in zip(a, b):
        assert la == lb
        for x, y in zip(fa, fb):
            assert np.array_equal(x.values, y.values)
    # one entry regenerated in isolation matches its in-bank twin
    solo = single_input(g, 2, "gauss", seed=11, entry=2, support=None)
    for x, y in zip(solo, a[2][1]):
        assert np.array_equal(x.values, y.values)
    # a different seed changes the draw
    other = single_input(g, 2, "gauss", seed=12, entry=2)
    assert not np.array_equal(other[0].values, solo[0].values)


def test_shapes_properties():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=4.0)
    for entry in range(4):
        (spike,) = single_input(g, 1, "spike", seed=5, entry=entry)
        nz = np.flatnonzero(spike.values)
        assert nz.size == 1
        assert spike.values[nz[0]] == 1.0 / g.cell_volume()
        (ind,) = single_input(g, 1, "indicator", seed=5, entry=entry)
        vals = set(np.unique(ind.values).tolist())
        assert vals <= {0.0, 1.0} and 1.0 in vals
        (rad,) = single_input(g, 1, "rademacher", seed=5, entry=entry)
        assert set(np.unique(rad.values).tolist()) <= {-1.0, 1.0}
        (gauss,) = single_input(g, 1, "gauss", seed=5, entry=entry)
        assert np.all(gauss.values >= 0) and gauss.values.max() <= 1.0
    with pytest.raises(ValueError):
        single_input(g, 1, "blob", seed=0, entry=0)
    with pytest.raises(ValueError):
        make_bank(g, 3, BankSpec())


def test_support_confinement():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=4.0)
    q = DyadicCube(2, (1,))
    for shape in SHAPES:
        fs = single_input(g, 2, shape, seed=9, entry=0, support=q)
        for f in fs:
            assert support_in(f, q)
            assert np.any(f.values != 0.0)


def test_support_confinement_2d():
    g = GridSpec(n=2, L=3, origin=(0.0, 0.0), side=4.0)
    q = DyadicCube(1, (1, 0))
    for shape in SHAPES:
        (f,) = single_input(g, 1, shape, seed=2, entry=1, support=q)
        assert support_in(f, q)
        assert np.any(f.values != 0.0)
        if shape == "spike":
            nz = np.flatnonzero(f.values)
            assert nz.size == 1
            assert f.values[nz[0]] == 1.0 / g.cell_volume()


def test_bank_spec_from_json_dict():
    d = {"shapes": ["spike", "gauss"], "count_per_shape": 5, "seed": 42, "support": {"level": 2, "index": [1]}}
    want = BankSpec(shapes=("spike", "gauss"), count_per_shape=5, seed=42, support=DyadicCube(2, (1,)))
    assert BankSpec.from_json_dict(d) == want
    assert BankSpec.from_json_dict({}) == BankSpec()  # no support: the whole domain


def test_labels_and_counts():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=4.0)
    bank = make_bank(g, 1, BankSpec(shapes=("indicator", "rademacher"), count_per_shape=3, seed=0))
    assert [label for label, _ in bank] == [
        "indicator-0",
        "indicator-1",
        "indicator-2",
        "rademacher-0",
        "rademacher-1",
        "rademacher-2",
    ]
    assert all(len(fs) == 1 for _, fs in bank)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    shape=st.sampled_from(SHAPES),
    entry=st.integers(0, 2**21),
    slot=st.integers(0, 1),
    count=st.integers(1, 40),
)
@example(seed=0, shape="spike", entry=0, slot=0, count=9)
def test_stream_is_numpys_philox(seed, shape, entry, slot, count):
    # the first `count` draws, across block boundaries, equal numpy's
    # Philox generator on the same key, drawn one at a time
    word = (SHAPES.index(shape) << 40) | ((entry & 0xFFFFF) << 20) | (slot & 0xFFFFF)
    key = np.array([seed & (2**64 - 1), word], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    assert list(itertools.islice(_stream(seed, shape, entry, slot), count)) == [rng.uniform() for _ in range(count)]
