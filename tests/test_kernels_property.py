"""``eval_batch`` against the reduction-based expressions it replaced.

Tuples are drawn on the cell-centre lattice of a random grid, for m
and n in {1, 2}; a share of them puts x itself in one slot or in both,
so diagonal hits in either slot occur.  The boundary-logarithmic
kernels, which evaluate their formula on the live set only, are drawn
at offsets on and next to the comb's tooth endpoints, at 3, 4 and 5,
on a dyadic lattice and off it.  Values and validity must match
``tests/reference_kernels.py`` bit for bit.

A product of per-slot point arrays, one axis per slot, must give bit
for bit the values and validity of the same tuples passed as a zipped
batch, for every variant.  Some slot points are drawn off the lattice,
where sums round, and the zipped batch must match the reference too,
which pins the order in which each variant adds its slot terms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from sdom.grid import GridSpec, cell_centers
from sdom.kernels import (
    Modulus,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    eval_batch,
    mpt_kernel,
    mpt_truncated_kernel,
    x_independent_kernel,
    zero_kernel,
)

MODULI = (Modulus("power", c=1.0, eps=0.5), Modulus("log", c=2.0, eps=0.3))


@st.composite
def cases(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    kernels = [x_independent_kernel(m)] + [dini_synthetic_kernel(mod, m, amplitude=1.5) for mod in MODULI]
    if (m, n) == (2, 1):
        kernels.append(bilinear_odd_kernel())
    kernel = draw(st.sampled_from(kernels))
    L = draw(st.integers(1, 5 if n == 1 else 3))
    origin = draw(st.sampled_from([0.0, -1.0, 0.375]))
    side = draw(st.sampled_from([1.0, 7.0, 8.0]))
    return kernel, GridSpec(n=n, L=L, origin=(origin,) * n, side=side)


@settings(max_examples=150, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**32 - 1), batch=st.integers(0, 300))
def test_eval_batch_is_the_reduction_reference(case, seed, batch):
    kernel, grid = case
    rng = np.random.default_rng(seed)
    pts = cell_centers(grid)
    x = pts[rng.integers(grid.num_cells)]
    Y = pts[rng.integers(grid.num_cells, size=(batch, kernel.m))]
    hits = rng.random((batch, kernel.m)) < 0.2
    Y[hits] = x
    got_vals, got_ok = eval_batch(kernel, x, *np.moveaxis(Y, 1, 0))
    want_vals, want_ok = ref.eval_batch(kernel, x, Y)
    assert got_vals.tobytes() == want_vals.tobytes()
    assert np.array_equal(got_ok, want_ok)
    assert not got_ok[hits.any(axis=1)].any()


@st.composite
def mpt_cases(draw):
    ell = draw(st.integers(0, 6))
    r = draw(st.sampled_from([1.0, 2.0, 3.0]))
    beta = draw(st.sampled_from([0.5, 1.0, 1.7]))
    kernel = draw(st.sampled_from([mpt_kernel(beta, r), mpt_truncated_kernel(beta, r, ell)]))
    scale = float(1 << ell)
    k = np.arange(-2, 2 * (1 << ell) + 2, dtype=float)
    ends = np.concatenate([3.0 + k / scale, 3.0 + (3.0 * k + 1.0) / (3.0 * scale), [3.0, 4.0, 5.0]])
    ends = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    h = 8.0 / (1 << draw(st.integers(1, 12)))  # a dyadic lattice step
    lattice = h * np.arange(int(2.5 / h), int(5.5 / h) + 1)
    off = np.array(draw(st.lists(st.floats(2.5, 5.5), max_size=40)))
    return kernel, np.concatenate([ends, lattice, off])


@settings(max_examples=150, deadline=None)
@given(case=mpt_cases())
def test_mpt_live_set_matches_the_full_array_formula(case):
    kernel, t = case
    x = np.zeros(1)
    Y = -t[:, None, None]  # x - y is t exactly
    got_vals, got_ok = eval_batch(kernel, x, *np.moveaxis(Y, 1, 0))
    want_vals, want_ok = ref.eval_batch(kernel, x, Y)
    assert got_vals.tobytes() == want_vals.tobytes()
    assert np.array_equal(got_ok, want_ok)


def tooth_ends(ell):
    """Offsets on and next to the comb's tooth endpoints, and at 3, 4, 5."""
    scale = float(1 << ell)
    k = np.arange(-2, 2 * (1 << ell) + 2, dtype=float)
    ends = np.concatenate([3.0 + k / scale, 3.0 + (3.0 * k + 1.0) / (3.0 * scale), [3.0, 4.0, 5.0]])
    return np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])


@st.composite
def product_cases(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    kernels = [zero_kernel(m), x_independent_kernel(m)]
    kernels += [dini_synthetic_kernel(mod, m, amplitude=1.5) for mod in MODULI]
    if (m, n) == (2, 1):
        kernels.append(bilinear_odd_kernel())
    if (m, n) == (1, 1):
        ell = draw(st.integers(0, 4))
        kernels += [mpt_kernel(1.0, 2.0), mpt_truncated_kernel(1.7, 3.0, ell)]
    kernel = draw(st.sampled_from(kernels))
    L = draw(st.integers(1, 5 if n == 1 else 3))
    origin = draw(st.sampled_from([0.0, -1.0, 0.375]))
    side = draw(st.sampled_from([1.0, 7.0, 8.0]))
    return kernel, GridSpec(n=n, L=L, origin=(origin,) * n, side=side)


@settings(max_examples=150, deadline=None)
@given(case=product_cases(), seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_slot_product_is_the_zipped_batch(case, seed, sizes):
    kernel, grid = case
    rng = np.random.default_rng(seed)
    pts = cell_centers(grid)
    x = pts[rng.integers(grid.num_cells)]
    sizes = sizes[: kernel.m]
    slots = []
    for k in sizes:
        P = pts[rng.integers(grid.num_cells, size=k)]
        off = rng.random(k) < 0.3  # off the lattice, where sums round
        P[off] = grid.origin[0] + grid.side * rng.random((int(off.sum()), grid.n))
        P[rng.random(k) < 0.2] = x  # diagonal hits in this slot
        slots.append(P)
    if kernel.variant.startswith("mpt"):
        # x - y lands exactly on the comb's tooth endpoints
        x = np.zeros(1)
        slots = [np.concatenate([slots[0], -tooth_ends(kernel.ell or 0)[:, None]])]
        sizes = (len(slots[0]),)
    # the product: slot s on axis s
    outer = [np.expand_dims(P, tuple(range(1, kernel.m - s))) for s, P in enumerate(slots)]
    got_vals, got_ok = eval_batch(kernel, x, *outer)
    # the zipped batch: every tuple of the product listed row-major
    pick = np.indices(sizes).reshape(kernel.m, -1)
    zipped = [P[i] for P, i in zip(slots, pick)]
    want_vals, want_ok = eval_batch(kernel, x, *zipped)
    assert got_vals.shape == got_ok.shape == sizes
    assert got_vals.tobytes() == want_vals.tobytes()
    assert np.array_equal(got_ok.ravel(), want_ok)
    if kernel.variant != "zero":  # the reference covers every other variant
        ref_vals, ref_ok = ref.eval_batch(kernel, x, np.stack(zipped, axis=1))
        assert want_vals.tobytes() == ref_vals.tobytes()
        assert np.array_equal(want_ok, ref_ok)
