"""``eval_batch`` against the reduction-based expressions it replaced.

Tuples are drawn on the cell-centre lattice of a random grid, for m
and n in {1, 2}; a share of them puts x itself in one slot or in both,
so diagonal hits in either slot occur.  Values and validity must match
``tests/reference_kernels.py`` bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from sdom.grid import GridSpec, cell_centers
from sdom.kernels import Modulus, bilinear_odd_kernel, dini_synthetic_kernel, eval_batch, x_independent_kernel

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
    got_vals, got_ok = eval_batch(kernel, x, Y)
    want_vals, want_ok = ref.eval_batch(kernel, x, Y)
    assert got_vals.tobytes() == want_vals.tobytes()
    assert np.array_equal(got_ok, want_ok)
    assert not got_ok[hits.any(axis=1)].any()
