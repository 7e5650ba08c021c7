"""One-slot operator rows read off an offset table are the row-by-row
rows, bit for bit, errors included.

For ``mpt``, ``mpt_truncated`` and ``dini_synthetic`` at m = 1, on
grids whose cell-centre differences are exact (origin 0, sides 8 and
14) and on grids where they are not (origins 0.375 and 0.1, side 1e-3),
the operator values of ``apply_on_cells`` and the grand and local
truncation gaps must equal what the row-by-row reference
(`reference_operators`) gives: the same bytes,
or the same exception with the same text.  Side 8 at origin 0 puts the
boundary-log kernel's singular offset 4 on the lattice at every depth,
so the singular-point errors are compared too.  The gaps are computed
twice by the same ``_truncation_gap`` code, once with its rows from the
reference.  Inputs carry random zeros, empty inputs included.  The
benchmark grids and the golden fallback grids are explicit examples.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdom import maximal
from sdom.grid import DyadicCube, GridFunction, GridSpec
from sdom.kernels import Modulus, SingularPointError, dini_synthetic_kernel, mpt_kernel, mpt_truncated_kernel
from sdom.maximal import ALL_GRID_CUBES, DYADIC, grand_maximal, local_grand_maximal
from sdom.operators import OperatorSpec, apply_on_cells

import reference_operators

KERNELS = {
    "mpt": mpt_kernel(1.0, 2.0),
    "mpt_truncated": mpt_truncated_kernel(1.0, 2.0, 1),
    "dini_synthetic": dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.7), 1),
}
ORIGINS = (0.0, 0.375, 0.1)
SIDES = (8.0, 14.0, 1e-3)


@st.composite
def operators(draw):
    variant = draw(st.sampled_from(sorted(KERNELS)))
    n = draw(st.sampled_from([1, 2])) if variant == "dini_synthetic" else 1
    L = draw(st.integers(1, 6 if n == 1 else 3))
    origin = tuple(draw(st.sampled_from(ORIGINS)) for _ in range(n))
    return OperatorSpec(KERNELS[variant], GridSpec(n=n, L=L, origin=origin, side=draw(st.sampled_from(SIDES))))


def grid_op(variant, n, L, origin, side):
    return OperatorSpec(KERNELS[variant], GridSpec(n=n, L=L, origin=(origin,) * n, side=side))


def random_input(op, rng, density):
    v = rng.normal(size=op.grid.num_cells) * (rng.random(op.grid.num_cells) < density)
    return (GridFunction(op.grid, v),)


def outcome(fn):
    """The bytes of what ``fn`` returns, or its error's type and text."""
    try:
        out = fn()
    except (SingularPointError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return np.asarray(getattr(out, "values", out)).tobytes()


def local_gaps_and_reference(op, fs, q0, mode):
    gaps, tf, _ = local_grand_maximal(op, fs, q0, mode)
    return np.concatenate([gaps.values, tf])


BENCH_MPT = grid_op("mpt", 1, 9, 0.0, 14.0)  # weights-mpt
BENCH_DINI_L6 = grid_op("dini_synthetic", 2, 6, 0.0, 8.0)  # dominate-dini-2d-m1
BENCH_DINI_L5 = grid_op("dini_synthetic", 2, 5, 0.0, 8.0)  # maximal-grand-2d-dyadic
GOLDEN_SINGULAR = grid_op("mpt", 1, 5, 0.0, 8.0)
GOLDEN_DINI_2D = OperatorSpec(KERNELS["dini_synthetic"], GridSpec(n=2, L=3, origin=(0.375, 0.1), side=1e-3))
GOLDEN_MPT_OFF = grid_op("mpt", 1, 5, 0.1, 14.0)


@settings(max_examples=80, deadline=None)
@given(
    op=operators(),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    share=st.sampled_from([0.4, 1.0]),
)
@example(op=BENCH_MPT, seed=0, density=1.0, share=1.0)
@example(op=BENCH_DINI_L6, seed=1, density=1.0, share=1.0)
@example(op=GOLDEN_SINGULAR, seed=2, density=1.0, share=1.0)
@example(op=GOLDEN_DINI_2D, seed=3, density=0.7, share=1.0)
@example(op=GOLDEN_MPT_OFF, seed=4, density=1.0, share=0.4)
def test_operator_values_and_singular_check_are_the_row_by_row_reference(op, seed, density, share):
    rng = np.random.default_rng(seed)
    fs = random_input(op, rng, density)
    xs = np.flatnonzero(rng.random(op.grid.num_cells) < share)
    want = outcome(lambda: reference_operators.apply_on_cells(op, fs, xs))
    assert outcome(lambda: apply_on_cells(op, fs, xs)) == want


@settings(max_examples=40, deadline=None)
@given(
    op=operators(),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    all_cubes=st.booleans(),
)
@example(op=BENCH_DINI_L5, seed=0, density=1.0, all_cubes=False)
@example(op=BENCH_DINI_L6, seed=1, density=1.0, all_cubes=False)
@example(op=GOLDEN_SINGULAR, seed=2, density=1.0, all_cubes=False)
@example(op=GOLDEN_DINI_2D, seed=3, density=0.7, all_cubes=True)
@example(op=GOLDEN_MPT_OFF, seed=4, density=1.0, all_cubes=False)
def test_truncation_gaps_are_the_row_by_row_reference(op, seed, density, all_cubes):
    grid = op.grid
    rng = np.random.default_rng(seed)
    fs = random_input(op, rng, density)
    mode = ALL_GRID_CUBES if all_cubes else DYADIC
    level = int(rng.integers(1, grid.L + 1))
    q0 = DyadicCube(level, tuple(int(v) for v in rng.integers(0, 1 << level, size=grid.n)))
    if op is BENCH_DINI_L6:  # the benchmark's root
        q0 = DyadicCube(2, (1, 1))
    runs = [lambda: local_gaps_and_reference(op, fs, q0, mode)]
    if grid.num_cells <= 1024:  # the benchmark's root is the point of the 64 x 64 grid
        runs.append(lambda: grand_maximal(op, fs, mode))
    for run in runs:
        with mock.patch.object(maximal, "kernel_rows", reference_operators.kernel_rows):
            want = outcome(run)
        assert outcome(run) == want
