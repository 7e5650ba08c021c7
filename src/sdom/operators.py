"""Discrete application of a kernel operator on grid functions.

``apply`` realizes T(f_1 .. f_m)(x) = sum over cell tuples of
K(x_center, y_centers) prod_i f_i(y_i) h^{mn}, one value per cell.
Tuples touching the x cell in any slot are excluded (the singular
diagonal is never evaluated); a non-finite kernel value anywhere else
is a hard error rather than a silent skip.  Cells where an input
vanishes contribute nothing and are skipped outright, which makes
truncation to a support cube literally the same sum in the same order,
so equalities that hold in exact arithmetic hold bitwise here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, GridSpec, cell_centers, cube_flat_indices, triple_cube
from .kernels import KernelSpec, SingularPointError, eval_batch, grid_error, tuple_blocks
from .parallel import parallel_map


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A kernel bound to the grid it acts on."""

    kernel: KernelSpec
    grid: GridSpec

    def __post_init__(self):
        problem = grid_error(self.kernel, self.grid)
        if problem:
            raise ValueError(problem)


def check_inputs(op: OperatorSpec, fs) -> tuple:
    """The operator's m inputs as a tuple; each must live on its grid."""
    fs = tuple(fs)
    if len(fs) != op.kernel.m:
        raise ValueError(f"expected {op.kernel.m} input functions, got {len(fs)}")
    for f in fs:
        if not isinstance(f, GridFunction) or f.grid != op.grid:
            raise ValueError("inputs must be grid functions on the operator's grid")
    return fs


def _slot_cells(op: OperatorSpec, f: GridFunction, ybox: Cube | None):
    """Ascending flat indices of cells that can contribute: inside the
    slot box (when given) and carrying a nonzero value."""
    if ybox is None:
        idx = np.arange(op.grid.num_cells)
    else:
        idx = cube_flat_indices(op.grid, ybox)
    keep = f.values[idx] != 0.0
    idx = idx[keep]
    return idx, f.values[idx]


def _singular_error(grid, x_flat, y_flats):
    xc = cell_centers(grid, np.array([x_flat]))[0]
    ycs = cell_centers(grid, np.array(y_flats)).tolist()
    raise SingularPointError(
        f"kernel is singular or non-finite at an off-diagonal lattice point: "
        f"x cell {x_flat} at {xc.tolist()}, y cells {list(y_flats)} at {ycs}"
    )


def kernel_rows(op: OperatorSpec, fs, xs: np.ndarray, ybox: Cube | None):
    """The kernel rows K(x, .) of the cells ``xs`` over the slot tuples
    in ``ybox``.  Serial by design; callers parallelize over disjoint x
    blocks, which cannot change any value.

    Returns (idx, W, rows).  ``idx`` holds, per slot, the ascending flat
    indices of the cells in ``ybox`` where that input is nonzero, and
    ``W`` the products of those input values, one axis per slot.
    ``rows`` yields, for each x in order, the kernel values on the same
    axes.  Tuples with x in some slot are set to zero, and any other
    singular or non-finite value raises ``SingularPointError``.  Only
    the current row is held.

    The slot tuples are built once, in the blocks of ``tuple_blocks``,
    and each x evaluates all of them.  The tuples with x in slot s are
    index x of axis s.
    """
    slots = [_slot_cells(op, f, ybox) for f in fs]
    idx = [i for i, _ in slots]
    W = functools.reduce(np.multiply.outer, [val for _, val in slots])
    return idx, W, _rows(op, idx, xs)


def _rows(op: OperatorSpec, idx, xs: np.ndarray):
    grid = op.grid
    sizes = tuple(i.size for i in idx)
    if 0 in sizes:
        for _ in range(xs.size):
            yield np.zeros(sizes)
        return
    xc = cell_centers(grid, xs)
    blocks = [Y for _, _, Y in tuple_blocks(*(cell_centers(grid, i) for i in idx))]
    at = [np.searchsorted(i, xs) for i in idx]  # where each x would sit in each slot
    for j in range(xs.size):
        evals = [eval_batch(op.kernel, xc[j], Y) for Y in blocks]
        vals = np.concatenate([v for v, _ in evals]).reshape(sizes)
        ok = np.concatenate([o for _, o in evals]).reshape(sizes)
        for s, i in enumerate(idx):
            k = at[s][j]
            if k < i.size and i[k] == xs[j]:
                diag = (slice(None),) * s + (k,)
                vals[diag], ok[diag] = 0.0, True
        if not ok.all():
            bad = np.unravel_index(int(np.argmin(ok)), sizes)
            _singular_error(grid, int(xs[j]), [int(i[k]) for i, k in zip(idx, bad)])
        yield vals


def apply_on_cells(op: OperatorSpec, fs, xs: np.ndarray, ybox: Cube | None) -> np.ndarray:
    """Operator values on the cells listed in ``xs`` (flat indices),
    with every slot restricted to ``ybox``: each value is the sum of
    the kernel row of ``kernel_rows`` times the input products, times
    h^{mn}."""
    hm = op.grid.cell_volume() ** op.kernel.m
    _, W, rows = kernel_rows(op, fs, xs, ybox)
    out = np.zeros(xs.size)
    for i, V in enumerate(rows):
        out[i] = float(np.sum(V * W)) * hm
    return out


_XBLOCK = 256

# A kernel row shorter than this is a string of short numpy calls that
# hold the GIL for most of their time, so two threads contend and run
# slower than one.  On a 2-core Xeon (Python 3.11, numpy 2.4), grand
# maximal gaps with rows of 1,024 to 16,384 tuples ran at 0.4x to 0.9x
# the one-thread speed on two threads, and rows of 65,536 at 1.55x.
_PARALLEL_ROW = 1 << 15


def x_blocks(op: OperatorSpec, fs, xs: np.ndarray, ybox: Cube | None) -> list:
    """The tasks of a parallel loop over the cells ``xs`` whose kernel
    rows span the slot tuples in ``ybox``: consecutive blocks of a fixed
    size, or all of ``xs`` in one task when the rows are too short to
    gain from threads.  Each x is computed on its own, so the split
    cannot change any value."""
    if math.prod(_slot_cells(op, f, ybox)[0].size for f in fs) < _PARALLEL_ROW:
        return [xs]
    return [xs[i : i + _XBLOCK] for i in range(0, xs.size, _XBLOCK)]


def _apply_all_cells(op: OperatorSpec, fs, ybox: Cube | None) -> np.ndarray:
    blocks = x_blocks(op, fs, np.arange(op.grid.num_cells), ybox)
    parts = parallel_map(lambda b: apply_on_cells(op, fs, b, ybox), blocks)
    return np.concatenate(parts) if parts else np.zeros(0)


def apply(op: OperatorSpec, fs) -> GridFunction:
    """Apply the operator to a tuple of m grid functions."""
    fs = check_inputs(op, fs)
    vals = _apply_all_cells(op, fs, None)
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("operator output is not finite")
    return GridFunction(op.grid, vals)


def apply_truncated(op: OperatorSpec, fs, cube: Cube) -> GridFunction:
    """Apply the operator to f_i restricted to the tripled cube.

    Matches ``apply`` exactly (bitwise) whenever the inputs are already
    supported inside the tripled cube, because both sums then visit the
    same nonzero cells in the same order.
    """
    fs = check_inputs(op, fs)
    box = triple_cube(op.grid, cube)
    vals = _apply_all_cells(op, fs, box)
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("operator output is not finite")
    return GridFunction(op.grid, vals)
