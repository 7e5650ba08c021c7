"""Discrete application of a kernel operator on grid functions.

``apply`` realizes T(f_1 .. f_m)(x) = sum over cell tuples of
K(x_center, y_centers) prod_i f_i(y_i) h^{mn}, one value per cell.
Tuples touching the x cell in any slot are excluded (their kernel
value is taken as zero); any other tuple on the kernel's singular
set is a hard error rather than a silent skip.  A kernel value that
overflows, or divides by an underflowed denominator, is not caught per
tuple: it makes the cell's sum non-finite, and ``apply`` reports that
as a numerical failure.  Cells where an input
vanishes contribute nothing and are skipped outright, which makes
truncation to a support cube literally the same sum in the same order,
so equalities that hold in exact arithmetic hold bitwise here too.

Kernel rows come in blocks of consecutive cells x, as many as fit in
``_PAIR_BLOCK`` entries.  A one-slot kernel of x - y is evaluated once
per call, as the ``kernels.offset_table`` of the x cells over the slot
cells, and a block of rows is one gather from it.  The table serves a
call only when it serves every x and no row meets a singular tuple
(``_table``); otherwise, and for m = 2, each row is one ``eval_batch``
call and a block stacks its rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, GridSpec, cell_centers, cube_flat_indices
from .kernels import KernelSpec, SingularPointError, eval_batch, grid_error, offset_table
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
    slot box (the whole domain when None) and carrying a nonzero value."""
    idx = cube_flat_indices(op.grid, ybox)
    idx = idx[f.values[idx] != 0.0]
    return idx, f.values[idx]


def _singular_error(grid, x_flat, y_flats):
    xc = cell_centers(grid, np.array([x_flat]))[0]
    ycs = cell_centers(grid, np.array(y_flats)).tolist()
    raise SingularPointError(
        f"kernel is singular or non-finite at an off-diagonal lattice point: "
        f"x cell {x_flat} at {xc.tolist()}, y cells {list(y_flats)} at {ycs}"
    )


# (x, y) pairs that one block of ``_row_blocks`` holds: a kernel row of
# 128 x 128 slot tuples, so no block's temporaries are larger than such
# a row's.  At 2^16 pairs, one process running the 16 `dominate-1d`
# configs 28 times peaked 0.6 to 0.8 MiB higher (36.7 to 36.8 MiB at
# 2^14 and 2^12, 37.4 to 37.6 at 2^16; 2-core Xeon, Python 3.11,
# numpy 2.4).
_PAIR_BLOCK = 1 << 14


def kernel_rows(op: OperatorSpec, fs, xs: np.ndarray, ybox: Cube | None):
    """The kernel rows K(x, .) of the cells ``xs`` over the slot tuples
    in ``ybox``.  Serial by design; callers parallelize over disjoint x
    blocks, which cannot change any value.

    Returns (idx, W, blocks).  ``idx`` holds, per slot, the ascending
    flat indices of the cells in ``ybox`` where that input is nonzero,
    and ``W`` the products of those input values, one axis per slot.
    ``blocks`` yields the rows of consecutive x, in order, in the blocks
    of ``_row_blocks``: one axis of rows, then the kernel values on the
    axes of ``W``.  Tuples with x in some slot are zero, and any other
    tuple that ``eval_batch`` reports invalid raises
    ``SingularPointError``; non-finite values pass through.  Only the
    current block is held.
    """
    idx, W = _slots(op, fs, ybox)
    return idx, W, _row_blocks(op, idx, xs)


def _slots(op: OperatorSpec, fs, ybox: Cube | None):
    slots = [_slot_cells(op, f, ybox) for f in fs]
    return [i for i, _ in slots], functools.reduce(np.multiply.outer, [val for _, val in slots])


def _row_blocks(op: OperatorSpec, idx, xs: np.ndarray):
    """Yield the kernel rows of the cells ``xs`` over the slot cells
    ``idx`` in blocks of consecutive x, each shaped (rows, *slot sizes)
    and holding as many rows as fit in ``_PAIR_BLOCK`` entries, at least
    one: gathers from the ``_table`` when it serves, else stacked
    ``_rows``."""
    step = max(1, _PAIR_BLOCK // max(1, math.prod(i.size for i in idx)))
    table = _table(op, idx, xs)
    if table is None:
        rows = _rows(op, idx, xs)
        for b in range(0, xs.size, step):
            yield np.stack([next(rows) for _ in range(min(step, xs.size - b))])
        return
    vals, row, col = table
    for b in range(0, xs.size, step):
        yield vals[row[b : b + step, None] + col]


def _rows(op: OperatorSpec, idx, xs: np.ndarray):
    """One row per x, each from one ``eval_batch`` call with each slot's
    cell centres on that slot's axis.  The tuples with x in slot s are
    index x of axis s."""
    grid = op.grid
    sizes = tuple(i.size for i in idx)
    if 0 in sizes:
        for _ in range(xs.size):
            yield np.zeros(sizes)
        return
    xc = cell_centers(grid, xs)
    # slot s's centres on axis s of the row, so the slots broadcast to it
    ys = [np.expand_dims(cell_centers(grid, i), tuple(range(1, len(idx) - s))) for s, i in enumerate(idx)]
    at = [np.searchsorted(i, xs) for i in idx]  # where each x would sit in each slot
    for j in range(xs.size):
        vals, ok = eval_batch(op.kernel, xc[j], *ys)
        for s, i in enumerate(idx):
            k = at[s][j]
            if k < i.size and i[k] == xs[j]:
                diag = (slice(None),) * s + (k,)
                vals[diag], ok[diag] = 0.0, True
        if not ok.all():
            bad = np.unravel_index(int(np.argmin(ok)), sizes)
            _singular_error(grid, int(xs[j]), [int(i[k]) for i, k in zip(idx, bad)])
        yield vals


def _table(op: OperatorSpec, idx, xs: np.ndarray):
    """The rows of the cells ``xs`` over the slot cells ``idx`` as one
    ``kernels.offset_table``: (vals, row, col), with K(x_k, y_l) equal
    to ``vals[row[k] + col[l]]``, or None when the rows are evaluated one
    by one.  The table serves only when it serves every x, which
    ``offset_table`` decides before it evaluates the table, and no entry
    but the zero offset, the diagonal a row sets to zero, is invalid, so
    no row holds a singular tuple.  That entry is in the table exactly
    when, along every axis, the index ranges of the x cells and the slot
    cells meet."""
    if len(idx) != 1:  # one slot's rows only
        return None
    grid = op.grid
    shape = (grid.cells_per_side,) * grid.n
    xi, yi = (np.stack(np.unravel_index(i, shape), axis=-1) for i in (xs, idx[0]))
    table = offset_table(op.kernel, grid, cell_centers(grid, xs), yi, every=True)
    if table is None:
        return None
    vals, valid, row, col = table
    holds_zero = bool(np.all((xi.min(axis=0) <= yi.max(axis=0)) & (yi.min(axis=0) <= xi.max(axis=0))))
    if np.count_nonzero(~valid) != holds_zero:
        return None
    return vals, row, col


def apply_on_cells(op: OperatorSpec, fs, xs: np.ndarray) -> np.ndarray:
    """Operator values on the cells listed in ``xs`` (flat indices),
    every slot over the whole domain: each value is the sum of the
    kernel row of ``kernel_rows`` times the input products, times
    h^{mn}, taken for a block of rows (``_row_blocks``) at a time."""
    hm = op.grid.cell_volume() ** op.kernel.m
    idx, W = _slots(op, fs, None)
    out, at = np.zeros(xs.size), 0
    for V in _row_blocks(op, idx, xs):
        out[at : at + len(V)] = np.sum(V * W, axis=tuple(range(1, V.ndim))) * hm
        at += len(V)
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


def apply(op: OperatorSpec, fs) -> GridFunction:
    """Apply the operator to a tuple of m grid functions, in ``x_blocks``
    tasks; raises ArithmeticError when a value is not finite."""
    fs = check_inputs(op, fs)
    xs = np.arange(op.grid.num_cells)
    vals = np.concatenate(parallel_map(lambda b: apply_on_cells(op, fs, b), x_blocks(op, fs, xs, None)))
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("operator output is not finite")
    return GridFunction(op.grid, vals)
