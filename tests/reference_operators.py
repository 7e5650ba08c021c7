"""The row-by-row kernel rows that the offset-table rows of
`sdom.operators` replaced for one-slot kernels of x - y.

``kernel_rows`` evaluates each x's whole row in one ``eval_batch``
call, with each slot's nonzero cell centres on that slot's axis, zeroes
the tuples with x in some slot, and raises ``SingularPointError`` on
the first row that holds any other invalid tuple, naming its first one.
``apply_on_cells`` sums each row against the input products, one
Python float per cell.  The table path must match both bit for bit,
errors included.  Only public `sdom` names are used.
"""

import functools

import numpy as np

from sdom.grid import cell_centers, cube_flat_indices
from sdom.kernels import SingularPointError, eval_batch


def kernel_rows(op, fs, xs, ybox):
    """(idx, W, blocks) as ``sdom.operators.kernel_rows`` returns them,
    one row per block."""
    grid = op.grid
    idx = []
    for f in fs:
        box = cube_flat_indices(grid, ybox)
        idx.append(box[f.values[box] != 0.0])
    W = functools.reduce(np.multiply.outer, [f.values[i] for f, i in zip(fs, idx)])
    return idx, W, (V[None] for V in _rows(op, idx, xs))


def _rows(op, idx, xs):
    grid = op.grid
    sizes = tuple(i.size for i in idx)
    if 0 in sizes:
        for _ in range(xs.size):
            yield np.zeros(sizes)
        return
    xc = cell_centers(grid, xs)
    ys = [np.expand_dims(cell_centers(grid, i), tuple(range(1, len(idx) - s))) for s, i in enumerate(idx)]
    at = [np.searchsorted(i, xs) for i in idx]
    for j in range(xs.size):
        vals, ok = eval_batch(op.kernel, xc[j], *ys)
        for s, i in enumerate(idx):
            k = at[s][j]
            if k < i.size and i[k] == xs[j]:
                diag = (slice(None),) * s + (k,)
                vals[diag], ok[diag] = 0.0, True
        if not ok.all():
            bad = np.unravel_index(int(np.argmin(ok)), sizes)
            y_flats = [int(i[k]) for i, k in zip(idx, bad)]
            x_centre = cell_centers(grid, np.array([xs[j]]))[0]
            raise SingularPointError(
                f"kernel is singular or non-finite at an off-diagonal lattice point: "
                f"x cell {int(xs[j])} at {x_centre.tolist()}, y cells {y_flats} at "
                f"{cell_centers(grid, np.array(y_flats)).tolist()}"
            )
        yield vals


def apply_on_cells(op, fs, xs):
    """Operator values on the cells ``xs``, every slot over the whole
    domain, one row and one Python float sum per cell."""
    hm = op.grid.cell_volume() ** op.kernel.m
    idx, W, _ = kernel_rows(op, fs, xs, None)
    out = np.zeros(xs.size)
    for i, V in enumerate(_rows(op, idx, xs)):
        out[i] = float(np.sum(V * W)) * hm
    return out
