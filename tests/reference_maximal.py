"""Direct reference for the grand maximal truncation gaps.

This is the cube-major loop the one-pass gap in `sdom.maximal`
replaced: for every family cube Q it applies T again on the cells of
Q with every slot restricted to 3Q, and compares with the reference
truncation, T(f) for the grand and T(f restricted to 3 q0) for the
local variant.  It is slow but follows the definition line by line, so
the fast path is tested against it.  Only public `sdom` names are used.
"""

import numpy as np

from sdom.grid import GridCube, GridFunction, cube_flat_indices, triple_cube
from sdom.maximal import family_boxes
from sdom.operators import apply, apply_on_cells


def _gap(op, fs, reference, mode, within):
    grid = op.grid
    out = np.zeros(grid.num_cells)
    view = out.reshape((grid.cells_per_side,) * grid.n)
    for lo, hi in family_boxes(grid, mode, within):
        cube = GridCube(lo, tuple(hi[a] - lo[a] for a in range(grid.n)))
        xs = cube_flat_indices(grid, cube)
        t_q = apply_on_cells(op, fs, xs, triple_cube(grid, cube))
        score = float(np.max(np.abs(reference[xs] - t_q)))
        sl = tuple(slice(lo[a], hi[a]) for a in range(grid.n))
        np.maximum(view[sl], score, out=view[sl])
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("truncation gap is not finite")
    return GridFunction(grid, out)


def grand_maximal(op, fs, mode):
    return _gap(op, fs, apply(op, fs).values, mode, None)


def local_grand_maximal(op, fs, q0, mode):
    x0 = cube_flat_indices(op.grid, q0)
    t_q0 = np.zeros(op.grid.num_cells)
    t_q0[x0] = apply_on_cells(op, fs, x0, triple_cube(op.grid, q0))
    return _gap(op, fs, t_q0, mode, q0)
