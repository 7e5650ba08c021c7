"""Direct reference for the Calderon-Zygmund selection.

``cz_select`` is the recursion the block pass of `sdom.builder.cz_select`
replaced: it visits the dyadic children of each cube, selects a cube
whose exceptional count exceeds 2^-(n+1) of its cells and stops there,
and otherwise descends.  The preconditions are the caller's; this
reference does not check them.  Only public `sdom` names are used.
"""

import numpy as np

from sdom.grid import DyadicCube, cell_box


def children(cube):
    n = len(cube.index)
    return [
        DyadicCube(cube.level + 1, tuple(2 * k + o for k, o in zip(cube.index, offs)))
        for offs in np.ndindex(*(2,) * n)
    ]


def cz_select(grid, q0, e_cells):
    n = grid.n
    mask = np.zeros(grid.num_cells)
    mask[np.asarray(sorted(set(int(c) for c in e_cells)), dtype=int)] = 1.0
    arr = mask.reshape((grid.cells_per_side,) * n)
    out = []

    def visit(cube):
        lo, hi = cell_box(grid, cube)
        cnt = float(np.sum(arr[tuple(slice(a, b) for a, b in zip(lo, hi))]))
        if cnt == 0.0:
            return
        if cnt > 0.5 ** (n + 1) * int(np.prod([b - a for a, b in zip(lo, hi)])):
            out.append(cube)
            return
        if cube.level < grid.L:
            for ch in children(cube):
                visit(ch)

    if q0.level < grid.L:
        for ch in children(q0):
            visit(ch)
    out.sort(key=lambda c: c.sort_key())
    return out
