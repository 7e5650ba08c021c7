"""Direct references for the Calderon-Zygmund selection and the
domination constant.

``cz_select`` is the recursion the block pass of `sdom.builder.cz_select`
replaced: it visits the dyadic children of each cube, selects a cube
whose exceptional count exceeds 2^-(n+1) of its cells and stops there,
and otherwise descends.  The preconditions are the caller's; this
reference does not check them.

``domination_constant`` applies T on every cell of the domain, with
``apply``'s singular and finiteness checks over all of them, and reads
the root's cells; `sdom.builder.domination_constant` evaluates the
root's cells only.  Only public `sdom` names are used.
"""

import numpy as np

from sdom.builder import DominationReport
from sdom.grid import DyadicCube, cell_box, cube_flat_indices
from sdom.operators import apply, check_inputs
from sdom.sparse import sparse_eval


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


def domination_constant(op, fs, family, r):
    fs = check_inputs(op, fs)
    tf = np.abs(apply(op, fs).values)
    return report_on_root(tf, sparse_eval(family, fs, r).values, cube_flat_indices(op.grid, family.root))


def report_on_root(tf, sp, idx):
    """The domination report of |T f| values ``tf`` and sparse form
    values ``sp`` on the grid, read on the root cells ``idx``."""
    tf_root, sp_root = tf[idx], sp[idx]
    scale = float(np.max(tf_root)) if idx.size else 0.0
    covered = sp_root > 0.0
    flag = bool(np.any(~covered & (tf_root > 1e-12 * scale) & (tf_root > 0.0)))
    if np.any(covered):
        ratios = np.where(covered, tf_root / np.where(covered, sp_root, 1.0), 0.0)
        arg = int(np.argmax(ratios))
        return DominationReport(c_emp=float(ratios[arg]), argmax_cell=int(idx[arg]), support_flag=flag)
    return DominationReport(c_emp=0.0, argmax_cell=-1, support_flag=flag)
