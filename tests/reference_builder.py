"""Direct references for the Calderon-Zygmund selection and the
domination constant.

``cz_select`` is the recursion the block pass of `sdom.builder.cz_select`
replaced: it visits the dyadic children of each cube, selects a cube
whose exceptional count exceeds 2^-(n+1) of its cells and stops there,
and otherwise descends.  The preconditions are the caller's; this
reference does not check them.

``build_sparse_family`` is the stopping construction as it was when
every node ran its own ``local_grand_maximal`` pass: kernel rows over
its tripled cube, its reference truncation and its sub-box sums.
`sdom.builder.build_sparse_family` now runs that pass at the root alone
and reads the other dyadic nodes off the root's truncation sums.  The
copy is verbatim but for taking the first two items of what
``local_grand_maximal`` returns.

``domination_constant`` applies T on every cell of the domain, with
``apply``'s singular and finiteness checks over all of them, and reads
the root's cells; `sdom.builder.domination_constant` evaluates the
root's cells only.  Only public `sdom` names are used.
"""

import math

import numpy as np

from sdom.builder import BuilderNodeStats, DominationReport, adaptive_threshold
from sdom.builder import cz_select as block_cz_select
from sdom.grid import DyadicCube, cell_box, cube_flat_indices, local_average, support_in, triple_cube
from sdom.maximal import DYADIC, CubeFamilyMode, local_grand_maximal
from sdom.operators import OperatorSpec, apply, check_inputs
from sdom.sparse import InvariantViolation, SparseEntry, SparseFamily, sparse_eval


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


def build_sparse_family(
    op: OperatorSpec,
    fs,
    root: DyadicCube,
    r: float,
    mode: CubeFamilyMode = DYADIC,
    root_values: bool = False,
) -> tuple:
    """Run the stopping construction; returns (family, node stats), and
    with ``root_values`` a third item: T f on the root's cells.

    Requires every input supported inside ``root`` and the tripled root
    contained in the domain, so no truncation is ever cut by the
    boundary.  The family's entries come out sorted by (level, index);
    the stats keep traversal (parent before child) order.

    The root values are the reference sums T(f restricted to 3 root) of
    the root node's ``local_grand_maximal``, in ``cube_flat_indices``
    order.  The inputs live in the root, so they are bitwise what
    ``operator_values`` gives there.  They are None when the root node
    applies no T: a one-cell root, or an input whose r-average over the
    tripled root vanishes.
    """
    fs = check_inputs(op, fs)
    grid = op.grid
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("averaging exponent r must satisfy r >= 1")
    if not isinstance(root, DyadicCube):
        raise TypeError("the root must be a dyadic cube")
    if triple_cube(grid, root).clipped:
        raise ValueError("the tripled root must fit inside the domain")
    for i, f in enumerate(fs):
        if not support_in(f, root):
            raise ValueError(f"input {i} is not supported inside the root cube")

    prod_vals = np.abs(fs[0].values.copy())
    for f in fs[1:]:
        prod_vals = prod_vals * np.abs(f.values)

    entries = []
    stats = []
    depth_cap = 2 * grid.L  # recursion strictly shrinks cubes, so hitting this means a bug

    def visit(q0: DyadicCube, depth: int = 0):
        """Emit the node of ``q0`` and recurse; returns its reference
        T(f restricted to 3 q0) on its cells, or None when it has none."""
        if depth > depth_cap:
            raise InvariantViolation("builder recursion exceeded its depth cap")
        tq = triple_cube(grid, q0)
        scale = 1.0
        for f in fs:
            scale *= local_average(f, tq, r)
        if scale == 0.0:
            return None
        idx = cube_flat_indices(grid, q0)
        s = prod_vals[idx].copy()
        tf = None
        if idx.size > 1:
            lgm, tf = local_grand_maximal(op, fs, q0, mode)[:2]
            np.maximum(s, lgm.values[idx], out=s)
        s /= scale
        if not np.all(np.isfinite(s)):
            where = f"level {q0.level} index {list(q0.index)}"
            raise ArithmeticError(f"level values are not finite on node cube {where}")
        tau = adaptive_threshold(s, grid.n)
        e_cells = idx[s > tau]
        selected = block_cz_select(grid, q0, e_cells)
        sel_cells = (
            np.concatenate([cube_flat_indices(grid, p) for p in selected])
            if selected
            else np.zeros(0, dtype=int)
        )
        if 2 * sel_cells.size > idx.size:
            raise InvariantViolation("selected cubes cover more than half their node")
        witness = np.setdiff1d(idx, sel_cells, assume_unique=True)
        entries.append(SparseEntry(cube=q0, witness=tuple(int(c) for c in witness), tau=tau))
        stats.append(
            BuilderNodeStats(
                cube=q0,
                scale=scale,
                tau=tau,
                e_count=int(e_cells.size),
                selected_count=len(selected),
                sum_pj_ratio=sel_cells.size / idx.size,
                witness_count=int(witness.size),
            )
        )
        for p in selected:
            visit(p, depth + 1)
        return tf

    root_tf = visit(root)
    entries.sort(key=lambda e: e.cube.sort_key())
    family = SparseFamily(grid=grid, root=root, gamma=0.5, entries=tuple(entries))
    return (family, stats, root_tf) if root_values else (family, stats)


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
