"""Direct references for the cube families and the scores over them.

``family_boxes`` is the per-cube generator the corner-array blocks of
`sdom.maximal.family_boxes` replaced: one (lo, hi) tuple per cube, in
the family's order.  ``multilinear_maximal``, ``m_delta`` and
``vec_ap_characteristic`` score one cube at a time with scalar box
sums and Python float arithmetic, the bodies the block scorers
replaced; the block scorers must match them bit for bit.

``grand_maximal`` and ``local_grand_maximal`` are the cube-major loop
the one-pass gap in `sdom.maximal` replaced: for every family cube Q
they apply T again on the cells of Q with every slot restricted to 3Q,
and compare with the reference truncation, T(f) for the grand and
T(f restricted to 3 q0) for the local variant, which also returns that
truncation on q0's cells.  ``apply_truncated`` is
the truncation T(f restricted to 3Q) on every cell, which the tests
compare the gaps and ``apply`` with.  Every truncation here is summed
directly from ``eval_batch`` (``_truncated``), not through the row
engine of `sdom.operators` that the gaps use.

All of it is slow but follows the definitions line by line, so the
fast paths are tested against it.  Only public `sdom` names are used.
"""

import functools
import itertools

import numpy as np

from sdom.grid import GridCube, GridFunction, cell_box, cell_centers, cube_flat_indices, triple_cube
from sdom.kernels import eval_batch
from sdom.operators import apply


def family_boxes(grid, mode, within=None):
    """Yield the family's cubes as cell boxes (lo, hi) of int tuples,
    restricted to cubes contained in ``within`` when given."""
    n = grid.n
    if within is None:
        wlo, whi = (0,) * n, (grid.cells_per_side,) * n
    else:
        wlo, whi = cell_box(grid, within)
    if mode.kind == "all":
        max_side = min(whi[a] - wlo[a] for a in range(n))
        for s in range(1, max_side + 1):
            ranges = [range(wlo[a], whi[a] - s + 1) for a in range(n)]
            for corner in itertools.product(*ranges):
                yield corner, tuple(c + s for c in corner)
        return
    shifts = mode.shifts if mode.kind == "shifted" else (0,) * n
    for lev in range(grid.L + 1):
        w = 1 << (grid.L - lev)
        axis_starts = []
        for a in range(n):
            off = (shifts[a] * w) // 3
            i_min = -((off - wlo[a]) // w)  # ceil((wlo - off) / w)
            i_max = (whi[a] - w - off) // w
            axis_starts.append([off + i * w for i in range(i_min, i_max + 1)])
        for corner in itertools.product(*axis_starts):
            yield corner, tuple(c + w for c in corner)


class _ScalarSums:
    """Scalar inclusion-exclusion box sums off an inclusive prefix table."""

    def __init__(self, grid, cell_values):
        self.n = grid.n
        a = np.asarray(cell_values, dtype=float).reshape((grid.cells_per_side,) * grid.n)
        if grid.n == 1:
            self.table = np.concatenate([[0.0], np.cumsum(a)])
        else:
            t = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
            t[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
            self.table = t

    def box_sum(self, lo, hi):
        t = self.table
        if self.n == 1:
            return float(t[hi[0]] - t[lo[0]])
        return float(t[hi[0], hi[1]] - t[lo[0], hi[1]] - t[hi[0], lo[1]] + t[lo[0], lo[1]])


def _count(lo, hi):
    cnt = 1
    for a in range(len(lo)):
        cnt *= hi[a] - lo[a]
    return cnt


def _family_sup(grid, mode, score):
    out = np.zeros(grid.num_cells)
    view = out.reshape((grid.cells_per_side,) * grid.n)
    for lo, hi in family_boxes(grid, mode):
        sl = tuple(slice(lo[a], hi[a]) for a in range(grid.n))
        np.maximum(view[sl], score(lo, hi), out=view[sl])
    return out


def multilinear_maximal(fs, mode):
    grid = fs[0].grid
    tables = [_ScalarSums(grid, np.abs(f.values)) for f in fs]

    def score(lo, hi):
        cnt = _count(lo, hi)
        v = 1.0
        for t in tables:
            v *= t.box_sum(lo, hi) / cnt
        return v

    return GridFunction(grid, _family_sup(grid, mode, score))


def m_delta(g, delta, mode):
    grid = g.grid
    table = _ScalarSums(grid, np.abs(g.values) ** delta)
    out = _family_sup(grid, mode, lambda lo, hi: table.box_sum(lo, hi) / _count(lo, hi))
    return GridFunction(grid, out ** (1.0 / delta))


def vec_ap_characteristic(wt, mode):
    grid = wt.grid
    p = wt.p
    v_table = _ScalarSums(grid, wt.joint_weight())
    dual_tables = []
    dual_pows = []
    for w, pi in zip(wt.weights, wt.exponents):
        dual_tables.append(_ScalarSums(grid, w.values ** (-wt.r / (pi - wt.r))))
        dual_pows.append(p * (pi - wt.r) / (pi * wt.r))
    best = 0.0
    for lo, hi in family_boxes(grid, mode):
        cnt = _count(lo, hi)
        score = v_table.box_sum(lo, hi) / cnt
        for t, e in zip(dual_tables, dual_pows):
            score *= (t.box_sum(lo, hi) / cnt) ** e
        if score > best:
            best = score
    return best


def _truncated(op, fs, xs, cube):
    """T(f restricted to the tripled cube) on the cells ``xs``.  For each
    cell: one ``eval_batch`` call over the product of the slots' nonzero
    cells in 3Q (ascending, each slot on its own axis), the tuples with
    the cell in some slot zeroed, summed against the input products and
    scaled by h^{mn}."""
    grid, m = op.grid, op.kernel.m
    box = cube_flat_indices(grid, triple_cube(grid, cube))
    idx = [box[f.values[box] != 0.0] for f in fs]
    W = functools.reduce(np.multiply.outer, [f.values[i] for f, i in zip(fs, idx)])
    ys = [np.expand_dims(cell_centers(grid, i), tuple(range(1, m - s))) for s, i in enumerate(idx)]
    hm = grid.cell_volume() ** m
    out = np.zeros(len(xs))
    for j, x in enumerate(xs):
        V, ok = eval_batch(op.kernel, cell_centers(grid, np.array([x]))[0], *ys)
        for s, i in enumerate(idx):
            own = (slice(None),) * s + (i == x,)
            V[own], ok[own] = 0.0, True
        assert ok.all(), f"singular tuple off the diagonal at x cell {x}"
        out[j] = float(np.sum(V * W)) * hm
    return out


def apply_truncated(op, fs, cube):
    """T applied to the inputs restricted to the tripled cube, on every
    cell of the grid."""
    return GridFunction(op.grid, _truncated(op, fs, np.arange(op.grid.num_cells), cube))


def _gap(op, fs, reference, mode, within):
    grid = op.grid
    out = np.zeros(grid.num_cells)
    view = out.reshape((grid.cells_per_side,) * grid.n)
    for lo, hi in family_boxes(grid, mode, within):
        cube = GridCube(lo, tuple(hi[a] - lo[a] for a in range(grid.n)))
        xs = cube_flat_indices(grid, cube)
        t_q = _truncated(op, fs, xs, cube)
        score = float(np.max(np.abs(reference[xs] - t_q)))
        sl = tuple(slice(lo[a], hi[a]) for a in range(grid.n))
        np.maximum(view[sl], score, out=view[sl])
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"truncation gap is not finite at cell {int(np.argmin(np.isfinite(out)))}")
    return GridFunction(grid, out)


def grand_maximal(op, fs, mode):
    return _gap(op, fs, apply(op, fs).values, mode, None)


def local_grand_maximal(op, fs, q0, mode):
    x0 = cube_flat_indices(op.grid, q0)
    t_q0 = np.zeros(op.grid.num_cells)
    t_q0[x0] = _truncated(op, fs, x0, q0)
    return _gap(op, fs, t_q0, mode, q0), t_q0[x0]
