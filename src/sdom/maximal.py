"""Maximal operators over configurable cube families.

Three families are supported.  ``Dyadic`` is the grid's own tree.
``AllGridCubes`` is every axis-aligned cube made of whole cells at
every integer side length.  A shifted family translates each dyadic
generation by a per-axis third of the cube side (rounded to whole
cells) and keeps the translates that fit inside the domain; the base
end cubes of the same width are what bound a cube falling into the
truncated boundary slot, so best-of-shifted still covers every grid
cube within a factor 6 of side length per axis.

Averaging scores come from prefix sums, so each cube costs O(1) after
an O(N) sweep and, crucially, a given cube's score is one fixed
arithmetic expression no matter which family asked for it; pointwise
family comparisons are therefore exact, not approximate.

The grand maximal truncation gaps run in one pass over x.  Each cell x
takes one kernel row K(x, .) over the slot tuples of the reference
truncation, and every family cube containing x reads its truncation at
3Q off a sub-box of that row.  Kernel evaluations drop from one row per
cube and cell to one row per cell, while every sum stays the exact
array, in the exact order, that a separate truncation to 3Q would sum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    BoxSums,
    Cube,
    DyadicCube,
    GridFunction,
    GridSpec,
    cell_box,
    cube_flat_indices,
    triple_cube,
)
from .operators import OperatorSpec, apply, check_inputs, kernel_rows, x_blocks
from .parallel import parallel_map


@dataclass(frozen=True)
class CubeFamilyMode:
    """Which cubes a maximal operator ranges over.

    kind 'dyadic' or 'all', or 'shifted' with per-axis shift thirds in
    {0, 1, 2} (not all zero; the all-zero combination is the dyadic
    family itself).
    """

    kind: str
    shifts: tuple = ()

    def __post_init__(self):
        if self.kind not in ("dyadic", "all", "shifted"):
            raise ValueError(f"unknown cube family {self.kind!r}")
        shifts = tuple(int(v) for v in self.shifts)
        object.__setattr__(self, "shifts", shifts)
        if self.kind == "shifted":
            if not shifts or any(v not in (0, 1, 2) for v in shifts) or all(v == 0 for v in shifts):
                raise ValueError("shifted family needs per-axis thirds in {0,1,2}, not all zero")
        elif shifts:
            raise ValueError("shifts only apply to the shifted family")

    def label(self) -> str:
        if self.kind == "shifted":
            return "shifted:" + ",".join(str(v) for v in self.shifts)
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "CubeFamilyMode":
        text = text.strip().lower()
        if text in ("dyadic", "all"):
            return cls(text)
        if text.startswith("shifted:"):
            return cls("shifted", tuple(int(v) for v in text[len("shifted:") :].split(",")))
        raise ValueError(f"unknown cube family {text!r}")


DYADIC = CubeFamilyMode("dyadic")
ALL_GRID_CUBES = CubeFamilyMode("all")


def shifted_modes(n: int) -> list:
    """All nonzero per-axis shift combinations for dimension n."""
    out = []
    for combo in np.ndindex(*(3,) * n):
        if any(combo):
            out.append(CubeFamilyMode("shifted", tuple(combo)))
    return out


def _within_box(grid: GridSpec, within: Cube | None):
    if within is None:
        return (0,) * grid.n, (grid.cells_per_side,) * grid.n
    return cell_box(grid, within)


def family_boxes(grid: GridSpec, mode: CubeFamilyMode, within: Cube | None = None):
    """Yield the family's cubes as cell boxes (lo, hi), restricted to
    cubes contained in ``within`` when given."""
    wlo, whi = _within_box(grid, within)
    n = grid.n
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


def _scatter_max(grid: GridSpec, out: np.ndarray, lo, hi, value: float) -> None:
    view = out.reshape((grid.cells_per_side,) * grid.n)
    sl = tuple(slice(lo[a], hi[a]) for a in range(grid.n))
    np.maximum(view[sl], value, out=view[sl])


def _family_sup(grid: GridSpec, mode: CubeFamilyMode, score, within: Cube | None = None) -> np.ndarray:
    """Pointwise sup over the family of a per-cube score.

    Returns a full-length cell array, zero on cells no family member
    covers.  Scores must be nonnegative.
    """
    out = np.zeros(grid.num_cells)
    for lo, hi in family_boxes(grid, mode, within):
        _scatter_max(grid, out, lo, hi, score(lo, hi))
    return out


def multilinear_maximal(fs, mode: CubeFamilyMode = DYADIC, within: Cube | None = None) -> GridFunction:
    """Pointwise sup over cubes containing x of the product of the
    plain averages of |f_i| over the cube."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one input function")
    grid = fs[0].grid
    for f in fs:
        if f.grid != grid:
            raise ValueError("inputs must share one grid")
    tables = [BoxSums(grid, np.abs(f.values)) for f in fs]

    def score(lo, hi):
        cnt = 1
        for a in range(grid.n):
            cnt *= hi[a] - lo[a]
        v = 1.0
        for t in tables:
            v *= t.box_sum(lo, hi) / cnt
        return v

    return GridFunction(grid, _family_sup(grid, mode, score, within))


def m_delta(g: GridFunction, delta: float, mode: CubeFamilyMode = DYADIC, within: Cube | None = None) -> GridFunction:
    """Pointwise sup of delta-averages: (avg over Q of |g|^delta)^{1/delta}.

    The root is applied after the sup, which commutes with it since
    t -> t^{1/delta} is increasing.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be positive and finite")
    grid = g.grid
    table = BoxSums(grid, np.abs(g.values) ** delta)

    def score(lo, hi):
        cnt = 1
        for a in range(grid.n):
            cnt *= hi[a] - lo[a]
        return table.box_sum(lo, hi) / cnt

    out = _family_sup(grid, mode, score, within)
    return GridFunction(grid, out ** (1.0 / delta))


def grand_maximal(op: OperatorSpec, fs, mode: CubeFamilyMode = DYADIC) -> GridFunction:
    """Largest truncation gap over cubes containing the cell.

    For each family cube Q the score is the largest value over cells of
    Q of |T(f)(xi) - T(f restricted to 3Q)(xi)|; the output at a cell is
    the sup of scores over family cubes containing it.  This is the
    discrete grand maximal truncation operator driving the stopping
    construction.  Both truncations at a cell come from one kernel row
    over the whole domain (see ``_truncation_gap``), so T(f) is not
    applied separately.
    """
    fs = check_inputs(op, fs)
    return _truncation_gap(op, fs, mode, None)


def local_grand_maximal(op: OperatorSpec, fs, q0: DyadicCube, mode: CubeFamilyMode = DYADIC) -> GridFunction:
    """Localized variant: cubes range inside ``q0`` only and the
    reference truncation is at ``q0`` itself, T(f restricted to 3 q0).

    The output is a full grid function that vanishes outside ``q0``.
    For a single-cell ``q0`` the only competitor is ``q0`` and the gap
    is identically zero.  The kernel rows span the slot tuples in
    3 q0 only.
    """
    fs = check_inputs(op, fs)
    return _truncation_gap(op, fs, mode, q0)


def _sub_boxes(grid: GridSpec, ranks, lo: np.ndarray, hi: np.ndarray) -> list:
    """Indexes of the sub-arrays of a kernel row on the slot cells inside
    each box [lo[k], hi[k]), for (k, n) corner arrays.

    ``ranks[s][c]`` counts the slot-s cells with flat index below c, so
    each row of a box along the last axis is one run of positions.  In
    one dimension a box is a single run and its index is slices (a
    view); in two the runs of all rows of all boxes are found at once
    and joined per box into index arrays.
    """
    if grid.n == 1:
        return [tuple(slice(r[a], r[b]) for r in ranks) for a, b in zip(lo[:, 0].tolist(), hi[:, 0].tolist())]
    nrows = hi[:, 0] - lo[:, 0]
    first = np.cumsum(nrows) - nrows  # where each box's rows begin among all rows
    rows = np.arange(nrows.sum()) - np.repeat(first - lo[:, 0], nrows)
    heads = rows * grid.cells_per_side
    per_slot = []
    for r in ranks:
        start = r[heads + np.repeat(lo[:, 1], nrows)]
        lens = r[heads + np.repeat(hi[:, 1], nrows)] - start
        pos = np.arange(lens.sum()) + np.repeat(start - np.cumsum(lens) + lens, lens)
        per_slot.append(np.split(pos, np.cumsum(np.add.reduceat(lens, first))[:-1]))
    return [p if len(p) == 1 else np.ix_(*p) for p in zip(*per_slot)]


def _truncation_gap(op: OperatorSpec, fs, mode: CubeFamilyMode, within: Cube | None):
    """Pointwise sup, over family cubes Q inside ``within``, of the
    largest gap |T(f 1_R)(x) - T(f 1_3Q)(x)| over the cells x of Q,
    where R is 3 ``within``, or the whole domain when ``within`` is None.

    One pass over x.  Each x takes one kernel row over the nonzero slot
    tuples in R (``kernel_rows``); its sum against the input products
    is the reference T(f 1_R)(x).  Every family cube Q containing x has
    3Q inside R, so T(f 1_3Q)(x) is the same sum over the sub-box of
    the row on the nonzero slot cells of 3Q: the very array, in the very
    order, that applying T on 3Q alone would sum.  Scores are therefore
    bitwise those of a direct truncation per cube.  The parallel tasks
    are blocks of x (``x_blocks``), and each box keeps the max over its
    cells, which no schedule can change.
    """
    grid = op.grid
    N = grid.cells_per_side
    hm = grid.cell_volume() ** op.kernel.m
    if within is None:
        xs, rbox = np.arange(grid.num_cells), None
    else:
        xs, rbox = cube_flat_indices(grid, within), triple_cube(grid, within)
    boxes = list(family_boxes(grid, mode, within))
    lo = np.array([b[0] for b in boxes], dtype=np.intp).reshape(len(boxes), grid.n)
    hi = np.array([b[1] for b in boxes], dtype=np.intp).reshape(len(boxes), grid.n)
    lo3, hi3 = np.maximum(2 * lo - hi, 0), np.minimum(2 * hi - lo, N)  # 3Q, clipped like triple_cube

    def block(xb):
        idx, W, rows = kernel_rows(op, fs, xb, rbox)
        ranks = []
        for i in idx:
            r = np.zeros(grid.num_cells + 1, dtype=np.intp)
            r[i + 1] = 1
            ranks.append(np.cumsum(r))
        cells = np.stack(np.unravel_index(xb, (N,) * grid.n), axis=-1).tolist()
        ref = np.zeros(xb.size)
        gaps = np.zeros(len(boxes))
        for j, V in enumerate(rows):
            ref[j] = t_r = float(np.sum(V * W)) * hm
            inside = np.ones(len(boxes), dtype=bool)
            for a, c in enumerate(cells[j]):
                inside &= (lo[:, a] <= c) & (c < hi[:, a])
            qs = np.flatnonzero(inside)
            diffs = np.empty(qs.size)
            for k, sub in enumerate(_sub_boxes(grid, ranks, lo3[qs], hi3[qs])):
                Vq = V[sub]
                t_q = t_r if Vq.size == V.size else float(np.sum(Vq * W[sub])) * hm
                diffs[k] = abs(t_r - t_q)
            gaps[qs] = np.maximum(gaps[qs], diffs)  # NaN stays NaN
        return ref, gaps

    parts = parallel_map(block, x_blocks(op, fs, xs, rbox))
    if within is None and not all(np.all(np.isfinite(ref)) for ref, _ in parts):
        raise ArithmeticError("operator output is not finite")  # T(f) itself, as ``apply`` reports it
    scores = functools.reduce(np.maximum, [gaps for _, gaps in parts])
    out = np.zeros(grid.num_cells)
    for (blo, bhi), sc in zip(boxes, scores):
        _scatter_max(grid, out, blo, bhi, sc)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("truncation gap is not finite")
    return GridFunction(grid, out)


def best_of_shifted(compute, grid: GridSpec) -> GridFunction:
    """Pointwise max of ``compute(mode)`` over the dyadic family and
    every shifted variant; ``compute`` maps a mode to a GridFunction."""
    best = compute(DYADIC).values.copy()
    for mode in shifted_modes(grid.n):
        np.maximum(best, compute(mode).values, out=best)
    return GridFunction(grid, best)


@dataclass(frozen=True, eq=False)
class MTBoundReport:
    """Empirical constant in the pointwise truncation bound.

    c_emp is the largest, over cells with a positive denominator, of
    (grand maximal gap - delta-average term) over the r-average product
    term; the infinite flag records cells where the denominator
    vanishes but the numerator does not.
    """

    c_emp: float
    infinite_flag: bool
    kr_value: float
    argmax_cell: int

    def to_json_dict(self) -> dict:
        return {
            "c_emp": self.c_emp,
            "infinite_flag": self.infinite_flag,
            "kr_value": self.kr_value,
            "argmax_cell": self.argmax_cell,
        }


def mt_pointwise_bound_check(
    op: OperatorSpec, fs, r: float, kr_value: float, mode: CubeFamilyMode = DYADIC
) -> MTBoundReport:
    """Measure the constant in the pointwise bound on the grand maximal
    truncation: gap(x) <= c * (product maximal of |f_i|^r)^{1/r}(x)
    + (delta-average of T(f) at delta = r/4)(x).

    The report's c_emp is the smallest c making the bound hold on every
    cell of the grid where the maximal product term is positive.
    """
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("r must satisfy r >= 1")
    fs = check_inputs(op, fs)
    grid = op.grid
    gap = grand_maximal(op, fs, mode).values
    tf = apply(op, fs)
    md = m_delta(tf, r / 4.0, mode).values
    powered = [GridFunction(grid, np.abs(f.values) ** r) for f in fs]
    denom = multilinear_maximal(powered, mode).values ** (1.0 / r)
    num = np.maximum(gap - md, 0.0)
    pos = denom > 0.0
    flag = bool(np.any(~pos & (num > 0.0)))
    if np.any(pos):
        ratios = np.where(pos, num / np.where(pos, denom, 1.0), 0.0)
        arg = int(np.argmax(ratios))
        c_emp = float(ratios[arg])
    else:
        arg, c_emp = -1, 0.0
    return MTBoundReport(c_emp=c_emp, infinite_flag=flag, kr_value=kr_value, argmax_cell=arg)
