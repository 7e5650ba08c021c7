"""Maximal operators over configurable cube families.

Three families are supported.  ``Dyadic`` is the grid's own tree.
``AllGridCubes`` is every axis-aligned cube made of whole cells at
every integer side length.  A shifted family translates each dyadic
generation by a per-axis third of the cube side (rounded to whole
cells) and keeps the translates that fit inside the domain; the base
end cubes of the same width are what bound a cube falling into the
truncated boundary slot, so best-of-shifted still covers every grid
cube within a factor 6 of side length per axis.

A family comes as blocks of cubes of one side: one block per dyadic
level, or per side length for the all-cubes family, each a pair of
(k, n) integer corner arrays.  Averaging scores are prefix-sum box sums
read for a whole block at once with array arithmetic.  A given cube's
score is one fixed arithmetic expression no matter which family or
block asked for it, so pointwise family comparisons are exact, not
approximate.

The grand maximal truncation gaps run in one pass over blocks of x.
Each block is a stack of kernel rows K(x, .) over the slot tuples of
the reference truncation, and every family cube meeting the block reads
its truncation at 3Q as one batched sum over a sub-box of those rows,
per run: the block's cells of Q on one grid row, found by one integer
lookup for every family.  Kernel evaluations drop from one row per cube
and cell to one row per cell, and sums from one per cell and cube to one
per run, while every cell's sum stays the exact array, in the exact
order, that a separate truncation to 3Q would sum.  For the dyadic
family the pass keeps these sums as a table, one column per level of
x's dyadic chain, and the gaps of every dyadic cube inside it can be
read off that table (``sub_grand_maximal``).
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
    triple_boxes,
    triple_cube,
)
from .operators import OperatorSpec, check_inputs, kernel_rows, x_blocks
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
    return [CubeFamilyMode("shifted", combo) for combo in itertools.product(range(3), repeat=n) if any(combo)]


def family_error(mode: CubeFamilyMode, grid: GridSpec) -> str | None:
    """Why the family cannot be formed on the grid, or None when it can:
    a shifted family takes one shift per axis."""
    if mode.kind == "shifted" and len(mode.shifts) != grid.n:
        return f"shifted family needs one third per grid axis ({grid.n}), got {len(mode.shifts)}"
    return None


def family_boxes(grid: GridSpec, mode: CubeFamilyMode, within: Cube | None = None):
    """Yield the family's cubes, restricted to cubes contained in
    ``within`` when given, as blocks (lo, hi) of (k, n) integer corner
    arrays; row i of a block is the cell box [lo[i], hi[i]).

    The dyadic and shifted families give one block per dyadic level,
    coarsest first, and ``all`` one block per side length, smallest
    first.  Every cube of a block has the same side, corners run in
    row-major order within a block, and empty blocks are skipped.
    Blocks may be views of one array, so callers only read them.
    """
    problem = family_error(mode, grid)
    if problem:
        raise ValueError(problem)
    n = grid.n
    wlo, whi = cell_box(grid, within)
    if mode.kind == "all":  # side-w corners: the leading sub-box of the side-1 corners, built once
        corners = np.stack(np.meshgrid(*map(np.arange, wlo, whi), indexing="ij"), axis=-1)
        for w in range(1, min(h - l for l, h in zip(wlo, whi)) + 1):
            lo = corners[tuple(slice(h - l - w + 1) for l, h in zip(wlo, whi))].reshape(-1, n)
            yield lo, lo + w
        return
    shifts = mode.shifts if mode.kind == "shifted" else (0,) * n
    for w in [1 << (grid.L - lev) for lev in range(grid.L + 1)]:
        axis_starts = []
        for a in range(n):
            off = (shifts[a] * w) // 3
            i_min = -((off - wlo[a]) // w)  # ceil((wlo - off) / w)
            i_max = (whi[a] - w - off) // w
            axis_starts.append(off + w * np.arange(i_min, i_max + 1))
        lo = np.stack(np.meshgrid(*axis_starts, indexing="ij"), axis=-1).reshape(-1, n)
        if lo.size:
            yield lo, lo + w


def _scatter_block(out: np.ndarray, lo: np.ndarray, hi: np.ndarray, scores: np.ndarray) -> None:
    """Raise ``out``, an n-dimensional cell array, to each box's score on
    the box's cells, for one block of boxes of equal shape.

    Each score sits on its box's corner cell and is spread over the box
    by a running max of the box's width along each axis, widened by
    doubling.  Max is exact and order free, so this is bitwise a box by
    box scatter; a NaN score spreads as NaN.  Scores must be
    nonnegative, as the empty cells read zero.
    """
    acc = np.zeros(out.shape)
    acc[tuple(lo.T)] = scores
    for a, w in enumerate((hi[0] - lo[0]).tolist()):
        v = np.moveaxis(acc, a, 0)  # a view: writes land in acc
        span = 1
        while span < w:  # v[i] is the max over corners c with i - span < c <= i
            step = min(span, w - span)
            v[step:] = np.maximum(v[step:], v[:-step])
            span += step
    np.maximum(out, acc, out=out)


def _average_sup(grid: GridSpec, mode: CubeFamilyMode, cell_arrays) -> np.ndarray:
    """Pointwise sup over the family of the product of the plain averages
    over the cube of the given nonnegative cell arrays; zero on cells no
    family member covers."""
    tables = [BoxSums(grid, v) for v in cell_arrays]
    out = np.zeros((grid.cells_per_side,) * grid.n)
    for lo, hi in family_boxes(grid, mode):
        cnt = np.prod(hi - lo, axis=1)
        score = np.ones(len(lo))
        for t in tables:
            score *= t.box_sum(lo, hi) / cnt
        _scatter_block(out, lo, hi, score)
    return out.reshape(-1)


def multilinear_maximal(fs, mode: CubeFamilyMode = DYADIC) -> GridFunction:
    """Pointwise sup over cubes containing x of the product of the
    plain averages of |f_i| over the cube."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one input function")
    grid = fs[0].grid
    for f in fs:
        if f.grid != grid:
            raise ValueError("inputs must share one grid")
    return GridFunction(grid, _average_sup(grid, mode, [np.abs(f.values) for f in fs]))


def m_delta(g: GridFunction, delta: float, mode: CubeFamilyMode = DYADIC) -> GridFunction:
    """Pointwise sup of delta-averages: (avg over Q of |g|^delta)^{1/delta}.

    The root is applied after the sup, which commutes with it since
    t -> t^{1/delta} is increasing.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be positive and finite")
    out = _average_sup(g.grid, mode, [np.abs(g.values) ** delta])
    return GridFunction(g.grid, out ** (1.0 / delta))


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
    return _truncation_gap(op, fs, mode, None)[0]


def local_grand_maximal(op: OperatorSpec, fs, q0: DyadicCube, mode: CubeFamilyMode = DYADIC) -> tuple:
    """Localized variant: cubes range inside ``q0`` only and the
    reference truncation is at ``q0`` itself, T(f restricted to 3 q0).

    Returns (gaps, reference, sums).  The gaps are a full grid function
    that vanishes outside ``q0``; for a single-cell ``q0`` the only
    competitor is ``q0`` and the gap is identically zero.  The reference
    holds T(f restricted to 3 q0) on ``q0``'s cells, in
    ``cube_flat_indices`` order: for inputs supported in 3 q0 it is
    bitwise ``apply_on_cells`` there.  The kernel rows span the slot
    tuples in 3 q0 only, one row per cell of ``q0``.

    For the dyadic family, ``sums`` is the table S[x, l] =
    T(f 1_{3 Q_l(x)})(x), one row per cell x of ``q0`` in the
    reference's order and one column per level l from ``q0``'s down to
    the grid's, where Q_l(x) is the dyadic cube of level l holding x;
    its first column is the reference.  ``sub_grand_maximal`` reads the
    gaps of any dyadic cube inside ``q0`` off it.  For the other
    families ``sums`` is None.
    """
    fs = check_inputs(op, fs)
    return _truncation_gap(op, fs, mode, q0)


def sub_grand_maximal(grid: GridSpec, root: DyadicCube, sums: np.ndarray, q0: DyadicCube) -> GridFunction:
    """``local_grand_maximal(op, fs, q0)[0]``, dyadic family, bit for
    bit, for a dyadic ``q0`` inside ``root``, read off the truncation
    sums of ``local_grand_maximal(op, fs, root)``; no kernel row and no
    truncation sum is evaluated.

    The gap of a dyadic Q inside ``q0`` is the largest of
    |S[x, lev q0] - S[x, lev Q]| over the cells x of Q.  Each entry is
    the sum over the nonzero slot cells of 3Q_l(x), in the order in which
    the pass of ``q0`` itself would sum it, so the bits are that pass's.
    Raises ArithmeticError as that pass does when a gap is not finite.
    """
    (rlo, rhi), (qlo, qhi) = cell_box(grid, root), cell_box(grid, q0)
    table = sums.reshape((rhi[0] - rlo[0],) * grid.n + (-1,))
    table = table[(*(slice(a - r, b - r) for a, b, r in zip(qlo, qhi, rlo)), slice(q0.level - root.level, None))]
    blocks = list(family_boxes(grid, DYADIC, q0))
    return _scattered(grid, blocks, _dyadic_scores(blocks, table.reshape(-1, len(blocks))))


def _sub_boxes(grid: GridSpec, ranks, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Indexes of the sub-arrays of a kernel row on the slot cells inside
    each box [lo[k], hi[k]), for (k, n) corner arrays, and per box whether
    it holds every slot cell, read off the sizes of its runs.

    ``ranks[s][c]`` counts the slot-s cells with flat index below c, so
    each row of a box along the last axis is one run of positions.  In
    one dimension a box is a single run and its index is slices (a
    view); in two the runs of all rows of all boxes are found at once
    and joined per box into index arrays.
    """
    if grid.n == 1:
        first, last = lo[:, 0], hi[:, 0]
        full = np.logical_and.reduce([r[last] - r[first] == r[-1] for r in ranks])
        return [tuple(slice(r[a], r[b]) for r in ranks) for a, b in zip(first.tolist(), last.tolist())], full.tolist()
    nrows = hi[:, 0] - lo[:, 0]
    first = np.cumsum(nrows) - nrows  # where each box's rows begin among all rows
    rows = np.arange(nrows.sum()) - np.repeat(first - lo[:, 0], nrows)
    heads = rows * grid.cells_per_side
    per_slot, full = [], True
    for r in ranks:
        start = r[heads + np.repeat(lo[:, 1], nrows)]
        lens = r[heads + np.repeat(hi[:, 1], nrows)] - start
        pos = np.arange(lens.sum()) + np.repeat(start - np.cumsum(lens) + lens, lens)
        sizes = np.add.reduceat(lens, first)
        full &= sizes == r[-1]
        per_slot.append(np.split(pos, np.cumsum(sizes)[:-1]))
    return [p if len(p) == 1 else np.ix_(*p) for p in zip(*per_slot)], full.tolist()


def _truncation_gap(op: OperatorSpec, fs, mode: CubeFamilyMode, within: Cube | None) -> tuple:
    """Pointwise sup, over family cubes Q inside ``within``, of the
    largest gap |T(f 1_R)(x) - T(f 1_3Q)(x)| over the cells x of Q,
    where R is 3 ``within``, or the whole domain when ``within`` is None;
    returned with the reference T(f 1_R) on the cells of ``within`` and,
    for the dyadic family, the table of truncation sums that
    ``local_grand_maximal`` describes (None for the other families).

    One pass over blocks of consecutive x.  Each block is a stack of
    kernel rows over the nonzero slot tuples in R (``kernel_rows``); one
    sum of it against the input products gives the reference T(f 1_R)(x)
    for every x of the block.  Every family cube Q meeting the block has
    3Q inside R, so T(f 1_3Q)(x) for the block's x in Q is one sum over
    the sub-box of their rows on the nonzero slot cells of 3Q, indexed
    once per task (``_sub_boxes``).  Each product is laid out in C order
    before it is summed over the slot axes, so each x's sum is the very
    array, in the very order, that applying T on 3Q alone would sum, and
    scores are bitwise those of a direct truncation per cube.  The
    parallel tasks are blocks of x (``x_blocks``), and each box keeps the
    max over its cells, which no schedule can change.

    Every family finds the cubes holding a block's x with ``_runs``: per
    grid row of ``within``, each cube and the run of rows it holds.  The
    dyadic family writes each run's sums into the table at the cube's
    level (column 0 is its first block, ``within``) and reads the gaps
    off it; the others keep each cube's largest gap.  When 3Q holds every
    nonzero slot cell, which the sizes of its sub-box tell, T(f 1_3Q) is
    T(f 1_R): the dyadic table copies it, and the other families skip the
    run, whose gap is 0, or raises after the pass where T(f 1_R) is not
    finite.
    """
    grid = op.grid
    hm = grid.cell_volume() ** op.kernel.m
    xs, rbox = cube_flat_indices(grid, within), triple_cube(grid, within)
    blocks = list(family_boxes(grid, mode, within))
    lo3, hi3 = triple_boxes(grid, *(np.concatenate(corners) for corners in zip(*blocks)))
    dyadic = mode.kind == "dyadic"
    runs = _runs(blocks, int(dyadic), *cell_box(grid, within))

    def block(task):
        start, xb = task
        idx, W, row_blocks = kernel_rows(op, fs, xb, rbox)
        ranks = [np.cumsum(np.bincount(i + 1, minlength=grid.num_cells + 1)) for i in idx]
        subs, full = _sub_boxes(grid, ranks, lo3, hi3)
        axes = tuple(range(1, W.ndim + 1))
        sums = np.empty((xb.size, len(blocks) if dyadic else 1))
        gaps, at = [0.0] * len(lo3), 0
        for V in row_blocks:
            t_r = sums[at : at + len(V), 0] = np.sum(V * W, axis=axes) * hm
            for c, q, k0, k1 in runs(start + at, start + at + len(V)):
                # T(f 1_3Q)(x) for the rows k0 <= k < k1 of V, in cube q
                if full[q] and not dyadic:
                    continue
                t_q = t_r[k0:k1] if full[q] else np.multiply(V[k0:k1][(slice(None), *subs[q])], W[subs[q]], order="C").sum(axis=axes) * hm
                if dyadic:
                    sums[at + k0 : at + k1, c] = t_q
                else:
                    g = abs(t_r[k0] - t_q[0]) if k1 - k0 == 1 else np.abs(t_r[k0:k1] - t_q).max()
                    if g > gaps[q] or g != g:  # NaN stays NaN
                        gaps[q] = g
            at += len(V)
        return sums, gaps

    tasks = x_blocks(op, fs, xs, rbox)
    parts = parallel_map(block, zip(np.cumsum([0] + [t.size for t in tasks]).tolist(), tasks))
    sums = np.concatenate([sums for sums, _ in parts])
    ref = sums[:, 0].copy()
    if not np.all(np.isfinite(ref)):  # T(f) itself, as ``apply`` reports it, or the first cell whose own T(f 1_R) is not
        raise ArithmeticError("operator output is not finite" if within is None else f"truncation gap is not finite at cell {xs[np.argmin(np.isfinite(ref))]}")
    if dyadic:
        return _scattered(grid, blocks, _dyadic_scores(blocks, sums)), ref, sums
    return _scattered(grid, blocks, functools.reduce(np.maximum, [np.array(gaps) for _, gaps in parts])), ref, None


def _runs(blocks, skip: int, wlo, whi):
    """The run enumerator: a function of (p0, p1) yielding (c, q, k0, k1)
    for each grid row of the cube [wlo, whi) hit by its row-major positions
    [p0, p1) and each cube q of block c >= ``skip`` holding cells of that
    row, at positions p0 + k, k0 <= k < k1.  A block's corners along an
    axis are a + step * i; its cubes of side w holding cells l..h have
    ceil((l - a - w + 1) / step) <= i <= floor((h - a) / step)."""
    n, side = len(wlo), whi[0] - wlo[0]
    lead = [[wlo[d] + r // side ** (n - 2 - d) % side for d in range(n - 1)] for r in range(side ** (n - 1))]
    rows, first = [[] for _ in lead], sum(len(lo) for lo, _ in blocks[:skip])
    for c, (lo, hi) in enumerate(blocks[skip:], skip):  # corners: a row-major grid, (a, step, count) per axis
        w = int(hi[0, 0] - lo[0, 0])
        axes = [(v[0], v[1] - v[0] if len(v) > 1 else 1, len(v)) for v in (sorted(set(v.tolist())) for v in lo.T)]
        for x, out in zip(lead, rows):  # the cubes holding the row's leading coordinates x, at last index 0
            qs = [0]
            for (a, step, cnt), l in zip(axes, x):
                span = range(max(0, -((a + w - 1 - l) // step)), min(cnt, (l - a) // step + 1))
                qs = [q * cnt + i for q in qs for i in span]
            out.append((c, [first + q * axes[-1][2] for q in qs], w, *axes[-1]))
        first += len(lo)

    def runs(p0: int, p1: int):
        for r in range(p0 // side, (p1 - 1) // side + 1):
            u0, u1 = wlo[-1] + max(p0 - r * side, 0), wlo[-1] + min(p1 - r * side, side)
            k = r * side - wlo[-1] - p0  # cell u of row r is at position p0 + k + u
            for c, qs, w, a, step, cnt in rows[r]:
                for j in range(max(0, -((a + w - 1 - u0) // step)), min(cnt, (u1 - 1 - a) // step + 1)):
                    e = a + step * j
                    for q in qs:
                        yield c, q + j, k + max(e, u0), k + min(e + w, u1)

    return runs


def _dyadic_scores(blocks, sums: np.ndarray) -> np.ndarray:
    """The score of every dyadic cube of ``blocks``, in block order: the
    largest |S[x, 0] - S[x, c]| over its cells x, for the cubes of block
    c.  ``sums`` holds S with its rows in row-major order over the first
    block's cube; NaN stays NaN."""
    n, side = blocks[0][0].shape[1], int(blocks[0][1][0, 0] - blocks[0][0][0, 0])
    d = np.abs(sums[:, :1] - sums)
    cells = tuple(range(1, 2 * n, 2))  # the cells of each cube of block c, of side side >> c
    return np.concatenate([d[:, c].reshape((1 << c, side >> c) * n).max(axis=cells).reshape(-1) for c in range(len(blocks))])


def _scattered(grid: GridSpec, blocks, scores: np.ndarray) -> GridFunction:
    """Each cell's largest score over the family cubes of ``blocks``
    holding it, with the scores in block order; ArithmeticError, naming
    the first cell, when one is not finite."""
    out = np.zeros((grid.cells_per_side,) * grid.n)
    ends = np.cumsum([len(b) for b, _ in blocks])
    for (blo, bhi), sc in zip(blocks, np.split(scores, ends[:-1])):
        _scatter_block(out, blo, bhi, sc)
    out = out.reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"truncation gap is not finite at cell {int(np.argmin(np.isfinite(out)))}")
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
    argmax_cell: int


def mt_pointwise_bound_check(op: OperatorSpec, fs, r: float) -> MTBoundReport:
    """Measure the constant in the pointwise bound on the grand maximal
    truncation: gap(x) <= c * (product maximal of |f_i|^r)^{1/r}(x)
    + (delta-average of T(f) at delta = r/4)(x), every maximal function
    over the dyadic family.

    The report's c_emp is the smallest c making the bound hold on every
    cell of the grid where the maximal product term is positive.
    """
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("r must satisfy r >= 1")
    fs = check_inputs(op, fs)
    grid = op.grid
    gap, tf, _ = _truncation_gap(op, fs, DYADIC, None)  # T f on every cell, as ``apply`` gives it
    md = m_delta(GridFunction(grid, tf), r / 4.0).values
    powered = [GridFunction(grid, np.abs(f.values) ** r) for f in fs]
    denom = multilinear_maximal(powered).values ** (1.0 / r)
    num = np.maximum(gap.values - md, 0.0)
    pos = denom > 0.0
    flag = bool(np.any(~pos & (num > 0.0)))
    ratios = np.where(pos, num / np.where(pos, denom, 1.0), 0.0)
    arg = int(np.argmax(ratios)) if np.any(pos) else -1
    c_emp = float(ratios[arg]) if arg >= 0 else 0.0
    return MTBoundReport(c_emp=c_emp, infinite_flag=flag, argmax_cell=arg)
