"""Constructive stopping-time builder for sparse families.

Starting from a root cube that carries the inputs, each node measures a
normalized level function on its cells: the pointwise product of the
inputs and the localized grand maximal truncation gap, both divided by
the product of r-averages over the tripled cube.  An adaptive threshold
keeps the exceptional set no larger than a 2^-(n+2) fraction of the
node, the exceptional cells are swallowed by a dyadic selection at
density 2^-(n+1), and the remainder of the node becomes its witness;
selected cubes recurse.  Counting alone then forces the selected cubes
to cover at most half the node, so witnesses are dense and pairwise
disjoint by construction, and the emitted family is 1/2-sparse with no
tuning knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    BoxSums,
    DyadicCube,
    cube_flat_indices,
    local_average,
    support_in,
    triple_cube,
)
from .maximal import DYADIC, CubeFamilyMode, family_boxes, local_grand_maximal, sub_grand_maximal
from .operators import OperatorSpec, check_inputs
from .sparse import InvariantViolation, SparseEntry, SparseFamily, sparse_eval


def adaptive_threshold(s_values: np.ndarray, n: int) -> float:
    """The (B+1)-th largest of the level values, B = floor(count / 2^{n+2}).

    Cells strictly above the threshold number at most B, so the
    exceptional set automatically fits the 2^-(n+2) budget; constant
    input (and any node smaller than 2^{n+2} cells) gets an empty
    exceptional set.
    """
    s = np.asarray(s_values, dtype=float).reshape(-1)
    if s.size == 0:
        raise ValueError("threshold needs at least one value")
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValueError("level values must be finite and nonnegative")
    budget = s.size >> (n + 2)
    return float(np.sort(s)[::-1][budget])


def cz_select(grid, q0: DyadicCube, e_cells) -> list:
    """Maximal dyadic strict subcubes of ``q0`` whose share of ``e_cells``
    exceeds 2^-(n+1).

    Preconditions: the exceptional cells lie in ``q0`` and number at
    most a 2^-(n+2) fraction of it, which keeps ``q0`` itself below the
    selection density.  One pass over the dyadic blocks of ``q0``'s
    strict subcubes, coarsest first: a cube is selected when its
    exceptional count exceeds 2^-(n+1) of its cells and its corner cell
    is not inside a cube already selected.  Every exceptional cell ends
    up covered, because a bare cell has density one.  Returned cubes are
    pairwise disjoint and sorted by (level, index).
    """
    n = grid.n
    e_idx = np.asarray(sorted(set(int(c) for c in e_cells)), dtype=int)
    q0_cells = set(cube_flat_indices(grid, q0).tolist())
    if e_idx.size and not set(e_idx.tolist()) <= q0_cells:
        raise ValueError("exceptional cells must lie inside the node cube")
    if e_idx.size << (n + 2) > len(q0_cells):
        raise ValueError("exceptional set exceeds its 2^-(n+2) budget")
    if e_idx.size == 0 or q0.level >= grid.L:
        return []
    mask = np.zeros(grid.num_cells)
    mask[e_idx] = 1.0
    table = BoxSums(grid, mask)
    taken = np.zeros((grid.cells_per_side,) * n, dtype=bool)
    out = []
    blocks = family_boxes(grid, DYADIC, within=q0)
    next(blocks)  # q0 itself
    for level, (lo, hi) in enumerate(blocks, start=q0.level + 1):
        w = 1 << (grid.L - level)
        dense = table.box_sum(lo, hi) > 0.5 ** (n + 1) * w**n
        for corner in lo[dense & ~taken[tuple(lo.T)]].tolist():
            taken[tuple(slice(c, c + w) for c in corner)] = True
            out.append(DyadicCube(level, tuple(c // w for c in corner)))
    return out


@dataclass(frozen=True, eq=False)
class BuilderNodeStats:
    """Per-node trace of the construction."""

    cube: DyadicCube
    scale: float
    tau: float
    e_count: int
    selected_count: int
    sum_pj_ratio: float
    witness_count: int

    def to_json_dict(self) -> dict:
        return {
            "cube": self.cube.to_json_dict(),
            "A": self.scale,
            "tau": self.tau,
            "E_cells": self.e_count,
            "selected": self.selected_count,
            "sum_Pj_ratio": self.sum_pj_ratio,
            "witness_cells": self.witness_count,
        }


def build_sparse_family(
    op: OperatorSpec,
    fs,
    root: DyadicCube,
    r: float,
    mode: CubeFamilyMode = DYADIC,
) -> tuple:
    """Run the stopping construction; returns (family, node stats, T f on
    the root's cells).

    Requires every input supported inside ``root`` and the tripled root
    contained in the domain, so no truncation is ever cut by the
    boundary.  The family's entries come out sorted by (level, index);
    the stats keep traversal (parent before child) order.

    One ``local_grand_maximal`` pass at the root runs first, for every
    family and every root, and the root node reads its gaps.  For the
    dyadic family no other node evaluates a row or a truncation sum:
    each reads its gaps off the root's truncation sums
    (``sub_grand_maximal``), bit for bit what its own pass would give.
    The shifted and all-cubes families take cubes off x's dyadic chain,
    so there every other node of more than one cell runs its own pass.

    The root values are that pass's reference sums T(f restricted to
    3 root), in ``cube_flat_indices`` order.  The inputs live in the
    root, so they are bitwise what ``apply_on_cells`` gives there.
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
    root_gaps, root_tf, sums = local_grand_maximal(op, fs, root, mode)  # sums: dyadic family only

    def visit(q0: DyadicCube, depth: int = 0):
        if depth > depth_cap:
            raise InvariantViolation("builder recursion exceeded its depth cap")
        tq = triple_cube(grid, q0)
        scale = 1.0
        for f in fs:
            scale *= local_average(f, tq, r)
        if scale == 0.0:
            return
        idx = cube_flat_indices(grid, q0)
        s = prod_vals[idx].copy()
        if depth == 0:
            np.maximum(s, root_gaps.values[idx], out=s)
        elif idx.size > 1:  # a one-cell node's only cube is itself, with gap 0
            gaps = local_grand_maximal(op, fs, q0, mode)[0] if sums is None else sub_grand_maximal(grid, root, sums, q0)
            np.maximum(s, gaps.values[idx], out=s)
        s /= scale
        if not np.all(np.isfinite(s)):
            where = f"level {q0.level} index {list(q0.index)}"
            raise ArithmeticError(f"level values are not finite on node cube {where}")
        tau = adaptive_threshold(s, grid.n)
        e_cells = idx[s > tau]
        selected = cz_select(grid, q0, e_cells)
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

    visit(root)
    entries.sort(key=lambda e: e.cube.sort_key())
    family = SparseFamily(grid=grid, root=root, gamma=0.5, entries=tuple(entries))
    return family, stats, root_tf


@dataclass(frozen=True, eq=False)
class DominationReport:
    """Empirical sparse domination constant on the root cells."""

    c_emp: float
    argmax_cell: int
    support_flag: bool

    def to_json_dict(self) -> dict:
        return {"c_emp": self.c_emp, "argmax_cell": self.argmax_cell, "support_flag": self.support_flag}


def domination_constant(op: OperatorSpec, fs, family: SparseFamily, r: float, tf_root: np.ndarray) -> DominationReport:
    """Smallest constant with |T f| <= C * sparse form on the root cells.

    ``tf_root`` is T f on the root's cells, in ``cube_flat_indices``
    order, as ``build_sparse_family`` returns it; a non-finite value
    has already stopped the build as a non-finite truncation gap.

    The support flag trips when the sparse form vanishes on a root cell
    where |T f| is not negligible (1e-12 of its largest value on the
    root), which would mean the family fails to see part of the output.
    An empty family yields zero with the flag set only if the operator
    output is itself nonzero.
    """
    fs = check_inputs(op, fs)
    idx = cube_flat_indices(op.grid, family.root)
    tf_root = np.abs(tf_root)
    sp_root = sparse_eval(family, fs, r).values[idx]
    scale = float(np.max(tf_root)) if idx.size else 0.0
    covered = sp_root > 0.0
    flag = bool(np.any(~covered & (tf_root > 1e-12 * scale) & (tf_root > 0.0)))
    if np.any(covered):
        ratios = np.where(covered, tf_root / np.where(covered, sp_root, 1.0), 0.0)
        arg = int(np.argmax(ratios))
        return DominationReport(c_emp=float(ratios[arg]), argmax_cell=int(idx[arg]), support_flag=flag)
    return DominationReport(c_emp=0.0, argmax_cell=-1, support_flag=flag)
