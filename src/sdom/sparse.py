"""Sparse cube families: storage, verification, and evaluation.

A sparse family is a set of dyadic cubes, each paired with a witness
subset of its cells; the family is gamma-sparse when every witness
holds at least gamma of its cube's cells and the witnesses are pairwise
disjoint.  Verification runs on exact integer cell counts, so for
gamma = 1/2 (whose product with any cell count is an exact float) the
checks carry no rounding at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_cell_count,
    cube_flat_indices,
    local_average,
)


class InvariantViolation(RuntimeError):
    """A structural guarantee failed at run time."""


@dataclass(frozen=True, eq=False)
class SparseEntry:
    """One selected cube with its witness cells (flat indices, strictly
    increasing) and the stopping threshold that produced it."""

    cube: DyadicCube
    witness: tuple
    tau: float

    def __post_init__(self):
        wit = tuple(int(i) for i in self.witness)
        object.__setattr__(self, "witness", wit)
        if any(b <= a for a, b in zip(wit, wit[1:])):
            raise ValueError("witness cells must be strictly increasing")


@dataclass(frozen=True, eq=False)
class SparseFamily:
    """An ordered family of entries over one grid, with the root cube
    the construction started from and its target density."""

    grid: GridSpec
    root: DyadicCube
    gamma: float
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        for e in self.entries:
            if not isinstance(e, SparseEntry):
                raise TypeError("entries must be SparseEntry values")

    def cubes(self) -> list:
        return [e.cube for e in self.entries]

    def to_json(self) -> str:
        d = {
            "grid": self.grid.to_json_dict(),
            "root": self.root.to_json_dict(),
            "gamma": self.gamma,
            "entries": [
                {
                    "level": e.cube.level,
                    "index": list(e.cube.index),
                    "witness_cells": list(e.witness),
                    "tau": e.tau,
                }
                for e in self.entries
            ],
        }
        return json.dumps(d, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class SparsityReport:
    """Outcome of the witness check: each clause separately, plus the
    worst witness density and where it occurs (-1 when empty)."""

    ok: bool
    containment_ok: bool
    disjoint_ok: bool
    count_ok: bool
    worst_index: int
    worst_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "containment_ok": self.containment_ok,
            "disjoint_ok": self.disjoint_ok,
            "count_ok": self.count_ok,
            "worst_index": self.worst_index,
            "worst_ratio": self.worst_ratio,
        }


def verify_witness_sparsity(family: SparseFamily) -> SparsityReport:
    """Check the three sparseness clauses on exact integer counts.

    Containment: every witness cell lies in its cube.  Disjointness:
    no cell appears in two witnesses.  Count: len(witness) >=
    ``family.gamma`` * cells(cube), exact whenever gamma times the cell
    count is an exact float, as it is for the standard gamma = 1/2 at
    any count.
    """
    grid, gamma = family.grid, family.gamma
    containment_ok = True
    count_ok = True
    worst_index, worst_ratio = -1, float("inf")
    seen = []
    for i, e in enumerate(family.entries):
        cells = set(cube_flat_indices(grid, e.cube).tolist())
        wit = set(e.witness)
        if not wit <= cells:
            containment_ok = False
        total = cube_cell_count(grid, e.cube)
        if len(wit) < gamma * total:
            count_ok = False
        ratio = len(wit) / total
        if ratio < worst_ratio:
            worst_index, worst_ratio = i, ratio
        seen.append(e.witness)
    flat = [c for w in seen for c in w]
    disjoint_ok = len(flat) == len(set(flat))
    if worst_index < 0:
        worst_ratio = 1.0
    return SparsityReport(
        ok=containment_ok and disjoint_ok and count_ok,
        containment_ok=containment_ok,
        disjoint_ok=disjoint_ok,
        count_ok=count_ok,
        worst_index=worst_index,
        worst_ratio=worst_ratio,
    )


def carleson_sum(family: SparseFamily) -> float:
    """max over family cubes Q of sum of |P| over family cubes P inside
    Q, divided by |Q|; computed on integer cell counts.  Zero for the
    empty family.  A gamma-sparse family always stays at or below
    1/gamma, which makes this a quick structural cross-check."""
    cubes = family.cubes()
    if not cubes:
        return 0.0
    grid = family.grid
    counts = [cube_cell_count(grid, q) for q in cubes]
    best = 0.0
    for i, q in enumerate(cubes):
        tot = 0
        for j, p in enumerate(cubes):
            if q.contains(p):
                tot += counts[j]
        best = max(best, tot / counts[i])
    return best


def sparse_eval(family: SparseFamily, fs, r: float) -> GridFunction:
    """The sparse form: sum over family cubes of the product of r-averages
    of the inputs over the cube, spread as a constant on the cube.

    Entries accumulate in their stored order, which the builder fixes
    canonically, so evaluation is reproducible bit for bit.
    """
    fs = tuple(fs)
    grid = family.grid
    for f in fs:
        if f.grid != grid:
            raise ValueError("inputs must live on the family's grid")
    if r < 1:
        raise ValueError("averaging exponent r must be >= 1")
    out = np.zeros(grid.num_cells)
    for e in family.entries:
        val = 1.0
        for f in fs:
            val *= local_average(f, e.cube, r)
        out[cube_flat_indices(grid, e.cube)] += val
    return GridFunction(grid, out)
