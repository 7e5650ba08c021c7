"""Dyadic grids on half-open box domains, cubes, and cell averages.

The domain ``origin + [0, side)^n`` is split into ``2**L`` equal cells
per axis.  All functions are piecewise constant on cells, so measures,
averages and essential suprema reduce to exact arithmetic over integer
cell counts.  Two cube flavours exist: ``DyadicCube`` addresses a node
of the dyadic tree by (level, index), while ``GridCube`` is an axis
aligned union of cells given by a corner and per-axis extents, which is
what dilation and clipping produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Guardrail on grid sizes: full cell arrays must stay comfortably in
# memory (2^14 cells in n=1, 2^16 in n=2).
MAX_LEVEL = {1: 14, 2: 8}


def _point(x) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 1:
        raise ValueError("a point must be a scalar or a 1-d coordinate tuple")
    return a


@dataclass(frozen=True)
class GridSpec:
    """An n-dimensional dyadic grid of depth L over origin + [0, side)^n."""

    n: int
    L: int
    origin: tuple
    side: float

    def __post_init__(self):
        if self.n not in MAX_LEVEL:
            raise ValueError(f"dimension must be one of {sorted(MAX_LEVEL)}")
        if not isinstance(self.L, int) or not 1 <= self.L <= MAX_LEVEL[self.n]:
            raise ValueError(f"depth L must be an integer in [1, {MAX_LEVEL[self.n]}] for n={self.n}")
        origin = tuple(float(v) for v in (self.origin if isinstance(self.origin, (tuple, list)) else (self.origin,)))
        if len(origin) != self.n:
            raise ValueError(f"origin must have {self.n} coordinates")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "side", float(self.side))
        if not np.isfinite(self.side) or self.side <= 0:
            raise ValueError("side must be a positive finite real")
        if not all(np.isfinite(origin)):
            raise ValueError("origin coordinates must be finite")

    @property
    def cells_per_side(self) -> int:
        return 1 << self.L

    @property
    def num_cells(self) -> int:
        return self.cells_per_side ** self.n

    @property
    def h(self) -> float:
        return self.side / self.cells_per_side

    def cell_volume(self) -> float:
        return self.h ** self.n

    def axis_centers(self, axis: int) -> np.ndarray:
        """Coordinates of cell centers along one axis."""
        s = self.cells_per_side
        return self.origin[axis] + self.h * (np.arange(s) + 0.5)

    def cell_center(self, multi: Sequence[int]) -> np.ndarray:
        return np.array([self.origin[a] + self.h * (multi[a] + 0.5) for a in range(self.n)])

    def multi_to_flat(self, multi: Sequence[int]) -> int:
        s = self.cells_per_side
        flat = 0
        for a in range(self.n):
            k = int(multi[a])
            if not 0 <= k < s:
                raise ValueError("cell index out of range")
            flat = flat * s + k
        return flat

    def flat_to_multi(self, flat: int) -> tuple:
        s = self.cells_per_side
        if not 0 <= flat < self.num_cells:
            raise ValueError("flat cell index out of range")
        multi = []
        for _ in range(self.n):
            multi.append(flat % s)
            flat //= s
        return tuple(reversed(multi))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "L": self.L, "origin": list(self.origin), "side": self.side}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        return cls(n=int(d["n"]), L=int(d["L"]), origin=tuple(d["origin"]), side=float(d["side"]))


@dataclass(frozen=True)
class DyadicCube:
    """A dyadic tree node: at ``level`` there are 2^level cubes per axis."""

    level: int
    index: tuple

    def __post_init__(self):
        if not isinstance(self.level, int) or self.level < 0:
            raise ValueError("level must be a nonnegative integer")
        idx = tuple(int(k) for k in (self.index if isinstance(self.index, (tuple, list)) else (self.index,)))
        object.__setattr__(self, "index", idx)
        top = 1 << self.level
        if not all(0 <= k < top for k in idx):
            raise ValueError("dyadic index out of range for its level")

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise ValueError("the root cube has no parent")
        return DyadicCube(self.level - 1, tuple(k >> 1 for k in self.index))

    def contains(self, other: "DyadicCube") -> bool:
        """Dyadic containment by address arithmetic, dimensions must match."""
        if len(self.index) != len(other.index):
            raise ValueError("cubes live in different dimensions")
        if other.level < self.level:
            return False
        shift = other.level - self.level
        return all((ko >> shift) == ks for ko, ks in zip(other.index, self.index))

    def sort_key(self) -> tuple:
        return (self.level, self.index)

    def to_json_dict(self) -> dict:
        return {"level": self.level, "index": list(self.index)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DyadicCube":
        return cls(level=int(d["level"]), index=tuple(int(k) for k in d["index"]))


@dataclass(frozen=True)
class GridCube:
    """An axis-aligned block of cells: corner plus per-axis extent.

    ``clipped`` records that a dilation was cut back to the domain.  A
    plain (unclipped) cube has equal extents on every axis; clipping at
    a domain edge can leave a rectangle, which downstream code treats
    exactly like any other cell block.
    """

    corner: tuple
    shape: tuple
    clipped: bool = False

    def __post_init__(self):
        corner = tuple(int(k) for k in (self.corner if isinstance(self.corner, (tuple, list)) else (self.corner,)))
        shape = tuple(int(k) for k in (self.shape if isinstance(self.shape, (tuple, list)) else (self.shape,)))
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "shape", shape)
        if len(corner) != len(shape):
            raise ValueError("corner and shape must have the same length")
        if any(k < 0 for k in corner) or any(s < 1 for s in shape):
            raise ValueError("corner must be nonnegative and shape at least one cell per axis")


Cube = DyadicCube | GridCube


def cell_box(grid: GridSpec, cube: Cube) -> tuple:
    """Half-open cell-index box ``(lo, hi)`` of a cube, per axis."""
    s = grid.cells_per_side
    if isinstance(cube, DyadicCube):
        if len(cube.index) != grid.n:
            raise ValueError("cube dimension does not match the grid")
        if cube.level > grid.L:
            raise ValueError("cube is finer than the grid resolution")
        w = 1 << (grid.L - cube.level)
        lo = tuple(k * w for k in cube.index)
        hi = tuple(k * w + w for k in cube.index)
    else:
        if len(cube.corner) != grid.n:
            raise ValueError("cube dimension does not match the grid")
        lo = cube.corner
        hi = tuple(c + e for c, e in zip(cube.corner, cube.shape))
    if any(h > s for h in hi):
        raise ValueError("cube extends beyond the grid")
    return lo, hi


def cube_cell_count(grid: GridSpec, cube: Cube) -> int:
    lo, hi = cell_box(grid, cube)
    count = 1
    for a in range(grid.n):
        count *= hi[a] - lo[a]
    return count


def children(grid: GridSpec, cube: DyadicCube) -> list:
    """The 2^n dyadic children, refusing to descend below the grid."""
    if not isinstance(cube, DyadicCube):
        raise TypeError("only dyadic cubes have children")
    if len(cube.index) != grid.n:
        raise ValueError("cube dimension does not match the grid")
    if cube.level >= grid.L:
        raise ValueError("cube is a leaf at this grid resolution")
    kids = []
    for offs in np.ndindex(*(2,) * grid.n):
        kids.append(DyadicCube(cube.level + 1, tuple(2 * k + o for k, o in zip(cube.index, offs))))
    return kids


def triple_cube(grid: GridSpec, cube: Cube) -> GridCube:
    """Concentric 3x dilation in cell units, clipped to the domain."""
    s = grid.cells_per_side
    lo, hi = cell_box(grid, cube)
    corner, shape = [], []
    clipped = False
    for a in range(grid.n):
        w = hi[a] - lo[a]
        lo3, hi3 = lo[a] - w, hi[a] + w
        if lo3 < 0:
            lo3, clipped = 0, True
        if hi3 > s:
            hi3, clipped = s, True
        corner.append(lo3)
        shape.append(hi3 - lo3)
    return GridCube(tuple(corner), tuple(shape), clipped)


def cube_slices(grid: GridSpec, cube: Cube) -> tuple:
    lo, hi = cell_box(grid, cube)
    return tuple(slice(lo[a], hi[a]) for a in range(grid.n))


def cube_flat_indices(grid: GridSpec, cube: Cube) -> np.ndarray:
    """Flat indices of a cube's cells in ascending (row-major) order."""
    lo, hi = cell_box(grid, cube)
    axes = [np.arange(lo[a], hi[a]) for a in range(grid.n)]
    if grid.n == 1:
        return axes[0]
    s = grid.cells_per_side
    return (axes[0][:, None] * s + axes[1][None, :]).ravel()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A cellwise-constant function: one finite float per grid cell.

    ``values`` is stored row major (flat index = i0 * S + i1 in n=2) and
    is made read only so functions can be shared safely.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if vals.shape != (self.grid.num_cells,):
            raise ValueError(f"expected {self.grid.num_cells} cell values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("cell values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def as_array(self) -> np.ndarray:
        """Values reshaped to the n-dimensional cell layout (read only)."""
        s = self.grid.cells_per_side
        return self.values.reshape((s,) * self.grid.n)

    def to_json(self) -> str:
        d = self.grid.to_json_dict()
        d["values"] = self.values.tolist()
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GridFunction":
        d = json.loads(text)
        grid = GridSpec.from_json_dict(d)
        return cls(grid, np.asarray(d["values"], dtype=float))


def cube_values(f: GridFunction, cube: Cube) -> np.ndarray:
    """The cells of ``cube`` out of ``f`` in row-major order (1-d copy)."""
    return f.as_array()[cube_slices(f.grid, cube)].ravel()


def support_in(f: GridFunction, cube: Cube) -> bool:
    """True when every nonzero cell of ``f`` lies inside ``cube``."""
    arr = f.as_array()
    total = np.count_nonzero(arr)
    inside = np.count_nonzero(arr[cube_slices(f.grid, cube)])
    return total == inside


class BoxSums:
    """O(1) box sums of a cell array via an inclusive prefix table."""

    def __init__(self, grid: GridSpec, cell_values: np.ndarray):
        self.grid = grid
        a = cell_values.reshape((grid.cells_per_side,) * grid.n)
        if grid.n == 1:
            self.table = np.concatenate([[0.0], np.cumsum(a)])
        else:
            t = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
            t[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
            self.table = t

    def box_sum(self, lo, hi) -> float:
        t = self.table
        if self.grid.n == 1:
            return float(t[hi[0]] - t[lo[0]])
        return float(t[hi[0], hi[1]] - t[lo[0], hi[1]] - t[hi[0], lo[1]] + t[lo[0], lo[1]])


def local_average(f: GridFunction, cube: Cube, r: float, normalizer: Cube | None = None) -> float:
    """r-average of |f| over a cube, ``(avg of |f|^r)^(1/r)``.

    Parameters
    ----------
    f : GridFunction
    cube : cube to integrate over (``r``-power mass is summed here).
    r : averaging exponent, must satisfy r >= 1.
    normalizer : optional cube whose measure replaces ``cube``'s in the
        normalization.  This is for averages over a dilated cube
        normalized by the original one; both cubes must live on ``f``'s
        grid and the quotient of measures reduces to a cell-count ratio.

    The cell sum runs in ascending cell order through ``numpy.sum`` so
    repeated calls reduce in one fixed order.
    """
    if r < 1:
        raise ValueError("averaging exponent r must be >= 1")
    vals = np.abs(cube_values(f, cube))
    denom = cube_cell_count(f.grid, normalizer if normalizer is not None else cube)
    return float(np.sum(vals ** r) / denom) ** (1.0 / r)
