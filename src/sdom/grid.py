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

import numpy as np

# Guardrail on grid sizes: full cell arrays must stay comfortably in
# memory (2^14 cells in n=1, 2^16 in n=2).
MAX_LEVEL = {1: 14, 2: 8}


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

    def to_json_dict(self) -> dict:
        return {"n": self.n, "L": self.L, "origin": list(self.origin), "side": self.side}


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


def cell_box(grid: GridSpec, cube: Cube | None) -> tuple:
    """Half-open cell-index box ``(lo, hi)`` of a cube, per axis; the
    whole domain ``((0,) * n, (S,) * n)`` when ``cube`` is None."""
    s = grid.cells_per_side
    if cube is None:
        return (0,) * grid.n, (s,) * grid.n
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


def triple_boxes(grid: GridSpec, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Concentric 3x dilations, in cell units, of the boxes [lo[i],
    hi[i]) given as (k, n) corner arrays, clipped to the domain."""
    return np.maximum(2 * lo - hi, 0), np.minimum(2 * hi - lo, grid.cells_per_side)


def triple_cube(grid: GridSpec, cube: Cube | None) -> GridCube:
    """``triple_boxes`` of one cube (of the whole domain when None);
    ``clipped`` is True when some extent is cut short of three times the
    cube's."""
    lo, hi = (np.array([v]) for v in cell_box(grid, cube))
    lo3, hi3 = triple_boxes(grid, lo, hi)
    shape = hi3 - lo3
    return GridCube(tuple(lo3[0].tolist()), tuple(shape[0].tolist()), bool(np.any(shape != 3 * (hi - lo))))


def cube_slices(grid: GridSpec, cube: Cube) -> tuple:
    lo, hi = cell_box(grid, cube)
    return tuple(slice(lo[a], hi[a]) for a in range(grid.n))


def cube_flat_indices(grid: GridSpec, cube: Cube | None) -> np.ndarray:
    """Flat indices of a cube's cells (every cell when ``cube`` is None)
    in ascending (row-major) order."""
    lo, hi = cell_box(grid, cube)
    flat = np.arange(lo[0], hi[0])
    for a in range(1, grid.n):
        flat = np.add.outer(flat * grid.cells_per_side, np.arange(lo[a], hi[a])).ravel()
    return flat


def cell_centers(grid: GridSpec, flat: np.ndarray | None = None) -> np.ndarray:
    """(k, n) centres of the cells with flat indices ``flat``, or of
    every cell in row-major order when ``flat`` is None."""
    if flat is None:
        flat = np.arange(grid.num_cells)
    multi = np.stack(np.unravel_index(flat, (grid.cells_per_side,) * grid.n), axis=-1)
    return np.array(grid.origin) + grid.h * (multi + 0.5)


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
    """Box sums of a cell array via an inclusive prefix table.

    ``box_sum(lo, hi)`` takes (k, n) integer corner arrays, one box
    [lo[i], hi[i]) per row, and returns the k sums.  Each sum is one
    fixed inclusion-exclusion expression in four table entries (two in
    one dimension), evaluated elementwise, so a box's sum has the same
    bits whichever block of boxes it is asked for in.
    """

    def __init__(self, grid: GridSpec, cell_values: np.ndarray):
        self.grid = grid
        a = cell_values.reshape((grid.cells_per_side,) * grid.n)
        if grid.n == 1:
            self.table = np.concatenate([[0.0], np.cumsum(a)])
        else:
            t = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
            t[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
            self.table = t

    def box_sum(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        t = self.table
        if self.grid.n == 1:
            return t[hi[:, 0]] - t[lo[:, 0]]
        return t[hi[:, 0], hi[:, 1]] - t[lo[:, 0], hi[:, 1]] - t[hi[:, 0], lo[:, 1]] + t[lo[:, 0], lo[:, 1]]


def local_average(f: GridFunction, cube: Cube, r: float) -> float:
    """r-average of |f| over a cube, ``(avg of |f|^r)^(1/r)``.

    Parameters
    ----------
    f : GridFunction
    cube : cube to integrate over (``r``-power mass is summed here).
    r : averaging exponent, must satisfy r >= 1.

    The cell sum runs in ascending cell order through ``numpy.sum`` so
    repeated calls reduce in one fixed order.  When ``|f|^r`` under- or
    overflows, so that the direct value is 0 for a nonzero input or is
    not finite, it is taken again as ``max|f| * (avg of (|f|/max)^r)^(1/r)``.
    """
    if r < 1:
        raise ValueError("averaging exponent r must be >= 1")
    vals = np.abs(cube_values(f, cube))
    count = cube_cell_count(f.grid, cube)
    with np.errstate(over="ignore"):
        avg = float(np.sum(vals ** r) / count) ** (1.0 / r)
    if (avg == 0.0 and vals.any()) or not np.isfinite(avg):
        top = vals.max()
        avg = float(top * (np.sum((vals / top) ** r) / count) ** (1.0 / r))
    return avg
