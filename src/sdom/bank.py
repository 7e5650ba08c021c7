"""Reproducible banks of test inputs.

Every random draw comes from a counter-based generator keyed by
(seed, shape, entry, slot), so any single input can be regenerated in
isolation and the bank is identical no matter how or where it is
built.  Inputs are confined to a stated support cube; shapes cover the
cases the domination experiments need: single-cell spikes normalized in
L^1, indicator boxes, separated smooth bumps, and random sign patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Cube,
    DyadicCube,
    GridCube,
    GridFunction,
    GridSpec,
    cell_box,
    cell_centers,
    cube_flat_indices,
)

SHAPES = ("spike", "indicator", "gauss", "rademacher")


@dataclass(frozen=True)
class BankSpec:
    """What a bank contains: which shapes, how many of each, the seed,
    and the support cube inputs are confined to (whole domain if None).
    """

    shapes: tuple = SHAPES
    count_per_shape: int = 20
    seed: int = 0
    support: Cube | None = None

    def __post_init__(self):
        shapes = tuple(self.shapes)
        object.__setattr__(self, "shapes", shapes)
        for s in shapes:
            if s not in SHAPES:
                raise ValueError(f"unknown bank shape {s!r}")
        if len(set(shapes)) != len(shapes):
            raise ValueError("bank shapes must be distinct")
        if self.count_per_shape < 1:
            raise ValueError("count_per_shape must be at least 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "BankSpec":
        support = DyadicCube.from_json_dict(d["support"]) if d.get("support") else None
        return cls(
            shapes=tuple(d.get("shapes", SHAPES)),
            count_per_shape=int(d.get("count_per_shape", 20)),
            seed=int(d.get("seed", 0)),
            support=support,
        )


def _stream(seed: int, shape: str, entry: int, slot: int) -> np.random.Generator:
    word = (SHAPES.index(shape) << 40) | ((entry & 0xFFFFF) << 20) | (slot & 0xFFFFF)
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(word)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _make_one(grid: GridSpec, shape: str, seed: int, entry: int, slot: int, box) -> GridFunction:
    lo, hi = box
    rng = _stream(seed, shape, entry, slot)
    s = grid.cells_per_side
    arr = np.zeros((s,) * grid.n)
    widths = [hi[a] - lo[a] for a in range(grid.n)]

    if shape == "spike":
        cell = tuple(lo[a] + int(rng.uniform() * widths[a]) for a in range(grid.n))
        cell = tuple(min(cell[a], hi[a] - 1) for a in range(grid.n))
        arr[cell] = 1.0 / grid.cell_volume()
    elif shape == "indicator":
        sl = []
        for a in range(grid.n):
            start = lo[a] + min(int(rng.uniform() * widths[a]), widths[a] - 1)
            length = 1 + min(int(rng.uniform() * (hi[a] - start)), hi[a] - start - 1)
            sl.append(slice(start, start + length))
        arr[tuple(sl)] = 1.0
    elif shape == "gauss":
        geo_lo = [grid.origin[a] + lo[a] * grid.h for a in range(grid.n)]
        geo_w = [widths[a] * grid.h for a in range(grid.n)]
        center = np.array([geo_lo[a] + rng.uniform() * geo_w[a] for a in range(grid.n)])
        width = min(geo_w)
        sigma = width * (1.0 / 16.0 + rng.uniform() * (1.0 / 4.0 - 1.0 / 16.0))
        idx = cube_flat_indices(grid, GridCube(lo, widths))
        d2 = np.sum((cell_centers(grid, idx) - center) ** 2, axis=1)
        arr.reshape(-1)[idx] = np.exp(-d2 / (2.0 * sigma * sigma))
    elif shape == "rademacher":
        u = rng.uniform(size=tuple(widths))
        sl = tuple(slice(lo[a], hi[a]) for a in range(grid.n))
        arr[sl] = np.where(u < 0.5, -1.0, 1.0)
    else:
        raise ValueError(f"unknown bank shape {shape!r}")
    return GridFunction(grid, arr.ravel())


def make_bank(grid: GridSpec, m: int, spec: BankSpec) -> list:
    """Build the bank as a list of (label, m-tuple of GridFunction).

    Slots of one entry draw from independent streams; the label is
    ``shape-index``.
    """
    if m not in (1, 2):
        raise ValueError("only 1 or 2 input slots are supported")
    return [
        (f"{shape}-{entry}", single_input(grid, m, shape, spec.seed, entry, spec.support))
        for shape in spec.shapes
        for entry in range(spec.count_per_shape)
    ]


def single_input(grid: GridSpec, m: int, shape: str, seed: int, entry: int, support: Cube | None = None):
    """Regenerate one bank entry in isolation."""
    if shape not in SHAPES:
        raise ValueError(f"unknown bank shape {shape!r}")
    box = cell_box(grid, support) if support is not None else ((0,) * grid.n, (grid.cells_per_side,) * grid.n)
    return tuple(_make_one(grid, shape, seed, entry, slot, box) for slot in range(m))
