"""Reproducible banks of test inputs.

Every random draw comes from a counter-based generator keyed by
(seed, shape, entry, slot), so any single input can be regenerated in
isolation and the bank is identical no matter how or where it is
built.  The generator is numpy's Philox stream, computed in Python
integers (``_stream``).  Inputs are confined to a stated support cube;
shapes cover the cases the domination experiments need: single-cell
spikes normalized in L^1, indicator boxes, separated smooth bumps, and
random sign patterns.
"""

from __future__ import annotations

import itertools
import math
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
        if not shapes:
            raise ValueError("bank shapes must not be empty")
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


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random
# numbers: as easy as 1, 2, 3", SC 2011): the round multipliers and the
# key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = (1 << 64) - 1


def _stream(seed: int, shape: str, entry: int, slot: int):
    """Uniform doubles in [0, 1): bit for bit the successive draws of
    numpy's ``Generator(Philox(key=(seed, word))).uniform()``.

    Block j = 1, 2, ... is Philox4x64-10 of the counter (j, 0, 0, 0),
    and each of its four words w gives the double (w >> 11) 2^-53.  In
    Python integers, because loading ``numpy.random`` for the few draws
    an input takes costs 2.6 MiB of resident memory.
    """
    word = (SHAPES.index(shape) << 40) | ((entry & 0xFFFFF) << 20) | (slot & 0xFFFFF)
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    for block in itertools.count(1):
        c0, c1, c2, c3 = block, 0, 0, 0
        k0, k1 = seed & _U64, word
        for _ in range(10):
            p0, p1 = m0 * c0, m1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _U64, (p0 >> 64) ^ c3 ^ k1, p0 & _U64
            k0, k1 = (k0 + w0) & _U64, (k1 + w1) & _U64
        for w in (c0, c1, c2, c3):
            yield (w >> 11) * 2.0**-53


def _make_one(grid: GridSpec, shape: str, seed: int, entry: int, slot: int, box) -> GridFunction:
    lo, hi = box
    rng = _stream(seed, shape, entry, slot)
    s = grid.cells_per_side
    arr = np.zeros((s,) * grid.n)
    widths = [hi[a] - lo[a] for a in range(grid.n)]

    if shape == "spike":
        cell = tuple(lo[a] + int(next(rng) * widths[a]) for a in range(grid.n))
        cell = tuple(min(cell[a], hi[a] - 1) for a in range(grid.n))
        arr[cell] = 1.0 / grid.cell_volume()
    elif shape == "indicator":
        sl = []
        for a in range(grid.n):
            start = lo[a] + min(int(next(rng) * widths[a]), widths[a] - 1)
            length = 1 + min(int(next(rng) * (hi[a] - start)), hi[a] - start - 1)
            sl.append(slice(start, start + length))
        arr[tuple(sl)] = 1.0
    elif shape == "gauss":
        geo_lo = [grid.origin[a] + lo[a] * grid.h for a in range(grid.n)]
        geo_w = [widths[a] * grid.h for a in range(grid.n)]
        center = np.array([geo_lo[a] + next(rng) * geo_w[a] for a in range(grid.n)])
        width = min(geo_w)
        sigma = width * (1.0 / 16.0 + next(rng) * (1.0 / 4.0 - 1.0 / 16.0))
        idx = cube_flat_indices(grid, GridCube(lo, widths))
        d2 = np.sum((cell_centers(grid, idx) - center) ** 2, axis=1)
        arr.reshape(-1)[idx] = np.exp(-d2 / (2.0 * sigma * sigma))
    elif shape == "rademacher":
        u = np.fromiter(itertools.islice(rng, math.prod(widths)), float).reshape(widths)
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
    box = cell_box(grid, support)
    return tuple(_make_one(grid, shape, seed, entry, slot, box) for slot in range(m))
