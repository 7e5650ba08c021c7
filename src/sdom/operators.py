"""Discrete application of a kernel operator on grid functions.

``apply`` realizes T(f_1 .. f_m)(x) = sum over cell tuples of
K(x_center, y_centers) prod_i f_i(y_i) h^{mn}, one value per cell.
Tuples touching the x cell in any slot are excluded (the singular
diagonal is never evaluated); a non-finite kernel value anywhere else
is a hard error rather than a silent skip.  Cells where an input
vanishes contribute nothing and are skipped outright, which makes
truncation to a support cube literally the same sum in the same order,
so equalities that hold in exact arithmetic hold bitwise here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, GridSpec, cube_flat_indices, triple_cube
from .kernels import KernelSpec, SingularPointError, eval_batch
from .parallel import parallel_map

_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A kernel bound to the grid it acts on."""

    kernel: KernelSpec
    grid: GridSpec

    def __post_init__(self):
        if self.kernel.variant == "bilinear_odd" and self.grid.n != 1:
            raise ValueError("the odd bilinear kernel needs a one-dimensional grid")
        if self.kernel.variant in ("mpt", "mpt_truncated") and self.grid.n != 1:
            raise ValueError("the boundary-logarithmic kernel needs a one-dimensional grid")


def check_inputs(op: OperatorSpec, fs) -> tuple:
    """The operator's m inputs as a tuple; each must live on its grid."""
    fs = tuple(fs)
    if len(fs) != op.kernel.m:
        raise ValueError(f"expected {op.kernel.m} input functions, got {len(fs)}")
    for f in fs:
        if not isinstance(f, GridFunction) or f.grid != op.grid:
            raise ValueError("inputs must be grid functions on the operator's grid")
    return fs


def _slot_cells(op: OperatorSpec, f: GridFunction, ybox: Cube | None):
    """Ascending flat indices of cells that can contribute: inside the
    slot box (when given) and carrying a nonzero value."""
    if ybox is None:
        idx = np.arange(op.grid.num_cells)
    else:
        idx = cube_flat_indices(op.grid, ybox)
    keep = f.values[idx] != 0.0
    idx = idx[keep]
    return idx, f.values[idx]


def _centers(grid: GridSpec, flat: np.ndarray) -> np.ndarray:
    s = grid.cells_per_side
    if grid.n == 1:
        mult = flat[:, None]
    else:
        mult = np.column_stack([flat // s, flat % s])
    return np.array(grid.origin)[None, :] + grid.h * (mult + 0.5)


def _singular_error(grid, x_flat, y_flats):
    xc = _centers(grid, np.array([x_flat]))[0]
    ycs = [_centers(grid, np.array([y]))[0].tolist() for y in y_flats]
    raise SingularPointError(
        f"kernel is singular or non-finite at an off-diagonal lattice point: "
        f"x cell {x_flat} at {xc.tolist()}, y cells {list(y_flats)} at {ycs}"
    )


def apply_on_cells(op: OperatorSpec, fs, xs: np.ndarray, ybox: Cube | None) -> np.ndarray:
    """Operator values on the cells listed in ``xs`` (flat indices),
    with every slot restricted to ``ybox``.  Serial by design; callers
    parallelize over disjoint x blocks, which cannot change any value.
    """
    grid = op.grid
    hm = grid.cell_volume() ** op.kernel.m
    slots = [_slot_cells(op, f, ybox) for f in fs]
    out = np.zeros(xs.size)
    if any(idx.size == 0 for idx, _ in slots):
        return out
    xc = _centers(grid, xs)

    if op.kernel.m == 1:
        yidx, yval = slots[0]
        ypts = _centers(grid, yidx)
        for i in range(xs.size):
            vals, ok = eval_batch(op.kernel, xc[i], ypts[:, None, :])
            diag = yidx == xs[i]
            bad = ~ok & ~diag
            if bad.any():
                _singular_error(grid, int(xs[i]), [int(yidx[np.argmax(bad)])])
            vals = np.where(diag, 0.0, vals)
            out[i] = float(np.sum(vals * yval)) * hm
        return out

    y1idx, y1val = slots[0]
    y2idx, y2val = slots[1]
    p1 = _centers(grid, y1idx)
    p2 = _centers(grid, y2idx)
    K1, K2 = y1idx.size, y2idx.size
    W = y1val[:, None] * y2val[None, :]
    rows = max(1, _CHUNK // K2)
    for i in range(xs.size):
        vals = np.empty((K1, K2))
        ok = np.empty((K1, K2), dtype=bool)
        for a0 in range(0, K1, rows):
            a1 = min(K1, a0 + rows)
            blk = a1 - a0
            Y = np.empty((blk * K2, 2, grid.n))
            Y[:, 0, :] = np.repeat(p1[a0:a1], K2, axis=0)
            Y[:, 1, :] = np.tile(p2, (blk, 1))
            v, o = eval_batch(op.kernel, xc[i], Y)
            vals[a0:a1] = v.reshape(blk, K2)
            ok[a0:a1] = o.reshape(blk, K2)
        diag = (y1idx == xs[i])[:, None] | (y2idx == xs[i])[None, :]
        bad = ~ok & ~diag
        if bad.any():
            a, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
            _singular_error(grid, int(xs[i]), [int(y1idx[a]), int(y2idx[b])])
        vals = np.where(diag, 0.0, vals)
        out[i] = float(np.sum(vals * W)) * hm
    return out


_XBLOCK = 256


def _apply_all_cells(op: OperatorSpec, fs, ybox: Cube | None) -> np.ndarray:
    xs = np.arange(op.grid.num_cells)
    blocks = [xs[i : i + _XBLOCK] for i in range(0, xs.size, _XBLOCK)]
    parts = parallel_map(lambda b: apply_on_cells(op, fs, b, ybox), blocks)
    return np.concatenate(parts) if parts else np.zeros(0)


def apply(op: OperatorSpec, fs) -> GridFunction:
    """Apply the operator to a tuple of m grid functions."""
    fs = check_inputs(op, fs)
    vals = _apply_all_cells(op, fs, None)
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("operator output is not finite")
    return GridFunction(op.grid, vals)


def apply_truncated(op: OperatorSpec, fs, cube: Cube) -> GridFunction:
    """Apply the operator to f_i restricted to the tripled cube.

    Matches ``apply`` exactly (bitwise) whenever the inputs are already
    supported inside the tripled cube, because both sums then visit the
    same nonzero cells in the same order.
    """
    fs = check_inputs(op, fs)
    box = triple_cube(op.grid, cube)
    vals = _apply_all_cells(op, fs, box)
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("operator output is not finite")
    return GridFunction(op.grid, vals)


def lp_norm(g: GridFunction, p: float) -> float:
    if not (p > 0 and math.isfinite(p)):
        raise ValueError("p must be positive and finite")
    return float(np.sum(np.abs(g.values) ** p) * g.grid.cell_volume()) ** (1.0 / p)


def weak_quasi_norm(g: GridFunction, p: float) -> float:
    """sup over lambda of lambda |{|g| > lambda}|^{1/p}, computed
    exactly: on a finite grid the supremum is a maximum over the sorted
    distinct values of |g|."""
    if not (p > 0 and math.isfinite(p)):
        raise ValueError("p must be positive and finite")
    v = np.sort(np.abs(g.values))[::-1]
    if v.size == 0 or v[0] == 0.0:
        return 0.0
    meas = (np.arange(1, v.size + 1)) * g.grid.cell_volume()
    return float(np.max(v * meas ** (1.0 / p)))


@dataclass(frozen=True, eq=False)
class WeakNormReport:
    """Largest weak-type ratio over a bank of test inputs."""

    q: float
    count: int
    ratios: tuple
    max_ratio: float
    argmax_label: str

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "count": self.count,
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "argmax_label": self.argmax_label,
        }


def weak_norm(op: OperatorSpec, q: float, bank) -> WeakNormReport:
    """Empirical weak-type constant of the operator at exponent q.

    ``bank`` is a sequence of (label, input tuple) pairs.  Each ratio is
    the weak quasi-norm of T(f) at exponent q/m over the product of the
    input L^q norms; all-zero inputs are rejected since they normalize
    nothing.
    """
    if not (q > 0 and math.isfinite(q)):
        raise ValueError("q must be positive and finite")
    entries = list(bank)
    if not entries:
        raise ValueError("the input bank is empty")
    ratios = []
    for label, fs in entries:
        fs = check_inputs(op, fs)
        for f in fs:
            if not np.any(f.values != 0.0):
                raise ValueError(f"bank input {label!r} has an identically zero component")
        g = apply(op, fs)
        denom = 1.0
        for f in fs:
            denom *= lp_norm(f, q)
        ratios.append(weak_quasi_norm(g, q / op.kernel.m) / denom)
    i = int(np.argmax(np.asarray(ratios)))
    return WeakNormReport(
        q=q,
        count=len(entries),
        ratios=tuple(ratios),
        max_ratio=float(ratios[i]),
        argmax_label=entries[i][0],
    )
