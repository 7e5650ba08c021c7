"""Multilinear weight tuples and their joint characteristic.

A weight tuple carries one positive weight per input slot together with
integrability exponents p_i > r.  Writing 1/p for the sum of the 1/p_i
and v for the product of the w_i^{p/p_i}, the joint characteristic is

    sup over cubes of (avg of v) * prod_i (avg of w_i^{-r/(p_i - r)})^{p (p_i - r) / (p_i r)}

and the norm bound it predicts for an r-sparse-dominated operator is
the characteristic raised to max(1, max_i (p_i/r)' / p).  The module
measures both sides: the characteristic over a cube family, and the
empirical weighted ratios of an operator over an input bank, so trend
experiments can compare them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .grid import BoxSums, GridFunction, GridSpec, cell_centers
from .maximal import DYADIC, CubeFamilyMode, family_boxes
from .operators import OperatorSpec, apply, check_inputs


@dataclass(frozen=True, eq=False)
class WeightTuple:
    """Positive weights with exponents; validates p_i > r >= 1."""

    weights: tuple
    exponents: tuple
    r: float

    def __post_init__(self):
        ws = tuple(self.weights)
        ps = tuple(float(p) for p in self.exponents)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "exponents", ps)
        object.__setattr__(self, "r", float(self.r))
        if len(ws) == 0 or len(ws) != len(ps):
            raise ValueError("need one exponent per weight")
        if not (self.r >= 1 and math.isfinite(self.r)):
            raise ValueError("r must satisfy r >= 1")
        grid = ws[0].grid
        for w in ws:
            if not isinstance(w, GridFunction) or w.grid != grid:
                raise ValueError("weights must be grid functions on one grid")
            if not np.all(w.values > 0.0):
                raise ValueError("weights must be strictly positive")
        for p in ps:
            if not (p > self.r and math.isfinite(p)):
                raise ValueError("each exponent must exceed r")

    @property
    def grid(self) -> GridSpec:
        return self.weights[0].grid

    @property
    def p(self) -> float:
        return 1.0 / sum(1.0 / p for p in self.exponents)

    def joint_weight(self) -> np.ndarray:
        """v = prod w_i^{p/p_i}, the target-side weight."""
        p = self.p
        v = np.ones(self.grid.num_cells)
        for w, pi in zip(self.weights, self.exponents):
            v = v * w.values ** (p / pi)
        return v

    def bound_exponent(self) -> float:
        """max(1, max_i (p_i/r)'/p) with (q)' the conjugate exponent."""
        p = self.p
        worst = 0.0
        for pi in self.exponents:
            q = pi / self.r
            worst = max(worst, q / (q - 1.0) / p)
        return max(1.0, worst)


def vec_ap_characteristic(wt: WeightTuple, mode: CubeFamilyMode = DYADIC) -> float:
    """The joint characteristic over a cube family.

    Averages come from prefix sums read for groups of whole blocks of the
    family (at most 2^13 cubes, or one larger block), so the sup over any
    family is a max of exactly computed cube scores.  ``np.power`` scores
    a group first; it is within one ulp of libm ``pow``, so a cube whose
    powers and partial products are normal numbers below 2^1023 scores
    within an ulp per factor of its exact score, and cannot win below
    the top such score times 1 - 2^-20.  The other cubes (NaN, zero and
    infinite scores among them) are scored again with Python's float
    ``**``, block by block, so an error names the cube a per-block loop
    would.  The all-ones tuple scores exactly one on every cube.  A dual
    average that rounds below zero (prefix-sum cancellation in two
    dimensions) has no real fractional power and raises ArithmeticError,
    one whose power overflows OverflowError; both name weight and cube.
    """
    grid, p, r = wt.grid, wt.p, wt.r
    v_table = BoxSums(grid, wt.joint_weight())
    dual_tables = [BoxSums(grid, w.values ** (-r / (pi - r))) for w, pi in zip(wt.weights, wt.exponents)]
    dual_pows = [p * (pi - r) / (pi * r) for pi in wt.exponents]
    best = 0.0
    for blocks in _groups(family_boxes(grid, mode)):
        lo, hi = (np.concatenate(corners) for corners in zip(*blocks))
        cnt = np.prod(hi - lo, axis=1)
        v_avg, avgs = v_table.box_sum(lo, hi) / cnt, [t.box_sum(lo, hi) / cnt for t in dual_tables]
        approx, normal = v_avg.copy(), np.ones(len(lo), dtype=bool)
        with np.errstate(all="ignore"):
            for avg, e in zip(avgs, dual_pows):
                powered = np.power(avg, e)
                approx *= powered
                for x in (np.abs(powered), np.abs(approx)):
                    normal &= (x >= np.finfo(float).tiny) & (x < 2.0**1023)
        top = np.max(approx, where=normal, initial=-np.inf)
        idx = np.flatnonzero(~normal | (approx >= top * (1 - 2.0**-20)))  # the candidates
        bounds = np.searchsorted(idx, np.cumsum([0] + [len(b) for b, _ in blocks])).tolist()
        for k in (idx[k0:k1] for k0, k1 in zip(bounds, bounds[1:]) if k1 > k0):  # each block's candidates
            score = v_avg[k]
            for i, (group_avg, e) in enumerate(zip(avgs, dual_pows)):
                avg = group_avg[k]
                powered = []
                with contextlib.suppress(OverflowError):  # the powers up to the first that overflows
                    powered += (a**e for a in avg.tolist())
                over = len(powered) < len(avg)
                if over or np.iscomplexobj(powered):  # else a negative average under a fractional power
                    j = k[len(powered) if over else int(np.argmax(avg < 0.0))]
                    what = f"overflows under the power {e!r}" if over else "rounds below zero"
                    raise (OverflowError if over else ArithmeticError)(
                        f"weight {i}: dual average over cells {lo[j].tolist()} to {(hi[j] - 1).tolist()} {what} ({float(group_avg[j])!r})"
                    )
                score *= np.array(powered)
            best = max(best, float(np.fmax.reduce(score)))  # NaN scores never win, as with ``>``
    return best


def _groups(blocks):
    """Runs of consecutive blocks of at most 2^13 cubes in all, or one larger block."""
    group, size = [], 0
    for block in blocks:
        if group and size + len(block[0]) > 1 << 13:
            yield group
            group, size = [], 0
        group.append(block)
        size += len(block[0])
    yield group  # a family is never empty


@dataclass(frozen=True, eq=False)
class WeightedReport:
    """Weighted operator ratios against the characteristic bound."""

    characteristic: float
    exponent: float
    bound: float
    ratios: tuple
    max_ratio: float
    argmax_label: str

    def to_json_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "exponent": self.exponent,
            "bound": self.bound,
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "argmax_label": self.argmax_label,
        }


def weighted_norm_ratio(
    op: OperatorSpec, wt: WeightTuple, bank, mode: CubeFamilyMode = DYADIC
) -> WeightedReport:
    """Empirical weighted norm ratios of the operator over a bank.

    Each ratio is ||T f||_{L^p(v)} over the product of ||f_i||_{L^{p_i}(w_i)};
    the report pairs them with the characteristic-power bound so callers
    can study how ratio growth tracks characteristic growth.  A bank input
    whose weighted norms multiply to 0, a zero component or one whose
    powers underflow, raises ArithmeticError naming the input, the
    component and its exponent.
    """
    entries = list(bank)
    if not entries:
        raise ValueError("the input bank is empty")
    grid = op.grid
    if wt.grid != grid:
        raise ValueError("weights must live on the operator's grid")
    if len(wt.weights) != op.kernel.m:
        raise ValueError("need one weight per operator slot")
    p = wt.p
    v = wt.joint_weight()
    hvol = grid.cell_volume()
    ratios = []
    for label, fs in entries:
        fs = check_inputs(op, fs)
        tf = apply(op, fs)
        num = float(np.sum(np.abs(tf.values) ** p * v) * hvol) ** (1.0 / p)
        den = 1.0
        for i, (f, w, pi) in enumerate(zip(fs, wt.weights, wt.exponents)):
            den *= float(np.sum(np.abs(f.values) ** pi * w.values) * hvol) ** (1.0 / pi)
            if den == 0.0:  # a component that is zero or whose powers underflow
                raise ArithmeticError(f"bank input {label!r}: the weighted norms multiply to 0 at component {i} (exponent {pi!r})")
        ratios.append(num / den)
    char = vec_ap_characteristic(wt, mode)
    expo = wt.bound_exponent()
    i = int(np.argmax(np.asarray(ratios)))
    return WeightedReport(
        characteristic=char,
        exponent=expo,
        bound=char ** expo,
        ratios=tuple(ratios),
        max_ratio=float(ratios[i]),
        argmax_label=entries[i][0],
    )


def power_weight(grid: GridSpec, exponent: float, center=None, floor: float = 1e-8) -> GridFunction:
    """|x - center|^exponent on cell centers, clamped below to keep the
    weight strictly positive; the default center is the domain middle."""
    if center is None:
        center = np.array([grid.origin[a] + grid.side / 2 for a in range(grid.n)])
    else:
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (grid.n,):
            raise ValueError(f"center must have {grid.n} coordinates")
    d = np.sqrt(np.sum((cell_centers(grid) - center) ** 2, axis=1))
    vals = np.maximum(d, 0.0) ** exponent if exponent >= 0 else np.maximum(d, floor) ** exponent
    return GridFunction(grid, np.maximum(vals.ravel(), floor))
