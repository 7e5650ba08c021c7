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

import math
from dataclasses import dataclass

import numpy as np

from .grid import BoxSums, Cube, GridFunction, GridSpec
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


def vec_ap_characteristic(wt: WeightTuple, mode: CubeFamilyMode = DYADIC, within: Cube | None = None) -> float:
    """The joint characteristic over a cube family.

    Averages come from prefix sums, so the sup over any family is a max
    of exactly computed cube scores.  The all-ones tuple scores exactly
    one on every cube.
    """
    grid = wt.grid
    p = wt.p
    v_table = BoxSums(grid, wt.joint_weight())
    dual_tables = []
    dual_pows = []
    for w, pi in zip(wt.weights, wt.exponents):
        dual_tables.append(BoxSums(grid, w.values ** (-wt.r / (pi - wt.r))))
        dual_pows.append(p * (pi - wt.r) / (pi * wt.r))
    best = 0.0
    for lo, hi in family_boxes(grid, mode, within):
        cnt = 1
        for a in range(grid.n):
            cnt *= hi[a] - lo[a]
        score = v_table.box_sum(lo, hi) / cnt
        for t, e in zip(dual_tables, dual_pows):
            score *= (t.box_sum(lo, hi) / cnt) ** e
        if score > best:
            best = score
    return best


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
    can study how ratio growth tracks characteristic growth.
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
        for f, w, pi in zip(fs, wt.weights, wt.exponents):
            den *= float(np.sum(np.abs(f.values) ** pi * w.values) * hvol) ** (1.0 / pi)
        if den == 0.0:
            raise ValueError(f"bank input {label!r} has an identically zero component")
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
    axes = [grid.axis_centers(a) for a in range(grid.n)]
    if grid.n == 1:
        d = np.abs(axes[0] - center[0])
    else:
        d = np.sqrt((axes[0][:, None] - center[0]) ** 2 + (axes[1][None, :] - center[1]) ** 2).ravel()
    vals = np.maximum(d, 0.0) ** exponent if exponent >= 0 else np.maximum(d, floor) ** exponent
    return GridFunction(grid, np.maximum(vals.ravel(), floor))


def trend_correlation(characteristics, ratios) -> float:
    """Spearman rank correlation between characteristic values and
    empirical ratios across a sweep of weight tuples."""
    chars = np.asarray(list(characteristics), dtype=float)
    rats = np.asarray(list(ratios), dtype=float)
    if chars.size != rats.size or chars.size < 3:
        raise ValueError("need at least three paired observations")
    from scipy.stats import spearmanr  # imported here: it dominates the package's import time

    rho = spearmanr(chars, rats).statistic
    return float(rho)
