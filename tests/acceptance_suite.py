"""Fixtures of the acceptance gate: the 14-case operator/input suite
for the domination and truncation-bound studies, and the rank
correlation of the weight-trend check.  No command uses either, so they
live here rather than in the package.

Cases pair a kernel with a grid, a root cube whose triple fits inside
the domain, and deterministic inputs supported in the root.  The list
mixes smooth bumps, spikes, indicators and sign patterns across the
kernel families and both ambient dimensions, plus one zero-kernel
control; two cases repeat the same geometry at consecutive depths so
stability under refinement can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from sdom.bank import single_input
from sdom.grid import DyadicCube, GridFunction, GridSpec, cell_centers, cube_flat_indices
from sdom.kernels import (
    KernelSpec,
    Modulus,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    mpt_kernel,
    mpt_truncated_kernel,
    zero_kernel,
)
from sdom.operators import OperatorSpec


@dataclass(frozen=True, eq=False)
class SuiteCase:
    """One reproducible experiment configuration."""

    name: str
    grid: GridSpec
    kernel: KernelSpec
    root: DyadicCube
    r: float
    inputs: tuple

    @property
    def operator(self) -> OperatorSpec:
        return OperatorSpec(self.kernel, self.grid)


def _bump(grid: GridSpec, root: DyadicCube, center, width: float) -> GridFunction:
    """A Gaussian bump truncated to the root cells."""
    idx = cube_flat_indices(grid, root)
    d2 = np.sum((cell_centers(grid, idx) - np.atleast_1d(center)) ** 2, axis=1)
    vals = np.zeros(grid.num_cells)
    vals[idx] = np.exp(-d2 / (2.0 * width * width))
    return GridFunction(grid, vals)


def _grid1(L: int, side: float = 8.0) -> GridSpec:
    return GridSpec(n=1, L=L, origin=(0.0,), side=side)


def _grid2(L: int, side: float = 8.0) -> GridSpec:
    return GridSpec(n=2, L=L, origin=(0.0, 0.0), side=side)


def _bilin_case(name: str, L: int, make_inputs) -> SuiteCase:
    grid = _grid1(L)
    root = DyadicCube(2, (1,))  # [2, 4) in [0, 8); its triple [0, 6) fits
    return SuiteCase(
        name=name, grid=grid, kernel=bilinear_odd_kernel(), root=root, r=2.0,
        inputs=tuple(make_inputs(grid, root)),
    )


def cases() -> list:
    """The full suite, in a fixed order."""
    out = []

    out.append(_bilin_case(
        "bilin-bumps-L6", 6,
        lambda g, q: (_bump(g, q, 2.6, 0.15), _bump(g, q, 3.3, 0.2)),
    ))
    out.append(_bilin_case(
        "bilin-bumps-L7", 7,
        lambda g, q: (_bump(g, q, 2.6, 0.15), _bump(g, q, 3.3, 0.2)),
    ))
    out.append(_bilin_case(
        "bilin-spikes-L6", 6,
        lambda g, q: single_input(g, 2, "spike", seed=11, entry=0, support=q),
    ))
    out.append(_bilin_case(
        "bilin-indicators-L6", 6,
        lambda g, q: single_input(g, 2, "indicator", seed=12, entry=0, support=q),
    ))
    out.append(_bilin_case(
        "bilin-rademacher-L7", 7,
        lambda g, q: single_input(g, 2, "rademacher", seed=13, entry=0, support=q),
    ))
    out.append(_bilin_case(
        "bilin-mixed-L6", 6,
        lambda g, q: (_bump(g, q, 3.0, 0.25), single_input(g, 1, "spike", seed=21, entry=0, support=q)[0]),
    ))

    g = _grid1(6)
    q = DyadicCube(2, (1,))
    out.append(SuiteCase(
        "dini-power-bumps-L6", g,
        dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.7), m=2), q, 2.0,
        (_bump(g, q, 2.7, 0.2), _bump(g, q, 3.4, 0.25)),
    ))
    g = _grid1(6)
    out.append(SuiteCase(
        "dini-log-indicators-L6", g,
        dini_synthetic_kernel(Modulus("log", c=1.0, eps=1.0), m=2), q, 2.0,
        single_input(g, 2, "indicator", seed=14, entry=0, support=q),
    ))

    # the boundary-logarithmic kernel translates by about 4, so the
    # domain is [0, 14) with the root at [3.5, 7): the triple [0, 10.5)
    # fits, and no cell-center difference ever hits the blowup point
    g = GridSpec(n=1, L=8, origin=(0.0,), side=14.0)
    q = DyadicCube(2, (1,))
    out.append(SuiteCase(
        "mpt-gauss-L8", g, mpt_kernel(beta=1.0, r=2.0), q, 2.0,
        (_bump(g, q, 5.0, 0.4),),
    ))
    out.append(SuiteCase(
        "mpt-trunc-L8", g, mpt_truncated_kernel(beta=1.0, r=2.0, ell=3), q, 2.0,
        single_input(g, 1, "indicator", seed=15, entry=0, support=q),
    ))

    g = _grid1(7)
    q = DyadicCube(2, (1,))
    out.append(SuiteCase(
        "dini-power-m1-L7", g,
        dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.5), m=1), q, 1.0,
        (_bump(g, q, 3.1, 0.3),),
    ))

    g = _grid2(4)
    q2 = DyadicCube(2, (1, 1))  # [2, 4)^2 in [0, 8)^2
    out.append(SuiteCase(
        "dini-m2-n2-L4", g,
        dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.7), m=2), q2, 2.0,
        (_bump(g, q2, (2.7, 3.0), 0.3), _bump(g, q2, (3.2, 2.6), 0.35)),
    ))
    g = _grid2(5)
    out.append(SuiteCase(
        "dini-m1-n2-L5", g,
        dini_synthetic_kernel(Modulus("log", c=1.0, eps=1.0), m=1), q2, 1.0,
        single_input(g, 1, "indicator", seed=16, entry=0, support=q2),
    ))

    g = _grid1(6)
    q = DyadicCube(2, (1,))
    out.append(SuiteCase(
        "zero-m2-L6", g, zero_kernel(2), q, 2.0,
        single_input(g, 2, "indicator", seed=17, entry=0, support=q),
    ))
    return out


def trend_correlation(characteristics, ratios) -> float:
    """Spearman rank correlation between characteristic values and
    empirical ratios across a sweep of weight tuples."""
    chars = np.asarray(list(characteristics), dtype=float)
    rats = np.asarray(list(ratios), dtype=float)
    if chars.size != rats.size or chars.size < 3:
        raise ValueError("need at least three paired observations")
    return float(spearmanr(chars, rats).statistic)
