"""Kernel families and the regularity functionals measured on them.

A kernel is a pointwise formula ``K(x, y_1 .. y_m)`` on the grid's
ambient space.  The module ships a fixed set of variants (a zero
kernel, an x-independent smooth kernel, an odd homogeneous bilinear
kernel, a boundary-logarithmic convolution kernel with its comb-like
truncations, and a synthetic family built from a prescribed modulus of
continuity).  ``eval_batch`` takes one point array per slot, and numpy
broadcasting forms the slot tuples, so no tuple matrix is ever built.

On top of evaluation it provides the three regularity measurements the
rest of the package consumes: an annulus-sum smoothness constant taken
as a supremum over sampled cubes and point pairs, a shell-decay
constant with an explicit decay exponent, and the logarithmic integral
of a modulus of continuity.  Both cube-based estimators share one
sampling plan format and one report format, and both replace integrals
by midpoint-lattice sums at the grid's own resolution.  Every reported
number is therefore a finite, reproducible quadrature value: the
lattice sum, maximized over the sampled configurations.  It is not a
certified bound on the continuum constant.

Both estimators run on one shell engine.  Around a sampled cube Q the
dilates 2^j Q are index ranges of the sorted quadrature axes, found for
every cube by one binary search per axis, and they lay the lattice out
by shell: Q, then each dyadic annulus, each led by a 0.  A kernel of
the offsets x - y_s (the boundary-logarithmic, synthetic and odd
bilinear ones) is evaluated once per call, as an ``offset_table``:
K(p0, .) of one point over the lattice padded by the spread of the
points in every slot, which serves every point whose differences
x - y are bitwise the table's.  At one slot a pair of served points
reads |K(x, .) - K(z, .)|^{r'} off the pair tables, formed once per
call; other pairs subtract rows K(p, .), gathered (at two slots, a
block of first-slot rows in one ``take``) or evaluated, so values,
errors and warnings do not depend on the path.  ``sdom.operators``
reads its one-slot rows from the same offset table.  Each shell is
summed (maxima at r = 1) into a table with one cell per shell
multi-index.  In one dimension the cubes the pair tables serve take one
pass per call: a shell is two runs of a pair table, so translated
cubes share its four offsets, all-zero runs read 0 and each distinct
other shell is summed once.  In two a shell is one or two runs per
lattice row, too many slices to pay, and a cube's pairs are one gather
over the lattice laid out by shell, with one ``reduceat`` over the
shell heads.  The samples are arrays from plan to report: they are
grouped by cube, and their points by bit pattern, with no per-sample
loop, a parallel task handles a run of consecutive cubes, and each
cube's tables join one array per cube side and table shape.
``hormander_constant`` and ``h2_constant`` read the annulus series and
the normalized shell values off those arrays: each product in the
one-sample order, each power a scalar libm ``pow``, the series of one
length summed by one ``np.sum``, ties won by the first sample in plan
order.  ``regularity`` reads both off one pass of tables.  A
non-finite table or value, a power that overflows or a decay factor
|x - z|^e that underflows refuses the first such sample in plan order
with FloatingPointError naming its cube centre and pair.

The boundary-logarithmic kernels find their live set (the open band
3 < t < 5, cut to the comb's teeth) on the whole batch and evaluate
the power and logarithm on the live offsets only.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridSpec
from .parallel import parallel_map

_LN2 = math.log(2.0)

# The estimators' unit of work: m = 2 row blocks and offset tables, runs of
# cubes per task, pair tables and plan expansion blocks hold about this many entries.
# Fixed sizes keep every sum independent of memory and thread count.
_CHUNK = 1 << 18
_MAX_PRODUCT_POINTS = 1 << 24
_MAX_TABLE = 1 << 22  # entries of one offset table
_CHECK_BLOCK = 1 << 15  # point-cell pairs of one block of its serving check
_RUN_BLOCK = 1 << 14  # entries between the starts of two blocks of ``_sum_runs``

# Variants that are functions of the offsets x - y_s alone.
_CONVOLUTION = ("mpt", "mpt_truncated", "dini_synthetic", "bilinear_odd")

# Variants whose formula lives on the real line, by their name in errors.
_ONE_DIMENSIONAL = {
    "bilinear_odd": "the odd bilinear kernel",
    "mpt": "the boundary-logarithmic kernel",
    "mpt_truncated": "the boundary-logarithmic kernel",
}


class SingularPointError(ValueError):
    """A kernel was evaluated exactly on its singular set."""


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity on [0, 1].

    ``power`` is c * t**eps; ``log`` is c * log(e/t)**-(1+eps), the
    borderline-integrable family.  Both vanish at t = 0.
    """

    kind: str
    c: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("modulus scale c must be positive and finite")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("modulus exponent eps must be positive and finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                out = self.c * t ** self.eps
            return np.where(t > 0, out, 0.0)
        # log(e/t) written as 1 - log(t) so tiny t cannot overflow e/t
        u = 1.0 - np.log(np.where(t > 0, t, 1.0))
        out = self.c * u ** -(1.0 + self.eps)
        return np.where(t > 0, out, 0.0)

    def at_neg_log(self, s):
        """omega(e^-s) for s >= 0, stable for s far beyond the range
        where e^-s itself underflows."""
        s = np.asarray(s, dtype=float)
        if self.kind == "power":
            with np.errstate(under="ignore"):
                return self.c * np.exp(-self.eps * s)
        return self.c * (1.0 + s) ** -(1.0 + self.eps)

    @classmethod
    def from_json_dict(cls, d: dict) -> "Modulus":
        return cls(kind=d["kind"], c=float(d.get("c", 1.0)), eps=float(d.get("eps", 1.0)))


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A kernel variant with its parameters.

    ``m`` is the number of input slots.  ``r_param`` is the exponent
    baked into the boundary-logarithmic formula itself; the estimators
    below take their own integrability exponent as an argument.
    """

    variant: str
    m: int
    beta: float | None = None
    r_param: float | None = None
    ell: int | None = None
    modulus: Modulus | None = None
    amplitude: float = 1.0

    @classmethod
    def from_json_dict(cls, d: dict) -> "KernelSpec":
        variant = d["variant"]
        m = int(d["m"])
        if variant == "zero":
            return zero_kernel(m)
        if variant == "x_independent":
            return x_independent_kernel(m)
        if variant == "bilinear_odd":
            return bilinear_odd_kernel()
        if variant == "mpt":
            return mpt_kernel(float(d["beta"]), float(d["r"]))
        if variant == "mpt_truncated":
            return mpt_truncated_kernel(float(d["beta"]), float(d["r"]), int(d["ell"]))
        if variant == "dini_synthetic":
            return dini_synthetic_kernel(
                Modulus.from_json_dict(d["modulus"]), m, float(d.get("amplitude", 1.0))
            )
        raise ValueError(f"unknown kernel variant {variant!r}")


def zero_kernel(m: int) -> KernelSpec:
    _check_m(m)
    return KernelSpec("zero", m)


def x_independent_kernel(m: int) -> KernelSpec:
    """A smooth kernel with no x dependence, so every difference
    K(x, .) - K(z, .) vanishes identically."""
    _check_m(m)
    return KernelSpec("x_independent", m)


def bilinear_odd_kernel() -> KernelSpec:
    """K(x, y1, y2) = ((x-y1) + (x-y2)) / (|x-y1|^2 + |x-y2|^2)^{3/2}.

    Odd, homogeneous of degree -2, singular only at y1 = y2 = x.  One
    ambient dimension, two slots.
    """
    return KernelSpec("bilinear_odd", 2)


def mpt_kernel(beta: float, r: float) -> KernelSpec:
    """Convolution kernel |t-4|^{-1/r'} log(e/|t-4|)^{-(1+beta)/r'} on 3<t<5.

    ``t`` is x - y in one dimension.  The blowup sits on the sphere
    |t| = 4 away from the diagonal, tuned so the annulus-sum constant at
    exponent r is finite while stronger pointwise bounds fail.
    """
    _check_mpt(beta, r)
    return KernelSpec("mpt", 1, beta=float(beta), r_param=float(r))


def mpt_truncated_kernel(beta: float, r: float, ell: int) -> KernelSpec:
    """The boundary-logarithmic kernel restricted to a comb of 2^{ell+1}
    teeth: t in (3 + k 2^-ell, 3 + (3k+1)/(3 2^ell)] for 0 <= k < 2^{ell+1}.

    Each tooth keeps the left third of its dyadic slot, left-open and
    right-closed.  The comb oscillates at scale 2^-ell, which drives the
    shell-decay constant up while the annulus-sum constant stays level.
    """
    _check_mpt(beta, r)
    if not isinstance(ell, int) or ell < 0:
        raise ValueError("truncation index ell must be a nonnegative integer")
    return KernelSpec("mpt_truncated", 1, beta=float(beta), r_param=float(r), ell=ell)


def dini_synthetic_kernel(modulus: Modulus, m: int, amplitude: float = 1.0) -> KernelSpec:
    """A kernel whose x-oscillation follows a prescribed modulus.

    K(x, y) = amplitude * omega(tent(log2 D)) / D^{mn} where D is the
    sum of slot distances and tent is the 1-periodic tent map, so the
    kernel has size D^{-mn} and smoothness exactly of order omega.
    """
    _check_m(m)
    if not isinstance(modulus, Modulus):
        raise TypeError("modulus must be a Modulus")
    if not (amplitude > 0 and math.isfinite(amplitude)):
        raise ValueError("amplitude must be positive and finite")
    return KernelSpec("dini_synthetic", m, modulus=modulus, amplitude=float(amplitude))


def grid_error(spec: KernelSpec, grid: GridSpec) -> str | None:
    """Why the kernel cannot act on the grid, or None when it can."""
    if spec.variant in _ONE_DIMENSIONAL and grid.n != 1:
        return f"{_ONE_DIMENSIONAL[spec.variant]} needs a one-dimensional grid"
    return None


def lattice_error(spec: KernelSpec, grid: GridSpec) -> str | None:
    """Why the estimators cannot sample the kernel on the grid: its slot
    tuples over the quadrature lattice would exceed the evaluation
    budget.  None when they fit."""
    tuples = math.prod(len(r) for r in _lattice_indices(spec, grid)) ** spec.m
    if tuples > _MAX_PRODUCT_POINTS:
        return (
            f"quadrature lattice of {tuples} slot tuples exceeds the limit of "
            f"{_MAX_PRODUCT_POINTS}; reduce grid depth"
        )
    return None


def _check_m(m):
    if m not in (1, 2):
        raise ValueError("only 1 or 2 input slots are supported")


def _check_mpt(beta, r):
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("kernel exponent r must satisfy r >= 1")


def eval_batch(spec: KernelSpec, x: np.ndarray, *ys: np.ndarray):
    """Evaluate K(x, .) on the slot tuples formed by broadcasting.

    Parameters
    ----------
    x : (n,) point.
    ys : one (..., n) point array per slot.  The leading shapes
        broadcast against each other: equal shapes zip the slots into a
        batch of tuples, and one axis per slot gives their product.

    Returns
    -------
    vals : float array of the broadcast shape, zero where invalid.
    valid : bool array of the same shape, False exactly on singular set
        hits (any slot equal to x) and on the kernel's own singular
        set.  No finiteness check is made: a value that overflows or
        divides by an underflowed denominator comes back as it is, with
        ``valid`` True, and shows up in the caller's sum.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    ys = [np.asarray(y, dtype=float) for y in ys]
    if len(ys) != spec.m or any(y.shape[-1:] != x.shape for y in ys):
        raise ValueError("eval_batch takes one (..., n) point array per slot, matching x")
    if spec.variant in _ONE_DIMENSIONAL and x.size != 1:
        raise ValueError(f"{_ONE_DIMENSIONAL[spec.variant]} lives in one ambient dimension")
    vals, valid = _eval_values(spec, x, ys)
    # diagonal hits, slot by slot: a column compare per axis (a reduction
    # over the short last axis costs far more), masked out by broadcasting
    for y in ys:
        at_x = y[..., 0] == x[0]
        for a in range(1, x.size):
            at_x &= y[..., a] == x[a]
        valid &= ~at_x
    return np.where(valid, vals, 0.0), valid


def _eval_values(spec: KernelSpec, x: np.ndarray, ys):
    if spec.variant == "zero":
        shape = np.broadcast_shapes(*(y.shape[:-1] for y in ys))
        return np.zeros(shape), np.ones(shape, dtype=bool)
    if spec.variant == "x_independent":
        # the y^2 terms, added left to right slot by slot and axis by axis
        sq = sum(y[..., a] * y[..., a] for y in ys for a in range(x.size))
        return np.exp(-sq), np.ones(sq.shape, dtype=bool)
    if spec.variant == "bilinear_odd":
        u0, u1 = x[0] - ys[0][..., 0], x[0] - ys[1][..., 0]
        den = u0 * u0 + u1 * u1
        valid = den > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return (u0 + u1) / den ** 1.5, valid
    if spec.variant in ("mpt", "mpt_truncated"):
        return _mpt_values(spec, x[0] - ys[0][..., 0])
    if spec.variant == "dini_synthetic":
        # sum over slots of |x - y_s|, each taken once per slot point
        D = sum(np.sqrt(sum((x[a] - y[..., a]) ** 2 for a in range(x.size))) for y in ys)
        valid = D > 0.0
        Dsafe = np.where(valid, D, 1.0)
        frac = np.log2(Dsafe)
        frac -= np.floor(frac)
        tent = 2.0 * np.minimum(frac, 1.0 - frac)
        mn = spec.m * x.size
        return spec.amplitude * spec.modulus(tent) / Dsafe ** mn, valid
    raise ValueError(f"unknown kernel variant {spec.variant!r}")


def _mpt_values(spec: KernelSpec, t: np.ndarray):
    s = np.abs(t - 4.0)
    live = (t > 3.0) & (t < 5.0)
    if spec.variant == "mpt_truncated":
        # tooth k keeps (3 + k/2^ell, 3 + (3k+1)/(3 2^ell)]; the floor
        # lands on k, and the left-open end drops out automatically
        # because t = 3 + k/2^ell fails the strict lower comparison.
        # t = 4 sits on an open tooth endpoint, so the comb removes the
        # singular point and the truncation is bounded.
        scale = float(1 << spec.ell)
        k = np.floor((t - 3.0) * scale)
        in_tooth = (t > 3.0 + k / scale) & (t <= 3.0 + (3.0 * k + 1.0) / (3.0 * scale))
        in_tooth &= (k >= 0) & (k < 2 * scale)
        live &= in_tooth
    valid = ~(live & (s == 0.0))
    live &= valid
    rp_inv = 1.0 - 1.0 / spec.r_param  # 1/r'
    # power and log on the live set only: a few percent of a comb's lattice
    s = s[live]
    vals = np.zeros(t.shape)
    vals[live] = s ** -rp_inv * np.log(np.e / s) ** (-(1.0 + spec.beta) * rp_inv)
    return vals, valid


def y_support_box(spec: KernelSpec, grid: GridSpec):
    """Per-slot box (lo, hi) outside which K(x, .) vanishes for every x
    in the domain, or None when no bounded support is declared."""
    if spec.variant in ("mpt", "mpt_truncated"):
        o, side = grid.origin[0], grid.side
        return (np.array([o - 5.0]), np.array([o + side - 3.0]))
    if spec.variant == "zero":
        lo = np.array(grid.origin)
        return (lo, lo)  # empty-for-all-purposes box, any point works
    return None


@dataclass(frozen=True)
class SamplePlan:
    """Where a cube-based estimator looks.

    Either ``levels`` enumerates whole dyadic generations (with point
    pairs drawn from a depth-``pair_depth`` sublattice of each half
    cube, widest separations first, at most ``max_pairs`` per cube), or
    ``cubes`` and ``pairs`` give explicit (center, side) cubes zipped
    with explicit (x, z) pairs.
    """

    levels: tuple | None = None
    pair_depth: int = 2
    max_pairs: int = 16
    cubes: tuple | None = None
    pairs: tuple | None = None

    def __post_init__(self):
        if (self.levels is None) == (self.cubes is None):
            raise ValueError("exactly one of levels / explicit cubes must be given")
        if self.levels is not None:
            object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
            if len(self.levels) == 0:
                raise ValueError("levels must be nonempty")
            if self.pair_depth < 1 or self.max_pairs < 1:
                raise ValueError("pair_depth and max_pairs must be at least 1")
        else:
            if self.pairs is None or len(self.pairs) != len(self.cubes) or len(self.cubes) == 0:
                raise ValueError("explicit mode needs equal-length nonempty cubes and pairs")

    @classmethod
    def from_json_dict(cls, d: dict) -> "SamplePlan":
        if "levels" in d and d["levels"] is not None:
            return cls(
                levels=tuple(d["levels"]),
                pair_depth=int(d.get("pair_depth", 2)),
                max_pairs=int(d.get("max_pairs", 16)),
            )
        cubes = tuple((tuple(c), float(s)) for c, s in d["cubes"])
        pairs = tuple((tuple(x), tuple(z)) for x, z in d["pairs"])
        return cls(cubes=cubes, pairs=pairs)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Result of a cube-based regularity estimate.

    ``value`` equals the sum of ``terms`` (the per-scale series of the
    maximizing sample).  ``k_max`` is the number of scales that carried
    mass there.  ``tail_flag`` records that the kernel support is
    unbounded so the quadrature stopped at the domain.  ``skipped``
    counts lattice evaluations discarded for landing on the singular
    set, plus degenerate x = z samples.
    """

    value: float
    terms: tuple
    k_max: int
    tail_flag: bool
    skipped: int
    samples: dict

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "terms": list(self.terms),
            "k_max": self.k_max,
            "tail_flag": self.tail_flag,
            "skipped": self.skipped,
            "samples": dict(self.samples),
        }


def plan_error(plan: SamplePlan, grid: GridSpec) -> str | None:
    """Why the plan cannot be sampled on the grid, or None when it can:
    levels outside [0, L], or explicit samples of the wrong dimension,
    outside their concentric half cube, or all degenerate (x = z)."""
    if plan.cubes is None:
        bad = [lam for lam in plan.levels if not 0 <= lam <= grid.L]
        return f"levels {bad} outside [0, {grid.L}]" if bad else None
    configs = [(*(np.atleast_1d(np.asarray(p, dtype=float)) for p in (c, x, z)), float(side)) for (c, side), (x, z) in zip(plan.cubes, plan.pairs)]
    for center, x, z, side in configs:
        if not center.size == x.size == z.size == grid.n:
            return "explicit cube/pair dimension does not match the grid"
        if not side > 0:
            return "explicit cube side must be positive"
        if np.any(np.abs(np.stack((x, z)) - center) > side / 4 + 1e-12 * side):
            return "sample points must lie in the concentric half cube"
    if all(np.array_equal(x, z) for _, x, z, _ in configs):
        return "all sampled pairs were degenerate (x = z)"
    return None


def enumerate_plan(plan: SamplePlan, grid: GridSpec) -> tuple:
    """Expand a plan that ``plan_error`` accepts into the arrays (centers,
    sides, xs, zs) of its samples, (S, n), (S,), (S, n) and (S, n), one row
    per sample in plan order: a level's cubes in row-major order, each with
    the first ``max_pairs`` pairs of its half cube's depth-d sublattice by
    (-|x - z|^2, x, z), computed for a block of cubes at a time."""
    if plan.cubes is not None:
        centers, xs, zs = (np.array([np.ravel(np.asarray(p, float)) for p in ps]) for ps in zip(*((c, *xz) for (c, _), xz in zip(plan.cubes, plan.pairs))))
        return centers, np.array([float(side) for _, side in plan.cubes]), xs, zs
    n, sub, parts = grid.n, 1 << plan.pair_depth, []
    i, j = np.triu_indices(sub**n, 1)
    for lam in plan.levels:
        side = grid.side / (1 << lam)
        offsets = -side / 4 + (np.arange(sub) + 0.5) * side / (2 * sub)
        centers = np.add(grid.origin, (np.indices((1 << lam,) * n).reshape(n, -1).T + 0.5) * side)
        for c in np.array_split(centers, -(-len(centers) * len(i) * 8 * n // _CHUNK)):  # keys under 1 MiB
            pts = c[:, None] + offsets[np.indices((sub,) * n).reshape(n, -1).T]
            d2 = np.sum((pts[:, i] - pts[:, j]) ** 2, axis=-1)
            pick = np.lexsort([pts[:, k, a] for k in (j, i) for a in reversed(range(n))] + [-d2])[:, : plan.max_pairs]
            x, z = (np.take_along_axis(pts, k[pick][..., None], axis=1).reshape(-1, n) for k in (i, j))
            parts.append((np.repeat(c, pick.shape[1], axis=0), np.full(len(x), side), x, z))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _lattice_indices(spec: KernelSpec, grid: GridSpec) -> list:
    """Quadrature lattice as cell-index aranges, one per axis: the grid
    domain, extended to the kernel's declared support box when there is
    one.  Lattice coordinates are origin + h (i + 1/2), and an axis keeps
    the i whose coordinate lies in [lo, hi) of the extended box."""
    sup = y_support_box(spec, grid)
    out = []
    for a in range(grid.n):
        o, h = grid.origin[a], grid.h
        lo, hi = o, o + grid.side
        if sup is not None:
            lo, hi = min(lo, float(sup[0][a])), max(hi, float(sup[1][a]))
        out.append(np.arange(math.ceil((lo - o) / h - 0.5), math.ceil((hi - o) / h - 0.5)))
    return out


def _quad_lattice(spec: KernelSpec, grid: GridSpec):
    """Returns (axes, covers_all): the sorted lattice coordinates along
    each axis, and False for unbounded supports."""
    axes = [grid.origin[a] + grid.h * (r + 0.5) for a, r in enumerate(_lattice_indices(spec, grid))]
    return axes, y_support_box(spec, grid) is not None


def _lattice_points(axes) -> np.ndarray:
    """(N, n) points of the product of the axes, in row-major order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _shell_bounds(axes, centers: np.ndarray, sides: np.ndarray):
    """(lo, hi, J) for the (k, n) ``centers`` of cubes of the k ``sides``:
    per axis and cube the index ranges of the boxes B_j = center +- 2^(j-1)
    side until B_j passes twice the farthest lattice point, from one
    binary search per axis, j-major so each starts from the last, by the same half-open
    comparison as testing coordinates; (n, k, j) arrays, and each cube's J, the first j whose B_j holds the lattice."""
    span = max(float(np.max(np.abs(c[:, None] - ax[[0, -1]]))) for ax, c in zip(axes, centers.T))
    halves = np.ldexp(sides[:, None], np.arange(-1, math.ceil(math.log2(max(span / sides.min(), 1.0))) + 3))
    lo = np.stack([np.searchsorted(ax, c - halves.T).T for ax, c in zip(axes, centers.T)])
    hi = np.stack([np.searchsorted(ax, c + halves.T).T for ax, c in zip(axes, centers.T)])
    whole = np.logical_and.reduce([(a == 0) & (b == len(ax)) for a, b, ax in zip(lo, hi, axes)])
    if not whole.any(axis=1).all():
        raise RuntimeError("shell enumeration failed to terminate")
    return lo, hi, np.argmax(whole, axis=1).tolist()


def _shell_order(axes, lo, hi, J: list):
    """Lay the lattice out by the shells of the cubes of ``_shell_bounds``:
    shell 0 is B_0 = Q and shell j >= 1 is B_j minus B_{j-1}.  Returns a
    function of a list of cube indices giving per cube (lay, heads): the
    lattice indices by shell, ascending within a shell, each shell led by
    a placeholder 0, and the J + 1 placeholders' positions, from a stable
    sort of shell labels."""

    def one(k):
        label = np.full(tuple(len(ax) for ax in axes), J[k])
        for j in range(J[k] - 1, -1, -1):
            label[tuple(slice(a[k, j], b[k, j]) for a, b in zip(lo, hi))] = j
        starts = np.concatenate(([0], np.cumsum(np.bincount(label.ravel(), minlength=J[k] + 1))[:-1]))
        return np.insert(np.argsort(label.ravel(), kind="stable"), starts, 0), starts + np.arange(J[k] + 1)

    return lambda ks: [one(k) for k in ks]


def offset_table(spec: KernelSpec, grid: GridSpec, points: np.ndarray, cells: np.ndarray, every: bool = False):
    """The rows K(p, .) of the points ``points`` (P, n) over the cells
    with integer lattice indices ``cells`` (K, n), in every slot, read
    off one table; None when K is not a function of the offsets x - y,
    the table would exceed ``_MAX_TABLE`` entries (``_CHUNK`` for two
    slots), ``every`` is set and some point is not served, or its
    evaluation raises a floating-point exception.  Each of these is
    decided before the table is evaluated, but the last.

    Returns (vals, valid, row, col): the table K(p0, .) of the first
    point p0 over the cells padded by the spread of the points, with one
    axis of the N padded cells, in row-major order, per slot; a row
    offset per point, -1 where the point is not served; and a column
    offset per cell.  For every served point k, ``vals[row[k] + col[l]]``
    and ``valid[row[k] + col[l]]`` are bitwise ``eval_batch(spec,
    points[k], y_l)``, and at two slots so are the entries at flat index
    (row[k] + col[l1]) * N + row[k] + col[l2] of ``eval_batch(spec,
    points[k], y_l1, y_l2)``.  Coordinates are spelt origin + h (k + 1/2),
    as ``grid.cell_centers`` spells them.

    Point p is s = rint((p - p0) / h) cells from p0, and is served when,
    along every axis, its difference p - y to every cell coordinate y is
    bitwise p0 - y', with y' = y - s h as the table spells it; the
    kernel then sees the same numbers in every slot.  When the origin,
    h / 2 and the points are multiples of one 2^q, no point is -0.0 and
    every coordinate is below 2^(51 + q) in size, these differences are
    exact, and p is served exactly when p - p0 is s h.  Else the check
    runs per axis, against the distinct cell coordinates,
    ``_CHECK_BLOCK`` point-cell pairs at a time, never as a points x
    cells matrix.  A two-slot table is evaluated ``_CHECK_BLOCK``
    entries at a time, a block of first-slot rows each.  The table is
    evaluated with overflow, division by zero and invalid operations
    raising: a table that raises may hold a value that some row meets
    and warns about, so None leaves every row, and its warnings, to
    ``eval_batch``.
    """
    if spec.variant not in _CONVOLUTION or len(points) == 0 or len(cells) == 0:
        return None
    h, p0 = grid.h, points[0]
    with np.errstate(all="ignore"):
        shifts = np.rint((points - p0) / h)
    if not np.all(np.abs(shifts) <= _MAX_TABLE):  # past any table; inf and nan too
        return None
    shifts = shifts.astype(np.intp)
    lo, hi, top = cells.min(axis=0), cells.max(axis=0), shifts.max(axis=0)
    shape = hi - lo + 1 + top - shifts.min(axis=0)
    N = math.prod(shape.tolist())
    if N**spec.m > (_MAX_TABLE if spec.m == 1 else _CHUNK):
        return None
    first = lo - top  # the lattice index of each axis' first table point
    axes = [grid.origin[a] + h * (np.arange(first[a], first[a] + shape[a]) + 0.5) for a in range(grid.n)]
    q = min([_two_adic(o) for o in grid.origin if o] + [_two_adic(h) - 1])
    with np.errstate(all="ignore"):
        w = np.ldexp(points, -q)  # the points in units of 2^q
        reach = np.max(np.abs(w)) + np.ldexp(max(map(abs, grid.origin)) + h * (np.max(np.abs(first)) + shape.max() + 1.0), -q)
        if reach < 2.0**51 and np.all(np.ldexp(np.floor(w), q) == points) and not np.signbit(points[points == 0.0]).any():
            served = np.all(points - p0 == shifts * h, axis=1)
        else:
            served = np.ones(len(points), dtype=bool)
            for a in range(grid.n):
                # the distinct cell indices less lo, ascending: np.unique would import
                # numpy.ma, 0.2 to 0.9 MiB more resident, as deduplicating the points would
                span = np.bincount(cells[:, a] - lo[a])
                C = np.flatnonzero(span)
                y = grid.origin[a] + h * (C + lo[a] + 0.5)
                # window i: p0 - y' over the cells lo .. hi at shift top - i
                window = sliding_window_view((p0[a] - axes[a]).view(np.int64), span.size)
                cols = C if C.size < span.size else slice(None)
                step = max(1, _CHECK_BLOCK // C.size)
                for b in range(0, len(points), step):
                    d = (points[b : b + step, a, None] - y).view(np.int64)
                    served[b : b + step] &= (d == window[top[a] - shifts[b : b + step, a]][:, cols]).all(axis=1)
    if every and not served.all():
        return None
    ys, step = _lattice_points(axes), N if spec.m == 1 else max(1, _CHECK_BLOCK // N)
    vals, valid = np.empty((N,) * spec.m), np.empty((N,) * spec.m, dtype=bool)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for i in range(0, N, step):  # at two slots, a block of first-slot rows
                vals[i : i + step], valid[i : i + step] = eval_batch(spec, p0, *((ys[i : i + step],) if spec.m == 1 else (ys[i : i + step, None], ys)))
    except FloatingPointError:
        return None
    strides = np.array([math.prod(shape[a + 1 :].tolist()) for a in range(grid.n)])
    row = np.where(served, ((top - shifts) * strides).sum(axis=1), -1)
    return vals, valid, row, ((cells - lo) * strides).sum(axis=1)


def _two_adic(v: float) -> int:
    """The largest q for which the nonzero float v is a multiple of 2^q."""
    k = int(math.frexp(v)[0] * (1 << 53))
    return math.frexp(v)[1] - 54 + (k & -k).bit_length()


def _pair_tables(vals: np.ndarray, valid: np.ndarray, deltas: list, r: float):
    """(F, B): F[k, u] is |T[u] - T[u + d]|^{r'} (power 1 at r = 1) on the
    offset table T = ``vals`` for the k-th ``deltas`` d, 0 where B marks
    either entry invalid (B is None when it marks none): bitwise what the
    pair (x, z), d = row[z] - row[x], forms from its rows at row[x] + col."""
    F, B = np.zeros((len(deltas), len(vals))), np.zeros((len(deltas), len(vals)), dtype=bool)
    for k, d in enumerate(deltas):
        u, w = slice(max(0, -d), len(vals) - max(0, d)), slice(max(0, d), len(vals) + min(0, d))
        np.subtract(vals[u], vals[w], out=F[k, u])
        B[k, u] = ~(valid[u] & valid[w])
    F[B] = 0.0
    np.abs(F, out=F)
    if r > 1:
        F **= r / (r - 1.0)  # in place, with the scalar fast paths (square, sqrt) of ``a ** e``
    return F, B if B.any() else None


def _cube_tables(spec: KernelSpec, order, pts: np.ndarray, r: float, center, side, pairs, table) -> tuple:
    """Shell tables of the (k, 2, n) sample pairs (x, z) that share one cube.

    The table of a pair has one cell per shell multi-index (j_1 .. j_m):
    the sum of |K(x,.) - K(z,.)|^{r'} over that product of shells, or
    the largest |K(x,.) - K(z,.)| at r = 1.  ``order`` is the cube's
    ``_shell_order``; ``table`` is None or an ``offset_table`` over the
    lattice ``pts``, its row offsets keyed by the bytes of the points it
    serves, and the ``_pair_tables`` (F, B) with each pair's row offset
    in F when they serve every point of a two-dimensional cube at one
    slot (in one dimension such cubes take ``_shell_pass``).  A pair's
    row over the laid-out lattice is then one gather from F, a block of
    pairs at a time; else the difference of its points' rows, at m = 2 in blocks of
    first-slot rows of the shell-sorted lattice, each an ``eval_batch``
    call or one ``take`` off the offset table, whose index is built once
    per cube.  With the heads set to 0, one ``reduceat``
    gives each shell's np.add.reduce (the 0 is its initial value) or
    maximum.  Returns the pairs' tables stacked in the order given, and
    per pair the count of singular tuples outside Q^m."""
    m, (lay, heads) = spec.m, order
    J, inside = len(heads), (heads.tolist() + [len(lay)])[1]  # Q: the layout up to the head of shell 1
    table_vals, table_valid, row, col, pair = table if table is not None else (None, None, {}, None, None)
    ufunc, R = np.add if r > 1 else np.maximum, (len(lay) - J) ** (m - 1)  # R first-slot rows
    acc, skipped = np.zeros((len(pairs), R, J)), np.zeros(len(pairs), dtype=np.int64)
    if pair is not None:  # one slot; gathers under 1 MiB
        (F, B, base), at, step = pair, col[lay], max(1, _CHUNK // 2 // len(lay))
        blocks = [(slice(k, k + step), 0, 1) for k in range(0, len(pairs), step)]
    else:
        points = {p.tobytes(): p for xz in pairs for p in xz}
        keys = sorted(points, key=lambda key: key not in row)  # gathered rows first
        H = sum(key in row for key in keys)
        xi, zi = (np.array([keys.index(p.tobytes()) for p in ps]) for ps in zip(*pairs))
        perm, starts = np.delete(lay, heads), np.append(heads - np.arange(J), len(lay) - J)  # shell j starts at starts[j]
        lattice, step = pts[lay], max(1, _CHUNK // len(lay))
        blocks = [(slice(None), i0, min(R, i0 + step)) for i0 in range(0, R, step)]
        if H:  # a served point's rows are the table at this index plus its offset
            N, holes = len(table_vals), not table_valid.all()
            at = col[perm, None] * N + col[lay] if m == 2 else col[lay][None]
            offsets = [row[key] * (N + 1 if m == 2 else 1) for key in keys[:H]]
    for ks, i0, i1 in blocks:
        if pair is not None:
            idx = at + base[ks, None]
            a, bad = F.take(idx)[:, None], None if B is None else B.take(idx)[:, None]
        else:
            vals = np.empty((len(keys), i1 - i0, len(lay)))
            valid = np.empty(vals.shape, dtype=bool)
            for k in range(H):
                idx = at[i0:i1] + offsets[k]
                vals[k], valid[k] = table_vals.take(idx), table_valid.take(idx) if holes else True
            for k in range(H, len(keys)):
                ys = (pts[perm[i0:i1], None], lattice) if m == 2 else (lattice,)
                vals[k], valid[k] = eval_batch(spec, points[keys[k]], *ys)
            bad = ~(valid[xi] & valid[zi])
            a = np.empty((len(pairs), i1 - i0, len(lay)))
            for k in range(len(pairs)):
                np.subtract(vals[xi[k]], vals[zi[k]], out=a[k])
            if bad.any():
                a[bad] = 0.0
            np.abs(a, out=a)
            if r > 1:
                a **= r / (r - 1.0)  # in place, with the scalar fast paths (square, sqrt) of ``a ** e``
        a[..., heads] = 0.0
        acc[ks, i0:i1] = ufunc.reduceat(a, heads, axis=-1)
        if bad is not None and bad.any():
            bad[..., heads] = False
            top = max(0, min(i1, (inside - 1) ** (m - 1)) - i0)  # the rows of Q^m
            skipped[ks] += np.count_nonzero(bad, axis=(1, 2)) - np.count_nonzero(bad[:, :top, :inside], axis=(1, 2))
    if m == 2:  # fold the rows of each shell: cell (j1, j2) of the product shells
        rows_acc, acc = acc, np.zeros((len(pairs), J, J))
        for j in range(J):
            if starts[j + 1] > starts[j]:
                acc[:, j] = ufunc.reduce(rows_acc[:, starts[j] : starts[j + 1]], axis=1)
    else:
        acc = acc[:, 0]
    finite = np.isfinite(acc).reshape(len(pairs), -1).all(axis=1)
    if not finite.all():
        x, z = pairs[int(np.argmin(finite))]
        raise _sample_failure((center, side, x, z), "non-finite shell table")
    return acc, skipped


def _shell_pass(F, B, r: float, base, cube, lo, hi, J: list):
    """One-dimensional shell tables and skip counts of the pairs that the
    pair tables (F, B) serve whole, in one pass per call.  Pair k reads F
    from flat offset base[k], and its cube c = cube[k] has the
    ``_shell_bounds`` rows lo[c], hi[c] and J[c]: shell j >= 1 is the
    lattice runs [lo_j, lo_{j-1}) and [hi_{j-1}, hi_j), shell 0 the run
    [lo_0, hi_0), so its cell is 0.0 plus the sum of two runs of F (their
    maximum at r = 1), a function of four offsets, its key.  Keys whose
    runs hold no nonzero entry read 0.0; a key whose entries form one run
    [a, b) is rewritten (a, b, b, b), and each distinct other key is summed
    once by ``_sum_runs``.  Returns the (k, max J + 1) cells, zero past a
    cube's J (whose runs are empty), and per pair the invalid entries
    outside its cube, the two runs of B around it."""
    flat, b = F.ravel(), base.astype(np.int32)  # tables hold under 2^17 entries
    l, h = lo.astype(np.int32), hi.astype(np.int32)
    w = int(np.take(J, cube).max()) + 1
    runs = np.stack((l, np.concatenate((h[:, :1], l[:, :-1]), axis=1), np.concatenate((h[:, :1], h[:, :-1]), axis=1), h), axis=2)
    keys = runs[:, :w][cube]
    keys += b[:, None, None]
    live = np.flatnonzero(_in_runs(flat != 0.0, keys.reshape(-1, 4)))  # nan and inf are nonzero
    keys = keys.reshape(-1, 4)[live]
    u0, u1, v0, v1 = keys.T
    one = (u0 == u1) | (u1 == v0) | (v0 == v1)
    keys[one, 0] = np.where(u0 == u1, v0, u0)[one]
    keys[one, 1:] = np.where(v0 == v1, u1, v1)[one, None]
    cells, (label, firsts) = np.zeros((len(cube), w)), _first_seen(keys)
    cells.ravel()[live] = _sum_runs(flat, keys[firsts], np.add if r > 1 else np.maximum)[label]
    if B is None:
        return cells, np.zeros(len(cube), dtype=np.int64)
    return cells, _in_runs(B.ravel(), np.stack((b, b + l[cube, 0], b + h[cube, 0], b + h[cube, -1]), axis=1)).astype(np.int64)


def _in_runs(mask: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The True entries of ``mask`` in the runs [u0, u1) and [v0, v1) of
    each row (u0, u1, v0, v1) of ``keys``, from one prefix count."""
    count = np.zeros(mask.size + 1, dtype=np.int32)
    np.cumsum(mask, out=count[1:])
    out = count[keys[:, 1]]
    out -= count[keys[:, 0]]
    out += count[keys[:, 3]]
    out -= count[keys[:, 2]]
    return out


def _sum_runs(flat: np.ndarray, keys: np.ndarray, ufunc) -> np.ndarray:
    """The cell of each row (u0, u1, v0, v1) of ``keys``: ``ufunc.reduceat``
    over 0.0, flat[u0:u1] and flat[v0:v1], the layout ``_cube_tables``
    reduces, so each sum is bitwise its.  The rows' slices are joined into
    blocks that start every ``_RUN_BLOCK`` entries, one ``reduceat`` each."""
    size = keys[:, 1] - keys[:, 0] + keys[:, 3] - keys[:, 2] + 1
    at = np.cumsum(size, dtype=np.int64) - size
    cuts = np.flatnonzero(np.diff(at // _RUN_BLOCK, prepend=-1)).tolist() + [len(keys)]
    out, zero = np.empty(len(keys)), np.zeros(1)
    for s, e in zip(cuts, cuts[1:]):
        parts = []
        for u0, u1, v0, v1 in keys[s:e].tolist():
            parts += (zero, flat[u0:u1], flat[v0:v1])
        out[s:e] = ufunc.reduceat(np.concatenate(parts), at[s:e] - at[s])
    return out


def _first_seen(keys: np.ndarray):
    """(labels, firsts): each row's label, numbered by first appearance, and
    the first row of each label of the (k, w) array ``keys``, by one stable
    lexsort (np.unique would import numpy.ma, 0.2 to 0.9 MiB more resident)."""
    order = np.lexsort(keys.T)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    firsts = order[new]  # each run's first row: the sort is stable
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = np.argsort(np.argsort(firsts))[np.cumsum(new) - 1]
    return labels, np.sort(firsts)


def _sample_tables(spec: KernelSpec, grid: GridSpec, r: float, plan: SamplePlan):
    """The front end both estimators share, on arrays of samples: the
    plan's less its x = z pairs, grouped by cube (first appearance,
    positions ascending), their points by bit pattern, for the offset
    and pair tables.  On a one-dimensional grid the cubes the pair
    tables serve whole take one ``_shell_pass``; the other cubes, and
    every cube of a two-dimensional grid, where a shell is too many runs
    for the pass to pay, take ``_cube_tables``, the cubes that start in
    one ``_CHUNK`` of lattice entries of pair rows one parallel task.
    The first non-finite table, in cube order, raises FloatingPointError
    naming its cube centre and pair.  A plan whose kept samples skip every slot tuple outside their
    cubes measures nothing, and raises FloatingPointError naming the
    first.  Returns (kept, groups, skipped, samples, covers_all): the
    kept (centers, sides, xs, zs); per side and table shape, (side, kept
    positions ascending, their tables); each kept sample's singular
    tuples, to which the reports add the x = z pairs, the plan's pairs
    less the kept.  Ties resolve by plan position.  Tables live for the call."""
    problem = plan_error(plan, grid) or grid_error(spec, grid) or lattice_error(spec, grid)
    if problem:
        raise ValueError(problem)
    centers, sides, xs, zs = enumerate_plan(plan, grid)
    keys = np.column_stack((centers + 0.0, sides)).view(np.int64)  # a cube by its bits, -0.0 as 0.0
    samples = {"cubes": len(_first_seen(keys)[1]), "pairs": len(sides)}
    live = (xs != zs).any(axis=1)
    kept, keys = (centers[live], sides[live], xs[live], zs[live]), keys[live]
    pairs = np.stack(kept[2:], axis=1)  # (K, 2, n): each kept sample's x and z
    cube, firsts = _first_seen(keys)
    by_cube, cuts = np.argsort(cube, kind="stable"), np.append(0, np.cumsum(np.bincount(cube))).tolist()
    axes, bounded = _quad_lattice(spec, grid)
    pts = _lattice_points(axes)
    lo, hi, J = _shell_bounds(axes, kept[0][firsts], kept[1][firsts])
    order = _shell_order(axes, lo, hi, J)
    point, distinct = _first_seen(pairs.reshape(-1, grid.n).view(np.int64))  # -0.0 is not 0.0 here
    points, tables, passed = pairs.reshape(-1, grid.n)[distinct], [None] * len(firsts), np.zeros(len(firsts), dtype=bool)
    table = offset_table(spec, grid, points, _lattice_points(_lattice_indices(spec, grid)))
    if table is not None:
        vals, valid, row, col = table
        ends = row[point].reshape(-1, 2)[by_cube]  # each sample's row offsets, cube by cube
        served, d = (ends >= 0).all(axis=1), ends[:, 1] - ends[:, 0]
        deltas = np.sort(d[served])
        deltas = deltas[np.diff(deltas, prepend=deltas[:1] - 1) != 0].tolist()
        # the pair tables, F under 1 MiB, go with a cube when they serve all its points
        whole = np.logical_and.reduceat(served, cuts[:-1]) & (spec.m == 1 and len(deltas) * len(vals) <= _CHUNK // 2)
        if whole.any():
            F, B = _pair_tables(vals, valid, deltas, r)
            base = np.searchsorted(deltas, d) * len(vals) + ends[:, 0]
        rows = {} if whole.all() else {p.tobytes(): k for p, k in zip(points, row.tolist()) if k >= 0}
        tables = [(vals, valid, rows, col, (F, B, base[a:b]) if w else None) for a, b, w in zip(cuts, cuts[1:], whole.tolist())]
        if grid.n == 1:
            passed = whole
    done, fail = [None] * len(firsts), None  # fail: the pass's first cube and error
    cube_centers, cube_sides, pairs = kept[0][firsts], kept[1][firsts].tolist(), pairs[by_cube]
    if passed.any():
        sel = np.flatnonzero(np.repeat(passed, np.diff(cuts)))  # the pairs of the cubes the pass fills
        owner = np.repeat(np.flatnonzero(passed), np.diff(cuts)[passed])  # and their cubes
        cells, sk = _shell_pass(F, B, r, base[sel], owner, lo[0], hi[0], J)
        stops = np.cumsum(np.diff(cuts)[passed]).tolist()
        for c, a, e in zip(np.flatnonzero(passed).tolist(), [0] + stops, stops):
            done[c] = cells[a:e, : J[c] + 1], sk[a:e]
        k = int(np.argmax(~np.isfinite(cells).all(axis=1)))
        if not np.isfinite(cells[k]).all():
            fail = int(owner[k]), _sample_failure((cube_centers[owner[k]], None, *pairs[sel[k]]), "non-finite shell table")
    start = (np.array(cuts[:-1]) * (len(pts) ** spec.m + lo.shape[2]) // _CHUNK).tolist()  # each cube's chunk
    todo = [c for c in range(len(firsts) if fail is None else fail[0]) if done[c] is None]  # cubes before a failure
    tasks = [list(g) for _, g in itertools.groupby(todo, start.__getitem__)]

    def task(cubes):
        return [
            _cube_tables(spec, o, pts, r, cube_centers[c], cube_sides[c], pairs[cuts[c] : cuts[c + 1]], tables[c])
            for c, o in zip(cubes, order(cubes))
        ]

    for c, out in zip(todo, itertools.chain(*parallel_map(task, tasks))):
        done[c] = out  # (tables, skipped)
    if fail is not None:
        raise fail[1]
    skipped = np.empty(len(cube), dtype=np.int64)
    skipped[by_cube] = np.concatenate([sk for _, sk in done])
    inside = np.prod(hi[:, :, 0] - lo[:, :, 0], axis=0) ** spec.m  # the slot tuples in Q^m
    # blind: every tuple off Q^m, the only ones either estimate reads, skipped
    if np.all((0 < skipped) & (skipped == len(pts) ** spec.m - inside[cube])):
        raise _sample_failure([a[0] for a in kept], "every slot tuple outside the cube is singular")
    group, heads = _first_seen(np.column_stack((keys[firsts, -1], J)))  # per cube, its (side, J)
    groups, of = [], group[cube[by_cube]]  # each sample's group, cube by cube
    for g in range(len(heads)):
        at, T = by_cube[of == g], np.concatenate([done[c][0] for c in np.flatnonzero(group == g).tolist()])
        groups.append((float(kept[1][at[0]]), np.sort(at), T[np.argsort(at)]))
    return kept, groups, skipped, samples, bounded


def _check_exponents(grid: GridSpec, r: float, delta: float | None = None) -> None:
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("integrability exponent r must satisfy r >= 1")
    if delta is not None and not (delta > grid.n / r):
        raise ValueError("decay order delta must exceed n/r")


def hormander_constant(spec: KernelSpec, grid: GridSpec, r: float, plan: SamplePlan) -> EstimateReport:
    """Annulus-sum smoothness constant at exponent r.

    For each sampled cube Q and pair x, z in the concentric half cube
    the series sums, over dilation scales k >= 1, the measure of 2^k Q
    to the power m/r times the r'-norm of K(x,.) - K(z,.) over the
    k-th annulus of slot tuples, 2^k Q^m minus 2^{k-1} Q^m; at r = 1 the
    norm becomes a maximum and the measure power becomes m.  The report
    holds the largest series over all samples.

    Integrals are midpoint-lattice sums at the grid resolution over the
    domain extended to the kernel's declared support box, so the value
    is that quadrature sum, maximized over the sampled configurations.
    """
    _check_exponents(grid, r)
    return _kr_report(_sample_tables(spec, grid, r, plan), r, grid)


def _sample_failure(cfg, what: str) -> FloatingPointError:
    """The error that refuses one (center, side, x, z) sample: ``what``,
    then the sample's cube centre and pair, on one line."""
    center, _, x, z = cfg
    return FloatingPointError(f"{what} at cube centre {center.tolist()}, pair x = {x.tolist()}, z = {z.tolist()}")


def _until_overflow(values) -> list:
    """The values up to the first whose (Python, libm) power overflows."""
    out = []
    with contextlib.suppress(OverflowError):
        out.extend(values)
    return out


def _kr_report(sampled, r: float, grid: GridSpec) -> EstimateReport:
    """The annulus-sum report off ``_sample_tables``' result: scale k >= 1
    takes the cells whose deepest shell is k; trailing zero terms are cut."""
    kept, groups, skipped, samples, bounded = sampled
    e = 1.0 / (r / (r - 1.0)) if r > 1 else None
    fail, best = (len(skipped), None), (-1.0, 0, ())  # (position, what); (value, -position, terms)
    for side, pos, T in groups:
        m, S = T.ndim - 1, T.shape[1]
        if m == 2:  # scale k: row k up to the diagonal, then column k above it
            T = np.stack([(np.sum if r > 1 else np.max)(np.concatenate((T[:, k, : k + 1], T[:, :k, k]), axis=1), axis=1) for k in range(S)], 1)
        try:
            hvol, p = grid.cell_volume() ** m, [((2.0**k * side) ** grid.n) ** (m / r) for k in range(1, S)]
        except OverflowError:
            fail = min(fail, (pos[0], "an annulus term overflows"))
            continue
        with np.errstate(all="ignore"):
            c = T[:, 1:] * hvol if e else T[:, 1:]
            if e:  # libm pow on the nonzero cells: pow(0.0, e) is 0.0
                c[c != 0.0] = np.fromiter(map(pow, c[c != 0.0].tolist(), itertools.repeat(e)), float)
            terms = np.array(p) * c
        size = np.max(np.where(terms != 0.0, np.arange(1, S), 0), axis=1, initial=0)
        v = np.zeros(len(pos))
        for k in range(1, S):  # warns where finite terms overflow, as np.sum does
            if np.any(size == k):
                v[size == k] = np.sum(terms[size == k, :k], axis=1)
        i = int(np.argmax(~np.isfinite(v)))
        if not math.isfinite(v[i]):  # a term is: a measure that overflows times an empty cell, say
            fail = min(fail, (pos[i], f"the annulus sum is {float(v[i])!r}"))
        i = int(np.argmax(v))
        best = max(best, (float(v[i]), -pos[i], tuple(terms[i, : size[i]].tolist())))
    if fail[1]:
        raise _sample_failure([a[fail[0]] for a in kept], fail[1])
    return EstimateReport(max(best[0], 0.0), best[2], len(best[2]), not bounded, samples["pairs"] - len(skipped) + int(skipped.sum()), samples)


def h2_constant(spec: KernelSpec, grid: GridSpec, r: float, delta: float, plan: SamplePlan) -> EstimateReport:
    """Shell-decay constant at exponent r and decay order delta.

    For each sampled cube, pair, and nonzero shell multi-index the
    r'-norm of K(x,.) - K(z,.) over the product of shells is divided by
    |x-z|^{m(delta - n/r)} |Q|^{-m delta/n} 2^{-m delta j0}, with j0 the
    deepest shell involved; the reported value is the largest quotient,
    the smallest constant making the shell-decay bound hold on the
    sampled set.  ``delta`` must exceed n/r for the bound to be
    meaningful, and at r = 1 the norm is a maximum.  Norms are
    midpoint-lattice sums, as in ``hormander_constant``.
    """
    _check_exponents(grid, r, delta)
    return _h2_report(_sample_tables(spec, grid, r, plan), r, delta, grid)


def _h2_report(sampled, r: float, delta: float, grid: GridSpec) -> EstimateReport:
    """The shell-decay report off ``_sample_tables``' result: a nonzero cell
    but Q^m's gives ((norm * |Q|^{m delta/n}) * 2^{m delta j0}) / |x - z|^{m(delta - n/r)}.
    A sample fails on its |Q| power, its decay factor, then its first cell."""
    kept, groups, skipped, samples, bounded = sampled
    fail, best, n = (len(skipped), None), (0.0, 0, 0), grid.n  # (position, what); (value, -position, j0)
    for side, pos, T in groups:
        m, J, ex = T.ndim - 1, T.shape[1], (T.ndim - 1) * (delta - n / r)
        try:
            hvol, scale = grid.cell_volume() ** m, (side**n) ** (m * delta / n)
        except OverflowError:
            fail = min(fail, (pos[0], "a shell quotient overflows"))
            continue
        d = kept[2][pos] - kept[3][pos]
        with np.errstate(all="ignore"):
            dist = np.sqrt(sum(d[:, a] * d[:, a] for a in range(n)))  # Python's sum of the squares, from 0
        decay = _until_overflow(map(pow, dist.tolist(), itertools.repeat(ex)))
        k = len(decay)  # the decay factor of sample k overflows
        decay = np.array(decay + [1.0] * (len(pos) - k))
        j0 = np.arange(J) if m == 1 else np.maximum(*divmod(np.arange(J * J), J))
        p2j = _until_overflow(2.0 ** (m * delta * j) for j in range(J))
        cells = T.reshape(len(pos), -1)
        live = cells != 0.0
        live[:, 0] = False  # Q^m itself is left out; an empty cell's quotient is 0 and never wins
        g, c = live.nonzero()
        with np.errstate(all="ignore"):
            lhs = np.fromiter(map(pow, (cells[live] * hvol).tolist(), itertools.repeat(1.0 / (r / (r - 1.0)))), float) if r > 1 else cells[live]
            val = np.zeros(cells.shape)
            val[live] = lhs * scale * np.array(p2j + [1.0] * (J - len(p2j)))[j0[c]] / decay[g]
        over = j0 >= len(p2j)
        bad = live & (over | ~np.isfinite(val))
        failed = (np.arange(len(pos)) >= k) | ~((0.0 < decay) & (decay < math.inf)) | bad.any(axis=1)
        i = int(np.argmax(failed))
        if failed[i]:
            c, fine = int(np.argmax(bad[i])), 0.0 < decay[i] < math.inf
            what = "|x - z| underflows" if dist[i] == 0.0 else f"the decay factor |x - z|^{ex:g} is {float(decay[i])!r}"
            what = "a shell quotient overflows" if i >= k or fine and over[c] else f"the shell quotient is {float(val[i, c])!r}" if fine else what
            fail = min(fail, (pos[i], what))
        i, c = divmod(int(np.argmax(val)), val.shape[1])
        if val[i, c] > 0.0:
            best = max(best, (float(val[i, c]), -pos[i], int(j0[c])))
    if fail[1]:
        raise _sample_failure([a[fail[0]] for a in kept], fail[1])
    return EstimateReport(best[0], (best[0],), best[2], not bounded, samples["pairs"] - len(skipped) + int(skipped.sum()), samples)


def regularity(spec: KernelSpec, grid: GridSpec, r: float, delta: float, plan: SamplePlan):
    """(``hormander_constant``, ``h2_constant``) of one kernel, grid,
    exponent and plan, from a single pass of shell tables.

    Both reports are read off the same tables, so each equals the one
    its own function returns, bit for bit.  The tables live only for
    this call.  Exponents are checked before any table is built, so
    r < 1 and delta <= n/r raise the pair's ValueErrors.
    """
    _check_exponents(grid, r, delta)
    sampled = _sample_tables(spec, grid, r, plan)
    return _kr_report(sampled, r, grid), _h2_report(sampled, r, delta, grid)


# Dyadic brackets ``dini_norm`` sums before it judges the integral divergent.
_MAX_BRACKETS = 400000


def dini_norm(modulus: Modulus, tol: float = 1e-7) -> float:
    """Logarithmic integral of a modulus over (0, 1).

    Integrates omega(t)/t with 16-point Gauss-Legendre quadrature on
    each dyadic bracket [2^-(k+1), 2^-k] in log coordinates, stopping
    once the single-bracket bound omega(2^-K) log 2 falls below ``tol``
    times the running sum.  A modulus that decays too slowly for the
    rule to fire within ``_MAX_BRACKETS`` brackets raises ValueError
    (the integral is judged divergent).  The modulus must vanish at 0
    and be nonnegative and nondecreasing; violations raise ValueError.

    The modulus is evaluated in log coordinates (``Modulus.at_neg_log``),
    so the bracket depth is not limited by floating-point underflow of
    t itself.
    """
    if not isinstance(modulus, Modulus):
        raise TypeError("modulus must be a Modulus")
    if float(modulus(0.0)) != 0.0:
        raise ValueError("modulus must vanish at t = 0")
    first = float(modulus(1.0))
    if not np.isfinite(first) or first < 0:
        raise ValueError("modulus must be finite and nonnegative on (0, 1]")
    # built per call, not at import: it loads numpy.polynomial and LAPACK,
    # about 1.7 MiB of resident memory that only this function needs
    nodes, weights = np.polynomial.legendre.leggauss(16)
    chunk = 2048
    total = 0.0
    k = 0
    while k < _MAX_BRACKETS:
        ks = np.arange(k, min(k + chunk, _MAX_BRACKETS))
        vals = modulus.at_neg_log((ks[:, None] + 0.5) * _LN2 - (_LN2 / 2.0) * nodes[None, :])
        ends = modulus.at_neg_log((ks + 1.0) * _LN2)
        starts = modulus.at_neg_log(ks.astype(float) * _LN2)
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("modulus must be finite and nonnegative on (0, 1]")
        # monotonicity spot check at bracket endpoints
        if np.any(ends > starts * (1.0 + 1e-12) + 1e-300):
            raise ValueError("modulus must be nondecreasing on (0, 1]")
        sums = (vals * weights[None, :]).sum(axis=1) * (_LN2 / 2.0)
        running = total + np.cumsum(sums)
        stop = ends * _LN2 < tol * running
        if np.any(stop):
            i = int(np.argmax(stop))
            return float(running[i])
        total = float(running[-1])
        k += len(ks)
    raise ValueError("modulus is not integrable against dt/t (tail did not converge)")
