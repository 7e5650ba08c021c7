"""Kernel families and the regularity functionals measured on them.

A kernel is a pointwise formula ``K(x, y_1 .. y_m)`` on the grid's
ambient space.  The module ships a fixed set of variants (a zero
kernel, an x-independent smooth kernel, an odd homogeneous bilinear
kernel, a boundary-logarithmic convolution kernel with its comb-like
truncations, and a synthetic family built from a prescribed modulus of
continuity), plus a hook for custom callables.

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
dilates 2^j Q are index ranges of the sorted quadrature axes, found by
binary search, and they sort the lattice into shells: Q itself, then
each dyadic annulus.  The samples are grouped by cube, and each
distinct sample point p of a cube is evaluated once, K(p, .) over the
shell-sorted slot tuples, so a pair's difference K(x, .) - K(z, .) is
one subtraction.  Per-shell sums of |K(x, .) - K(z, .)|^{r'} (maxima at
r = 1) fill a table with one cell per shell multi-index, from which
``hormander_constant`` reads the annulus series and ``h2_constant`` the
normalized shell values.  One parallel task handles one cube, and the
results return in plan order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridSpec
from .parallel import parallel_map

_LN2 = math.log(2.0)

# Slot tuples are evaluated in fixed-size blocks: constant chunking
# keeps summation order independent of memory pressure and thread count.
_CHUNK = 1 << 18
_MAX_PRODUCT_POINTS = 1 << 24

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
    borderline-integrable family.  ``custom`` wraps a vectorized
    callable.  All three vanish at t = 0.
    """

    kind: str
    c: float = 1.0
    eps: float = 1.0
    fn: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("power", "log", "custom"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if self.kind == "custom":
            if self.fn is None:
                raise ValueError("custom modulus needs a callable")
        else:
            if not (self.c > 0 and math.isfinite(self.c)):
                raise ValueError("modulus scale c must be positive and finite")
            if not (self.eps > 0 and math.isfinite(self.eps)):
                raise ValueError("modulus exponent eps must be positive and finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.fn(t), dtype=float)
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
        if self.kind == "custom":
            return np.asarray(self.fn(np.exp(-s)), dtype=float)
        if self.kind == "power":
            with np.errstate(under="ignore"):
                return self.c * np.exp(-self.eps * s)
        return self.c * (1.0 + s) ** -(1.0 + self.eps)

    def to_json_dict(self) -> dict:
        if self.kind == "custom":
            raise ValueError("custom moduli are not serializable")
        return {"kind": self.kind, "c": self.c, "eps": self.eps}

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
    fn: Callable | None = None
    support: tuple | None = None

    def to_json_dict(self) -> dict:
        if self.variant == "custom":
            raise ValueError("custom kernels are not serializable")
        d = {"variant": self.variant, "m": self.m}
        if self.variant in ("mpt", "mpt_truncated"):
            d["beta"] = self.beta
            d["r"] = self.r_param
        if self.variant == "mpt_truncated":
            d["ell"] = self.ell
        if self.variant == "dini_synthetic":
            d["modulus"] = self.modulus.to_json_dict()
            d["amplitude"] = self.amplitude
        return d

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


def custom_kernel(fn: Callable, m: int, support: tuple | None = None) -> KernelSpec:
    """Wrap a callable ``fn(x, Y) -> values`` evaluated pointwise.

    ``x`` is a length-n array and ``Y`` an (m, n) array.  Non-finite
    return values are treated as singular points.  ``support`` may give
    a per-slot y-box (lo, hi) outside which the kernel vanishes.
    """
    _check_m(m)
    if not callable(fn):
        raise TypeError("custom kernel needs a callable")
    return KernelSpec("custom", m, fn=fn, support=support)


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


def eval_batch(spec: KernelSpec, x: np.ndarray, Y: np.ndarray):
    """Evaluate K(x, .) on a batch of slot tuples.

    Parameters
    ----------
    x : (n,) point.
    Y : (batch, m, n) slot tuples.

    Returns
    -------
    vals : (batch,) float array, zero where invalid.
    valid : (batch,) bool array, False exactly on singular set hits
        (any slot equal to x), kernel-specific singularities, and
        non-finite evaluations.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 3 or Y.shape[1] != spec.m or Y.shape[2] != x.size:
        raise ValueError("Y must have shape (batch, m, n) matching x")
    vals, valid = _eval_values(spec, x, Y)
    valid &= ~_on_diagonal(x, Y)
    return np.where(valid, vals, 0.0), valid


def _on_diagonal(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tuples with some slot equal to x, by per-slot column compares:
    with at most two slots and two axes, reductions over those short
    axes would cost far more than the compares themselves."""
    hit = None
    for s in range(Y.shape[1]):
        at_x = Y[:, s, 0] == x[0]
        for a in range(1, x.size):
            at_x &= Y[:, s, a] == x[a]
        hit = at_x if hit is None else hit | at_x
    return hit


def _eval_values(spec: KernelSpec, x: np.ndarray, Y: np.ndarray):
    batch = Y.shape[0]
    if spec.variant == "zero":
        return np.zeros(batch), np.ones(batch, dtype=bool)
    if spec.variant == "x_independent":
        vals = np.exp(-np.sum(Y * Y, axis=(1, 2)))
        return vals, np.ones(batch, dtype=bool)
    if spec.variant == "bilinear_odd":
        if x.size != 1:
            raise ValueError("the odd bilinear kernel lives in one ambient dimension")
        u0, u1 = x[0] - Y[:, 0, 0], x[0] - Y[:, 1, 0]
        den = u0 * u0 + u1 * u1
        valid = den > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (u0 + u1) / den ** 1.5
        return np.where(valid, vals, 0.0), valid
    if spec.variant in ("mpt", "mpt_truncated"):
        if x.size != 1:
            raise ValueError("the boundary-logarithmic kernel lives in one ambient dimension")
        t = x[0] - Y[:, 0, 0]
        return _mpt_values(spec, t)
    if spec.variant == "dini_synthetic":
        D = None  # sum over slots of |x - y_s|, folded term by term
        for s in range(spec.m):
            sq = None
            for a in range(x.size):
                d = x[a] - Y[:, s, a]
                sq = d * d if sq is None else sq + d * d
            D = np.sqrt(sq) if D is None else D + np.sqrt(sq)
        valid = D > 0.0
        Dsafe = np.where(valid, D, 1.0)
        frac = np.log2(Dsafe)
        frac -= np.floor(frac)
        tent = 2.0 * np.minimum(frac, 1.0 - frac)
        mn = spec.m * x.size
        vals = spec.amplitude * spec.modulus(tent) / Dsafe ** mn
        return np.where(valid, vals, 0.0), valid
    if spec.variant == "custom":
        vals = np.empty(batch)
        for i in range(batch):
            vals[i] = spec.fn(x, Y[i])
        valid = np.isfinite(vals)
        return np.where(valid, vals, 0.0), valid
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
    ssafe = np.where(live, s, 1.0)
    vals = ssafe ** -rp_inv * np.log(np.e / ssafe) ** (-(1.0 + spec.beta) * rp_inv)
    return np.where(live, vals, 0.0), valid


def y_support_box(spec: KernelSpec, grid: GridSpec):
    """Per-slot box (lo, hi) outside which K(x, .) vanishes for every x
    in the domain, or None when no bounded support is declared."""
    if spec.variant in ("mpt", "mpt_truncated"):
        o, side = grid.origin[0], grid.side
        return (np.array([o - 5.0]), np.array([o + side - 3.0]))
    if spec.variant == "zero":
        lo = np.array(grid.origin)
        return (lo, lo)  # empty-for-all-purposes box, any point works
    if spec.variant == "custom" and spec.support is not None:
        lo, hi = spec.support
        return (np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float)))
    return None


def has_bounded_support(spec: KernelSpec) -> bool:
    return spec.variant in ("zero", "mpt", "mpt_truncated") or (
        spec.variant == "custom" and spec.support is not None
    )


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

    def to_json_dict(self) -> dict:
        if self.levels is not None:
            return {"levels": list(self.levels), "pair_depth": self.pair_depth, "max_pairs": self.max_pairs}
        return {
            "cubes": [[list(np.atleast_1d(c)), s] for c, s in self.cubes],
            "pairs": [[list(np.atleast_1d(x)), list(np.atleast_1d(z))] for x, z in self.pairs],
        }

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


def enumerate_plan(plan: SamplePlan, grid: GridSpec) -> list:
    """Expand a plan into (center, side, x, z) sample configurations."""
    configs = []
    if plan.cubes is not None:
        for (c, side), (x, z) in zip(plan.cubes, plan.pairs):
            center = np.atleast_1d(np.asarray(c, dtype=float))
            x = np.atleast_1d(np.asarray(x, dtype=float))
            z = np.atleast_1d(np.asarray(z, dtype=float))
            if center.size != grid.n or x.size != grid.n or z.size != grid.n:
                raise ValueError("explicit cube/pair dimension does not match the grid")
            side = float(side)
            if side <= 0:
                raise ValueError("explicit cube side must be positive")
            for p in (x, z):
                if np.any(np.abs(p - center) > side / 4 + 1e-12 * side):
                    raise ValueError("sample points must lie in the concentric half cube")
            configs.append((center, side, x, z))
        return configs
    for lam in plan.levels:
        if not 0 <= lam <= grid.L:
            raise ValueError(f"plan level {lam} outside [0, {grid.L}]")
        side = grid.side / (1 << lam)
        sub = 1 << plan.pair_depth
        # candidate points: centers of the depth-d sublattice of the
        # concentric half cube
        offsets = -side / 4 + (np.arange(sub) + 0.5) * side / (2 * sub)
        for idx in np.ndindex(*(1 << lam,) * grid.n):
            center = np.array([grid.origin[a] + (idx[a] + 0.5) * side for a in range(grid.n)])
            pts = [center + np.array([offsets[o[a]] for a in range(grid.n)]) for o in np.ndindex(*(sub,) * grid.n)]
            cand = []
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    d2 = float(np.sum((pts[i] - pts[j]) ** 2))
                    cand.append((-d2, tuple(pts[i]), tuple(pts[j])))
            cand.sort()
            for _, px, pz in cand[: plan.max_pairs]:
                configs.append((center, side, np.array(px), np.array(pz)))
    return configs


def _lattice_indices(spec: KernelSpec, grid: GridSpec) -> list:
    """Quadrature lattice as cell-index ranges, one per axis: the grid
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
        out.append(range(math.ceil((lo - o) / h - 0.5), math.ceil((hi - o) / h - 0.5)))
    return out


def _quad_lattice(spec: KernelSpec, grid: GridSpec):
    """Returns (axes, covers_all): the sorted lattice coordinates along
    each axis, and False for unbounded supports."""
    axes = [
        grid.origin[a] + grid.h * (np.arange(r.start, r.stop) + 0.5)
        for a, r in enumerate(_lattice_indices(spec, grid))
    ]
    return axes, has_bounded_support(spec)


def _lattice_points(axes) -> np.ndarray:
    """(N, n) points of the product of the axes, in row-major order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def tuple_blocks(*pts: np.ndarray):
    """Yield (i0, i1, Y): rows i0:i1 of the slot-tuple matrix over one
    (K_s, n) point array per slot (one or two slots), flattened
    row-major into Y.

    The columns run over the last slot's points and the rows over the
    first slot's when there are two, so a single slot is a single row.
    Rows go in fixed-size blocks of about ``_CHUNK`` tuples.
    """
    *heads, last = pts
    K = last.shape[0]
    R = math.prod(p.shape[0] for p in heads)
    rows = max(1, _CHUNK // max(K, 1))
    for i0 in range(0, R, rows):
        i1 = min(R, i0 + rows)
        Y = np.empty((i1 - i0, K, len(pts), last.shape[1]))
        for s, p in enumerate(heads):
            Y[:, :, s, :] = p[i0:i1, None, :]
        Y[:, :, -1, :] = last
        yield i0, i1, Y.reshape(-1, len(pts), last.shape[1])


def _shell_order(axes, center: np.ndarray, side: float):
    """Sort the lattice into shells around the cube (center, side).

    The boxes B_j = center +- 2^(j-1) side, j = 0 .. J, grow until B_J
    holds the whole lattice.  Shell 0 is B_0 = Q and shell j >= 1 is B_j
    minus B_{j-1}.  Each box is an index range of every sorted axis,
    found by the same half-open comparison as testing coordinates.
    Returns (perm, starts): lattice indices sorted by shell, ascending
    within a shell, and the J + 2 offsets of the shells in that order.
    """
    halves = np.ldexp(side, np.arange(-1, 80))
    lo = [np.searchsorted(ax, c - halves) for ax, c in zip(axes, center)]
    hi = [np.searchsorted(ax, c + halves) for ax, c in zip(axes, center)]
    whole = np.logical_and.reduce([(a == 0) & (b == len(ax)) for a, b, ax in zip(lo, hi, axes)])
    if not whole.any():
        raise RuntimeError("shell enumeration failed to terminate")
    J = int(np.argmax(whole))
    label = np.full(tuple(len(ax) for ax in axes), J)
    for j in range(J - 1, -1, -1):
        label[tuple(slice(a[j], b[j]) for a, b in zip(lo, hi))] = j
    label = label.ravel()
    starts = np.zeros(J + 2, dtype=np.intp)
    np.cumsum(np.bincount(label, minlength=J + 1), out=starts[1:])
    return np.argsort(label, kind="stable"), starts


def _cube_tables(spec: KernelSpec, axes, pts: np.ndarray, r: float, center, side, pairs) -> list:
    """Shell tables of the sample pairs (x, z) that share one cube.

    The table of a pair has one cell per shell multi-index (j_1 .. j_m):
    the sum of |K(x,.) - K(z,.)|^{r'} over that product of shells, or
    the largest |K(x,.) - K(z,.)| at r = 1.  Every distinct sample point
    p is evaluated once, K(p, .) over the shell-sorted tuples; a pair's
    difference is then one subtraction.  Returns (table, skipped) per
    pair, in the order given, with skipped counting the singular tuples
    outside Q^m.
    """
    m = spec.m
    perm, starts = _shell_order(axes, center, side)
    lattice = pts[perm]
    N, J = lattice.shape[0], len(starts) - 1
    points = {}
    for x, z in pairs:
        points.setdefault(x.tobytes(), x)
        points.setdefault(z.tobytes(), z)
    slot = {key: i for i, key in enumerate(points)}
    xi = np.array([slot[x.tobytes()] for x, _ in pairs])
    zi = np.array([slot[z.tobytes()] for _, z in pairs])
    reduce = np.add.reduce if r > 1 else np.maximum.reduce
    shells = [(j, starts[j], starts[j + 1]) for j in range(J) if starts[j + 1] > starts[j]]
    acc = np.zeros((len(pairs), N ** (m - 1), J))
    skipped = np.zeros(len(pairs), dtype=np.int64)
    q = starts[1]  # Q^m is the leading q rows and columns
    for i0, i1, Y in tuple_blocks(*[lattice] * m):
        rows = [eval_batch(spec, p, Y) for p in points.values()]
        vals = np.stack([v for v, _ in rows]).reshape(len(rows), i1 - i0, N)
        valid = np.stack([ok for _, ok in rows]).reshape(vals.shape)
        ok = valid[xi] & valid[zi]
        a = np.abs(np.where(ok, vals[xi] - vals[zi], 0.0))
        if r > 1:
            a = a ** (r / (r - 1.0))
        for j, s, e in shells:
            acc[:, i0:i1, j] = reduce(a[..., s:e], axis=-1)
        top = max(0, min(i1, q ** (m - 1)) - i0)
        skipped += np.count_nonzero(~ok, axis=(1, 2)) - np.count_nonzero(~ok[:, :top, :q], axis=(1, 2))
    if m == 2:
        # fold the rows of each shell: cell (j1, j2) of the product shells
        rows_acc, acc = acc, np.zeros((len(pairs), J, J))
        for j, s, e in shells:
            acc[:, j] = reduce(rows_acc[:, s:e], axis=1)
    else:
        acc = acc[:, 0]
    return [(acc[i], int(skipped[i])) for i in range(len(pairs))]


def _sample_tables(spec: KernelSpec, grid: GridSpec, r: float, plan: SamplePlan):
    """The front end both estimators share.

    Expands the plan, drops degenerate x = z pairs, and runs the shell
    engine once per distinct cube, one parallel task each.  Returns
    (rows, skipped_pairs, samples, covers_all), where ``rows`` holds
    (config, table, skipped) for every kept sample in plan order, so
    that ties between samples resolve by plan position.
    """
    configs = enumerate_plan(plan, grid)
    if not configs:
        raise ValueError("sampling plan produced no samples")
    kept = [cfg for cfg in configs if not np.array_equal(cfg[2], cfg[3])]
    if not kept:
        raise ValueError("all sampled pairs were degenerate (x = z)")
    problem = grid_error(spec, grid) or lattice_error(spec, grid)
    if problem:
        raise ValueError(problem)
    axes, bounded = _quad_lattice(spec, grid)
    pts = _lattice_points(axes)
    cubes = {}
    for pos, (center, side, x, z) in enumerate(kept):
        cubes.setdefault((tuple(center), side), []).append(pos)
    groups = list(cubes.values())

    def task(positions):
        center, side = kept[positions[0]][:2]
        return _cube_tables(spec, axes, pts, r, center, side, [kept[i][2:] for i in positions])

    rows = [None] * len(kept)
    for positions, tables in zip(groups, parallel_map(task, groups)):
        for pos, (table, skipped) in zip(positions, tables):
            rows[pos] = (kept[pos], table, skipped)
    samples = {"cubes": len({(tuple(c), s) for c, s, _, _ in configs}), "pairs": len(configs)}
    return rows, len(configs) - len(kept), samples, bounded


def _annulus_series(table: np.ndarray, side: float, r: float, grid: GridSpec) -> list:
    """The annulus series of one sample from its shell table: scale k
    takes the cells whose deepest shell is k.  Trailing zeros are cut."""
    m = table.ndim
    if m == 1:
        cells = table.tolist()
    else:
        reduce = np.sum if r > 1 else np.max
        cells = [float(reduce(np.concatenate((table[k, : k + 1], table[:k, k])))) for k in range(len(table))]
    hvol = grid.cell_volume() ** m
    terms = []
    for k in range(1, len(cells)):
        measure = (2.0 ** k * side) ** grid.n
        if r > 1:
            terms.append(measure ** (m / r) * (cells[k] * hvol) ** (1.0 / (r / (r - 1.0))))
        else:
            terms.append(measure ** m * cells[k])
    while terms and terms[-1] == 0.0:
        terms.pop()
    return terms


def _shell_peak(table: np.ndarray, cfg, r: float, delta: float, grid: GridSpec):
    """(largest normalized shell value, its deepest shell j0) of one
    sample from its shell table; (0.0, 0) when no shell carries mass."""
    _, side, x, z = cfg
    m, n = table.ndim, grid.n
    hvol = grid.cell_volume() ** m
    scale = (side ** n) ** (m * delta / n)
    decay = float(np.sqrt(np.sum((x - z) ** 2))) ** (m * (delta - n / r))
    best, best_j0 = 0.0, 0
    for idx, s in zip(itertools.product(range(len(table)), repeat=m), table.ravel().tolist()):
        if not any(idx):
            continue
        lhs = (s * hvol) ** (1.0 / (r / (r - 1.0))) if r > 1 else s
        val = lhs * scale * 2.0 ** (m * delta * max(idx)) / decay
        if val > best:
            best, best_j0 = val, max(idx)
    return best, best_j0


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
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("integrability exponent r must satisfy r >= 1")
    rows, skipped, samples, bounded = _sample_tables(spec, grid, r, plan)
    best_terms, best_v = (), -1.0
    for cfg, table, sk in rows:
        skipped += sk
        terms = _annulus_series(table, cfg[1], r, grid)
        v = float(np.sum(np.array(terms))) if terms else 0.0
        if v > best_v:
            best_terms, best_v = tuple(terms), v
    return EstimateReport(
        value=max(best_v, 0.0),
        terms=best_terms,
        k_max=len(best_terms),
        tail_flag=not bounded,
        skipped=skipped,
        samples=samples,
    )


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
    if not (r >= 1 and math.isfinite(r)):
        raise ValueError("integrability exponent r must satisfy r >= 1")
    if not (delta > grid.n / r):
        raise ValueError("decay order delta must exceed n/r")
    rows, skipped, samples, bounded = _sample_tables(spec, grid, r, plan)
    best, best_j0 = 0.0, 0
    for cfg, table, sk in rows:
        skipped += sk
        v, j0 = _shell_peak(table, cfg, r, delta, grid)
        if v > best:
            best, best_j0 = v, j0
    return EstimateReport(
        value=best,
        terms=(best,),
        k_max=best_j0,
        tail_flag=not bounded,
        skipped=skipped,
        samples=samples,
    )


def dini_norm(modulus, tol: float = 1e-7, max_brackets: int = 400000) -> float:
    """Logarithmic integral of a modulus over (0, 1).

    Integrates omega(t)/t with 16-point Gauss-Legendre quadrature on
    each dyadic bracket [2^-(k+1), 2^-k] in log coordinates, stopping
    once the single-bracket bound omega(2^-K) log 2 falls below ``tol``
    times the running sum.  A modulus that decays too slowly for the
    rule to fire within ``max_brackets`` brackets raises ValueError
    (the integral is judged divergent).  The modulus must vanish at 0
    and be nonnegative and nondecreasing; violations raise ValueError.

    Parametric ``Modulus`` instances are evaluated in log coordinates,
    so the bracket depth is not limited by floating-point underflow of
    t itself.  A bare callable is sampled at t = e^-s and must let the
    stop rule fire before t leaves the positive float range; otherwise
    the tail cannot be certified and ValueError is raised.
    """
    om = modulus if callable(modulus) else None
    if om is None:
        raise TypeError("modulus must be callable")
    v0 = float(np.asarray(om(0.0)))
    if v0 != 0.0:
        raise ValueError("modulus must vanish at t = 0")
    stable = isinstance(modulus, Modulus) and modulus.kind != "custom"

    def at_sigma(sig):
        # (values, evaluable) at t = e^-sig
        if stable:
            return modulus.at_neg_log(sig), np.ones(sig.shape, dtype=bool)
        with np.errstate(under="ignore"):
            t = np.exp(-sig)
        return np.asarray(om(t), dtype=float), t > 0.0

    first = float(np.asarray(om(1.0)))
    if not np.isfinite(first) or first < 0:
        raise ValueError("modulus must be finite and nonnegative on (0, 1]")
    # built per call, not at import: it loads numpy.polynomial and LAPACK,
    # about 1.7 MiB of resident memory that only this function needs
    nodes, weights = np.polynomial.legendre.leggauss(16)
    chunk = 2048
    total = 0.0
    k = 0
    while k < max_brackets:
        ks = np.arange(k, min(k + chunk, max_brackets))
        sig = (ks[:, None] + 0.5) * _LN2 - (_LN2 / 2.0) * nodes[None, :]
        vals, ok = at_sigma(sig)
        ends, ok_e = at_sigma((ks + 1.0) * _LN2)
        starts, ok_s = at_sigma(ks.astype(float) * _LN2)
        good = ok.all(axis=1) & ok_e & ok_s
        limit = len(ks) if bool(good.all()) else int(np.argmin(good))
        vals, ends, starts = vals[:limit], ends[:limit], starts[:limit]
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
        if limit < len(ks):
            raise ValueError(
                "modulus tail cannot be evaluated below the floating-point range"
            )
        total = float(running[-1])
        k += len(ks)
    raise ValueError("modulus is not integrable against dt/t (tail did not converge)")
