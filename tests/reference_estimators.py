"""Direct-sum references for the `kr` / `h2` estimators.

The original mask-based loops: for every sample and every scale they
rebuild whole-lattice box masks and evaluate K(x, .) and K(z, .) on
each region anew.  They are slow but obviously faithful to the
definitions in `sdom.kernels`, so the shell engine is tested against
them to a relative tolerance.

``plan_configs`` is ``enumerate_plan`` as it was first written, one
cube and one candidate pair at a time with a tuple sort; the array
expansion must give its configs byte for byte and in order.

``cube_tables`` is the shell engine's table builder as it was before
rows came from offset tables: each distinct sample point's row is one
``eval_batch`` call over the shell-sorted lattice, and the shells come
from a stable argsort of per-point shell labels.  The engine must
reproduce its tables and skip counts bit for bit.

``kr_report`` and ``h2_report`` are the reports as they were read off
the shell tables before they went onto whole-call arrays: one sample at
a time, with ``annulus_series`` and ``shell_peak`` per sample and
Python scalar arithmetic.  The array reports must give their fields,
and their errors, bit for bit.  ``reference_rows`` feeds them the
tables of ``cube_tables`` for the configs of ``plan_configs``, sample by
sample in plan order.  Only public `sdom.kernels` names are used.
"""

import math

import numpy as np

from sdom.kernels import (
    EstimateReport,
    eval_batch,
    y_support_box,
)

_CHUNK = 1 << 18


def quad_points(spec, grid):
    """Midpoint lattice over the domain extended to the support box."""
    sup = y_support_box(spec, grid)
    axes = quad_axes(spec, grid)
    if grid.n == 1:
        pts = axes[0][:, None]
    else:
        A, B = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([A.ravel(), B.ravel()])
    return pts, sup is not None


def quad_axes(spec, grid):
    """The sorted lattice coordinates along each axis, as ``quad_points``
    spans them."""
    sup = y_support_box(spec, grid)
    axes = []
    for a in range(grid.n):
        lo, hi = grid.origin[a], grid.origin[a] + grid.side
        if sup is not None:
            lo, hi = min(lo, float(sup[0][a])), max(hi, float(sup[1][a]))
        o, h = grid.origin[a], grid.h
        axes.append(o + h * (np.arange(math.ceil((lo - o) / h - 0.5), math.ceil((hi - o) / h - 0.5)) + 0.5))
    return axes


def shell_order(axes, center, side):
    """(perm, starts): lattice indices sorted by shell around the cube,
    ascending within a shell, by a stable argsort of per-point labels."""
    halves = np.ldexp(side, np.arange(-1, 80))
    lo = [np.searchsorted(ax, c - halves) for ax, c in zip(axes, center)]
    hi = [np.searchsorted(ax, c + halves) for ax, c in zip(axes, center)]
    whole = np.logical_and.reduce([(a == 0) & (b == len(ax)) for a, b, ax in zip(lo, hi, axes)])
    J = int(np.argmax(whole))
    label = np.full(tuple(len(ax) for ax in axes), J)
    for j in range(J - 1, -1, -1):
        label[tuple(slice(a[j], b[j]) for a, b in zip(lo, hi))] = j
    label = label.ravel()
    starts = np.zeros(J + 2, dtype=np.intp)
    np.cumsum(np.bincount(label, minlength=J + 1), out=starts[1:])
    return np.argsort(label, kind="stable"), starts


def cube_tables(spec, axes, r, center, side, pairs):
    """(table, skipped) per pair (x, z) of one cube, in the order given:
    per-shell sums of |K(x,.) - K(z,.)|^{r'} (maxima at r = 1), one cell
    per shell multi-index, and the singular tuples outside Q^m."""
    m = spec.m
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    perm, starts = shell_order(axes, center, side)
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
    R, step = N ** (m - 1), max(1, _CHUNK // N)
    acc = np.zeros((len(pairs), R, J))
    skipped = np.zeros(len(pairs), dtype=np.int64)
    q = starts[1]  # Q^m is the leading q rows and columns
    for i0 in range(0, R, step):
        i1 = min(R, i0 + step)
        ys = (lattice[i0:i1, None], lattice) if m == 2 else (lattice,)
        vals = np.empty((len(points), i1 - i0, N))
        valid = np.empty(vals.shape, dtype=bool)
        for k, p in enumerate(points.values()):
            vals[k], valid[k] = eval_batch(spec, p, *ys)
        ok = valid[xi] & valid[zi]
        a = np.empty((len(pairs), i1 - i0, N))
        for k in range(len(pairs)):
            np.subtract(vals[xi[k]], vals[zi[k]], out=a[k])
        a[~ok] = 0.0
        np.abs(a, out=a)
        if r > 1:
            a **= r / (r - 1.0)
        for j, s, e in shells:
            acc[:, i0:i1, j] = reduce(a[..., s:e], axis=-1)
        top = max(0, min(i1, q ** (m - 1)) - i0)
        skipped += np.count_nonzero(~ok, axis=(1, 2)) - np.count_nonzero(~ok[:, :top, :q], axis=(1, 2))
    if m == 2:
        rows_acc, acc = acc, np.zeros((len(pairs), J, J))
        for j, s, e in shells:
            acc[:, j] = reduce(rows_acc[:, s:e], axis=1)
    else:
        acc = acc[:, 0]
    return [(acc[i], int(skipped[i])) for i in range(len(pairs))]


def plan_configs(plan, grid):
    """(center, side, x, z) per sample of a plan that ``plan_error``
    accepts, expanded cube by cube."""
    configs = []
    if plan.cubes is not None:
        for (c, side), (x, z) in zip(plan.cubes, plan.pairs):
            center, x, z = (np.atleast_1d(np.asarray(p, dtype=float)) for p in (c, x, z))
            configs.append((center, float(side), x, z))
        return configs
    for lam in plan.levels:
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


def box_mask(pts, center, half):
    return np.all((pts >= center - half) & (pts < center + half), axis=1)


def delta_single(spec, x, z, pts):
    Y = pts[:, None, :]
    vx, okx = eval_batch(spec, x, *np.moveaxis(Y, 1, 0))
    vz, okz = eval_batch(spec, z, *np.moveaxis(Y, 1, 0))
    ok = okx & okz
    return np.where(ok, vx - vz, 0.0), ok


def delta_matrix(spec, x, z, pts):
    N = pts.shape[0]
    dk = np.empty((N, N))
    ok = np.empty((N, N), dtype=bool)
    rows = max(1, _CHUNK // max(N, 1))
    for i0 in range(0, N, rows):
        i1 = min(N, i0 + rows)
        blk = i1 - i0
        Y = np.empty((blk * N, 2, pts.shape[1]))
        Y[:, 0, :] = np.repeat(pts[i0:i1], N, axis=0)
        Y[:, 1, :] = np.tile(pts, (blk, 1))
        vx, okx = eval_batch(spec, x, *np.moveaxis(Y, 1, 0))
        vz, okz = eval_batch(spec, z, *np.moveaxis(Y, 1, 0))
        good = okx & okz
        dk[i0:i1] = np.where(good, vx - vz, 0.0).reshape(blk, N)
        ok[i0:i1] = good.reshape(blk, N)
    return dk, ok


def series_one_config(spec, grid, r, cfg, pts):
    """Annulus series (terms, skipped) of one (center, side, x, z) sample."""
    center, side, x, z = cfg
    rp = r / (r - 1.0) if r > 1 else None
    hvol = grid.cell_volume()
    terms = []
    skipped = 0
    if spec.m == 2:
        dk, ok = delta_matrix(spec, x, z, pts)
        absdk = np.abs(dk)
    k = 1
    while True:
        inner_half = 2.0 ** (k - 2) * side
        inner = box_mask(pts, center, inner_half)
        if inner.all():
            break
        outer = box_mask(pts, center, 2.0 ** (k - 1) * side)
        measure = (2.0 ** k * side) ** grid.n
        if spec.m == 1:
            region = outer & ~inner
            if region.any():
                dkr, okr = delta_single(spec, x, z, pts[region])
                skipped += int(np.count_nonzero(~okr))
                if r > 1:
                    integral = float(np.sum(np.abs(dkr) ** rp)) * hvol
                    terms.append(measure ** (1.0 / r) * integral ** (1.0 / rp))
                else:
                    terms.append(measure * float(np.max(np.abs(dkr))))
            else:
                terms.append(0.0)
        else:
            region = (outer[:, None] & outer[None, :]) & ~(inner[:, None] & inner[None, :])
            skipped += int(np.count_nonzero(region & ~ok))
            sel = region & ok
            if r > 1:
                integral = float(np.sum(absdk[sel] ** rp)) * hvol ** 2
                terms.append(measure ** (2.0 / r) * integral ** (1.0 / rp))
            else:
                terms.append(measure ** 2 * (float(np.max(absdk[sel])) if sel.any() else 0.0))
        k += 1
    while terms and terms[-1] == 0.0:
        terms.pop()
    return terms, skipped


def shells_one_config(spec, grid, r, delta, cfg, pts):
    """(largest normalized shell value, its j0, skipped) of one sample."""
    center, side, x, z = cfg
    n = grid.n
    rp = r / (r - 1.0) if r > 1 else None
    hvol = grid.cell_volume()
    dist = float(np.sqrt(np.sum((x - z) ** 2)))
    qmeasure = side ** n
    shells = [box_mask(pts, center, side / 2)]
    j = 1
    while not box_mask(pts, center, 2.0 ** (j - 2) * side).all():
        shells.append(box_mask(pts, center, 2.0 ** (j - 1) * side) & ~box_mask(pts, center, 2.0 ** (j - 2) * side))
        j += 1
    best = 0.0
    best_j0 = 0
    skipped = 0
    if spec.m == 1:
        for j in range(1, len(shells)):
            if not shells[j].any():
                continue
            dkr, okr = delta_single(spec, x, z, pts[shells[j]])
            skipped += int(np.count_nonzero(~okr))
            if r > 1:
                lhs = (float(np.sum(np.abs(dkr) ** rp)) * hvol) ** (1.0 / rp)
            else:
                lhs = float(np.max(np.abs(dkr)))
            val = lhs * qmeasure ** (delta / n) * 2.0 ** (delta * j) / dist ** (delta - n / r)
            if val > best:
                best, best_j0 = val, j
    else:
        dk, ok = delta_matrix(spec, x, z, pts)
        absdk = np.abs(dk)
        J = len(shells)
        for j1 in range(J):
            for j2 in range(J):
                if j1 == 0 and j2 == 0:
                    continue
                sel = shells[j1][:, None] & shells[j2][None, :]
                skipped += int(np.count_nonzero(sel & ~ok))
                sel &= ok
                if r > 1:
                    lhs = (float(np.sum(absdk[sel] ** rp)) * hvol ** 2) ** (1.0 / rp)
                else:
                    lhs = float(np.max(absdk[sel])) if sel.any() else 0.0
                j0 = max(j1, j2)
                val = lhs * qmeasure ** (2.0 * delta / n) * 2.0 ** (2.0 * delta * j0) / dist ** (2.0 * (delta - n / r))
                if val > best:
                    best, best_j0 = val, j0
    return best, best_j0, skipped


def _kept(plan, grid):
    configs = plan_configs(plan, grid)
    kept = [cfg for cfg in configs if not np.array_equal(cfg[2], cfg[3])]
    samples = {"cubes": len({(tuple(c), s) for c, s, _, _ in configs}), "pairs": len(configs)}
    return kept, len(configs) - len(kept), samples


def reference_rows(spec, grid, r, plan):
    """(rows, degenerate pairs, samples, covers_all): the rows (config,
    table, skipped) of the kept samples in plan order, each cube's tables
    from one ``cube_tables`` call over its samples, a cube being a centre
    and side that compare equal."""
    kept, dropped, samples = _kept(plan, grid)
    axes, cubes, rows = quad_axes(spec, grid), {}, [None] * len(kept)
    for pos, (center, side, _, _) in enumerate(kept):
        cubes.setdefault((tuple(center.tolist()), side), []).append(pos)
    for (center, side), positions in cubes.items():
        tables = cube_tables(spec, axes, r, np.array(center), side, [kept[i][2:] for i in positions])
        for pos, (table, skipped) in zip(positions, tables):
            rows[pos] = (kept[pos], table, skipped)
    return rows, dropped, samples, quad_points(spec, grid)[1]


def reference_series(spec, grid, r, plan):
    """Per kept sample, in plan order: (terms, skipped)."""
    kept, _, _ = _kept(plan, grid)
    pts, _ = quad_points(spec, grid)
    return [series_one_config(spec, grid, r, cfg, pts) for cfg in kept]


def reference_shells(spec, grid, r, delta, plan):
    """Per kept sample, in plan order: (value, j0, skipped)."""
    kept, _, _ = _kept(plan, grid)
    pts, _ = quad_points(spec, grid)
    return [shells_one_config(spec, grid, r, delta, cfg, pts) for cfg in kept]


def reference_hormander(spec, grid, r, plan):
    kept, skipped, samples = _kept(plan, grid)
    results = reference_series(spec, grid, r, plan)
    best_i, best_v = 0, -1.0
    for i, (terms, sk) in enumerate(results):
        skipped += sk
        v = float(np.sum(np.array(terms))) if terms else 0.0
        if v > best_v:
            best_i, best_v = i, v
    terms = tuple(results[best_i][0])
    _, bounded = quad_points(spec, grid)
    return EstimateReport(max(best_v, 0.0), terms, len(terms), not bounded, skipped, samples)


def reference_h2(spec, grid, r, delta, plan):
    kept, skipped, samples = _kept(plan, grid)
    best, best_j0 = 0.0, 0
    for v, j0, sk in reference_shells(spec, grid, r, delta, plan):
        skipped += sk
        if v > best:
            best, best_j0 = v, j0
    _, bounded = quad_points(spec, grid)
    return EstimateReport(best, (best,), best_j0, not bounded, skipped, samples)


def sample_failure(cfg, what):
    center, _, x, z = cfg
    return FloatingPointError(f"{what} at cube centre {center.tolist()}, pair x = {x.tolist()}, z = {z.tolist()}")


def annulus_series(table, side, r, grid, memo=None):
    """The annulus series of one sample from its shell table: scale k
    takes the cells whose deepest shell is k.  Trailing zeros are cut.
    ``memo`` keeps each side's powers |2^k Q|^{m/r} across a report."""
    m = table.ndim
    if m == 1:
        cells = table.tolist()
    else:
        reduce = np.sum if r > 1 else np.max
        cells = [float(reduce(np.concatenate((table[k, : k + 1], table[:k, k])))) for k in range(len(table))]
    hvol = grid.cell_volume() ** m
    memo = {} if memo is None else memo
    if len(memo.get(side, ())) < len(cells) - 1:  # increasing in k: one overflows only if the last does
        memo[side] = [((2.0 ** k * side) ** grid.n) ** (m / r) for k in range(1, len(cells))]
    e = 1.0 / (r / (r - 1.0)) if r > 1 else None
    terms = [p * (c * hvol) ** e if e else p * c for p, c in zip(memo.get(side, ()), cells[1:])]
    while terms and terms[-1] == 0.0:
        terms.pop()
    return terms


def shell_peak(table, cfg, r, delta, grid, memo=None):
    """(largest normalized shell value, its deepest shell j0) of one
    sample from its shell table, (0.0, 0) when no shell carries mass;
    ``memo`` keeps |Q|^{m delta/n} and 2^{m delta j} across a report."""
    _, side, x, z = cfg
    m, n, J = table.ndim, grid.n, len(table)
    hvol = grid.cell_volume() ** m
    memo = {} if memo is None else memo
    scale = memo[side] = memo.get(side) or (side ** n) ** (m * delta / n)
    dist = math.sqrt(sum(d * d for d in (x - z).tolist()))  # np.sum of the squares, at n <= 2
    decay = dist ** (m * (delta - n / r))
    if not 0.0 < decay < math.inf:
        what = "|x - z| underflows" if dist == 0.0 else f"the decay factor |x - z|^{m * (delta - n / r):g} is {decay!r}"
        raise sample_failure(cfg, what)
    best, best_j0 = 0.0, 0
    for i, s in enumerate(table.ravel().tolist()):
        if i == 0 or s == 0.0:  # Q^m itself is left out; an empty cell's quotient is 0 and never wins
            continue
        j0 = max(divmod(i, J)) if m == 2 else i
        if len(memo.get("2^j", ())) <= j0:  # increasing in j, like the measure powers
            memo["2^j"] = [2.0 ** (m * delta * j) for j in range(j0 + 1)]
        lhs = (s * hvol) ** (1.0 / (r / (r - 1.0))) if r > 1 else s
        val = lhs * scale * memo["2^j"][j0] / decay
        if not math.isfinite(val):
            raise sample_failure(cfg, f"the shell quotient is {val!r}")
        if val > best:
            best, best_j0 = val, j0
    return best, best_j0


def kr_report(sampled, r, grid):
    """The annulus-sum report read off ``reference_rows``' result."""
    rows, skipped, samples, bounded = sampled
    best_terms, best_v, memo = (), -1.0, {}
    for cfg, table, sk in rows:
        skipped += sk
        try:
            terms = annulus_series(table, cfg[1], r, grid, memo)
        except OverflowError:
            raise sample_failure(cfg, "an annulus term overflows") from None
        v = float(np.sum(np.array(terms))) if terms else 0.0
        if not math.isfinite(v):  # a term is: a measure that overflows times an empty cell, say
            raise sample_failure(cfg, f"the annulus sum is {v!r}")
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


def h2_report(sampled, r, delta, grid):
    """The shell-decay report read off ``reference_rows``' result."""
    rows, skipped, samples, bounded = sampled
    best, best_j0, memo = 0.0, 0, {}
    for cfg, table, sk in rows:
        skipped += sk
        try:
            v, j0 = shell_peak(table, cfg, r, delta, grid, memo)
        except OverflowError:
            raise sample_failure(cfg, "a shell quotient overflows") from None
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
