"""Single-binary experiment runner.

``sdom <command> --config <path> [--out <dir>] [--threads N]`` reads a
JSON config, runs one experiment, and writes a JSON report plus a CSV
of per-case scalars (some commands add extra JSON artifacts).  Every
report carries a hash of the config that produced it; no output embeds
a timestamp or machine identity, so reruns of the same config are byte
identical for any thread count.  Config validation reports every
problem at once rather than stopping at the first.

Exit codes: 0 on success.  1 on usage or config errors, a kernel that
is singular at a lattice point the run samples (``sdom: config
error: ...``), and outputs that cannot be written (``sdom: error:
cannot write output: ...``).  2 when an invariant is violated during
the run (a failed sparseness check, an uncovered output cell, a
divergent modulus integral) or a value comes out non-finite (``sdom:
numerical failure: ...``).  A failure prints one stderr line (one per
problem for config errors) and leaves no output file behind.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .bank import BankSpec, make_bank, single_input
from .builder import build_sparse_family, domination_constant
from .grid import DyadicCube, GridFunction, GridSpec, support_in, triple_cube
from .kernels import (
    KernelSpec,
    Modulus,
    SamplePlan,
    SingularPointError,
    dini_norm,
    grid_error,
    h2_constant,
    hormander_constant,
    lattice_error,
    mpt_truncated_kernel,
    plan_error,
    regularity,
)
from .maximal import (
    CubeFamilyMode,
    family_error,
    grand_maximal,
    local_grand_maximal,
    m_delta,
    multilinear_maximal,
)
from .operators import OperatorSpec
from .parallel import parallel_map, resolve_thread_request, set_thread_count
from .sparse import InvariantViolation, carleson_sum, verify_witness_sparsity
from .weights import WeightTuple, power_weight, weighted_norm_ratio

class ConfigError(Exception):
    """Carries the full list of config problems."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class Checker:
    """Field-by-field validation that accumulates every error."""

    def __init__(self, data, errors, prefix=""):
        self.data = data if isinstance(data, dict) else {}
        self.errors = errors
        self.prefix = prefix
        if not isinstance(data, dict):
            errors.append(f"{prefix or 'config'}: must be a JSON object")

    def _name(self, key):
        return f"{self.prefix}{key}"

    def fail(self, key, msg):
        self.errors.append(f"{self._name(key)}: {msg}")

    def raw(self, key, default=None, required=False):
        if key in self.data:
            return self.data[key]
        if required:
            self.fail(key, "missing required field")
        return default

    def _value(self, key, types, what, pred, msg, default, required):
        v = self.raw(key, default=default, required=required)
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, types):
            self.fail(key, f"must be {what}")
        elif pred is None or pred(v):
            return v
        else:
            self.fail(key, msg)
        return None

    def number(self, key, pred=None, msg="invalid value", default=None, required=False):
        v = self._value(key, (int, float), "a number", pred, msg, default, required)
        return None if v is None else float(v)

    def integer(self, key, pred=None, msg="invalid value", default=None, required=False):
        return self._value(key, int, "an integer", pred, msg, default, required)

    def string(self, key, choices=None, default=None, required=False):
        pred = None if choices is None else (lambda v: v in choices)
        return self._value(key, str, "a string", pred, f"must be one of {sorted(choices or ())}", default, required)

    def spec(self, key, cls, what=None):
        """A required field parsed by ``cls.from_json_dict``; a refusal
        is reported as ``invalid <what> (<reason>)``, or bare without
        ``what``."""
        d = self.raw(key, required=True)
        if d is None:
            return None
        try:
            return cls.from_json_dict(d)
        except (ValueError, TypeError, KeyError) as exc:
            self.fail(key, str(exc) if what is None else f"invalid {what} ({exc})")
            return None

    def sub(self, key, required=False):
        v = self.raw(key, required=required)
        if v is None:
            return None
        return Checker(v, self.errors, prefix=f"{self._name(key)}.")


def _parse_grid(c: Checker):
    g = c.sub("grid", required=True)
    if g is None:
        return None
    n = g.integer("n", pred=lambda v: v in (1, 2), msg="must be 1 or 2", required=True)
    L = g.integer("L", pred=lambda v: v >= 1, msg="must be >= 1", required=True)
    origin = g.raw("origin", required=True)
    side = g.number("side", pred=lambda v: v > 0, msg="must be positive", required=True)
    if None in (n, L, side) or origin is None:
        return None
    try:
        return GridSpec(n=n, L=L, origin=tuple(origin) if isinstance(origin, list) else (origin,), side=side)
    except (ValueError, TypeError) as exc:
        c.fail("grid", str(exc))
        return None


def _parse_kernel(c: Checker, grid, sampled=False):
    """The kernel, refused when it cannot act on the grid or, for the
    estimators (``sampled``), when its quadrature lattice is too large."""
    kernel = c.spec("kernel", KernelSpec, "kernel")
    if kernel is None or grid is None:
        return kernel
    problem = grid_error(kernel, grid)
    if problem:
        c.fail("kernel", problem)
    elif sampled and (problem := lattice_error(kernel, grid)):
        c.fail("grid.L", problem)
    return kernel


def _parse_plan(c: Checker, grid):
    plan = c.spec("plan", SamplePlan, "sampling plan")
    if plan is not None and grid is not None and (problem := plan_error(plan, grid)):
        c.fail("plan" if plan.levels is None else "plan.levels", problem)
        return None
    return plan


def _parse_root(c: Checker, grid):
    cube = c.spec("root", DyadicCube, "cube")
    if cube is not None and grid is not None and (len(cube.index) != grid.n or cube.level > grid.L):
        c.fail("root", "cube does not fit the grid")
        return None
    return cube


def _parse_mode(c: Checker, grid):
    text = c.string("mode", default="dyadic")
    if text is None:
        return None
    try:
        mode = CubeFamilyMode.parse(text)
    except ValueError as exc:
        c.fail("mode", str(exc))
        return None
    if grid is not None and (problem := family_error(mode, grid)):
        c.fail("mode", problem)
        return None
    return mode


def _parse_inputs(c: Checker, grid, m, support):
    d = c.sub("inputs", required=True)
    if d is None or grid is None or m is None:
        return None
    kind = d.string("kind", choices=("bank", "values"), required=True)
    if kind == "bank":
        shape = d.string("shape", required=True)
        seed = d.integer("seed", default=0)
        entry = d.integer("entry", pred=lambda v: v >= 0, msg="must be >= 0", default=0)
        if None in (shape, seed, entry):
            return None
        try:
            return single_input(grid, m, shape, seed=seed, entry=entry, support=support)
        except ValueError as exc:
            d.fail("shape", str(exc))
            return None
    if kind == "values":
        vals = d.raw("values", required=True)
        if vals is None:
            return None
        if not isinstance(vals, list) or len(vals) != m:
            d.fail("values", f"must be a list of {m} cell arrays")
            return None
        out = []
        for i, v in enumerate(vals):
            try:
                out.append(GridFunction(grid, np.asarray(v, dtype=float)))
            except (ValueError, TypeError) as exc:
                d.fail(f"values[{i}]", str(exc))
                return None
        return tuple(out)
    return None


def _canonical(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # strict JSON has no NaN or infinity
        raise ArithmeticError("a reported number is not finite") from exc


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _report(cfg, command, results) -> str:
    return _canonical(
        {
            "command": command,
            "tool": {"name": "sdom", "version": __version__},
            "config_hash": _config_hash(cfg),
            "config": cfg,
            "results": results,
        }
    )


# --- commands ------------------------------------------------------------
#
# A command reads its fields through the Checker and returns a runner.
# The runner is called only when the whole config is valid; it returns
# (results, CSV header, CSV rows, {suffix: text}), which run_command
# writes as <cmd>_report.json, <cmd>_cases.csv and <cmd>_<suffix>.
# Runners reach the computations through this module's globals at call
# time, so wrappers set on sdom.cli (bench/tracer.py) see every call.


def _estimate(c: Checker, with_delta=False):
    """kr (annulus sums) or, with ``delta``, h2 (shell decay)."""
    grid = _parse_grid(c)
    kernel = _parse_kernel(c, grid, sampled=True)
    r = c.number("r", pred=lambda v: v >= 1, msg="must be >= 1", required=True)
    delta = None
    if with_delta:
        delta = c.number("delta", pred=lambda v: v > 0, msg="must be positive", required=True)
    plan = _parse_plan(c, grid)
    if grid is not None and r is not None and delta is not None and not delta > grid.n / r:
        c.fail("delta", f"must exceed n/r = {grid.n / r}")

    def run():
        if with_delta:
            rep = h2_constant(kernel, grid, r, delta, plan)
        else:
            rep = hormander_constant(kernel, grid, r, plan)
        row = [0, rep.value, rep.k_max, rep.tail_flag, rep.skipped]
        return rep.to_json_dict(), ["case", "value", "k_max", "tail_flag", "skipped"], [row], {}

    return run


def _dini(c: Checker):
    modulus = c.spec("modulus", Modulus, "modulus")
    tol = c.number("tol", pred=lambda v: 0 < v < 1, msg="must be in (0,1)", default=1e-7)

    def run():
        try:
            value = dini_norm(modulus, tol=tol)
        except ValueError as exc:
            raise InvariantViolation(f"modulus integral failed: {exc}") from exc
        if not np.isfinite(value):
            raise ArithmeticError(f"modulus integral is not finite: {value}")
        return {"value": value}, ["case", "value"], [[0, value]], {}

    return run


def _build(c: Checker, dominate=False):
    """The sparse family and its node stats; ``dominate`` adds the
    domination constant and reports it in place of the node rows."""
    grid = _parse_grid(c)
    kernel = _parse_kernel(c, grid)
    root = _parse_root(c, grid)
    r = c.number("r", pred=lambda v: v >= 1, msg="must be >= 1", required=True)
    mode = _parse_mode(c, grid)
    fs = _parse_inputs(c, grid, kernel.m if kernel is not None else None, root)
    if root is not None and grid is not None:
        if triple_cube(grid, root).clipped:
            c.fail("root", "the tripled root must fit inside the domain")
        for i, f in enumerate(fs or ()):
            if not support_in(f, root):
                c.fail(f"inputs.values[{i}]", "not supported inside the root cube")

    def run():
        op = OperatorSpec(kernel, grid)
        family, stats, tf_root = build_sparse_family(op, fs, root, r, mode)
        rep = verify_witness_sparsity(family)
        if not rep.ok:
            raise InvariantViolation(f"sparseness verification failed: {rep.to_json_dict()}")
        size = len(family.entries)
        results = {"family_size": size, "carleson": carleson_sum(family), "verify": rep.to_json_dict()}
        extras = {
            "family.json": family.to_json(),
            "stats.json": _canonical({"nodes": [st.to_json_dict() for st in stats]}),
        }
        if dominate:
            dom = domination_constant(op, fs, family, r, tf_root)
            if dom.support_flag:
                raise InvariantViolation("sparse form misses operator output on the root")
            results["domination"] = dom.to_json_dict()
            header = ["case", "c_emp", "argmax_cell", "support_flag", "family_size", "carleson"]
            row = [0, dom.c_emp, dom.argmax_cell, dom.support_flag, size, results["carleson"]]
            return results, header, [row], extras
        columns = ["A", "tau", "E_cells", "selected", "sum_Pj_ratio", "witness_cells"]
        rows = []
        for i, st in enumerate(stats):
            node = st.to_json_dict()
            rows.append([i, st.cube.level, ";".join(str(k) for k in st.cube.index), *(node[k] for k in columns)])
        return results, ["case", "level", "index", *columns], rows, extras

    return run


def _maximal(c: Checker):
    grid = _parse_grid(c)
    opname = c.string("op", choices=("multilinear", "mdelta", "grand", "local_grand"), required=True)
    mode = _parse_mode(c, grid)
    m = c.integer("m", pred=lambda v: v in (1, 2), msg="must be 1 or 2", default=1)
    kernel = root = delta = None
    if opname in ("grand", "local_grand"):
        kernel = _parse_kernel(c, grid)
        m = kernel.m if kernel is not None else None
    if opname == "local_grand":
        root = _parse_root(c, grid)
    if opname == "mdelta":
        delta = c.number("delta", pred=lambda v: v > 0, msg="must be positive", required=True)
        m = 1
    fs = _parse_inputs(c, grid, m, root)

    def run():
        if opname == "multilinear":
            out = multilinear_maximal(fs, mode)
        elif opname == "mdelta":
            out = m_delta(fs[0], delta, mode)
        elif opname == "grand":
            out = grand_maximal(OperatorSpec(kernel, grid), fs, mode)
        else:
            out = local_grand_maximal(OperatorSpec(kernel, grid), fs, root, mode)[0]
        arg = int(np.argmax(out.values))
        results = {"op": opname, "max_value": float(out.values[arg]), "argmax_cell": arg}
        rows = [[0, opname, results["max_value"], arg]]
        return results, ["case", "op", "max_value", "argmax_cell"], rows, {"field.json": out.to_json() + "\n"}

    return run


def _parse_weight(c: Checker, i, grid):
    d = Checker(c.raw("weights")[i], c.errors, prefix=f"weights[{i}].")
    kind = d.string("kind", choices=("power", "values"), required=True)
    if kind == "power" or kind is None:
        expo = d.number("exponent", required=True)
        center = d.raw("center")
        floor = d.number("floor", pred=lambda v: v > 0, msg="must be positive", default=1e-8)
        if None in (expo, floor, grid):
            return None
        try:
            return power_weight(grid, expo, center=center, floor=floor)
        except (ValueError, TypeError) as exc:
            c.fail(f"weights[{i}]", str(exc))
            return None
    vals = d.raw("values", required=True)
    if vals is None or grid is None:
        return None
    try:
        w = GridFunction(grid, np.asarray(vals, dtype=float))
        if not np.all(w.values > 0):
            d.fail("values", "weight must be strictly positive")
            return None
        return w
    except (ValueError, TypeError) as exc:
        d.fail("values", str(exc))
        return None


def _weights(c: Checker):
    grid = _parse_grid(c)
    kernel = _parse_kernel(c, grid)
    r = c.number("r", pred=lambda v: v >= 1, msg="must be >= 1", required=True)
    mode = _parse_mode(c, grid)
    wlist = c.raw("weights", required=True)
    exponents = c.raw("exponents", required=True)
    m = kernel.m if kernel is not None else None
    weights = None
    if isinstance(wlist, list) and m is not None and len(wlist) == m:
        weights = [_parse_weight(c, i, grid) for i in range(m)]
    elif wlist is not None:
        c.fail("weights", f"must be a list of {m} weight specs")
    if not isinstance(exponents, list) or (m is not None and len(exponents) != m):
        c.fail("exponents", f"must be a list of {m} numbers")
        exponents = None
    bank_spec, bank = c.spec("bank", BankSpec), None
    if bank_spec is not None and grid is not None and m is not None:
        try:
            bank = make_bank(grid, m, bank_spec)
        except ValueError as exc:
            c.fail("bank", str(exc))
    wt = None
    if not c.errors and weights is not None and all(w is not None for w in weights):
        try:
            wt = WeightTuple(tuple(weights), tuple(exponents), r)
        except (ValueError, TypeError) as exc:
            c.fail("weights", str(exc))

    def run():
        rep = weighted_norm_ratio(OperatorSpec(kernel, grid), wt, bank, mode)
        rows = [[i, label, rep.ratios[i]] for i, (label, _) in enumerate(bank)]
        return rep.to_json_dict(), ["case", "label", "ratio"], rows, {}

    return run


def _separation(c: Checker):
    grid = _parse_grid(c)
    if grid is not None and grid.n != 1:
        c.fail("grid.n", "separation runs in one dimension")
    beta = c.number("beta", pred=lambda v: v > 0, msg="must be positive", required=True)
    r = c.number("r", pred=lambda v: v > 1, msg="must exceed 1", required=True)
    delta = c.number("delta", pred=lambda v: v > 0, msg="must be positive", required=True)
    ells = c.raw("ells", required=True)
    pair_depth = c.integer("pair_depth", pred=lambda v: v >= 1, msg="must be >= 1", default=2)
    max_pairs = c.integer("max_pairs", pred=lambda v: v >= 1, msg="must be >= 1", default=6)
    if grid is not None and r is not None and delta is not None and not delta > 1.0 / r:
        c.fail("delta", f"must exceed 1/r = {1.0 / r}")
    if grid is not None and grid.n == 1 and None not in (beta, r):
        problem = lattice_error(mpt_truncated_kernel(beta, r, 0), grid)  # the lattice does not depend on ell
        if problem:
            c.fail("grid.L", problem)
    if not isinstance(ells, list) or not ells or not all(isinstance(e, int) and e >= 0 for e in ells):
        c.fail("ells", "must be a nonempty list of nonnegative integers")
        ells = None
    if ells is not None and grid is not None:
        bad = [e for e in ells if e + 4 > grid.L]
        if bad:
            c.fail("ells", f"need L >= ell+4; too deep for this grid: {bad}")

    def one_ell(ell):
        kernel = mpt_truncated_kernel(beta, r, ell)
        plan = SamplePlan(levels=(ell + 2, ell + 3, ell + 4), pair_depth=pair_depth, max_pairs=max_pairs)
        kr, h2 = regularity(kernel, grid, r, delta, plan)
        return {"ell": ell, "kr": kr.value, "h2": h2.value, "kr_k_max": kr.k_max, "h2_j_max": h2.k_max}

    def run():
        cases = parallel_map(one_ell, ells)
        rows = [[i, d["ell"], d["kr"], d["h2"]] for i, d in enumerate(cases)]
        return {"cases": cases}, ["case", "ell", "kr_value", "h2_value"], rows, {}

    return run


COMMANDS = {
    "kr": _estimate,
    "h2": lambda c: _estimate(c, with_delta=True),
    "dini": _dini,
    "build": _build,
    "dominate": lambda c: _build(c, dominate=True),
    "maximal": _maximal,
    "weights": _weights,
    "separation": _separation,
}


def run_command(command: str, cfg: dict, out_dir: str) -> list:
    """Run one command and write its outputs; returns written paths.

    All artifacts are rendered in memory first, so a failing run leaves
    nothing behind; a failure while writing removes what was written.
    """
    c = Checker(cfg, [])
    run = COMMANDS[command](c)
    if c.errors:
        raise ConfigError(c.errors)
    results, header, rows, extras = run()
    files = {
        f"{command}_report.json": _report(cfg, command, results),
        f"{command}_cases.csv": _csv_text(header, rows),
    }
    files.update((f"{command}_{suffix}", text) for suffix, text in extras.items())
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            written.append(path)
    except BaseException:
        for p in written:
            try:
                os.remove(p)
            except OSError:
                pass
        raise
    return written


# Failures of a run, first match wins: (exception, exit code, stderr label).
# A singular lattice hit is a config the kernel cannot be sampled on; the
# only I/O of run_command is creating and writing the outputs.
_FAILURES = (
    (ConfigError, 1, "config error"),
    (SingularPointError, 1, "config error"),
    (InvariantViolation, 2, "invariant violation"),
    (ArithmeticError, 2, "numerical failure"),
    (OSError, 1, "error: cannot write output"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process, however often ``main`` runs in it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdom", description="sparse domination workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--threads", default=None, help="worker threads (integer or 'max'; default: SDOM_THREADS or 1)")
    return parser


def _finite(text: str) -> float:
    """A config number, refused when it is NaN, infinite or overflows."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        set_thread_count(resolve_thread_request(args.threads))
    except ValueError as exc:
        print(f"sdom: error: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        print(f"sdom: error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # malformed JSON, or a number no float holds
        print(f"sdom: error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    # warnings raised during the run (numpy's overflow notices) are held
    # back: a failed run reports itself in one line, a run that succeeds
    # shows them afterwards as usual
    with warnings.catch_warnings(record=True) as caught:
        try:
            written = run_command(args.command, cfg, args.out)
        except tuple(kind for kind, _, _ in _FAILURES) as exc:
            code, label = next((code, label) for kind, code, label in _FAILURES if isinstance(exc, kind))
            for line in exc.errors if isinstance(exc, ConfigError) else [exc]:
                print(f"sdom: {label}: {line}", file=sys.stderr)
            return code
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
