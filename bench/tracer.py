"""Outside-in tracing of sdom's layers.

`sdom` modules bind each other's functions with ``from .x import y``,
so a function is wrapped at every module that calls it (its import
sites), not where it is defined.  Each wrapper records a span (name,
start, end, parent span, op id, thread) and the counts of work done at
that boundary.

Self time is charged per thread, like a sampling-free profiler: at
every span entry or exit the time since the thread's previous event
goes to the span on top of that thread's stack.  A task that
`parallel_map` runs on a worker thread starts from a frame that charges
the function which called `parallel_map`, so a layer's self time counts
the same work at one thread and at two.  Bookkeeping after a call
(counting cubes, sizing files) is charged to nobody.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _family_count(grid, mode, within) -> int:
    """Number of cubes a maximal family ranges over inside ``within``
    (a dyadic cube, or the whole domain when None)."""
    lev0 = within.level if within is not None else 0
    if mode.kind == "dyadic":
        return sum(1 << (grid.n * (lev - lev0)) for lev in range(lev0, grid.L + 1))
    if mode.kind == "all":
        w = grid.cells_per_side >> lev0
        return sum((w - s + 1) ** grid.n for s in range(1, w + 1))
    raise ValueError(f"no cube count for the {mode.kind!r} family")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# counters: (counts, args, kwargs, result) -> None, run after the span ends


def _count_points(c, args, kwargs, result):
    c["kernels.eval_batch.points"] += len(_arg(args, kwargs, 2, "Y"))


def _count_estimate(name):
    def count(c, args, kwargs, result):
        c[name + ".configs"] += result.samples["pairs"]
        c["kernels.skipped"] += result.skipped

    return count


def _count_tuples(c, args, kwargs, result):
    op, fs = _arg(args, kwargs, 0, "op"), _arg(args, kwargs, 1, "fs")
    tuples = op.grid.num_cells
    for f in fs:
        tuples *= int(np.count_nonzero(f.values))
    c["operators.apply.tuples"] += tuples


def _count_cubes(name, first, mode_at, within=None):
    """Counter of family cubes; ``first`` names the argument that holds
    the grid and ``within`` is the (position, name) of the bounding cube."""
    from sdom.maximal import DYADIC

    def count(c, args, kwargs, result):
        grid = _arg(args, kwargs, 0, first).grid
        mode = _arg(args, kwargs, mode_at, "mode", DYADIC)
        cube = _arg(args, kwargs, *within) if within else None
        c[name + ".cubes"] += _family_count(grid, mode, cube)

    return count


def _count_nodes(c, args, kwargs, result):
    c["builder.build_sparse_family.nodes"] += len(result[1])


def _count_family(c, args, kwargs, result):
    c["sparse.family_size"] += len(_arg(args, kwargs, 0, "family").entries)


def _count_output_bytes(c, args, kwargs, result):
    c["cli.output_bytes"] += sum(os.path.getsize(p) for p in result)


def sites():
    """(module, attribute, span name, counter) for every wrapped call."""
    lgm = _count_cubes("maximal.local_grand_maximal", "op", 3, (2, "q0"))
    return [
        ("sdom.cli", "main", "cli.main", None),
        ("sdom.cli", "run_command", "cli.run_command", _count_output_bytes),
        ("sdom.kernels", "eval_batch", "kernels.eval_batch", _count_points),
        ("sdom.operators", "eval_batch", "kernels.eval_batch", _count_points),
        ("sdom.cli", "hormander_constant", "kernels.hormander_constant",
         _count_estimate("kernels.hormander_constant")),
        ("sdom.cli", "h2_constant", "kernels.h2_constant", _count_estimate("kernels.h2_constant")),
        ("sdom.builder", "apply", "operators.apply", _count_tuples),
        ("sdom.maximal", "apply", "operators.apply", _count_tuples),
        ("sdom.weights", "apply", "operators.apply", _count_tuples),
        ("sdom.builder", "local_grand_maximal", "maximal.local_grand_maximal", lgm),
        ("sdom.cli", "local_grand_maximal", "maximal.local_grand_maximal", lgm),
        ("sdom.cli", "grand_maximal", "maximal.grand_maximal", _count_cubes("maximal.grand_maximal", "op", 2)),
        ("sdom.cli", "build_sparse_family", "builder.build_sparse_family", _count_nodes),
        ("sdom.builder", "cz_select", "builder.cz_select", None),
        ("sdom.cli", "domination_constant", "builder.domination_constant", None),
        ("sdom.builder", "sparse_eval", "sparse.sparse_eval", None),
        ("sdom.cli", "verify_witness_sparsity", "sparse.verify_witness_sparsity", _count_family),
        ("sdom.cli", "carleson_sum", "sparse.carleson_sum", None),
        ("sdom.builder", "local_average", "grid.local_average", None),
        ("sdom.weights", "vec_ap_characteristic", "weights.vec_ap_characteristic",
         _count_cubes("weights.vec_ap_characteristic", "wt", 1, (2, "within"))),
        ("sdom.cli", "weighted_norm_ratio", "weights.weighted_norm_ratio", None),
        ("sdom.cli", "single_input", "bank.single_input", None),
        ("sdom.cli", "make_bank", "bank.make_bank", None),
    ]


POOL_SITES = ("sdom.kernels", "sdom.operators", "sdom.maximal", "sdom.cli")


class _ThreadState:
    __slots__ = ("stack", "last", "self_s", "counts")

    def __init__(self):
        self.stack = []  # frames: [span id, name, charged name, start, parent id]
        self.last = 0.0
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched = []
        self.spans = []  # (id, name, start, end, parent, op, thread)
        self.task_s = []  # duration of every parallel_map task
        self.pool_capacity_s = 0.0  # sum of pool wall * workers it could use
        self.missing_sites = []
        self.op_id = -1

    # --- per-thread accounting ------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _push(self, st, name, charged, parent):
        now = _clock()
        if st.stack:
            st.self_s[st.stack[-1][2]] += now - st.last
        st.last = now
        frame = [next(self._ids), name, charged, now, parent]
        st.stack.append(frame)
        return frame

    def _pop(self, st) -> float:
        now = _clock()
        span_id, name, charged, start, parent = st.stack.pop()
        st.self_s[charged] += now - st.last
        st.last = now
        self.spans.append((span_id, name, start, now, parent, self.op_id, threading.get_ident()))
        return now - start

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else 0
            tracer._push(st, name, name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(st)
            st.counts[name + ".calls"] += 1
            if counter is not None:
                counter(st.counts, args, kwargs, result)
                st.last = _clock()
            return result

        return traced

    def _wrap_pool(self, fn):
        tracer = self
        from sdom.parallel import get_thread_count

        @functools.wraps(fn)
        def traced(task_fn, items):
            items = list(items)
            st = tracer._state()
            owner, parent = (st.stack[-1][2], st.stack[-1][0]) if st.stack else ("parallel.parallel_map", 0)
            pool = tracer._push(st, "parallel.parallel_map", "parallel.parallel_map", parent)
            durations = []

            def task(item):
                ts = tracer._state()
                tracer._push(ts, "parallel.task", owner, pool[0])
                try:
                    return task_fn(item)
                finally:
                    durations.append(tracer._pop(ts))

            try:
                result = fn(task, items)
            finally:
                wall = tracer._pop(st)
            c = st.counts
            c["parallel.parallel_map.calls"] += 1
            c["parallel.parallel_map.tasks"] += len(items)
            with tracer._lock:
                tracer.task_s.extend(durations)
                tracer.pool_capacity_s += wall * max(1, min(get_thread_count(), len(items)))
            st.last = _clock()
            return result

        return traced

    # --- patching ---------------------------------------------------------

    def __enter__(self):
        """Wrap every site; sites a module no longer has are recorded
        in ``missing_sites`` and left alone."""
        for modname, attr, name, counter in sites():
            self._patch(modname, attr, lambda fn, n=name, c=counter: self._wrap(n, fn, c))
        for modname in POOL_SITES:
            self._patch(modname, "parallel_map", self._wrap_pool)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def _patch(self, modname, attr, make):
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing_sites.append(f"{modname}.{attr}")
            return
        self._patched.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    # --- results ----------------------------------------------------------

    def totals(self):
        """(self seconds by span name, counts by metric name), summed
        over threads."""
        self_s = defaultdict(float)
        counts = defaultdict(int)
        for st in self._states:
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.counts.items():
                counts[k] += v
        return self_s, counts

    def write(self, out_dir: str) -> None:
        """Write the spans as CSV, times relative to the first span."""
        os.makedirs(out_dir, exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        threads = {}
        with open(os.path.join(out_dir, "spans.csv"), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "op", "thread"])
            for span_id, name, start, end, parent, op, thread in sorted(self.spans):
                tid = threads.setdefault(thread, len(threads))
                w.writerow([span_id, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op, tid])
