"""Process-wide worker-thread configuration and a deterministic map.

Every parallel loop in the package goes through ``parallel_map`` so that
results are always assembled in task order.  Combined with fixed chunk
shapes in the numerical kernels this keeps outputs bitwise identical
for any thread count.  A call made from inside one of its own tasks
runs serially, so pools never nest.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Sequence

_THREADS = 1
_worker = threading.local()  # ``active`` is set on pool threads only


def set_thread_count(n: int) -> None:
    """Set the worker-thread count for subsequent parallel loops."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("thread count must be a positive integer")
    global _THREADS
    _THREADS = n


def get_thread_count() -> int:
    return _THREADS


def resolve_thread_request(value: str | int | None) -> int:
    """Turn a CLI/env thread request into a concrete count.

    ``None`` falls back to the SDOM_THREADS environment variable and
    then to 1.  The string ``"max"`` means all available cores.
    """
    if value is None:
        value = os.environ.get("SDOM_THREADS")
        if value is None:
            return 1
    if isinstance(value, str):
        if value.strip().lower() == "max":
            return os.cpu_count() or 1
        try:
            value = int(value)
        except ValueError:
            raise ValueError(f"invalid thread count {value!r}") from None
    if value < 1:
        raise ValueError("thread count must be >= 1")
    return value


def parallel_map(fn: Callable, items: Sequence | Iterable) -> list:
    """Apply ``fn`` to each item, preserving input order in the result.

    Runs serially when the configured thread count is 1 or when called
    from a task of another ``parallel_map``, otherwise on a thread pool.
    ``fn`` must not mutate shared state; each call stands alone, so the
    schedule cannot influence the values returned.
    """
    items = list(items)
    if _THREADS == 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(it) for it in items]
    # imported here: one-thread runs never need it, and it adds about
    # 0.6 MiB to the resident set
    from concurrent.futures import ThreadPoolExecutor

    def task(item):
        _worker.active = True
        return fn(item)

    with ThreadPoolExecutor(max_workers=_THREADS) as pool:
        return list(pool.map(task, items))
