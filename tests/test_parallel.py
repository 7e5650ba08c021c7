"""`parallel_map` keeps task order and opens no pool inside a pool's task."""

import concurrent.futures

import pytest

from sdom.parallel import parallel_map, set_thread_count


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    set_thread_count(1)


@pytest.fixture
def pools(monkeypatch):
    """Count the thread pools that `parallel_map` opens."""
    opened = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return opened


def test_nested_map_runs_serially_inside_a_task(pools):
    def outer(i):
        return parallel_map(lambda j: (i, j), range(4))

    want = [[(i, j) for j in range(4)] for i in range(6)]
    set_thread_count(1)
    assert parallel_map(outer, range(6)) == want
    assert pools == []
    set_thread_count(2)
    assert parallel_map(outer, range(6)) == want
    assert len(pools) == 1  # the outer map's; no task opened its own
    # the caller's thread is no pool worker, so the next map gets a pool
    assert parallel_map(outer, range(6)) == want
    assert len(pools) == 2
