"""Golden CLI corpus: every command's outputs, byte for byte.

``tests/data/cli_golden/cases.json`` lists (name, command, config)
cases: successful runs of all eight commands at small grid depths, and
config errors (an empty config and a multi-error config per command).
For each case the directory of the same name holds ``outcome.json``
(exit code, exact stderr, written file names in printed order) and the
written files themselves.  A refactor of the CLI must leave all of it
unchanged, at one thread and at two: the CLI promises byte-identical
outputs for any thread count.  To re-record deliberately, run this
file as a script, optionally naming the cases to record (default: all
of them); recording runs at one thread:

    PYTHONPATH=src python tests/test_cli_golden.py [case ...]

Recording also writes the numpy version to ``numpy_version.txt``: the
bits of some outputs depend on it, so a failure names the recorded and
the running versions.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np
import pytest

from sdom import cli
from sdom.parallel import set_thread_count

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
NUMPY_VERSION = GOLDEN / "numpy_version.txt"


def _run_case(case, work_dir, threads=1):
    """Run one case in ``work_dir`` on ``threads`` threads; returns
    (outcome, {name: bytes})."""
    cfg_path = os.path.join(work_dir, "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(case["config"], fh)
    out_dir = os.path.join(work_dir, "out")
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([case["command"], "--config", cfg_path, "--out", out_dir, "--threads", str(threads)])
    finally:
        set_thread_count(1)
    names = [os.path.basename(p) for p in stdout.getvalue().splitlines()]
    files = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return {"exit": code, "stderr": stderr.getvalue(), "files": names}, files


@pytest.mark.parametrize(
    "case, threads",
    [pytest.param(c, 1, id=c["name"]) for c in CASES] + [pytest.param(c, 2, id=f"{c['name']}-t2") for c in CASES],
)
def test_cli_golden(case, threads, tmp_path):
    outcome, files = _run_case(case, str(tmp_path), threads)
    expected_dir = GOLDEN / case["name"]
    versions = f"recorded with numpy {NUMPY_VERSION.read_text().strip()}, running numpy {np.__version__}"
    assert outcome == json.loads((expected_dir / "outcome.json").read_text()), versions
    for name, blob in files.items():
        assert blob == (expected_dir / name).read_bytes(), f"{name}, {versions}"


def record(names=()):
    unknown = set(names) - {c["name"] for c in CASES}
    if unknown:
        raise SystemExit(f"no such cases: {sorted(unknown)}")
    for case in CASES:
        if names and case["name"] not in names:
            continue
        target = GOLDEN / case["name"]
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        with tempfile.TemporaryDirectory() as work_dir:
            outcome, files = _run_case(case, work_dir)
        (target / "outcome.json").write_text(json.dumps(outcome, indent=2, sort_keys=True) + "\n")
        for name, blob in files.items():
            (target / name).write_bytes(blob)
        print(case["name"], outcome["exit"], len(files))
    NUMPY_VERSION.write_text(np.__version__ + "\n")


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
