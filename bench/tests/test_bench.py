"""Tests of the benchmark itself, not of sdom.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/tests -q

The end-to-end tests start `bench/run.py --tiny`, which shrinks every
grid so that a run takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

# layers a workload never reaches: their counts must read zero there
IDLE = {
    "dominate-1d": [
        "kernels.hormander_constant.calls",
        "kernels.h2_constant.calls",
        "kernels.skipped",
        "maximal.grand_maximal.cubes",
        "weights.vec_ap_characteristic.cubes",
        "parallel.speedup_2t",
    ],
    "regularity-1d": [
        "operators.apply.calls",
        "operators.apply.tuples",
        "maximal.local_grand_maximal.cubes",
        "maximal.grand_maximal.cubes",
        "builder.build_sparse_family.nodes",
        "builder.cz_select.calls",
        "sparse.family_size",
        "grid.local_average.calls",
        "weights.vec_ap_characteristic.cubes",
        "parallel.speedup_2t",
    ],
    "mixed-2d-t2": [],
}


def run_bench(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tiny(workload, seed, trace) -> dict:
    return result_of(
        run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny")
    )


def test_configs_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        for small in (False, True):
            assert workloads.make_ops(w, 7, small) == workloads.make_ops(w, 7, small)
        assert workloads.make_ops(w, 7) != workloads.make_ops(w, 8)


def test_reference_matches_default_seed_configs():
    for w in workloads.WORKLOADS:
        with open(harness.reference_path(w), encoding="utf-8") as fh:
            reference = json.load(fh)
        ops = workloads.make_ops(w, workloads.DEFAULT_SEED)
        assert sorted(reference) == sorted(op.name for op in ops)
        for op in ops:
            assert reference[op.name][f"{op.command}_report.json"]["config"] == op.config


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload):
    for trace, units in ((0, harness.END_TO_END), (1, harness.PER_LAYER)):
        res = tiny(workload, 5, trace)
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: m["unit"] for k, m in res["metrics"].items()} == units
    values = {k: m["value"] for k, m in res["metrics"].items()}
    for name in IDLE[workload]:
        assert values[name] == 0, name
    assert values["cli.run_command.calls"] > 0 and values["kernels.eval_batch.calls"] > 0
    if workload == "mixed-2d-t2":
        calls = [k for k in values if k.endswith((".calls", ".cubes", ".nodes"))]
        assert all(values[k] > 0 for k in calls), [k for k in calls if not values[k]]


def test_counts_repeat_across_traced_runs():
    runs = [tiny("mixed-2d-t2", 9, 1) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "bytes")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["parallel.parallel_map.tasks"] > 0


def test_perturbed_reference_makes_the_run_fail(tmp_path):
    from sdom import cli

    ops = workloads.make_ops("dominate-1d", 1, tiny=True)[:2]
    paths = []
    for i, op in enumerate(ops):
        paths.append(str(tmp_path / f"{i}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
    clean = harness.run_pass(cli, ops, paths, str(tmp_path / "a"), 1)
    reference = json.loads(json.dumps({r.op.name: r.docs for r in clean}))
    checked = harness.run_pass(cli, ops, paths, str(tmp_path / "b"), 1, reference)
    assert harness.summarize(checked) == ([], 0.0, 0.0)

    dom = reference[ops[0].name]["dominate_report.json"]["results"]["domination"]
    dom["c_emp"] *= 1 + 1e-9
    checked = harness.run_pass(cli, ops, paths, str(tmp_path / "c"), 1, reference)
    failed, fail_frac, max_rel_dev = harness.summarize(checked)
    assert [r.op.name for r in failed] == [ops[0].name]
    assert fail_frac == 0.5
    assert 1e-10 < max_rel_dev < 1e-8


def test_an_op_that_raises_counts_as_failed(tmp_path, monkeypatch):
    from sdom import cli

    def crash(argv):
        raise ZeroDivisionError("synthetic crash")

    monkeypatch.setattr(cli, "main", crash)
    op = workloads.make_ops("regularity-1d", 1, tiny=True)[0]
    result = harness.run_op(cli, op, str(tmp_path / "cfg.json"), str(tmp_path / "out"), 1)
    assert len(result.problems) == 1 and "ZeroDivisionError: synthetic crash" in result.problems[0]


def test_compare_tolerates_only_tiny_float_changes():
    ref = {"a": 1.0, "n": 3, "cells": [1, 2], "ok": True}
    assert checks.compare(dict(ref, a=1.0 + 1e-15), ref)[0] == []
    assert checks.compare(dict(ref, a=1.0 + 1e-11), ref)[0]
    assert checks.compare(dict(ref, n=4), ref)[0]
    assert checks.compare(dict(ref, cells=[1, 3]), ref)[0]
    assert checks.compare(dict(ref, ok=1), ref)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(
        "--workload", "dominate-1d", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, bench=str(tmp_path / "bench"),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
