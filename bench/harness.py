"""One benchmark run: one workload, one seed, one fresh process.

`run.py` starts this file with a pinned environment.  It writes the
workload's configs, times the set-up probe, then drives `sdom.cli.main`
in-process over the ops round-robin until running one more would
overrun ``--seconds``; `wall_s` sums each op's median time.  Every
op's outputs are checked after it ends (outside the timed region).
With ``--trace 1`` the ops run once plainly and once under the tracer
(and, for a multi-threaded workload, once more traced at one thread),
and the per-layer metrics are reported instead.

The last line of standard output is the result object; lines before it
start with ``#`` and carry the machine facts and the metrics that the
other mode reports.  Run files go to ``.bench_out/`` in the working
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# summed op time per command; `dominate_sparse_s` is the part of
# `dominate_s` spent on spike and indicator inputs
COMMAND_METRICS = ("dominate_s", "dominate_sparse_s", "separation_s", "kr_s", "h2_s", "maximal_s", "weights_s")

_LAYER_METRICS = (
    "kernels.eval_batch.calls kernels.eval_batch.points kernels.eval_batch.self_s "
    "kernels.hormander_constant.calls kernels.hormander_constant.configs kernels.hormander_constant.self_s "
    "kernels.h2_constant.calls kernels.h2_constant.configs kernels.h2_constant.self_s kernels.skipped "
    "operators.apply.calls operators.apply.tuples operators.apply.self_s "
    "maximal.local_grand_maximal.calls maximal.local_grand_maximal.cubes maximal.local_grand_maximal.self_s "
    "maximal.grand_maximal.calls maximal.grand_maximal.cubes maximal.grand_maximal.self_s "
    "builder.build_sparse_family.nodes builder.build_sparse_family.self_s "
    "builder.cz_select.calls builder.cz_select.self_s builder.domination_constant.self_s "
    "sparse.sparse_eval.self_s sparse.verify_witness_sparsity.self_s sparse.carleson_sum.self_s "
    "sparse.family_size grid.local_average.calls grid.local_average.self_s "
    "weights.vec_ap_characteristic.cubes weights.vec_ap_characteristic.self_s "
    "weights.weighted_norm_ratio.self_s bank.single_input.self_s bank.make_bank.self_s "
    "parallel.parallel_map.calls parallel.parallel_map.tasks parallel.parallel_map.task_s "
    "parallel.parallel_map.task_p50_ms parallel.parallel_map.efficiency parallel.speedup_2t "
    "cli.run_command.calls cli.run_command.self_s cli.output_bytes trace.overhead_frac"
).split()


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "cli.output_bytes":
        return "bytes"
    if name in ("parallel.parallel_map.efficiency", "parallel.speedup_2t", "trace.overhead_frac"):
        return "ratio"
    return "count"


PER_LAYER = {name: _unit(name) for name in _LAYER_METRICS}
PER_LAYER.update({name: "s" for name in COMMAND_METRICS})
PER_LAYER.update({"fail_frac": "ratio", "max_rel_dev": "ratio"})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bench/run.py", description="sdom benchmark: one workload run")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0, help="measure for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    p.add_argument("--tiny", action="store_true", help="shrunken grids, for the benchmark's own tests")
    p.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's outputs as the reference (default seed, full size only)",
    )
    return p


def reference_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "reference", f"{workload}.json")


@dataclass
class OpResult:
    """One run of one op: its time and what its outputs showed."""

    op: workloads.Op
    seconds: float
    problems: list
    digest: str | None
    docs: dict
    max_rel_dev: float


def run_op(cli, op, cfg_path, out_dir, threads, reference=None) -> OpResult:
    """Run one op through `sdom.cli.main` and check what it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [op.command, "--config", cfg_path, "--out", out_dir, "--threads", str(threads)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            outcome = f"exit {cli.main(argv)}"
        except Exception:  # a crash fails this op; the run goes on and reports it
            traceback.print_exc(limit=-2)
            outcome = "crash"
        seconds = time.perf_counter() - t0
    if outcome != "exit 0":
        return OpResult(op, seconds, [f"{outcome}: {err.getvalue().strip()}"], None, {}, 0.0)
    docs, digest = checks.read_outputs(out_dir)
    problems = checks.invariant_problems(op.command, docs)
    dev = 0.0
    if reference is not None:
        if op.name not in reference:
            problems.append("no reference output")
        else:
            mismatches, dev = checks.compare(docs, reference[op.name])
            problems.extend(mismatches)
    return OpResult(op, seconds, problems, digest, docs, dev)


def run_pass(cli, ops, cfg_paths, work_dir, threads, reference=None, tracer=None) -> list:
    results = []
    for i, (op, cfg_path) in enumerate(zip(ops, cfg_paths)):
        if tracer is not None:
            tracer.op_id = i
        results.append(run_op(cli, op, cfg_path, os.path.join(work_dir, f"{i:02d}"), threads, reference))
    return results


def summarize(results) -> tuple:
    """(failed results, failed share, largest relative deviation from
    the reference)."""
    failed = [r for r in results if r.problems]
    return failed, len(failed) / len(results), max(r.max_rel_dev for r in results)


def measure(cli, ops, cfg_paths, work_dir, threads, reference, seconds) -> list:
    """Run the ops round-robin, each at least once, until running the
    next op again would overrun ``seconds``; returns each op's runs."""
    runs = [[] for _ in ops]
    t_start = time.perf_counter()
    for i in itertools.cycle(range(len(ops))):
        if runs[i] and time.perf_counter() - t_start + runs[i][-1].seconds > seconds:
            return runs
        runs[i].append(run_op(cli, ops[i], cfg_paths[i], os.path.join(work_dir, f"{i:02d}"), threads, reference))


def pass_wall(results) -> float:
    return sum(r.seconds for r in results)


def command_times(op_seconds) -> dict:
    """Summed seconds per command metric, from (op, seconds) pairs."""
    out = dict.fromkeys(COMMAND_METRICS, 0.0)
    for op, seconds in op_seconds:
        out[f"{op.command}_s"] += seconds
        if op.sparse:
            out["dominate_sparse_s"] += seconds
    return out


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_configs(ops, run_dir) -> tuple:
    """Write each op's config and its refused copy; returns both path lists."""
    paths, refused = [], []
    for sub in ("configs", "refused"):
        os.makedirs(os.path.join(run_dir, sub))
    for i, op in enumerate(ops):
        name = f"{i:02d}-{op.name}.json"
        paths.append(os.path.join(run_dir, "configs", name))
        _write_json(paths[-1], op.config)
        refused.append(os.path.join(run_dir, "refused", name))
        _write_json(refused[-1], workloads.refused_config(op))
    return paths, refused


def time_setup(ops, refused, run_dir, repeats) -> float:
    """Median wall time of fresh processes that import `sdom.cli` and
    validate every config of the workload."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), os.path.join(run_dir, "refused-out")]
    cmd += [f"{op.command}={path}" for op, path in zip(ops, refused)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git;
    'unknown' outside a git work tree or when the ref is packed."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_facts(threads: int) -> dict:
    import platform

    import numpy
    import scipy

    # machine facts come from the kernel's read-only views; a missing
    # entry reads "unknown"
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level = read(os.path.join(cache_dir, index, "level")).strip()
        caches[f"l{level}"] = read(os.path.join(cache_dir, index, "size")).strip() or "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "threads": threads,
    }


def layer_metrics(tracer, traced_wall, untraced_wall, speedup) -> dict:
    self_s, counts = tracer.totals()
    out = {}
    for name in _LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = counts.get(name, 0)
    tasks = tracer.task_s
    out["parallel.parallel_map.task_s"] = sum(tasks)
    out["parallel.parallel_map.task_p50_ms"] = 1e3 * statistics.median(tasks) if tasks else 0.0
    out["parallel.parallel_map.efficiency"] = sum(tasks) / tracer.pool_capacity_s if tracer.pool_capacity_s else 0.0
    out["parallel.speedup_2t"] = speedup
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.write_reference and (args.tiny or args.seed != workloads.DEFAULT_SEED):
        print("--write-reference needs the default seed at full size", file=sys.stderr)
        return 1
    ops = workloads.make_ops(args.workload, args.seed, args.tiny)
    threads = workloads.threads(args.workload)
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg_paths, refused = _write_configs(ops, run_dir)

    from sdom import cli  # compiles and caches sdom before the probe times a fresh import

    setup_s = time_setup(ops, refused, run_dir, 1 if args.tiny else SETUP_REPEATS)
    facts = machine_facts(threads)

    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.tiny and not args.write_reference:
        with open(reference_path(args.workload), encoding="utf-8") as fh:
            reference = json.load(fh)

    # a traced run times one plain pass, the base of the trace overhead
    work_dir = os.path.join(run_dir, "out")
    runs = measure(cli, ops, cfg_paths, work_dir, threads, reference, 0.0 if args.trace else args.seconds)
    if args.write_reference:
        _write_json(reference_path(args.workload), {op.name: r[0].docs for op, r in zip(ops, runs)})
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _write_json(
        os.path.join(run_dir, "op_seconds.json"),
        {op.name: [r.seconds for r in op_runs] for op, op_runs in zip(ops, runs)},
    )
    all_results = [r for op_runs in runs for r in op_runs]
    medians = [(op, statistics.median(r.seconds for r in op_runs)) for op, op_runs in zip(ops, runs)]
    wall_s = sum(seconds for _, seconds in medians)
    cmd_s = command_times(medians)

    layers = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            traced = run_pass(cli, ops, cfg_paths, work_dir, threads, reference, tracer)
        all_results += traced
        speedup = 0.0
        if threads > 1:
            with Tracer():
                serial = run_pass(cli, ops, cfg_paths, work_dir, 1, reference)
            all_results += serial
            speedup = pass_wall(serial) / pass_wall(traced)
        layers = layer_metrics(tracer, pass_wall(traced), wall_s, speedup)
        trace_dir = os.path.join(run_dir, "trace")
        tracer.write(trace_dir)
        self_s, counts = tracer.totals()
        _write_json(
            os.path.join(trace_dir, "totals.json"),
            {"self_s": self_s, "counts": counts, "missing_sites": tracer.missing_sites},
        )
        for name in tracer.missing_sites:
            print(f"# trace: site {name} not found; its counts read zero", flush=True)

    # every pass, traced or not and at any thread count, must write
    # byte-identical outputs
    first = {op.name: op_runs[0].digest for op, op_runs in zip(ops, runs)}
    for r in all_results:
        if r.digest is not None and r.digest != first[r.op.name]:
            r.problems.append("outputs differ from the first pass")
    failed, fail_frac, max_rel_dev = summarize(all_results)
    for r in failed[:10]:
        print(f"# FAILED {r.op.name}: {'; '.join(r.problems[:3])}", file=sys.stderr)

    values = dict(
        cmd_s, fail_frac=fail_frac, max_rel_dev=max_rel_dev, wall_s=wall_s, setup_s=setup_s, peak_rss_mib=peak_rss_mib
    )
    units = END_TO_END
    if layers is not None:
        values.update(layers)
        units = PER_LAYER
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    side = {k: v for k, v in values.items() if k not in units}
    _write_json(os.path.join(run_dir, "machine.json"), facts)
    print("# machine " + json.dumps(facts, sort_keys=True))
    print("# " + " ".join(f"{k}={v}" for k, v in side.items()))
    result = {"correct": not failed, "attempted": len(all_results), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
