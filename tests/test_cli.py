import copy
import functools
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from sdom import cli, kernels, operators
from sdom.parallel import set_thread_count
from sdom.sparse import InvariantViolation

from test_cli_golden import CASES


@pytest.fixture(autouse=True)
def reset_threads():
    yield
    set_thread_count(1)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, extra=()):
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


GRID_1D = {"n": 1, "L": 5, "origin": [0.0], "side": 8.0}
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_kr_report_and_hash(tmp_path):
    cfg = {
        "grid": GRID_1D,
        "kernel": {"variant": "x_independent", "m": 1},
        "r": 1.0,
        "plan": {"levels": [2, 3], "pair_depth": 2, "max_pairs": 4},
    }
    code, out = run(tmp_path, "kr", cfg)
    assert code == 0
    text = (out / "kr_report.json").read_text()
    # canonical rendering: re-serializing the parsed document reproduces it
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    assert doc["command"] == "kr"
    assert doc["tool"]["name"] == "sdom"
    assert doc["results"]["value"] == 0.0
    blob = json.dumps(doc["config"], sort_keys=True, separators=(",", ":"))
    assert doc["config_hash"] == hashlib.sha256(blob.encode()).hexdigest()
    lines = (out / "kr_cases.csv").read_text().splitlines()
    assert lines[0] == "case,value,k_max,tail_flag,skipped"
    assert len(lines) == 2


def test_config_errors_accumulate(tmp_path, capsys):
    cfg = {
        "grid": {"n": 3, "L": 5, "origin": [0.0]},
        "kernel": {"variant": "no_such_kernel", "m": 1},
    }
    code, out = run(tmp_path, "kr", cfg)
    err = capsys.readouterr().err
    assert code == 1
    for fragment in ("grid.n", "grid.side", "kernel", "r", "plan"):
        assert fragment in err
    assert err.count("sdom: config error:") >= 5
    assert not out.exists()


def test_h2_delta_guard(tmp_path, capsys):
    cfg = {
        "grid": GRID_1D,
        "kernel": {"variant": "x_independent", "m": 1},
        "r": 1.0,
        "delta": 0.5,
        "plan": {"levels": [2, 3]},
    }
    code, _ = run(tmp_path, "h2", cfg)
    assert code == 1
    assert "must exceed n/r" in capsys.readouterr().err


def test_plan_levels_out_of_range(tmp_path, capsys):
    cfg = {
        "grid": GRID_1D,
        "kernel": {"variant": "x_independent", "m": 1},
        "r": 1.0,
        "plan": {"levels": [2, 9]},
    }
    code, _ = run(tmp_path, "kr", cfg)
    assert code == 1
    assert "plan.levels" in capsys.readouterr().err


def test_dini_default_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_cfg(tmp_path, {"modulus": {"kind": "power", "c": 1.0, "eps": 1.0}})
    assert cli.main(["dini", "--config", cfg_path]) == 0
    doc = json.loads((tmp_path / "dini_report.json").read_text())
    assert abs(doc["results"]["value"] - 1.0) <= 1e-5


def test_reports_refuse_non_finite_numbers(tmp_path, capsys):
    # a NaN the config would carry into the report is refused on read
    cfg = {"modulus": {"kind": "power", "c": 2.0, "eps": 0.5}, "note": float("nan")}
    code, _ = run(tmp_path, "dini", cfg)
    prefix = "sdom: error: config is not valid JSON: NaN is not a finite number"
    assert_one_line_failure(capsys, code, 1, prefix, tmp_path, ["cfg.json"])
    # strict JSON holds no NaN or infinity, so rendering a report refuses one
    with pytest.raises(ArithmeticError, match="^a reported number is not finite$"):
        cli._canonical({"value": float("inf")})


# a number field of each config parser: Infinity there ended in a
# traceback (r, delta) or a failed float-to-integer conversion (exit 2)
NON_FINITE_FIELDS = [
    ("dominate_bank", ("r",)),
    ("build_shifted", ("r",)),
    ("kr_mpt", ("r",)),
    ("separation", ("r",)),
    ("maximal_mdelta", ("delta",)),
    ("kr_mpt", ("kernel", "m")),
    ("h2_mpt_truncated", ("kernel", "ell")),
    ("dominate_bank", ("root", "level")),
    ("weights_power_n2", ("bank", "count_per_shape")),
    ("kr_mpt", ("plan", "pair_depth")),
]


@pytest.mark.parametrize("case, path", NON_FINITE_FIELDS, ids=[f"{c}-{'.'.join(p)}" for c, p in NON_FINITE_FIELDS])
def test_non_finite_config_numbers_are_refused_on_read(tmp_path, capsys, case, path):
    golden = copy.deepcopy(next(c for c in CASES if c["name"] == case))
    cfg = golden["config"]
    holder = functools.reduce(lambda d, key: d[key], path[:-1], cfg)
    assert isinstance(holder[path[-1]], (int, float))
    holder[path[-1]] = math.inf
    code, _ = run(tmp_path, golden["command"], cfg)
    prefix = "sdom: error: config is not valid JSON: Infinity is not a finite number"
    assert_one_line_failure(capsys, code, 1, prefix, tmp_path, ["cfg.json"])


def test_dominate_zero_input(tmp_path):
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "root": {"level": 2, "index": [1]},
        "r": 1.0,
        "inputs": {"kind": "values", "values": [[0.0] * 8, [0.0] * 8]},
    }
    code, out = run(tmp_path, "dominate", cfg)
    assert code == 0
    doc = json.loads((out / "dominate_report.json").read_text())
    assert doc["results"]["domination"]["c_emp"] == 0.0
    assert doc["results"]["family_size"] == 0
    fam = json.loads((out / "dominate_family.json").read_text())
    assert fam["entries"] == []


def test_dominate_c_emp_does_not_depend_on_the_input_scale(tmp_path):
    # at m = 1 every quantity is linear in f, so scaling the input by
    # 1e-170 (|f|^2 underflows) or 1e200 (|f|^2 overflows) keeps c_emp
    def c_emp(scale):
        values = [0.0] * 16
        values[5] = values[7] = scale
        cfg = {
            "grid": {"n": 1, "L": 4, "origin": [0.0], "side": 8.0},
            "kernel": {"variant": "dini_synthetic", "m": 1, "modulus": {"kind": "power", "c": 1.0, "eps": 0.5}},
            "root": {"level": 2, "index": [1]},
            "r": 2.0,
            "inputs": {"kind": "values", "values": [values]},
        }
        work = tmp_path / str(scale)
        work.mkdir()
        code, out = run(work, "dominate", cfg)
        assert code == 0, scale
        return json.loads((out / "dominate_report.json").read_text())["results"]["domination"]["c_emp"]

    ref = c_emp(1.0)
    assert ref > 0.0
    for scale in (1e-170, 1e200):
        assert abs(c_emp(scale) - ref) <= 2 * math.ulp(ref), scale


THREADS_CFG = {
    "grid": {"n": 1, "L": 6, "origin": [0.0], "side": 8.0},
    "kernel": {"variant": "bilinear_odd", "m": 2},
    "root": {"level": 2, "index": [1]},
    "r": 1.0,
    "mode": "dyadic",
    "inputs": {"kind": "bank", "shape": "gauss", "seed": 9, "entry": 0},
}


def test_build_byte_identical_across_threads(tmp_path):
    cfg_path = write_cfg(tmp_path, THREADS_CFG)
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "max")):
        out = tmp_path / tag
        code = cli.main(["build", "--config", cfg_path, "--out", str(out), "--threads", threads])
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "build_cases.csv",
            "build_family.json",
            "build_report.json",
            "build_stats.json",
        ]
        blobs.append([(out / n).read_bytes() for n in names])
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    doc = json.loads((tmp_path / "a" / "build_report.json").read_text())
    assert doc["results"]["verify"]["ok"] is True
    assert doc["results"]["family_size"] >= 1


def test_dominate_byte_identical_across_threads(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, THREADS_CFG)

    def outputs(tag, threads):
        out = tmp_path / tag
        assert cli.main(["dominate", "--config", cfg_path, "--out", str(out), "--threads", threads]) == 0
        names = sorted(os.listdir(out))
        assert names == ["dominate_cases.csv", "dominate_family.json", "dominate_report.json", "dominate_stats.json"]
        return [(out / n).read_bytes() for n in names]

    whole = outputs("whole", "1")
    # x-block tasks of 5 cells whatever the row length, so the root's T f
    # that the domination step reads is joined from several tasks
    monkeypatch.setattr(operators, "_PARALLEL_ROW", 0)
    monkeypatch.setattr(operators, "_XBLOCK", 5)
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "max")):
        assert outputs(tag, threads) == whole
    doc = json.loads((tmp_path / "a" / "dominate_report.json").read_text())
    assert doc["results"]["verify"]["ok"] is True
    assert doc["results"]["family_size"] >= 1


# a 1-D comb kernel (level 2 served by the pair tables, level 3 off the
# offset table's lattice class), a 2-D one-slot kernel and the two-slot kernel
ESTIMATE_CFGS = {
    "mpt_truncated": {
        "grid": {"n": 1, "L": 6, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "mpt_truncated", "m": 1, "beta": 1.0, "r": 2.0, "ell": 1},
        "r": 2.0,
        "plan": {"levels": [2, 3], "pair_depth": 2, "max_pairs": 6},
    },
    "dini_synthetic_2d": {
        "grid": {"n": 2, "L": 3, "origin": [0.0, 0.0], "side": 8.0},
        "kernel": {"variant": "dini_synthetic", "m": 1, "modulus": {"kind": "power", "c": 1.0, "eps": 0.7}},
        "r": 2.0,
        "plan": {"levels": [1, 2], "pair_depth": 1, "max_pairs": 3},
    },
    "bilinear_odd": {
        "grid": {"n": 1, "L": 4, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "r": 1.5,
        "plan": {"levels": [2, 3], "pair_depth": 2, "max_pairs": 3},
    },
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_CFGS))
@pytest.mark.parametrize("command", ["kr", "h2"])
def test_estimates_byte_identical_across_threads(tmp_path, monkeypatch, command, name):
    cfg_path = write_cfg(tmp_path, dict(ESTIMATE_CFGS[name], delta=1.5))

    def outputs(tag, threads):
        out = tmp_path / tag
        assert cli.main([command, "--config", cfg_path, "--out", str(out), "--threads", threads]) == 0
        return [(out / n).read_bytes() for n in sorted(os.listdir(out))]

    whole = outputs("whole", "1")
    # runs of two cubes (eight of the 2-D ones) per task, so that tasks
    # split each level; the pair tables still fit
    monkeypatch.setattr(kernels, "_CHUNK", 1600)
    tasks = []
    inner = kernels.parallel_map
    monkeypatch.setattr(kernels, "parallel_map", lambda fn, items: tasks.append(len(items)) or inner(fn, items))
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "max")):
        assert outputs(tag, threads) == whole
    assert len(tasks) == 3 and min(tasks) >= 3


def test_dominate_off_lattice_evaluates_each_row_once(tmp_path, monkeypatch):
    # golden dominate_mpt_off_lattice: centre differences round, so every
    # offset table is refused before it is evaluated, and the domination
    # step reads the root's T f from the build's root node, so `dominate`
    # evaluates no row that `build` does not; the node below the root
    # reads the root's truncation sums, so each of the root's 8 cells
    # takes one row
    cases = json.loads((ROOT / "tests" / "data" / "cli_golden" / "cases.json").read_text())
    cfg = next(c["config"] for c in cases if c["name"] == "dominate_mpt_off_lattice")
    calls = []
    inner = kernels.eval_batch

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(kernels, "eval_batch", counted)
    monkeypatch.setattr(operators, "eval_batch", counted)
    counts = {}
    for command in ("build", "dominate"):
        del calls[:]
        (tmp_path / command).mkdir()
        code, _ = run(tmp_path / command, command, cfg)
        assert code == 0
        counts[command] = len(calls)
    assert counts == {"build": 8, "dominate": 8}


def test_separation_outputs(tmp_path):
    cfg = {
        "grid": {"n": 1, "L": 10, "origin": [0.0], "side": 8.0},
        "beta": 1.0,
        "r": 2.0,
        "delta": 1.0,
        "ells": [2, 3, 4],
    }
    code, out = run(tmp_path, "separation", cfg)
    assert code == 0
    rows = (out / "separation_cases.csv").read_text().splitlines()
    assert rows[0] == "case,ell,kr_value,h2_value"
    kr = [float(r.split(",")[2]) for r in rows[1:]]
    h2 = [float(r.split(",")[3]) for r in rows[1:]]
    assert len(kr) == 3
    assert max(kr) <= 2.0 * min(kr)
    assert h2[0] < h2[1] < h2[2]
    doc = json.loads((out / "separation_report.json").read_text())
    assert [case["ell"] for case in doc["results"]["cases"]] == [2, 3, 4]


def test_separation_builds_each_shell_table_once(tmp_path, monkeypatch):
    # per ell, each distinct cube's tables come from one _cube_tables call
    # or from the ell's one _shell_pass, and serve both kr and h2; a
    # one-dimensional _cube_tables call never carries pair tables, and
    # nothing carries over from one command to the next
    calls, passes = [], []
    inner, inner_pass = kernels._cube_tables, kernels._shell_pass

    def counted(spec, order, pts, r, center, side, pairs, table):
        calls.append((spec.ell, tuple(center), side))
        assert table is None or table[4] is None
        return inner(spec, order, pts, r, center, side, pairs, table)

    def counted_pass(F, B, r, base, cube, lo, hi, J):
        passes.append(len(set(cube.tolist())))
        return inner_pass(F, B, r, base, cube, lo, hi, J)

    monkeypatch.setattr(kernels, "_cube_tables", counted)
    monkeypatch.setattr(kernels, "_shell_pass", counted_pass)
    cfg = {"grid": {"n": 1, "L": 6, "origin": [0.0], "side": 8.0}, "beta": 1.0, "r": 2.0, "delta": 1.0, "ells": [0, 1]}
    cubes = sum(1 << lam for ell in (0, 1) for lam in (ell + 2, ell + 3, ell + 4))  # levels ell+2 .. ell+4
    reports = []
    for threads in ("1", "2"):
        calls.clear()
        passes.clear()
        code, out = run(tmp_path, "separation", cfg, ["--threads", threads])
        assert code == 0
        assert len(calls) == len(set(calls)) and len(passes) == 2 and calls  # both routes run here
        assert len(calls) + sum(passes) == cubes
        reports.append((out / "separation_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_separation_sums_each_distinct_live_shell_once(tmp_path, monkeypatch):
    # on the golden separation config, of the (pair, shell) keys of the
    # cubes that take the shell pass, those whose runs are all zero are
    # never summed, and the others are summed once per distinct key
    seen = {"keys": 0, "live": 0, "summed": 0}
    inner_pass, inner_seen, inner_sum = kernels._shell_pass, kernels._first_seen, kernels._sum_runs

    def counted_pass(F, B, r, base, cube, lo, hi, J):
        seen["keys"] += int(sum(J[c] + 1 for c in cube.tolist()))
        return inner_pass(F, B, r, base, cube, lo, hi, J)

    def counted_seen(keys):
        if keys.shape[1] == 4:  # the live shell keys
            seen["live"] += len(keys)
        return inner_seen(keys)

    def counted_sum(flat, keys, ufunc):
        seen["summed"] += len(keys)
        return inner_sum(flat, keys, ufunc)

    monkeypatch.setattr(kernels, "_shell_pass", counted_pass)
    monkeypatch.setattr(kernels, "_first_seen", counted_seen)
    monkeypatch.setattr(kernels, "_sum_runs", counted_sum)
    case = next(c for c in CASES if c["name"] == "separation")
    code, _ = run(tmp_path, case["command"], case["config"])
    assert code == 0
    # 1,920 keys in the pass, 1,296 read as zero, and 324 distinct of the 624 others
    assert (seen["keys"], seen["keys"] - seen["live"], seen["summed"]) == (1920, 1296, 324)


def test_maximal_multilinear(tmp_path):
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
        "op": "multilinear",
        "m": 1,
        "mode": "all",
        "inputs": {"kind": "values", "values": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]},
    }
    code, out = run(tmp_path, "maximal", cfg)
    assert code == 0
    doc = json.loads((out / "maximal_report.json").read_text())
    assert doc["results"]["max_value"] == 8.0
    assert doc["results"]["argmax_cell"] == 7
    field = json.loads((out / "maximal_field.json").read_text())
    assert len(field["values"]) == 8


def test_weights_command(tmp_path):
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "x_independent", "m": 1},
        "r": 1.0,
        "weights": [{"kind": "power", "exponent": 0.0}],
        "exponents": [2.0],
        "bank": {"shapes": ["gauss"], "count_per_shape": 2, "seed": 1},
    }
    code, out = run(tmp_path, "weights", cfg)
    assert code == 0
    doc = json.loads((out / "weights_report.json").read_text())
    assert doc["results"]["characteristic"] == 1.0
    assert doc["results"]["bound"] == 1.0
    rows = (out / "weights_cases.csv").read_text().splitlines()
    assert len(rows) == 3


def test_usage_unknown_command(tmp_path):
    with pytest.raises(SystemExit) as ei:
        cli.main(["frobnicate", "--config", str(tmp_path / "x.json")])
    assert ei.value.code == 1


def test_usage_missing_config_flag():
    with pytest.raises(SystemExit) as ei:
        cli.main(["kr"])
    assert ei.value.code == 1


def test_unreadable_config(tmp_path, capsys):
    code = cli.main(["kr", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["kr", "--config", str(path)])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_bad_thread_requests(tmp_path, capsys):
    path = write_cfg(tmp_path, {})
    assert cli.main(["kr", "--config", path, "--threads", "abc"]) == 1
    assert "invalid thread count" in capsys.readouterr().err
    assert cli.main(["kr", "--config", path, "--threads", "0"]) == 1
    assert "must be >= 1" in capsys.readouterr().err


def test_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    def boom():
        raise InvariantViolation("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "kr", lambda c: boom)
    path = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    code = cli.main(["kr", "--config", path, "--out", str(out)])
    assert code == 2
    assert "sdom: invariant violation: synthetic failure" in capsys.readouterr().err
    assert not out.exists()


def assert_one_line_failure(capsys, code, expected_code, prefix, tmp_path, left):
    """Exit code, a single stderr line starting with ``prefix``, and no
    output left: ``tmp_path`` holds exactly the names in ``left``."""
    err = capsys.readouterr().err
    assert code == expected_code
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert sorted(os.listdir(tmp_path)) == sorted(left)


def test_singular_lattice_hit_is_a_config_error(tmp_path, capsys):
    # the boundary-log kernel blows up at x - y = 4, which side 32 and
    # L = 4 put on the lattice two cells apart; the bank input lives on
    # the root's cells 4 to 7, so root row 6 at 13 meets y cell 4 at 9
    cfg = {
        "grid": {"n": 1, "L": 4, "origin": [0.0], "side": 32.0},
        "kernel": {"variant": "mpt", "m": 1, "beta": 1.0, "r": 2.0},
        "root": {"level": 2, "index": [1]},
        "r": 1.0,
        "inputs": {"kind": "bank", "shape": "gauss", "seed": 0, "entry": 0},
    }
    code, _ = run(tmp_path, "dominate", cfg)
    assert_one_line_failure(capsys, code, 1, "sdom: config error: kernel is singular", tmp_path, ["cfg.json"])


def test_output_below_a_regular_file(tmp_path, capsys):
    (tmp_path / "afile").write_text("x")
    cfg_path = write_cfg(tmp_path, {"modulus": {"kind": "power"}})
    code = cli.main(["dini", "--config", cfg_path, "--out", str(tmp_path / "afile" / "sub")])
    prefix = "sdom: error: cannot write output: "
    assert_one_line_failure(capsys, code, 1, prefix, tmp_path, ["afile", "cfg.json"])
    assert (tmp_path / "afile").read_text() == "x"


def test_non_finite_truncation_gap(tmp_path, capsys):
    big = [0.0, 0.0, 1e200, 1e200, 0.0, 0.0, 0.0, 0.0]
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "root": {"level": 2, "index": [1]},
        "r": 1.0,
        "inputs": {"kind": "values", "values": [big, big]},
    }
    code, _ = run(tmp_path, "dominate", cfg)
    prefix = "sdom: numerical failure: truncation gap is not finite"
    assert_one_line_failure(capsys, code, 2, prefix, tmp_path, ["cfg.json"])


@pytest.mark.parametrize("command", ["build", "dominate"])
def test_overflowing_level_values_are_a_numerical_failure(tmp_path, capsys, command):
    # the input product 1e400 overflows on a single-cell root, and the
    # root pass, which runs first, sums it against the zeroed diagonal
    # tuple: T f is 0 * inf, and the root's gap names the cell
    spike = [0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 0.0]
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "root": {"level": 3, "index": [3]},
        "r": 1.0,
        "inputs": {"kind": "values", "values": [spike, spike]},
    }
    code, _ = run(tmp_path, command, cfg)
    prefix = "sdom: numerical failure: truncation gap is not finite at cell 3"
    assert_one_line_failure(capsys, code, 2, prefix, tmp_path, ["cfg.json"])


def test_non_finite_operator_output_in_grand_maximal(tmp_path, capsys):
    # T(f) itself overflows; the grand gap reports that before any gap
    big = [0.0, 0.0, 1e200, 1e200, 0.0, 0.0, 0.0, 0.0]
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
        "op": "grand",
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "inputs": {"kind": "values", "values": [big, big]},
    }
    code, _ = run(tmp_path, "maximal", cfg)
    prefix = "sdom: numerical failure: operator output is not finite"
    assert_one_line_failure(capsys, code, 2, prefix, tmp_path, ["cfg.json"])


def test_negative_dual_average_in_weights(tmp_path, capsys):
    # the dual weight |x|^-40 spans 47 orders of magnitude on this grid,
    # so the two-dimensional inclusion-exclusion of one dyadic cube's
    # prefix sums rounds below zero; its fractional power has no real value
    cfg = {
        "grid": {"n": 2, "L": 4, "origin": [0.0, 0.0], "side": 8.0},
        "kernel": {"variant": "dini_synthetic", "m": 1, "modulus": {"kind": "power", "c": 1.0, "eps": 0.5}},
        "r": 1.0,
        "mode": "dyadic",
        "weights": [{"kind": "power", "exponent": 2.0}],
        "exponents": [1.05],
        "bank": {"shapes": ["spike"], "count_per_shape": 1, "seed": 0},
    }
    code, _ = run(tmp_path, "weights", cfg)
    prefix = "sdom: numerical failure: weight 0: dual average over cells [12, 4] to [15, 7] rounds below zero"
    assert_one_line_failure(capsys, code, 2, prefix, tmp_path, ["cfg.json"])


DINI_M1 = {"variant": "dini_synthetic", "m": 1, "modulus": {"kind": "power", "c": 1.0, "eps": 0.7}}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        # 1/|x - y| ~ 1e100 on cells of side 6e-102: squared differences overflow
        (
            "kr",
            {
                "grid": {"n": 2, "L": 4, "origin": [0.0, 0.0], "side": 1e-100},
                "kernel": DINI_M1,
                "r": 2.0,
                "plan": {"levels": [1, 2], "pair_depth": 1},
            },
            "non-finite shell table at cube centre [",
        ),
        # |x - z| ~ 1e-201 squares to zero, so the decay factor vanishes
        (
            "h2",
            {
                "grid": {"n": 1, "L": 4, "origin": [0.0], "side": 1e-200},
                "kernel": {"variant": "x_independent", "m": 1},
                "r": 2.0,
                "delta": 1.0,
                "plan": {"levels": [1, 2], "pair_depth": 1},
            },
            "|x - z| underflows at cube centre [2.5e-201], pair x = [",
        ),
        # |x - z| ~ 1e299 squares to infinity
        (
            "separation",
            {"grid": {"n": 1, "L": 5, "origin": [0.0], "side": 1e300}, "beta": 1.0, "r": 2.0, "delta": 1.0, "ells": [0, 1]},
            "the decay factor |x - z|^0.5 is inf at cube centre [",
        ),
    ],
)
def test_non_finite_estimates_exit_2_naming_the_sample(tmp_path, capsys, command, cfg, message):
    code, _ = run(tmp_path, command, cfg)
    assert_one_line_failure(capsys, code, 2, f"sdom: numerical failure: {message}", tmp_path, ["cfg.json"])


@pytest.mark.parametrize("command", ["kr", "h2"])
def test_estimates_that_skip_every_tuple_exit_2(tmp_path, capsys, command):
    # every (x - y)^2 underflows on cells of side 6e-202, so each tuple
    # reads as the synthetic kernel's singular point and is skipped
    cfg = {
        "grid": {"n": 1, "L": 4, "origin": [0.0], "side": 1e-200},
        "kernel": DINI_M1,
        "r": 2.0,
        "delta": 1.0,
        "plan": {"levels": [1, 2], "pair_depth": 1},
    }
    if command == "kr":
        del cfg["delta"]
    code, _ = run(tmp_path, command, cfg)
    message = "every slot tuple outside the cube is singular at cube centre [2.5e-201], pair x = [1.875e-201], z = ["
    assert_one_line_failure(capsys, code, 2, f"sdom: numerical failure: {message}", tmp_path, ["cfg.json"])


@pytest.mark.parametrize(
    "side, kernel, bank, message",
    [
        (8.0, "x_independent", {"support": {"level": 1, "index": [0, 1]}}, "cube dimension does not match the grid"),
        (8.0, "x_independent", {"support": {"level": 9, "index": [0]}}, "cube is finer than the grid resolution"),
        (8.0, "x_independent", {"shapes": []}, "bank shapes must not be empty"),
        (1e-310, "zero", {"shapes": ["spike"]}, "cell values must all be finite"),
    ],
    ids=["support_dimension", "support_too_fine", "no_shapes", "spike_overflows"],
)
def test_weights_bank_refusals_are_config_errors(tmp_path, capsys, side, kernel, bank, message):
    cfg = {
        "grid": {"n": 1, "L": 4, "origin": [0.0], "side": side},
        "kernel": {"variant": kernel, "m": 1},
        "r": 1.0,
        "weights": [{"kind": "power", "exponent": 0.0}],
        "exponents": [2.0],
        "bank": {"count_per_shape": 1, **bank},
    }
    code, _ = run(tmp_path, "weights", cfg)
    assert_one_line_failure(capsys, code, 1, f"sdom: config error: bank: {message}", tmp_path, ["cfg.json"])


@pytest.mark.parametrize(
    "cube, pair, message",
    [
        ([[4.0, 1.0], 2.0], [[4.0], [4.25]], "explicit cube/pair dimension does not match the grid"),
        ([[4.0], 2.0], [[6.1], [3.9]], "sample points must lie in the concentric half cube"),
        ([[4.0], 2.0], [[4.25], [4.25]], "all sampled pairs were degenerate (x = z)"),
    ],
    ids=["dimension", "half_cube", "degenerate"],
)
def test_explicit_plan_problems_are_config_errors(tmp_path, capsys, cube, pair, message):
    cfg = {
        "grid": GRID_1D,
        "kernel": {"variant": "x_independent", "m": 1},
        "r": 2.0,
        "plan": {"cubes": [cube], "pairs": [pair]},
    }
    code, _ = run(tmp_path, "kr", cfg)
    assert_one_line_failure(capsys, code, 1, f"sdom: config error: plan: {message}", tmp_path, ["cfg.json"])


MODE_CFGS = {
    "maximal": {"op": "multilinear", "inputs": {"kind": "bank", "shape": "gauss"}},
    "build": {
        "kernel": {"variant": "x_independent", "m": 1},
        "root": {"level": 2, "index": [1, 1]},
        "r": 1.0,
        "inputs": {"kind": "bank", "shape": "gauss"},
    },
    "weights": {
        "kernel": {"variant": "x_independent", "m": 1},
        "r": 1.0,
        "weights": [{"kind": "power", "exponent": 0.5}],
        "exponents": [2.0],
        "bank": {"shapes": ["gauss"], "count_per_shape": 1, "seed": 0},
    },
}
MODE_CFGS["dominate"] = MODE_CFGS["build"]


@pytest.mark.parametrize("command", sorted(MODE_CFGS))
def test_shifted_mode_with_too_few_shifts_is_a_config_error(tmp_path, capsys, command):
    grid = {"n": 2, "L": 3, "origin": [0.0, 0.0], "side": 8.0}
    code, _ = run(tmp_path, command, {"grid": grid, "mode": "shifted:1", **MODE_CFGS[command]})
    prefix = "sdom: config error: mode: shifted family needs one third per grid axis (2), got 1"
    assert_one_line_failure(capsys, code, 1, prefix, tmp_path, ["cfg.json"])


def test_shifted_mode_with_too_many_shifts_is_a_config_error(tmp_path, capsys):
    cfg = {"grid": GRID_1D, "mode": "shifted:1,2", **MODE_CFGS["maximal"]}
    code, _ = run(tmp_path, "maximal", cfg)
    prefix = "sdom: config error: mode: shifted family needs one third per grid axis (1), got 2"
    assert_one_line_failure(capsys, code, 1, prefix, tmp_path, ["cfg.json"])


@pytest.mark.parametrize("command", ["h2", "separation"])
def test_estimator_lattice_too_large_is_a_config_error(tmp_path, capsys, command):
    # two slots at L = 13 is 2^26 tuples (the golden case kr_errors_lattice
    # covers kr); one slot of the boundary-log lattice on a tiny side
    # reaches far beyond the domain
    plan = {"levels": [2], "pair_depth": 1, "max_pairs": 2}
    grid = {"n": 1, "L": 13, "origin": [0.0], "side": 8.0}
    cfgs = {
        "h2": {"grid": grid, "kernel": {"variant": "bilinear_odd", "m": 2}, "r": 2.0, "delta": 1.0, "plan": plan},
        "separation": {
            "grid": {"n": 1, "L": 14, "origin": [0.0], "side": 0.001},
            "beta": 1.0, "r": 2.0, "delta": 1.0, "ells": [2],
        },
    }
    code, _ = run(tmp_path, command, cfgs[command])
    prefix = "sdom: config error: grid.L: quadrature lattice of "
    assert_one_line_failure(capsys, code, 1, prefix, tmp_path, ["cfg.json"])


def test_partial_write_is_removed(tmp_path, monkeypatch, capsys):
    real_open = open
    writes = []

    def open_failing_second_write(path, mode="r", **kwargs):
        if "w" in mode:
            writes.append(path)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
        return real_open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", open_failing_second_write, raising=False)
    code, out = run(tmp_path, "dini", {"modulus": {"kind": "power"}})
    assert_one_line_failure(capsys, code, 1, "sdom: error: cannot write output: ", tmp_path, ["cfg.json", "out"])
    assert [os.path.basename(p) for p in writes] == ["dini_report.json", "dini_cases.csv"]
    assert os.listdir(out) == []


def test_run_warnings_shown_only_on_success(tmp_path, monkeypatch, capsys, recwarn):
    def command(fail):
        def runner():
            warnings.warn("overflow in a runner", RuntimeWarning)
            if fail:
                raise ArithmeticError("value is not finite")
            return {}, ["case"], [], {}

        return lambda c: runner

    monkeypatch.setitem(cli.COMMANDS, "kr", command(fail=True))
    code, _ = run(tmp_path, "kr", {})
    assert_one_line_failure(capsys, code, 2, "sdom: numerical failure: value is not finite", tmp_path, ["cfg.json"])
    assert len(recwarn) == 0
    monkeypatch.setitem(cli.COMMANDS, "kr", command(fail=False))
    code, _ = run(tmp_path, "kr", {})
    assert code == 0
    assert [str(w.message) for w in recwarn] == ["overflow in a runner"]


def test_written_paths_printed(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"modulus": {"kind": "power", "c": 2.0, "eps": 2.0}})
    out = tmp_path / "out"
    assert cli.main(["dini", "--config", cfg_path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert str(out / "dini_report.json") in stdout
    assert str(out / "dini_cases.csv") in stdout


def test_readme_example_runs(tmp_path):
    example = ROOT / "examples" / "dominate.json"
    assert f"```json\n{example.read_text()}```" in (ROOT / "README.md").read_text()
    out = tmp_path / "out"
    assert cli.main(["dominate", "--config", str(example), "--out", str(out)]) == 0
    names = ["dominate_cases.csv", "dominate_family.json", "dominate_report.json", "dominate_stats.json"]
    assert sorted(os.listdir(out)) == names


def test_readme_kr_example_runs(tmp_path):
    example = ROOT / "examples" / "kr.json"
    assert f"```json\n{example.read_text()}```" in (ROOT / "README.md").read_text()
    out = tmp_path / "out"
    assert cli.main(["kr", "--config", str(example), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["kr_cases.csv", "kr_report.json"]
    results = json.loads((out / "kr_report.json").read_text())["results"]
    assert results["samples"] == {"cubes": 12, "pairs": 36} and results["value"] > 0.0


def test_readme_separation_example_runs(tmp_path):
    example = ROOT / "examples" / "separation.json"
    assert f"```json\n{example.read_text()}```" in (ROOT / "README.md").read_text()
    out = tmp_path / "out"
    assert cli.main(["separation", "--config", str(example), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["separation_cases.csv", "separation_report.json"]
    cases = json.loads((out / "separation_report.json").read_text())["results"]["cases"]
    assert [c["ell"] for c in cases] == [2, 3, 4]


def test_readme_weights_example_runs(tmp_path):
    example = ROOT / "examples" / "weights.json"
    assert f"```json\n{example.read_text()}```" in (ROOT / "README.md").read_text()
    out = tmp_path / "out"
    assert cli.main(["weights", "--config", str(example), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["weights_cases.csv", "weights_report.json"]
    results = json.loads((out / "weights_report.json").read_text())["results"]
    assert results["characteristic"] >= 1.0 and len(results["ratios"]) == 6


def test_readme_maximal_example_runs(tmp_path):
    example = ROOT / "examples" / "maximal.json"
    assert f"```json\n{example.read_text()}```" in (ROOT / "README.md").read_text()
    out = tmp_path / "out"
    assert cli.main(["maximal", "--config", str(example), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["maximal_cases.csv", "maximal_field.json", "maximal_report.json"]
    results = json.loads((out / "maximal_report.json").read_text())["results"]
    assert results["op"] == "grand" and results["max_value"] > 0.0


def test_module_entry_points_run_the_cli():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("sdom.cli", "sdom"):
        proc = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0, module
        assert "usage: sdom" in proc.stderr, module


# Runs the CLI on argv[2:]; with argv[1] == "rows", every kernel row is
# evaluated on its own, as if no offset table could serve, and else each
# offset table call prints on stdout whether it built the table.
_ROWS_OR_TABLE = """
import sys
from sdom import cli, kernels
table = kernels.offset_table
def traced(*args):
    out = table(*args)
    print("table", "refused" if out is None else "built")
    return out
kernels.offset_table = (lambda *args: None) if sys.argv[1] == "rows" else traced
sys.exit(cli.main(sys.argv[2:]))
"""


def _rows_and_table(tmp_path, command, cfg):
    """{path: (stdout, stderr, report bytes)} of the run with and without
    offset tables."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    runs = {}
    for path in ("table", "rows"):
        argv = [path, command, "--config", cfg, "--out", str(tmp_path / path), "--threads", "1"]
        proc = subprocess.run([sys.executable, "-c", _ROWS_OR_TABLE, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[path] = (proc.stdout, proc.stderr, (tmp_path / path / f"{command}_report.json").read_bytes())
    return runs


def test_estimator_warnings_do_not_depend_on_the_offset_table(tmp_path):
    # squared differences of 2-D sample points on cells of side 2.5e153
    # overflow; the offset table would serve 1 of the 16 points and its
    # evaluation raises, so every row, and every warning, is eval_batch's
    cfg = write_cfg(tmp_path, {
        "grid": {"n": 2, "L": 3, "origin": [0.0, 0.0], "side": 2e154},
        "kernel": {"variant": "dini_synthetic", "m": 1, "modulus": {"kind": "power", "c": 1.0, "eps": 0.5}},
        "r": 2.0, "delta": 1.5,
        "plan": {"levels": [1], "pair_depth": 1, "max_pairs": 2},
    })
    runs = _rows_and_table(tmp_path, "h2", cfg)
    assert "RuntimeWarning: overflow encountered" in runs["rows"][1]
    assert runs["table"][1:] == runs["rows"][1:]


@pytest.mark.parametrize("command", ["kr", "h2"])
@pytest.mark.parametrize("side", [8.0, 1e103], ids=["served", "overflow"])
def test_bilinear_estimators_do_not_depend_on_the_offset_table(tmp_path, command, side):
    # at side 8 the two-slot table is built and serves every sample point;
    # at side 1e103 den ** 1.5 overflows, so its evaluation raises and
    # every row, and every warning, is eval_batch's
    cfg = {
        "grid": {"n": 1, "L": 5, "origin": [0.0], "side": side},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "r": 1.5,
        "plan": {"levels": [1, 2], "pair_depth": 2, "max_pairs": 3},
    }
    runs = _rows_and_table(tmp_path, command, write_cfg(tmp_path, dict(cfg, delta=1.0) if command == "h2" else cfg))
    assert ("table built" if side == 8.0 else "table refused") in runs["table"][0].splitlines()
    assert ("RuntimeWarning: overflow encountered" in runs["rows"][1]) == (side != 8.0)
    assert runs["table"][1:] == runs["rows"][1:]
