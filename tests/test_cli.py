import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from sdom import cli
from sdom.parallel import set_thread_count
from sdom.sparse import InvariantViolation


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


def test_build_byte_identical_across_threads(tmp_path):
    cfg = {
        "grid": {"n": 1, "L": 6, "origin": [0.0], "side": 8.0},
        "kernel": {"variant": "bilinear_odd", "m": 2},
        "root": {"level": 2, "index": [1]},
        "r": 1.0,
        "mode": "dyadic",
        "inputs": {"kind": "bank", "shape": "gauss", "seed": 9, "entry": 0},
    }
    cfg_path = write_cfg(tmp_path, cfg)
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
    # the boundary-log kernel blows up at |x - y| = 4, which side 8 and
    # L = 3 put on the lattice: x cell 6 at 6.5, y cell 2 at 2.5
    cfg = {
        "grid": {"n": 1, "L": 3, "origin": [0.0], "side": 8.0},
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


def test_module_entry_points_run_the_cli():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("sdom.cli", "sdom"):
        proc = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0, module
        assert "usage: sdom" in proc.stderr, module
