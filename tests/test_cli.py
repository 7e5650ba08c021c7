import hashlib
import json
import os
import pathlib
import subprocess
import sys

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
    def boom(cfg):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setitem(cli._RUNNERS, "kr", boom)
    path = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    code = cli.main(["kr", "--config", path, "--out", str(out)])
    assert code == 2
    assert "sdom: invariant violation: synthetic failure" in capsys.readouterr().err
    assert not out.exists()


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
