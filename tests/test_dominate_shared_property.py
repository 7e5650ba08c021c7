"""`sdom dominate` against the standalone domination constant.

The CLI's ``dominate`` reads T f on the root's cells from the build's
root pass (the third item of ``build_sparse_family``).  Over n and m in
{1, 2}, the dyadic, shifted and all-cubes families, roots of one cell
and larger, and bank or hand-set inputs, that T f must be
``apply_on_cells`` on the root's cells bit for bit, and the CLI's report
must be ``domination_constant`` given that T f.  That includes a
one-cell root and an input whose r-average over the tripled root
vanishes, where the root node emits nothing but the pass still runs.
``dominate`` makes exactly the ``eval_batch`` calls of ``build`` on the
same config: the domination constant evaluates no kernel.
"""

import itertools
import json
import pathlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdom import cli, kernels, operators
from sdom.bank import single_input
from sdom.builder import build_sparse_family, domination_constant
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices
from sdom.kernels import KernelSpec
from sdom.maximal import CubeFamilyMode
from sdom.operators import OperatorSpec, apply_on_cells
from sdom.parallel import set_thread_count

DINI = {"kind": "power", "c": 1.0, "eps": 0.7}
KERNELS = {
    (1, 1): ({"variant": "mpt", "m": 1, "beta": 1.0, "r": 2.0}, {"variant": "dini_synthetic", "m": 1, "modulus": DINI}),
    (2, 1): ({"variant": "bilinear_odd", "m": 2}, {"variant": "dini_synthetic", "m": 2, "modulus": DINI}),
    (1, 2): ({"variant": "dini_synthetic", "m": 1, "modulus": DINI},),
    (2, 2): ({"variant": "dini_synthetic", "m": 2, "modulus": DINI},),
}
VALUES = (0.0, 1.0, -2.5, 3e-3)
CASES = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden" / "cases.json"


def grid_of(cfg):
    g = cfg["grid"]
    return GridSpec(n=g["n"], L=g["L"], origin=tuple(g["origin"]), side=g["side"])


def root_of(cfg):
    return DyadicCube(cfg["root"]["level"], tuple(cfg["root"]["index"]))


@st.composite
def configs(draw):
    m, n = draw(st.sampled_from(sorted(KERNELS)))
    L = draw(st.integers(2, 5 if n == 1 else 3))
    # the tripled root fits when no index sits on the domain's boundary
    level = draw(st.integers(2, L))
    index = [draw(st.integers(1, (1 << level) - 2)) for _ in range(n)]
    shifted = ["shifted:" + ",".join(map(str, t)) for t in itertools.product(range(3), repeat=n) if any(t)]
    mode = draw(st.sampled_from(["dyadic", "all", *shifted]))
    cfg = {
        # side 7 keeps every cell-centre difference off mpt's singular offset 4
        "grid": {"n": n, "L": L, "origin": [-1.0] * n, "side": 7.0},
        "kernel": draw(st.sampled_from(KERNELS[(m, n)])),
        "root": {"level": level, "index": index},
        "r": draw(st.sampled_from([1.0, 2.0])),
        "mode": mode,
    }
    if draw(st.booleans()):
        shape = draw(st.sampled_from(["spike", "indicator", "gauss", "rademacher"]))
        cfg["inputs"] = {"kind": "bank", "shape": shape, "seed": draw(st.integers(0, 99)), "entry": draw(st.integers(0, 3))}
    else:
        cells = cube_flat_indices(grid_of(cfg), root_of(cfg))
        values = []
        for _ in range(m):
            v = np.zeros(1 << (n * L))
            v[cells] = draw(st.lists(st.sampled_from(VALUES), min_size=cells.size, max_size=cells.size))
            values.append(v.tolist())
        cfg["inputs"] = {"kind": "values", "values": values}
    return cfg


def inputs_of(cfg, grid, m, root):
    d = cfg["inputs"]
    if d["kind"] == "bank":
        return single_input(grid, m, d["shape"], seed=d["seed"], entry=d["entry"], support=root)
    return tuple(GridFunction(grid, np.asarray(v)) for v in d["values"])


def run_cli(tmp_path, command, cfg, calls):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / command
    del calls[:]
    try:
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    finally:
        set_thread_count(1)
    return len(calls), json.loads((out / f"{command}_report.json").read_text())["results"]


def golden(name, **changes):
    """The config of a golden CLI case, with fields replaced."""
    cfg = next(c["config"] for c in json.loads(CASES.read_text()) if c["name"] == name)
    return {**cfg, **changes}


ONE_CELL_ROOT = golden("dominate_bank", root={"level": 5, "index": [9]})
ZERO_SECOND_INPUT = golden(
    "dominate_zero_values",
    inputs={"kind": "values", "values": [[0.0, 0.0, 1.0, -2.5, 0.0, 0.0, 0.0, 0.0], [0.0] * 8]},
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=configs())
# the bank seeds of the golden dominate cases and of the build thread test
@example(cfg=golden("dominate_bank"))
@example(cfg=golden("dominate_dini_m1"))
@example(cfg=golden("dominate_mpt_off_lattice"))
@example(cfg=golden("dominate_n2"))
@example(cfg=golden("dominate_shifted"))
@example(cfg=golden("dominate_bank", mode="all", inputs={"kind": "bank", "shape": "gauss", "seed": 9, "entry": 0}))
# a one-cell root, and an input that vanishes
@example(cfg=ONE_CELL_ROOT)
@example(cfg=ZERO_SECOND_INPUT)
def test_cli_dominate_is_the_standalone_domination_constant(cfg, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("dominate")
    grid, root = grid_of(cfg), root_of(cfg)
    op = OperatorSpec(KernelSpec.from_json_dict(cfg["kernel"]), grid)
    fs = inputs_of(cfg, grid, op.kernel.m, root)
    mode = CubeFamilyMode.parse(cfg.get("mode", "dyadic"))
    family, _, tf_root = build_sparse_family(op, fs, root, cfg["r"], mode)
    tf = apply_on_cells(op, fs, cube_flat_indices(grid, root))
    assert tf_root.tobytes() == tf.tobytes()
    want = domination_constant(op, fs, family, cfg["r"], tf).to_json_dict()

    calls = []
    inner = kernels.eval_batch

    def counted(*args):
        calls.append(args)
        return inner(*args)

    with mock.patch.object(kernels, "eval_batch", counted), mock.patch.object(operators, "eval_batch", counted):
        build_calls, _ = run_cli(tmp_path, "build", cfg, calls)
        dominate_calls, got = run_cli(tmp_path, "dominate", cfg, calls)
    assert got["domination"] == want
    assert got["domination"]["c_emp"].hex() == want["c_emp"].hex()
    assert dominate_calls == build_calls
