"""Golden values of the `kr` / `h2` estimators.

`tests/data/estimators_golden.json` holds the reports of the original
mask-based estimators on four fixed configurations: the boundary-log
kernel of acceptance criterion 5 at L=10, one truncated separation case
at L=12, the odd bilinear (m = 2) kernel, and a 2-D synthetic kernel.
The shell engine must reproduce them: floats within 1e-12 relative,
integers and term counts exactly.

Re-record (only when a change is meant to alter the values) with
``PYTHONPATH=src python tests/test_estimators_golden.py``.
"""

import json
import math
import pathlib

import pytest

from sdom.grid import GridSpec
from sdom.kernels import (
    Modulus,
    SamplePlan,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    h2_constant,
    hormander_constant,
    mpt_kernel,
    mpt_truncated_kernel,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "estimators_golden.json"
REL_TOL = 1e-12


def _grid(n, L):
    return GridSpec(n=n, L=L, origin=(0.0,) * n, side=8.0)


# name -> (kernel, grid, plan, [(r, delta)]); every r runs kr, and h2 at its delta
CASES = {
    "mpt-L10": (
        mpt_kernel(1.0, 2.0),
        _grid(1, 10),
        SamplePlan(levels=(2, 3, 4), pair_depth=2, max_pairs=6),
        [(2.0, 1.0)],
    ),
    "mpt_truncated-ell3-L12": (
        mpt_truncated_kernel(1.0, 2.0, 3),
        _grid(1, 12),
        SamplePlan(levels=(5, 6, 7), pair_depth=2, max_pairs=6),
        [(2.0, 1.0)],
    ),
    "bilinear_odd-L7": (
        bilinear_odd_kernel(),
        _grid(1, 7),
        SamplePlan(levels=(2, 3), pair_depth=2, max_pairs=3),
        [(1.0, 1.5), (1.5, 1.0)],
    ),
    "dini_synthetic-2d-L5": (
        dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.7), 1),
        _grid(2, 5),
        SamplePlan(levels=(1, 2), pair_depth=1, max_pairs=3),
        [(2.0, 1.5)],
    ),
}


def run_case(name):
    kernel, grid, plan, runs = CASES[name]
    out = {}
    for r, delta in runs:
        out[f"kr r={r:g}"] = hormander_constant(kernel, grid, r, plan).to_json_dict()
        out[f"h2 r={r:g} delta={delta:g}"] = h2_constant(kernel, grid, r, delta, plan).to_json_dict()
    return out


def rel_dev(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def report_deviation(got, want):
    """Largest relative float deviation; integers and lengths must match."""
    assert got["k_max"] == want["k_max"]
    assert got["skipped"] == want["skipped"]
    assert got["samples"] == want["samples"]
    assert got["tail_flag"] == want["tail_flag"]
    assert len(got["terms"]) == len(want["terms"])
    devs = [rel_dev(got["value"], want["value"])]
    devs += [rel_dev(a, b) for a, b in zip(got["terms"], want["terms"])]
    return max(devs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimators_match_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_case(name)
    assert sorted(got) == sorted(want)
    for key in want:
        dev = report_deviation(got[key], want[key])
        assert dev <= REL_TOL, (key, dev)
        assert math.isfinite(got[key]["value"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1) + "\n")
