"""The domination constant on the root's cells against the reference.

Configs draw m and n in {1, 2}, every kernel a config can name, roots
of one cell and larger, inputs supported in the root with zeros among
their values, cell sides down to 1e-200 (where squared differences
underflow) and 8e-110 (where the odd bilinear kernel's denominator
underflows to zero while the tuple stays valid), and an origin of 1e17,
where distinct cells share a centre.

Both sides get T f from ``apply_on_cells`` on the root's cells, and
`sdom.builder.domination_constant` must give the report of
``reference_builder.domination_constant`` bit for bit.  A root row that
is singular or has a non-finite T f never reaches the domination
constant: the build's root pass stops first, with the singular-point
error of ``apply_on_cells`` or a non-finite gap on the root's first
cell, and that is what is checked there.  Rows outside the root are
never evaluated.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_builder as ref
from sdom import operators
from sdom.builder import build_sparse_family, domination_constant
from sdom.grid import DyadicCube, GridFunction, GridSpec, cube_flat_indices
from sdom.kernels import KernelSpec, SingularPointError, zero_kernel
from sdom.operators import OperatorSpec, apply_on_cells
from sdom.sparse import SparseEntry, SparseFamily

MODULI = ({"kind": "power", "c": 1.0, "eps": 0.5}, {"kind": "log", "c": 2.0, "eps": 0.3})
VALUES = (0.0, 1.0, -2.5, 3e-3)


def kernel_dicts(m, n):
    out = [{"variant": "zero", "m": m}, {"variant": "x_independent", "m": m}]
    out += [{"variant": "dini_synthetic", "m": m, "modulus": mod} for mod in MODULI]
    if (m, n) == (2, 1):
        out.append({"variant": "bilinear_odd", "m": 2})
    if (m, n) == (1, 1):
        out.append({"variant": "mpt", "m": 1, "beta": 1.0, "r": 2.0})
        out.append({"variant": "mpt_truncated", "m": 1, "beta": 1.0, "r": 2.0, "ell": 1})
    return out


@st.composite
def configs(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    L = draw(st.integers(2, 5 if n == 1 else 3))
    # the tripled root fits when no index sits on the domain's boundary
    level = draw(st.integers(2, L))
    index = [draw(st.integers(1, (1 << level) - 2)) for _ in range(n)]
    grid = GridSpec(n=n, L=L, origin=(0.0,) * n, side=1.0)
    size = cube_flat_indices(grid, DyadicCube(level, tuple(index))).size
    return {
        "n": n,
        "L": L,
        "side": draw(st.sampled_from([1.0, 8.0, 1e-200, 8e-110])),
        "origin": draw(st.sampled_from([0.0, 0.375, 1e17])),
        "kernel": draw(st.sampled_from(kernel_dicts(m, n))),
        "root": (level, index),
        "values": [draw(st.lists(st.sampled_from(VALUES), min_size=size, max_size=size)) for _ in range(m)],
    }


def objects(cfg):
    """(operator, inputs, root) of a config; ``values`` fill the root's cells."""
    n = cfg["n"]
    grid = GridSpec(n=n, L=cfg["L"], origin=(cfg["origin"],) * n, side=cfg["side"])
    root = DyadicCube(cfg["root"][0], tuple(cfg["root"][1]))
    idx = cube_flat_indices(grid, root)
    fs = []
    for vals in cfg["values"]:
        v = np.zeros(grid.num_cells)
        v[idx] = vals
        fs.append(GridFunction(grid, v))
    return OperatorSpec(KernelSpec.from_json_dict(cfg["kernel"]), grid), tuple(fs), root


def golden(kernel, side):
    """A single-cell root at cell 3 of an 8-cell line, both inputs 1 there."""
    return {"n": 1, "L": 3, "side": side, "origin": 0.0, "kernel": kernel, "root": (3, [3]), "values": [[1.0], [1.0]]}


BILINEAR = {"variant": "bilinear_odd", "m": 2}
DINI_2 = {"variant": "dini_synthetic", "m": 2, "modulus": MODULI[0]}
MPT = {"variant": "mpt", "m": 1, "beta": 1.0, "r": 2.0}
# singular at t = 4 off the root only: x cell 6 against y cell 2
MPT_OFF_ROOT_HIT = {"n": 1, "L": 3, "side": 8.0, "origin": 0.0, "kernel": MPT, "root": (2, [1]), "values": [[1.0] * 2]}
# singular at t = 4 in a root row: x cell 12 against y cell 8
MPT_ROOT_HIT = {"n": 1, "L": 5, "side": 32.0, "origin": 0.0, "kernel": MPT, "root": (2, [1]), "values": [[1.0] * 8]}
# input products of 1e400 overflow: T f is not finite on the root's rows
OVERFLOW = {"n": 1, "L": 3, "side": 8.0, "origin": 0.0, "kernel": BILINEAR, "root": (2, [1]), "values": [[1e200] * 2] * 2}


def outcome(fn):
    """A domination report, floats as hex, or the error's type and text."""
    try:
        rep = fn()
    except (SingularPointError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return rep.c_emp.hex(), rep.argmax_cell, rep.support_flag


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=configs(), r=st.sampled_from([1.0, 2.0]), block=st.sampled_from([1, 3, 1 << 16]))
@example(cfg=golden(BILINEAR, 1e-200), r=1.0, block=1 << 16)
@example(cfg=golden(DINI_2, 1e-200), r=1.0, block=1 << 16)
@example(cfg=golden(BILINEAR, 8e-110), r=1.0, block=1 << 16)
@example(cfg=MPT_OFF_ROOT_HIT, r=1.0, block=1 << 16)
@example(cfg=MPT_ROOT_HIT, r=1.0, block=1 << 16)
@example(cfg=OVERFLOW, r=1.0, block=1 << 16)
def test_domination_constant_is_the_full_domain_reference(cfg, r, block):
    op, fs, root = objects(cfg)
    idx = cube_flat_indices(op.grid, root)
    # the root's rows, and the build's root pass, may divide by zero or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"), mock.patch.object(operators, "_PAIR_BLOCK", block):
        try:
            tf = apply_on_cells(op, fs, idx)
            # the root pass names the first cell whose own T f is not finite
            failure = None if np.all(np.isfinite(tf)) else (ArithmeticError, f"truncation gap is not finite at cell {idx[np.argmin(np.isfinite(tf))]}")
        except SingularPointError as exc:
            failure = SingularPointError, str(exc)
        if failure is not None:  # the build's root pass stops on the same rows
            assert outcome(lambda: build_sparse_family(op, fs, root, r)) == failure
            return
    # the zero kernel's family, whose build cannot stop on the kernel's
    # rows; where even that build stops (centres that collide), the root alone
    try:
        family, _, _ = build_sparse_family(OperatorSpec(zero_kernel(op.kernel.m), op.grid), fs, root, r)
    except SingularPointError:
        family = SparseFamily(op.grid, root, 0.5, (SparseEntry(root, tuple(idx.tolist()), 0.0),))
    want = outcome(lambda: ref.domination_constant(op, fs, family, r, tf))
    assert outcome(lambda: domination_constant(op, fs, family, r, tf)) == want
