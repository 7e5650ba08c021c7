"""The domination constant on the root's cells against the full-domain
reference, and the per-slot singular check against evaluated rows.

Configs draw m and n in {1, 2}, every kernel a config can name, roots
of one cell and larger, inputs supported in the root with zeros among
their values, cell sides down to 1e-200 (where squared differences
underflow) and 8e-110 (where the odd bilinear kernel's denominator
underflows to zero while the tuple stays valid), and an origin of 1e17,
where distinct cells share a centre.

(a) `sdom.builder.domination_constant` must give the report of
``reference_builder.domination_constant`` bit for bit, or raise the same
exception type with the same message.  The one allowed difference: the
reference fails when T f is non-finite outside the root, which the
change no longer computes; there the values on the root must be finite
and the report must be the reference's reading of them.

(b) ``kernels.singular_rows`` must equal ``(~valid).any()`` of the
evaluated row on each row outside the root, and with each row's own
cell left out of every slot, on every row.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_builder as ref
from sdom import operators
from sdom.builder import build_sparse_family, domination_constant
from sdom.grid import DyadicCube, GridFunction, GridSpec, cell_centers, cube_flat_indices
from sdom.kernels import KernelSpec, SingularPointError, eval_batch, singular_rows, zero_kernel
from sdom.operators import OperatorSpec, apply_on_cells
from sdom.sparse import SparseEntry, SparseFamily, sparse_eval

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
# `test_singular_lattice_hit_is_a_config_error`'s hit: x cell 6 against
# y cell 2 at t = 4, after the root's own rows
MPT_HIT = {
    "n": 1,
    "L": 3,
    "side": 8.0,
    "origin": 0.0,
    "kernel": {"variant": "mpt", "m": 1, "beta": 1.0, "r": 2.0},
    "root": (2, [1]),
    "values": [[1.0, 1.0]],
}


def outcome(fn):
    try:
        rep = fn()
    except (SingularPointError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return rep.c_emp.hex(), rep.argmax_cell, rep.support_flag


@settings(max_examples=200, deadline=None)
@given(cfg=configs(), r=st.sampled_from([1.0, 2.0]), block=st.sampled_from([1, 3, 1 << 16]))
@example(cfg=golden(BILINEAR, 1e-200), r=1.0, block=1 << 16)
@example(cfg=golden(DINI_2, 1e-200), r=1.0, block=1 << 16)
@example(cfg=golden(BILINEAR, 8e-110), r=1.0, block=1 << 16)
@example(cfg=MPT_HIT, r=1.0, block=1 << 16)
def test_domination_constant_is_the_full_domain_reference(cfg, r, block):
    op, fs, root = objects(cfg)
    # the zero kernel's family, so that every row's singular check is
    # left to the domination constant, the root's rows included; where
    # even that build stops (centres that collide), the root alone
    try:
        family, _ = build_sparse_family(OperatorSpec(zero_kernel(op.kernel.m), op.grid), fs, root, r)
    except SingularPointError:
        cells = tuple(cube_flat_indices(op.grid, root).tolist())
        family = SparseFamily(op.grid, root, 0.5, (SparseEntry(root, cells, 0.0),))
    expected = outcome(lambda: ref.domination_constant(op, fs, family, r))
    with mock.patch.object(operators, "_PAIR_BLOCK", block):
        got = outcome(lambda: domination_constant(op, fs, family, r))
    if expected == (ArithmeticError, "operator output is not finite") and got != expected:
        idx = cube_flat_indices(op.grid, root)
        tf = np.abs(apply_on_cells(op, fs, np.arange(op.grid.num_cells)))
        assert np.all(np.isfinite(tf[idx])) and not np.all(np.isfinite(tf))
        expected = outcome(lambda: ref.report_on_root(tf, sparse_eval(family, fs, r).values, idx))
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(cfg=configs())
@example(cfg=golden(BILINEAR, 1e-200))
@example(cfg=golden(DINI_2, 1e-200))
@example(cfg=golden(BILINEAR, 8e-110))
@example(cfg=MPT_HIT)
def test_singular_rows_is_the_evaluated_row_check(cfg):
    op, fs, root = objects(cfg)
    grid, m = op.grid, op.kernel.m
    idx = [np.flatnonzero(f.values) for f in fs]
    ys = [cell_centers(grid, i) for i in idx]
    axes = [np.expand_dims(y, tuple(range(1, m - s))) for s, y in enumerate(ys)]  # slot s on axis s
    xs = np.arange(grid.num_cells)
    xc = cell_centers(grid, xs)
    plain, own_left_out = [], []
    for j, x in enumerate(xs.tolist()):
        valid = eval_batch(op.kernel, xc[j], *axes)[1]
        plain.append(bool((~valid).any()))
        for s, i in enumerate(idx):
            valid[(slice(None),) * s + (i == x,)] = True
        own_left_out.append(bool((~valid).any()))
    outside = ~np.isin(xs, cube_flat_indices(grid, root))
    every = [np.ones((int(outside.sum()), i.size), dtype=bool) for i in idx]
    assert singular_rows(op.kernel, xc[outside], *ys, keep=every).tolist() == np.array(plain)[outside].tolist()
    keep = [xs[:, None] != i for i in idx]
    assert singular_rows(op.kernel, xc, *ys, keep=keep).tolist() == own_left_out
