import json
import pathlib
import warnings

import numpy as np
import pytest

from sdom import kernels, operators
from sdom.grid import DyadicCube, GridFunction, GridSpec, cell_centers, cube_flat_indices, triple_cube
from sdom.kernels import (
    Modulus,
    SingularPointError,
    bilinear_odd_kernel,
    dini_synthetic_kernel,
    eval_batch,
    mpt_kernel,
    zero_kernel,
)
from sdom.operators import OperatorSpec, apply, apply_on_cells

from fake_kernels import fake_kernel
from reference_maximal import apply_truncated
import reference_operators


def test_operator_spec_validation():
    g2 = GridSpec(n=2, L=2, origin=(0.0, 0.0), side=1.0)
    with pytest.raises(ValueError):
        OperatorSpec(bilinear_odd_kernel(), g2)
    with pytest.raises(ValueError):
        OperatorSpec(mpt_kernel(1.0, 2.0), g2)


def test_apply_input_validation():
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    f = GridFunction(g, np.ones(g.num_cells))
    with pytest.raises(ValueError):
        apply(op, (f,))
    other = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    h = GridFunction(other, np.ones(other.num_cells))
    with pytest.raises(ValueError):
        apply(op, (f, h))


def test_zero_kernel_apply():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(zero_kernel(2), g)
    f = GridFunction(g, np.ones(g.num_cells))
    out = apply(op, (f, f))
    assert np.array_equal(out.values, np.zeros(g.num_cells))


def test_spike_reproduces_kernel_values():
    # side 14 keeps the singular offset t = 4 off the center lattice
    g = GridSpec(n=1, L=6, origin=(0.0,), side=14.0)
    k = mpt_kernel(1.0, 2.0)
    op = OperatorSpec(k, g)
    a = 10
    vals = np.zeros(g.num_cells)
    vals[a] = 1.0
    out = apply(op, (GridFunction(g, vals),))
    centers = cell_centers(g)
    for i in range(g.num_cells):
        if i == a:
            assert out.values[i] == 0.0
        else:
            kv, valid = eval_batch(k, centers[i], *np.moveaxis(centers[a][None, None, :], 1, 0))
            assert valid[0]
            assert out.values[i] == kv[0] * g.h


def test_truncation_bitwise_on_supported_inputs():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=1.0)
    q = DyadicCube(2, (1,))
    box = triple_cube(g, q)
    idx = cube_flat_indices(g, box)
    rng = np.random.default_rng(3)
    fs = []
    for _ in range(2):
        v = np.zeros(g.num_cells)
        v[idx] = rng.normal(size=idx.size)
        fs.append(GridFunction(g, v))
    op = OperatorSpec(bilinear_odd_kernel(), g)
    full = apply(op, fs)
    trunc = apply_truncated(op, fs, q)
    assert np.array_equal(full.values, trunc.values)


def test_truncation_drops_outside_support():
    g = GridSpec(n=1, L=5, origin=(0.0,), side=1.0)
    q = DyadicCube(3, (0,))
    box = triple_cube(g, q)
    inside = set(cube_flat_indices(g, box).tolist())
    v = np.zeros(g.num_cells)
    for i in range(g.num_cells):
        if i not in inside:
            v[i] = 1.0
    f = GridFunction(g, v)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    out = apply_truncated(op, (f, f), q)
    assert np.array_equal(out.values, np.zeros(g.num_cells))


def test_multilinearity():
    g = GridSpec(n=1, L=4, origin=(0.0,), side=1.0)
    op = OperatorSpec(bilinear_odd_kernel(), g)
    rng = np.random.default_rng(11)
    f1 = GridFunction(g, rng.normal(size=g.num_cells))
    g1 = GridFunction(g, rng.normal(size=g.num_cells))
    f2 = GridFunction(g, rng.normal(size=g.num_cells))
    a, b = 0.7, -1.3
    mixed = GridFunction(g, a * f1.values + b * g1.values)
    lhs = apply(op, (mixed, f2)).values
    rhs = a * apply(op, (f1, f2)).values + b * apply(op, (g1, f2)).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_singular_off_diagonal_raises(monkeypatch):
    g = GridSpec(n=1, L=3, origin=(0.0,), side=1.0)
    bad = fake_kernel(monkeypatch, 1, lambda x, y: np.full(y.shape[:-1], np.inf))
    op = OperatorSpec(bad, g)
    f = GridFunction(g, np.ones(g.num_cells))
    with pytest.raises(SingularPointError, match="off-diagonal"):
        apply(op, (f,))


def test_offset_table_warns_only_where_rows_warn():
    # 2-D synthetic kernel on cells of side 1.5e-155: K ~ 1/|x - y|^2
    # overflows at offsets of one or two cells, which the x cell (0, 0)
    # never meets against the slot cells (0, 7) and (7, 0), yet the
    # table spans them; so the rows are evaluated one by one, and, as
    # before, no warning is raised
    g = GridSpec(n=2, L=3, origin=(0.0, 0.0), side=1.2e-154)
    op = OperatorSpec(dini_synthetic_kernel(Modulus("power", c=1.0, eps=0.7), 1), g)
    v = np.zeros(g.num_cells)
    v[[7, 56]] = 1.0
    xs = np.array([0])
    fs = (GridFunction(g, v),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_on_cells(op, fs, xs)
        assert got.tobytes() == reference_operators.apply_on_cells(op, fs, xs).tobytes()
    assert np.isfinite(got).all() and got[0] > 0.0


def _count_rows(monkeypatch):
    """Tag each ``eval_batch`` call by the module that makes it: the
    offset table's evaluation in ``sdom.kernels``, a row's in
    ``sdom.operators``."""
    calls = []
    inner = kernels.eval_batch
    for module in (kernels, operators):
        def counted(spec, x, *ys, name=module.__name__):
            calls.append(name)
            return inner(spec, x, *ys)

        monkeypatch.setattr(module, "eval_batch", counted)
    return calls


def test_apply_on_cells_evaluates_one_table_per_call(monkeypatch):
    # the grid and kernel of examples/weights.json: every centre
    # difference is exact, so each call's rows are one table's gathers
    cfg = json.loads((pathlib.Path(__file__).resolve().parents[1] / "examples" / "weights.json").read_text())
    kernel = cfg["kernel"]
    op = OperatorSpec(mpt_kernel(kernel["beta"], kernel["r"]), GridSpec(**{**cfg["grid"], "origin": tuple(cfg["grid"]["origin"])}))
    f = GridFunction(op.grid, np.random.default_rng(3).normal(size=op.grid.num_cells))
    calls = _count_rows(monkeypatch)
    for xs in (np.arange(op.grid.num_cells), np.arange(100, 356), np.array([7])):
        del calls[:]
        apply_on_cells(op, (f,), xs)
        assert calls == ["sdom.kernels"]


def test_apply_on_cells_evaluates_rows_where_the_table_cannot_serve(monkeypatch):
    # the dominate_mpt_off_lattice grid: centre differences round, the
    # table would serve 3 of the 32 cells, so it is refused before it is
    # evaluated and the call evaluates every row on its own
    op = OperatorSpec(mpt_kernel(1.0, 2.0), GridSpec(n=1, L=5, origin=(0.1,), side=14.0))
    f = GridFunction(op.grid, np.random.default_rng(3).normal(size=op.grid.num_cells))
    calls = _count_rows(monkeypatch)
    xs = np.arange(op.grid.num_cells)
    apply_on_cells(op, (f,), xs)
    assert calls == ["sdom.operators"] * xs.size
