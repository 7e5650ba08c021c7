"""Reference for `sdom.kernels.eval_batch`: the expressions as first
written, with reductions over the short slot and axis dimensions.

`eval_batch` now adds columns term by term instead.  With at most two
slots and two axes every sum has at most two terms, so the two forms
must agree bit for bit; `tests/test_kernels_property.py` checks that.
Only the variants whose expressions changed are covered, plus
``x_independent``, whose values are unchanged, for the diagonal test.
"""

import numpy as np


def _values(spec, x, Y):
    if spec.variant == "x_independent":
        return np.exp(-np.sum(Y * Y, axis=(1, 2))), np.ones(Y.shape[0], dtype=bool)
    if spec.variant == "bilinear_odd":
        u = x[0] - Y[:, :, 0]
        den = np.sum(u * u, axis=1)
        valid = den > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.sum(u, axis=1) / den**1.5
        return np.where(valid, vals, 0.0), valid
    if spec.variant == "dini_synthetic":
        diff = x[None, None, :] - Y
        D = np.sum(np.sqrt(np.sum(diff * diff, axis=2)), axis=1)
        valid = D > 0.0
        Dsafe = np.where(valid, D, 1.0)
        frac = np.log2(Dsafe)
        frac -= np.floor(frac)
        tent = 2.0 * np.minimum(frac, 1.0 - frac)
        mn = spec.m * x.size
        vals = spec.amplitude * spec.modulus(tent) / Dsafe**mn
        return np.where(valid, vals, 0.0), valid
    raise ValueError(f"no reference for {spec.variant!r}")


def eval_batch(spec, x, Y):
    x = np.asarray(x, dtype=float).reshape(-1)
    Y = np.asarray(Y, dtype=float)
    vals, valid = _values(spec, x, Y)
    diag = np.any(np.all(Y == x[None, None, :], axis=2), axis=1)
    valid = valid & ~diag
    return np.where(valid, vals, 0.0), valid
