"""Test-only kernels that no config can name.

``fake_kernel`` returns a spec of a variant the package does not know
and, through pytest's ``monkeypatch``, wraps ``sdom.kernels._eval_values``
for the test's duration so that this one spec evaluates by a given
formula.  Every evaluation goes through ``_eval_values``: ``eval_batch``,
and with it ``apply``, the maximal operators, the estimators and the
direct-sum references in ``reference_estimators``.  So the engine and its
references see the same kernel.  Every other spec evaluates as before.
"""

import numpy as np

from sdom import kernels
from sdom.kernels import KernelSpec


def fake_kernel(monkeypatch, m, formula):
    """A kernel with ``m`` slots whose values are ``formula(x, *ys)``.

    ``x`` is an (n,) point and ``ys`` holds one (..., n) point array per
    slot, as ``eval_batch`` takes them; the formula returns values of
    their broadcast shape.  Non-finite values are the kernel's singular
    points, as ``eval_batch`` reports them.  The spec declares no
    bounded support.
    """
    spec = KernelSpec("test_fake", m)
    real = kernels._eval_values

    def eval_values(s, x, ys):
        if s is not spec:
            return real(s, x, ys)
        vals = formula(x, *ys)
        valid = np.isfinite(vals)
        return np.where(valid, vals, 0.0), valid

    monkeypatch.setattr(kernels, "_eval_values", eval_values)
    return spec
