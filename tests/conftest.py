"""Shared fixtures and the brute-force path-enumeration oracle.

The enumerator below is the independent oracle for every small-n DP value:
it walks the full tree of length-n paths with exact rational probabilities
and knows nothing about windows, convolutions, or kernels.
"""

from fractions import Fraction

import numpy as np
import pytest

from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES


def enumerate_marginal(model, x, n):
    """{position: exact probability} of X_n started at x, by full path expansion."""
    cur = {x: Fraction(1)}
    for _ in range(n):
        new = {}
        for pos, mass in cur.items():
            law = model.law_at(pos)
            for v, p in zip(law.values, law.fracs):
                new[pos + v] = new.get(pos + v, Fraction(0)) + mass * p
        cur = new
    return cur


def enumerate_first_passage(dist, x, n_max, absorb_ge=None, absorb_le=None):
    """{(n, y): P[first entry into the absorbing set at n lands at y]} exactly."""
    cur = {x: Fraction(1)}
    out = {}
    for n in range(1, n_max + 1):
        new = {}
        for pos, mass in cur.items():
            for v, p in zip(dist.values, dist.fracs):
                dest = pos + v
                absorbed = ((absorb_ge is not None and dest >= absorb_ge)
                            or (absorb_le is not None and dest <= absorb_le))
                if absorbed:
                    out[(n, dest)] = out.get((n, dest), Fraction(0)) + mass * p
                else:
                    new[dest] = new.get(dest, Fraction(0)) + mass * p
        cur = new
    return out, cur


def _reference_scatter(target, window, arr, base, lo, hi):
    """Add the part of arr (positions base..) landing in [lo, hi] into target;
    returns the slice bounds (s, e) of arr."""
    n, off = len(arr), base - window.lo
    s = 0 if lo <= base else min(lo - base, n)
    e = n if hi - base >= n - 1 else max(hi - base + 1, s)
    target[off + s: off + e] += arr[s:e]
    return s, e


def reference_step(state, model, window, kernels=None, crossed=None):
    """The full-walk step as it was before the step plan: the bounds of every
    slice are worked out again on each step, and an empty medium is skipped.
    ``kernels`` holds the (offset, dense weights) of the left, origin and
    right laws."""
    if kernels is None:
        exact = state.dtype == object
        kernels = [d.dense_kernel(exact) for d in (model.left, model.origin, model.right)]
    lo, hi = window.lo, window.hi
    end = model.convention.left_end
    new = np.zeros(state.shape, dtype=state.dtype)
    lk_lo = lk_hi = 0
    for a, b, (k_lo, kern) in zip((lo, end + 1, 1), (end, 0, hi), kernels):
        part = state[a - lo: b - lo + 1]
        if part.any():
            arr, base = np.convolve(part, kern), a + k_lo
            s, e = _reference_scatter(new, window, arr, base, lo, hi)
            lk_lo += arr[:s].sum() if s else 0
            lk_hi += arr[e:].sum() if e < len(arr) else 0
            if crossed is not None:
                if a > lo:
                    _reference_scatter(crossed, window, arr, base, lo, a - 1)
                if b < hi:
                    _reference_scatter(crossed, window, arr, base, b + 1, hi)
    return new, (lk_lo, lk_hi)


@pytest.fixture
def with_reference_step(monkeypatch):
    """with_reference_step(module, kernels, fn, *args, **kw): fn run with
    ``module.step`` replaced by :func:`reference_step` on ``kernels``."""
    def run(module, kernels, fn, *args, **kw):
        with monkeypatch.context() as mp:
            mp.setattr(module, "step", lambda state, model, window, plan=None, crossed=None:
                       reference_step(state, model, window, kernels, crossed))
            return fn(*args, **kw)
    return run


@pytest.fixture(scope="session")
def fix_zz():
    return FIXTURES["FIX-ZZ"]()


@pytest.fixture(scope="session")
def fix_pn():
    return FIXTURES["FIX-PN"]()


@pytest.fixture(scope="session")
def fix_pz():
    return FIXTURES["FIX-PZ"]()


@pytest.fixture(scope="session")
def fix_zp():
    return FIXTURES["FIX-ZP"]()


@pytest.fixture(scope="session")
def fix_pp():
    return FIXTURES["FIX-PP"]()


@pytest.fixture(scope="session")
def subcase_models():
    return {name: fn() for name, fn in SUBCASE_FIXTURES.items()}
