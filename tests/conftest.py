"""Shared fixtures and the brute-force path-enumeration oracle.

The enumerator below is the independent oracle for every small-n DP value:
it walks the full tree of length-n paths with exact rational probabilities
and knows nothing about windows, convolutions, or kernels.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from oscillax.evolve import KernelTable, StepKernels, _advance, check_size, walk_plan
from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
from oscillax.model import common_denominator

_fraction = np.frompyfunc(Fraction, 2, 1)


def as_fractions(rec, D=None):
    """An exact record's integer numerators as Fractions, num / D**n at step n.

    A ``StepKernels`` or ``KernelTable`` comes back as a copy on Fractions
    over its own D (a final state over D**horizon); an array, with D given,
    is taken to have its steps on axis 0."""
    def over(a, axis=0):
        powers = np.array([D ** n for n in range(a.shape[axis])], dtype=object)
        return _fraction(a, powers.reshape([-1 if i == axis else 1 for i in range(a.ndim)]))

    if isinstance(rec, StepKernels):
        D = rec.D
        return dataclasses.replace(rec, R=over(rec.R), survival=over(rec.survival, 1),
                                   leak=over(rec.leak, 1),
                                   states=None if rec.states is None else over(rec.states))
    if isinstance(rec, KernelTable):
        D = rec.meta["D"]
        data = {k: over(v) for k, v in rec.data.items()}
        if "final_state" in data:
            data["final_state"] = _fraction(rec.data["final_state"], D ** rec.horizon)
        return dataclasses.replace(rec, data=data, leak=over(rec.leak))
    return over(np.asarray(rec, dtype=object))


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
    ``kernels`` holds the (offset, dense weights) of each medium's law."""
    if kernels is None:
        exact = state.dtype == object
        kernels = [d.dense_kernel(exact) for d in model.laws]
    lo, hi = window.lo, window.hi
    ends = [lo - 1] + [m.hi for m in model.media[:-1]] + [hi]
    new = np.zeros(state.shape, dtype=state.dtype)
    lk_lo = lk_hi = 0
    for a, b, (k_lo, kern) in zip([e + 1 for e in ends[:-1]], ends[1:], kernels):
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


def step(state, model, window, plan=None, crossed=None):
    """One step of the oscillating walk on the package's DP engine; returns
    (new_state, leaked).

    ``plan`` is the ``walk_plan`` of the model and window, built once by the
    caller; it defaults to the float laws, or the Fraction laws for an
    object-dtype state.  leaked is a pair (below_lo, above_hi); conservation
    sum(new) + sum(leaked) == sum(state) holds exactly in rational mode.  A
    float step sets every new entry below the smallest normal double to 0, so
    in float mode it holds up to rounding and that flushed mass, which
    ``leaked`` does not count.  If ``crossed`` (a window-indexed array) is
    given, the mass that changes medium on this step is added into it at its
    landing site.
    """
    if plan is None:
        plan = walk_plan(model, window, state.dtype == object, steps=1)
    _, new, F, _ = next(_advance(plan, [plan.below, plan.above, *plan.band_rows], state, 1))
    if crossed is not None:
        crossed[plan.band[0] - window.lo:plan.band[1] - window.lo + 1] += F[0, 2:]
    return new, (F[0, 0], F[0, 1])


def transition_matrix(model, window):
    """Dense one-step transition matrix of the walk restricted to the window."""
    check_size((window.width, window.width))
    return walk_plan(model, window, steps=1).dense(range(window.width)).T


def reference_marginal_sequence(model, x, y, horizon, window, exact=False, rescaled=False):
    """The full-walk DP as ``marginal_sequence`` ran it before the sparse window
    operator, one :func:`reference_step` per step: in rescaled mode the state
    is renormalised after every step, in exact mode it runs on integer
    numerators over D**n.  Returns marginal_sequence's ``data`` (leak under
    "leak") and T, the window-wide crossed row of every step."""
    D = common_denominator(*model.laws) if exact else 1
    kernels = [d.dense_kernel(exact, D) for d in model.laws]
    dtype = object if exact else float
    state = np.zeros(window.width, dtype=dtype)
    state[window.index(x)] = 1
    iy = window.index(y)
    values, leak_lo, leak_hi = (np.zeros(horizon + 1, dtype=dtype) for _ in range(3))
    values[0] = state[iy]
    log_values = np.full(horizon + 1, -np.inf)
    log_values[0] = 0.0 if x == y else -np.inf
    T = np.zeros((horizon + 1, window.width), dtype=dtype)
    log_scale = 0.0
    for n in range(1, horizon + 1):
        state, (lo_n, hi_n) = reference_step(state, model, window, kernels, crossed=T[n])
        scale_leak = math.exp(log_scale) if rescaled else 1
        leak_lo[n] = leak_lo[n - 1] * D + lo_n * scale_leak
        leak_hi[n] = leak_hi[n - 1] * D + hi_n * scale_leak
        if rescaled:
            s = float(state.sum())
            state = state / s
            log_scale += math.log(s)
            v = float(state[iy])
            log_values[n] = math.log(v) + log_scale if v > 0 else -np.inf
            values[n] = math.exp(log_values[n]) if log_values[n] > -700 else 0.0
        else:
            values[n] = state[iy]
    leak = leak_lo + leak_hi
    if exact:   # Fractions, as lists
        values, leak_lo, leak_hi, leak = ([Fraction(a, D ** n) for n, a in enumerate(arr)]
                                          for arr in (values, leak_lo, leak_hi, leak))
        state = [Fraction(a, D ** horizon) for a in state]
    data = {"values": values, "final_state": state, "leak_below": leak_lo,
            "leak_above": leak_hi, "leak": leak}
    if rescaled:
        data["log_values"] = log_values
    return data, T


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
