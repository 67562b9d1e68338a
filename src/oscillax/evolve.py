"""Exact dynamic programming for the oscillating walk on a truncated window.

Everything here evolves probability vectors indexed by an integer window
[lo, hi].  Mass that steps outside the window is accumulated as *leak*, which
is a rigorous bound on the truncation error of every reported probability.
A rational mode backs the exact-identity tests: after n steps every mass is
an integer over D**n (D = ``common_denominator`` of the laws), so the DP runs
on Python-int numerators with the integer weights p * D, carries cumulative
leak as leak_n = leak_{n-1} * D + lost_n, and returns Fractions.  A rescaled
mode keeps transient sequences representable far past the underflow point of
raw doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConventionMismatch, ValidationError, WindowTooSmall
from .model import Convention, LatticeDist, OscillatingModel, common_denominator, mirror_dist

DEFAULT_LEAK_BUDGET = 1e-10
MAX_ARRAY_BYTES = 1 << 30   # largest single array any engine may allocate


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if not (self.lo < 0 < self.hi):
            raise ValidationError(f"window [{self.lo}, {self.hi}] must straddle 0")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def index(self, pos: int) -> int:
        if not self.lo <= pos <= self.hi:
            raise ValidationError(f"position {pos} outside window [{self.lo}, {self.hi}]")
        return pos - self.lo

    def positions(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def check_margin(self, model: OscillatingModel):
        if self.width < 3 * model.max_jump:
            raise WindowTooSmall(
                f"window width {self.width} below 3x max jump {model.max_jump}"
            )


def default_window(model: OscillatingModel, horizon: int) -> Window:
    """Diffusive sizing: hi = -lo = max(64, 8 ceil(sqrt(N)) * max jump)."""
    half = max(64, 8 * math.ceil(math.sqrt(max(horizon, 1))) * model.max_jump)
    return Window(-half, half)


def check_size(*shapes) -> None:
    """Refuse a call whose largest shape, at 8 bytes an entry, would exceed
    MAX_ARRAY_BYTES; callers check before they allocate anything.  A shape is
    an array's, or a DP's steps x sites, which bounds its work the same way."""
    largest = max(shapes, key=math.prod)
    if 8 * math.prod(largest) > MAX_ARRAY_BYTES:
        raise ValidationError(
            f"an array of shape {tuple(largest)} needs {8 * math.prod(largest) / 2**30:.3g} GiB, "
            f"over the {MAX_ARRAY_BYTES / 2**30:.3g} GiB limit: lower the horizon or the window")


@dataclass
class KernelTable:
    """Indexed family of per-step vectors/matrices plus tracked leak."""

    window: Window
    horizon: int
    data: dict
    leak: np.ndarray
    meta: dict = field(default_factory=dict)


def _zeros(shape, exact: bool):
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


# Fraction(numerator, denominator) elementwise, with broadcasting
_fractions = np.frompyfunc(Fraction, 2, 1)


def walk_plan(model: OscillatingModel, window: Window, exact: bool = False, scale: int = 1):
    """The per-step constants of :func:`step`, one entry per non-empty medium.

    An entry (src, kern, dst, kept, crossings) convolves the medium's sites
    ``src`` with its law's dense kernel ``kern`` (``exact`` and ``scale`` as in
    ``LatticeDist.dense_kernel``): arr[kept] lands on ``dst``, the parts of arr
    before and after ``kept`` leave the window below and above, and each
    (dst, src) pair of ``crossings`` lands in another medium.
    """
    lo, hi, end = window.lo, window.hi, model.convention.left_end
    plan = []
    # the media are [lo, end], [end + 1, 0] and [1, hi]; the origin medium is
    # empty under the two-media convention
    for a, b, law in ((lo, end, model.left), (end + 1, 0, model.origin), (1, hi, model.right)):
        if a > b:
            continue
        k_lo, kern = law.dense_kernel(exact, scale)
        base, n = a + k_lo, b - a + len(kern)   # arr covers base..base + n - 1

        def landing(t_lo, t_hi):   # (dst, arr) slices of what lands in [t_lo, t_hi]
            s = min(max(t_lo - base, 0), n)
            e = max(min(t_hi - base + 1, n), s)
            return slice(base - lo + s, base - lo + e), slice(s, e)

        dst, kept = landing(lo, hi)
        crossings = [landing(c, d) for c, d in ((lo, a - 1), (b + 1, hi)) if c <= d]
        plan.append((slice(a - lo, b - lo + 1), kern, dst, kept, crossings))
    return plan


def step(state, model: OscillatingModel, window: Window, plan=None, crossed=None):
    """One step of the oscillating walk; returns (new_state, leaked).

    ``plan`` is the :func:`walk_plan` of the model and window, built once by
    the caller; it defaults to the float laws, or the Fraction laws for an
    object-dtype state.  leaked is a pair (below_lo, above_hi); conservation
    sum(new) + sum(leaked) == sum(state) holds exactly in rational mode.  If
    ``crossed`` (a window-indexed array) is given, the mass that changes
    medium on this step is added into it at its landing site.
    """
    if plan is None:
        plan = walk_plan(model, window, state.dtype == object)
    new = np.zeros(state.shape, dtype=state.dtype)
    lk_lo = lk_hi = 0
    for src, kern, dst, kept, crossings in plan:
        arr = np.convolve(state[src], kern)
        new[dst] += arr[kept]
        # an empty sum still costs a numpy call
        lk_lo += arr[:kept.start].sum() if kept.start else 0
        lk_hi += arr[kept.stop:].sum() if kept.stop < len(arr) else 0
        if crossed is not None:
            for c_dst, c_src in crossings:
                crossed[c_dst] += arr[c_src]
    return new, (lk_lo, lk_hi)


def transition_matrix(model: OscillatingModel, window: Window) -> np.ndarray:
    """Dense one-step transition matrix of the walk restricted to the window."""
    width = window.width
    check_size((width, width))
    P = np.zeros((width, width))
    for x in range(window.lo, window.hi + 1):
        law = model.law_at(x)
        for v, p in zip(law.values, law.probs):
            y = x + v
            if window.lo <= y <= window.hi:
                P[x - window.lo, y - window.lo] = p
    return P


def marginal_sequence(
    model: OscillatingModel,
    x: int,
    y: int,
    horizon: int,
    window: Optional[Window] = None,
    leak_budget: Optional[float] = DEFAULT_LEAK_BUDGET,
    exact: bool = False,
    rescaled: bool = False,
) -> KernelTable:
    """P_x[X_n = y] for n = 0..horizon with a certified leak bound.

    ``rescaled`` renormalizes the state each step and accumulates the total
    mass on a log scale, so geometrically small transient sequences stay
    representable; log values are reported in data['log_values'].
    """
    if exact and rescaled:
        raise ValidationError("rescaled mode is float-only")
    window = window or default_window(model, horizon)
    window.check_margin(model)
    check_size((horizon + 1,), (window.width,))
    ix, iy = window.index(x), window.index(y)
    # exact: integer numerators over scale = D**n (see the module docstring)
    D = common_denominator(model.left, model.origin, model.right) if exact else 1
    plan = walk_plan(model, window, exact, D)
    dtype = object if exact else float
    state = np.zeros(window.width, dtype=dtype)
    state[ix] = 1
    values = np.zeros(horizon + 1, dtype=dtype)
    values[0] = state[iy]
    log_values = np.full(horizon + 1, -np.inf)
    if x == y:
        log_values[0] = 0.0
    leak, leak_lo, leak_hi = (np.zeros(horizon + 1, dtype=dtype) for _ in range(3))
    log_scale = 0.0
    scale = 1
    for n in range(1, horizon + 1):
        state, (lo_n, hi_n) = step(state, model, window, plan)
        scale *= D
        scale_leak = math.exp(log_scale) if rescaled else 1
        leak_lo[n] = leak_lo[n - 1] * D + lo_n * scale_leak
        leak_hi[n] = leak_hi[n - 1] * D + hi_n * scale_leak
        leak[n] = leak_lo[n] + leak_hi[n]
        if rescaled:
            s = float(state.sum())
            if s <= 0.0:
                values[n:] = 0.0
                break
            state = state / s
            log_scale += math.log(s)
            v = float(state[iy])
            log_values[n] = math.log(v) + log_scale if v > 0 else -np.inf
            values[n] = math.exp(log_values[n]) if log_values[n] > -700 else 0.0
        else:
            values[n] = state[iy]
        if leak_budget is not None and leak[n] / scale > leak_budget:
            raise WindowTooSmall(
                f"cumulative leak {leak[n] / scale:.3e} exceeds budget {leak_budget:.3e} at n={n}"
            )
    if exact:
        scales = np.array([D ** n for n in range(horizon + 1)], dtype=object)
        values, leak, leak_lo, leak_hi = (_fractions(a, scales)
                                          for a in (values, leak, leak_lo, leak_hi))
        state = _fractions(state, scale)
    data = {
        "values": values,
        "final_state": state,
        "leak_below": leak_lo,
        "leak_above": leak_hi,
    }
    if rescaled:
        data["log_values"] = log_values
        data["log_scale"] = log_scale
    return KernelTable(
        window=window,
        horizon=horizon,
        data=data,
        leak=leak,
        meta={"x": x, "y": y, "exact": exact, "rescaled": rescaled},
    )


class Side(Enum):
    FROM_NEGATIVE = "from_negative"
    FROM_POSITIVE = "from_positive"


def passage_regions(side: Side, convention: Convention, dist: LatticeDist, window: Window):
    """((seg_lo, seg_hi), (band_lo, band_hi)): survival segment and arrival band.

    FROM_NEGATIVE under the three-media convention kills the walk on reaching
    >= 0; under the two-media convention on reaching >= 1.  FROM_POSITIVE
    kills on reaching <= 0 under both conventions.  The segment is the part
    of the window the walk survives on; the band is where its first passage
    can land.
    """
    if side is Side.FROM_NEGATIVE:
        end = convention.left_end
        return (window.lo, end), (end + 1, end + dist.max_support)
    return (1, window.hi), (1 + dist.min_support, 0)


@dataclass
class StepKernels:
    """Per-step first-passage kernels Q_n(x, .) of selected rows, on a band.

    Q_n(x, .) charges only the arrival band B = [band[0], band[1]], so the
    history is one (N+1, rows, B) stack R[n, i, j] = Q_n(rows[i], band[0] + j).
    survival[i, n] is the mass of row i still inside its medium after n
    steps, window leak counted as surviving, so survival_n + sum_{k<=n} R_k
    = 1 exactly in rational mode; leak[i, n] is the part that left the window.
    ``states``, when kept, is the (N+1, rows, segment width) history of the
    surviving mass over the survival segment of :func:`passage_regions`.
    """

    rows: list[int]
    band: tuple[int, int]
    R: np.ndarray           # (N+1, rows, B)
    survival: np.ndarray    # (rows, N+1)
    leak: np.ndarray        # (rows, N+1)
    states: Optional[np.ndarray] = None   # (N+1, rows, segment width)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def C(self) -> np.ndarray:
        """The (N+1, B, B) block of the band rows, which must be among ``rows``."""
        return self.R[:, [self.rows.index(y) for y in range(self.band[0], self.band[1] + 1)]]


def first_passage_rows(
    dist: LatticeDist,
    side: Side,
    convention: Convention,
    xs: Sequence[int],
    horizon: int,
    window: Window,
    exact: bool = False,
    keep_states: bool = False,
) -> StepKernels:
    """First-passage kernels Q_n(x, .) for every start x in ``xs``, in one DP.

    The walk with law ``dist`` runs on the survival segment of ``side`` (see
    :func:`passage_regions`) and is killed on leaving it: mass that crosses
    into the arrival band is recorded as arrivals, mass that leaves the
    window on the survival side is leak.  All rows share one (rows x segment)
    state, and a step is one shifted axpy per atom of the law over the span
    the rows can have reached so far.

    Returns the :class:`StepKernels` record of ``xs`` on the arrival band of
    ``side``; ``keep_states`` fills its ``states``.
    """
    xs = list(xs)
    (seg_lo, seg_hi), (band_lo, band_hi) = passage_regions(side, convention, dist, window)
    negative = side is Side.FROM_NEGATIVE
    bound = seg_hi if negative else seg_lo
    for x in xs:
        if (x > bound) if negative else (x < bound):
            raise ConventionMismatch(
                f"start {x} not in survival region ({'<=' if negative else '>='} {bound})")
        if not seg_lo <= x <= seg_hi:
            raise ValidationError(f"start {x} outside the window segment [{seg_lo}, {seg_hi}]")
    rows, width = len(xs), seg_hi - seg_lo + 1
    band_w = max(0, band_hi - band_lo + 1)
    check_size((horizon + 1, rows, width if keep_states else band_w), (rows, width))
    # exact: integer numerators over D**n (see the module docstring)
    D = common_denominator(dist) if exact else 1
    dtype = object if exact else float
    k_lo, kern = dist.dense_kernel(exact, D)
    jumps = [(k_lo + i, p) for i, p in enumerate(kern) if p != 0]
    k_hi = k_lo + len(kern) - 1
    # one buffer, indexed from buf_lo, holds every landing site of a step: the
    # segment, the band next to it and the sites past the window's edge;
    # segment ∪ band is one contiguous run, and a landing outside it has left
    # the window
    buf_lo = min(seg_lo + min(k_lo, 0), band_lo)
    buf = np.zeros((rows, max(seg_hi + max(k_hi, 0), band_hi) - buf_lo + 1), dtype=dtype)
    s, b = seg_lo - buf_lo, band_lo - buf_lo   # segment and band offsets in buf
    kept_lo, kept_hi = min(seg_lo, band_lo) - buf_lo, max(seg_hi, band_hi) - buf_lo
    state = np.zeros((rows, width), dtype=dtype)
    for r, x in enumerate(xs):
        state[r, x - seg_lo] = 1
    arrivals = np.zeros((horizon + 1, rows, band_w), dtype=dtype)
    survival = np.zeros((rows, horizon + 1), dtype=dtype)
    survival[:, 0] = 1
    leak = np.zeros((rows, horizon + 1), dtype=dtype)
    states = None
    if keep_states:
        states = np.zeros((horizon + 1, rows, width), dtype=dtype)
        states[0] = state
    # [lo, hi] holds every segment index that can carry mass; it only ever
    # grows, so zeroing its reach in buf clears everything left there before
    # (an empty xs runs one step on zero rows and returns an empty record)
    lo, hi = min(xs, default=seg_lo) - seg_lo, max(xs, default=seg_lo) - seg_lo
    n = 0  # the last step run, which the exact conversion below needs
    for n in range(1, horizon + 1):
        buf[:, s + lo + min(k_lo, 0):s + hi + max(k_hi, 0) + 1] = 0
        for v, p in jumps:
            # the span [lo, hi] lands on [lo + v, hi + v]
            buf[:, s + lo + v:s + hi + v + 1] += p * state[:, lo:hi + 1]
        arrivals[n] = buf[:, b:b + band_w]
        lost = buf[:, :kept_lo].sum(axis=1) + buf[:, kept_hi + 1:].sum(axis=1)
        lo, hi = max(0, lo + min(k_lo, 0)), min(width - 1, hi + max(k_hi, 0))
        state[:, lo:hi + 1] = buf[:, s + lo:s + hi + 1]
        leak[:, n] = leak[:, n - 1] * D + lost
        survival[:, n] = state.sum(axis=1) + leak[:, n]
        if keep_states:
            states[n] = state
        if not np.any(state[:, lo:hi + 1]):
            survival[:, n + 1:] = survival[:, n:n + 1]
            leak[:, n + 1:] = leak[:, n:n + 1]
            break
    if exact:
        # entries past a break stay over D**n, n the last step run
        scales = np.array([D ** min(m, n) for m in range(horizon + 1)], dtype=object)
        arrivals = _fractions(arrivals, scales[:, None, None])
        survival, leak = _fractions(survival, scales), _fractions(leak, scales)
        if keep_states:
            states = _fractions(states, scales[:, None, None])
    return StepKernels(xs, (band_lo, band_hi), arrivals, survival, leak, states)


def excursion_functions(
    model: OscillatingModel,
    y: int,
    horizon: int,
    window: Window,
    exact: bool = False,
) -> KernelTable:
    """Final-excursion functions V_{n,y}(x) for all x in the window.

    V_{0,y} is the indicator of {y}; for n >= 1, V_{n,y}(x) is the probability
    that the walk started at x stays strictly inside y's medium for n steps and
    sits at y at time n (and 0 for x outside that medium).
    """
    window.check_margin(model)
    check_size((horizon + 1, window.width))
    V = _zeros((horizon + 1, window.width), exact)
    one = Fraction(1) if exact else 1.0
    V[0, window.index(y)] = one
    if not model.two_media and y == 0:
        p00 = model.origin.pmf_frac(0) if exact else model.origin.pmf(0)
        acc = one
        for n in range(1, horizon + 1):
            acc = acc * p00
            V[n, window.index(0)] = acc
        return KernelTable(window, horizon, {"V": V}, _zeros(horizon + 1, exact),
                           meta={"y": y, "exact": exact})
    if y <= model.convention.left_end:
        law, side = model.left, Side.FROM_NEGATIVE
    elif y >= 1:
        law, side = model.right, Side.FROM_POSITIVE
    else:
        raise ValidationError("unreachable")
    # V_{n,y}(x) is the mass at x of the reversed walk started at y and killed
    # on leaving the medium; mass it loses either way is reported as leak
    fp = first_passage_rows(mirror_dist(law), side, model.convention, [y], horizon,
                            window, exact, keep_states=True)
    (seg_lo, seg_hi), _ = passage_regions(side, model.convention, law, window)
    V[1:, window.index(seg_lo): window.index(seg_hi) + 1] = fp.states[1:, 0]
    leak = fp.leak[0] + np.cumsum(fp.R[:, 0].sum(axis=1))
    return KernelTable(window, horizon, {"V": V}, leak,
                       meta={"y": y, "exact": exact})
