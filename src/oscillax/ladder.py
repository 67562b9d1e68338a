"""Ladder heights, renewal functions, and fluctuation constants of a walk.

Two independent computational routes are provided and cross-checked in tests:

* a first-passage DP for the ladder height/epoch distributions, whose
  truncation at horizon N leaves a reported mass deficit (O(1/sqrt(N)) for a
  centered walk, geometric otherwise);
* killed-walk Green functions obtained from banded linear solves, which give
  the renewal point masses U({z}) directly via time-reversal duality, with
  error O(1/window) instead of O(1/sqrt(horizon)).

The three fluctuation-constant formulas (defining sum, harmonic/occupation
series, ladder-mean) deliberately use disjoint machinery so their agreement
is a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import zeta

from .errors import DeficitTooLarge, NotCentered, ValidationError
from .model import LatticeDist, ZERO_DRIFT_TOL, is_strongly_aperiodic, mirror_dist

SQRT_2PI = math.sqrt(2.0 * math.pi)
SOLVE_WINDOW = 40000   # sites per killed-walk Green solve in ladder_potentials


class LadderVariant(Enum):
    WEAK_ASC = "weak_asc"
    STRICT_ASC = "strict_asc"
    WEAK_DESC = "weak_desc"
    STRICT_DESC = "strict_desc"

    @property
    def ascending(self) -> bool:
        return self in (LadderVariant.WEAK_ASC, LadderVariant.STRICT_ASC)

    @property
    def strict(self) -> bool:
        return self in (LadderVariant.STRICT_ASC, LadderVariant.STRICT_DESC)


def _absorb_threshold(variant: LadderVariant) -> int:
    # first position value that stops the excursion
    return {LadderVariant.WEAK_ASC: 0, LadderVariant.STRICT_ASC: 1,
            LadderVariant.WEAK_DESC: 0, LadderVariant.STRICT_DESC: -1}[variant]


@dataclass
class LadderHeights:
    variant: LadderVariant
    heights: dict
    mass_deficit: float
    epochs: np.ndarray          # P[ladder epoch = n], n = 0..horizon
    tail_heights: dict          # conditional height law over the last dyadic block
    horizon: int

    def mean(self, tail_corrected: bool = True) -> float:
        m = sum(h * p for h, p in self.heights.items())
        if tail_corrected and self.mass_deficit > 0 and self.tail_heights:
            m += self.mass_deficit * sum(h * p for h, p in self.tail_heights.items())
        return m


def ladder_height_dist(
    dist: LatticeDist,
    variant: LadderVariant,
    horizon: int,
) -> LadderHeights:
    """Ladder height distribution by first-passage DP up to a horizon.

    The deficit P[epoch > horizon] is reported, never hidden; tail_heights is
    the empirical conditional height law over the last dyadic block, used for
    deficit-corrected means.
    """
    thr = _absorb_threshold(variant)
    max_j = max(abs(dist.min_support), abs(dist.max_support))
    half = max(64, 8 * math.ceil(math.sqrt(horizon)) * max_j)
    # the band holds every absorbing site, the free first step's atoms included
    if variant.ascending:
        surv_lo, surv_hi = -half, thr - 1
        band = range(thr, dist.max_support + 1)
    else:
        surv_lo, surv_hi = thr + 1, half
        band = range(dist.min_support, thr + 1)
    k_lo, kern = dist.dense_kernel()
    width = surv_hi - surv_lo + 1
    state = np.zeros(width)
    heights = {h: 0.0 for h in band}
    epochs = np.zeros(horizon + 1)
    tail = {h: 0.0 for h in band}
    tail_from = horizon // 2
    # one free step from the origin, then absorption applies
    for v, p in zip(dist.values, dist.probs):
        pos = int(v)
        if (variant.ascending and pos >= thr) or (not variant.ascending and pos <= thr):
            heights[pos] += float(p)
            epochs[1] += float(p)
        elif surv_lo <= pos <= surv_hi:
            state[pos - surv_lo] += float(p)
    for n in range(2, horizon + 1):
        if not state.any():
            break
        arr = np.convolve(state, kern)
        base = surv_lo + k_lo
        new = np.zeros(width)
        s_i, e_i = surv_lo - base, surv_hi - base
        lo_c = max(0, s_i)
        new[base + lo_c - surv_lo: surv_lo - surv_lo + width] = arr[lo_c: e_i + 1]
        for h in band:
            i = h - base
            if 0 <= i < len(arr):
                m = arr[i]
                heights[h] += m
                epochs[n] += m
                if n >= tail_from:
                    tail[h] += m
        state = new
    # deficit counts in-window survivors plus any mass that wandered past the
    # window edge on the survival side (still unabsorbed either way)
    deficit = 1.0 - float(sum(heights.values()))
    total_tail = sum(tail.values())
    tail_heights = {h: v / total_tail for h, v in tail.items() if total_tail > 0}
    heights = {h: p for h, p in heights.items() if p > 0}
    return LadderHeights(variant, heights, deficit, epochs, tail_heights, horizon)


# ---------------------------------------------------------------------------
# Killed-walk Green functions (duality route)
# ---------------------------------------------------------------------------

def killed_green(dist: LatticeDist, lo: int, hi: int, rhs: np.ndarray) -> np.ndarray:
    """X = (I - A)^{-1} rhs for the walk with law ``dist`` killed on leaving [lo, hi].

    A[x, x + v] = mu(v) for x and x + v in the segment, so X(x) sums rhs over
    the visits of the killed walk started at x; the transpose I - A^T is the
    killed matrix of ``mirror_dist(dist)`` on the same segment.  ``rhs`` is a
    vector or a block of columns indexed by lo..hi.  One banded solve, plus
    a second on the segment with its far end (the one away from the origin)
    halved: X = 2 X - X_half on the sites both share removes the O(1/size)
    truncation bias, and the result is clipped at 0.
    """
    maxj = max(abs(dist.min_support), abs(dist.max_support))

    def solve(a, b):
        size = b - a + 1
        # (I - A) in solve_banded layout: ab[maxj + i - j, j] = M[i, j]
        ab = np.zeros((2 * maxj + 1, size))
        ab[maxj] = 1.0
        for v, p in zip(dist.values, dist.probs):
            v = int(v)
            if abs(v) < size:
                ab[maxj - v, max(v, 0): size + min(v, 0)] -= p
        return solve_banded((maxj, maxj), ab, rhs[a - lo: b - lo + 1])

    X = solve(lo, hi)
    a, b = (lo // 2, hi) if hi <= 0 else (lo, hi // 2)
    if a <= b:
        X[a - lo: b - lo + 1] = 2.0 * X[a - lo: b - lo + 1] - solve(a, b)
    return np.clip(X, 0.0, None)


def killed_green_row(dist: LatticeDist, keep_lo: int, keep_hi: int, start: int) -> np.ndarray:
    """g[z] = sum_{n>=0} P[S_1..S_n all in [keep_lo, keep_hi], S_n = z], S_0 = start.

    Row ``start`` of the killed Green function, i.e. the :func:`killed_green`
    solve of the mirrored law against the first-step vector; the n = 0 term
    is added when the start lies inside.
    """
    rhs = np.zeros(keep_hi - keep_lo + 1)
    for v, p in zip(dist.values, dist.probs):
        z = start + int(v)
        if keep_lo <= z <= keep_hi:
            rhs[z - keep_lo] += float(p)
    g = killed_green(mirror_dist(dist), keep_lo, keep_hi, rhs)
    if keep_lo <= start <= keep_hi:
        g[start - keep_lo] += 1.0
    return g


@dataclass
class LadderPotentials:
    """Renewal point masses U({z}) for all four variants, via duality.

    ``U[variant][d]`` is the mass the variant's renewal measure puts on the
    single point at distance d from the origin (z = +d ascending, z = -d
    descending), d = 0..depth.
    """

    dist: LatticeDist
    depth: int
    U: dict
    heights_exact: dict = field(default_factory=dict)

    def V(self, variant: LadderVariant, x: int) -> float:
        """Renewal function: ascending U[0,x), descending U(]-x,0]); V(0)=0."""
        if x <= 0:
            return 0.0
        return float(np.sum(self.U[variant][:x]))

    def height_mean(self, variant: LadderVariant) -> float:
        return sum(h * p for h, p in self.heights_exact[variant].items())


def ladder_potentials(dist: LatticeDist, depth: Optional[int] = None) -> LadderPotentials:
    """Compute U tables by killed-walk Green solves plus duality.

    Duality pairs each variant's renewal measure with survival probabilities of
    the opposite strictness/direction: e.g. the weak-descending U at {-w}
    equals the total time the walk spends at -w before its first strictly
    positive value.  Each solve runs on max(SOLVE_WINDOW, 50 depth) sites and
    is Richardson-refined by :func:`killed_green`.
    """
    maxj = max(abs(dist.min_support), abs(dist.max_support))
    depth = depth if depth is not None else max(2 * maxj + 2, 8)
    W = max(SOLVE_WINDOW, 50 * depth)
    U = {}
    # weak descending U_- <-> stay <= 0 (kill on strict ascent)
    g = killed_green_row(dist, -W, 0, 0)
    U[LadderVariant.WEAK_DESC] = np.array([g[-d + W] for d in range(depth + 1)])
    # strict ascending U_*+ <-> stay >= 1 after step 1 (kill on weak descent)
    g = killed_green_row(dist, 1, W, 0)
    U[LadderVariant.STRICT_ASC] = np.array([1.0] + [g[d - 1] for d in range(1, depth + 1)])
    # weak ascending U_+ <-> stay >= 0 (kill on strict descent)
    g = killed_green_row(dist, 0, W, 0)
    U[LadderVariant.WEAK_ASC] = np.array([g[d] for d in range(depth + 1)])
    # strict descending U_*- <-> stay <= -1 after step 1 (kill on weak ascent)
    g = killed_green_row(dist, -W, -1, 0)
    U[LadderVariant.STRICT_DESC] = np.array([1.0] + [g[-d + W] for d in range(1, depth + 1)])
    pot = LadderPotentials(dist, depth, U)
    pmf = {int(v): float(p) for v, p in zip(dist.values, dist.probs)}
    # heights by the over-the-extremum identity:
    #   P[height = h] = sum_w U_dual({-w}) mu(h + w)   (ascending variants)
    dual = {
        LadderVariant.STRICT_ASC: LadderVariant.WEAK_DESC,
        LadderVariant.WEAK_ASC: LadderVariant.STRICT_DESC,
        LadderVariant.WEAK_DESC: LadderVariant.STRICT_ASC,
        LadderVariant.STRICT_DESC: LadderVariant.WEAK_ASC,
    }
    for variant in LadderVariant:
        thr = _absorb_threshold(variant)
        hs = {}
        Ud = U[dual[variant]]
        if variant.ascending:
            for h in range(thr, dist.max_support + 1):
                hs[h] = sum(Ud[w] * pmf.get(h + w, 0.0) for w in range(0, depth + 1))
        else:
            for h in range(dist.min_support, thr + 1):
                hs[h] = sum(Ud[w] * pmf.get(h - w, 0.0) for w in range(0, depth + 1))
        pot.heights_exact[variant] = {h: p for h, p in hs.items() if p > 0}
    return pot


@dataclass
class LadderData:
    variant: LadderVariant
    height_dist: dict
    mass_deficit: float
    renewal_V: np.ndarray    # V(0..x_max)
    potential_U: np.ndarray  # U({z}) at distance 0..x_max


def renewal_function(
    dist: LatticeDist,
    variant: LadderVariant,
    x_max: int,
    horizon: int,
    deficit_tol: float = 1e-3,
) -> LadderData:
    """U and V tables built from DP ladder heights by convolution powers.

    Strict variants take at most x_max convolution powers because their
    heights are >= 1 in modulus; weak variants reuse the strict table through
    U_weak = U_strict / (1 - alpha), alpha the weak height mass at 0.
    """
    strict_variant = LadderVariant.STRICT_ASC if variant.ascending else LadderVariant.STRICT_DESC
    strict = ladder_height_dist(dist, strict_variant, horizon)
    if strict.mass_deficit > deficit_tol:
        raise DeficitTooLarge(
            f"strict ladder deficit {strict.mass_deficit:.3e} exceeds {deficit_tol:.1e}"
        )
    # When the ladder time is known to be a.s. finite (centered walk, or drift
    # along the ladder direction) the truncated heights are renormalized to a
    # probability law; a defective variant keeps its genuine sub-unit mass.
    proper = (abs(dist.mean) <= ZERO_DRIFT_TOL
              or (variant.ascending and dist.mean > 0)
              or (not variant.ascending and dist.mean < 0))
    scale = 1.0 / (1.0 - strict.mass_deficit) if proper else 1.0
    # distances d >= 1, pmf over d = |h|
    h_pmf = np.zeros(x_max + 1)
    for h, p in strict.heights.items():
        d = abs(h)
        if d <= x_max:
            h_pmf[d] = p * scale
    U = np.zeros(x_max + 1)
    conv = np.zeros(x_max + 1)
    conv[0] = 1.0
    for _ in range(x_max + 1):
        U += conv
        if not conv.any():
            break
        conv = np.convolve(conv, h_pmf)[: x_max + 1]
    deficit = strict.mass_deficit
    if not variant.strict:
        weak = ladder_height_dist(dist, variant, horizon)
        if weak.mass_deficit > deficit_tol:
            raise DeficitTooLarge(
                f"weak ladder deficit {weak.mass_deficit:.3e} exceeds {deficit_tol:.1e}"
            )
        alpha = weak.heights.get(0, 0.0)
        if proper:
            alpha = alpha / (1.0 - weak.mass_deficit)
        U = U / (1.0 - alpha)
        height_dist, deficit = weak.heights, weak.mass_deficit
    else:
        height_dist = strict.heights
    V = np.concatenate([[0.0], np.cumsum(U[:-1])]) if x_max >= 1 else np.zeros(1)
    return LadderData(variant, height_dist, deficit, V, U)


# ---------------------------------------------------------------------------
# Fluctuation constants, three ways
# ---------------------------------------------------------------------------

def nonpositive_probs(dist: LatticeDist, horizon: int) -> np.ndarray:
    """P[S_n <= 0] for n = 1..horizon by free-walk DP."""
    maxj = max(abs(dist.min_support), abs(dist.max_support))
    half = max(64, 8 * math.ceil(math.sqrt(horizon)) * maxj)
    state = np.zeros(2 * half + 1)
    state[half] = 1.0
    k_lo, kern = dist.dense_kernel()
    out = np.zeros(horizon + 1)
    for n in range(1, horizon + 1):
        arr = np.convolve(state, kern)
        base = -half + k_lo
        state = arr[-half - base: half - base + 1]
        out[n] = state[: half + 1].sum()
    return out


@dataclass
class FluctuationConstants:
    c_direct: float
    c_spitzer: float
    c_ladder: float
    sigma: float
    ladder_mean_weak_desc: float
    spitzer_partial: float
    spitzer_tail: float

    def as_tuple(self):
        return self.c_direct, self.c_spitzer, self.c_ladder

    @property
    def max_pairwise_rel_diff(self) -> float:
        cs = self.as_tuple()
        ref = min(cs)
        return (max(cs) - min(cs)) / ref


def fluctuation_constants(
    dist: LatticeDist,
    ladder_horizon: int = 1 << 15,
    spitzer_horizon: int = 1 << 13,
    require_aperiodic: bool = True,
) -> FluctuationConstants:
    """The walk's fluctuation constant by three independent formulas.

    direct:   (1/(sigma sqrt(2 pi))) sum_{w>=1} V_-(w) mu[w, inf)
    harmonic: (1/2)(1/sqrt(pi)) exp(sum_n (P[S_n<=0] - 1/2)/n), tail
              extrapolated assuming P[S_n<=0] - 1/2 ~ a/sqrt(n)
    ladder:   sigma / (2 sqrt(2 pi) |E[weak descending height]|)

    Requires a centered law; the aperiodicity check can be waived (the three
    formulas, being factorization identities, agree even for periodic walks --
    only the local-limit interpretation of c needs parity averaging there).
    """
    if abs(dist.mean) > ZERO_DRIFT_TOL:
        raise NotCentered(f"mean {dist.mean!r} is not 0")
    if require_aperiodic and not is_strongly_aperiodic(dist):
        raise ValidationError("law must be strongly aperiodic")
    sigma = dist.sigma
    pot = ladder_potentials(dist)
    c_direct = sum(
        pot.V(LadderVariant.WEAK_DESC, w) * dist.tail_ge(w)
        for w in range(1, dist.max_support + 1)
    ) / (sigma * SQRT_2PI)

    weak_desc = ladder_height_dist(dist, LadderVariant.WEAK_DESC, ladder_horizon)
    mean_desc = weak_desc.mean(tail_corrected=True)
    c_ladder = sigma / (2.0 * SQRT_2PI * abs(mean_desc))

    probs_le0 = nonpositive_probs(dist, spitzer_horizon)
    ns = np.arange(1, spitzer_horizon + 1)
    t_n = probs_le0[1:] - 0.5
    partial = float(np.sum(t_n / ns))
    top = ns >= spitzer_horizon // 2
    a_est = float(np.mean(t_n[top] * np.sqrt(ns[top])))
    tail = a_est * float(zeta(1.5) - np.sum(ns ** -1.5))
    c_spitzer = 0.5 / math.sqrt(math.pi) * math.exp(partial + tail)
    return FluctuationConstants(
        c_direct=float(c_direct),
        c_spitzer=float(c_spitzer),
        c_ladder=float(c_ladder),
        sigma=sigma,
        ladder_mean_weak_desc=mean_desc,
        spitzer_partial=partial,
        spitzer_tail=tail,
    )
