"""Ladder heights, renewal functions, and fluctuation constants of a walk.

Two independent computational routes are provided and cross-checked in tests:

* the Wiener-Hopf factorization of 1 - phi(u) into ascending and descending
  ladder factors, read off from the roots of a polynomial of degree a + b for
  a law on [-a, b]: exact up to root-finding error.  Its height laws feed the
  renewal functions of :func:`ladder_potentials`, hence E(x, y), the tail
  sums nu(V), the ladder means and the ladder-mean fluctuation constant;
* killed-walk Green functions obtained from banded linear solves, which give
  the renewal point masses U({z}) via time-reversal duality, with error
  O(1/window): one such row feeds the direct fluctuation constant only.

The three fluctuation-constant formulas (defining sum, harmonic/occupation
series, ladder-mean) deliberately use disjoint machinery so their agreement
is a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import NotCentered, ValidationError
from .model import (
    ZERO_DRIFT_TOL,
    LatticeDist,
    OscillatingModel,
    _require_two_sided,
    is_strongly_aperiodic,
    mirror_dist,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
ZETA_3_2 = 2.612375348685488   # zeta(3/2), float(scipy.special.zeta(1.5)) bit for bit
SOLVE_WINDOW = 40000   # sites of the killed-walk Green solve in direct_constant
# for a law on a sublattice dZ, d > 1, 1 - phi has double roots on the unit
# circle, which root finding splits by about sqrt(machine eps)
UNIT_CIRCLE_TOL = 1e-6


class LadderVariant(Enum):
    """The two ladder processes with tables; the weak ascending and strict
    descending ones of a law are these of ``mirror_dist(law)``."""

    STRICT_ASC = "strict_asc"
    WEAK_DESC = "weak_desc"


# ---------------------------------------------------------------------------
# Killed-walk Green functions (duality route)
# ---------------------------------------------------------------------------

def killed_green(dist: LatticeDist, lo: int, hi: int, rhs: np.ndarray,
                 cuts: tuple[bool, bool]) -> np.ndarray:
    """X = (I - A)^{-1} rhs for the walk with law ``dist`` killed on leaving [lo, hi].

    A[x, x + v] = mu(v) for x and x + v in the segment, so X(x) sums rhs over
    the visits of the killed walk started at x; the transpose I - A^T is the
    killed matrix of ``mirror_dist(dist)`` on the same segment.  ``rhs`` is a
    vector or a block of columns indexed by lo..hi.  ``cuts`` says whether
    the low and the high end are window cuts of an unbounded medium rather
    than ends of the medium; a cut end lies away from the origin (lo <= 0,
    hi >= 0).  One banded solve, exact on a segment with no cut, and else a
    second on the segment with each cut end halved: X = 2 X - X_half on the
    sites both share removes the O(1/size) truncation bias of the cuts.
    The result is clipped at 0.
    """
    from scipy.linalg import solve_banded   # here, so that importing oscillax does not load it

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
    a, b = lo // 2 if cuts[0] else lo, hi // 2 if cuts[1] else hi
    if any(cuts) and a <= b:
        X[a - lo: b - lo + 1] = 2.0 * X[a - lo: b - lo + 1] - solve(a, b)
    return np.clip(X, 0.0, None)


def killed_green_row(dist: LatticeDist, keep_lo: int, keep_hi: int, start: int,
                     cuts: tuple[bool, bool]) -> np.ndarray:
    """g[z] = sum_{n>=0} P[S_1..S_n all in [keep_lo, keep_hi], S_n = z], S_0 = start.

    Row ``start`` of the killed Green function, i.e. the :func:`killed_green`
    solve of the mirrored law against the first-step vector (``cuts`` as
    there); the n = 0 term is added when the start lies inside.
    """
    rhs = np.zeros(keep_hi - keep_lo + 1)
    for v, p in zip(dist.values, dist.probs):
        z = start + int(v)
        if keep_lo <= z <= keep_hi:
            rhs[z - keep_lo] += float(p)
    g = killed_green(mirror_dist(dist), keep_lo, keep_hi, rhs, cuts)
    if keep_lo <= start <= keep_hi:
        g[start - keep_lo] += 1.0
    return g


@dataclass
class LadderPotentials:
    """Renewal measures of the strict ascending and weak descending ladder
    processes from their height laws ``heights[variant]`` = {h: P[H = h]}.

    The weak ascending and strict descending ones of a law are those of
    ``mirror_dist(law)``; :func:`centered_sides` puts each centered medium of
    a model in this left form.
    """

    heights: dict

    def U(self, variant: LadderVariant, length: int) -> np.ndarray:
        """u_d = sum_h P[|H| = h] u_{d-h} + [d = 0], the renewal mass at distance
        d = 0..length-1: one lower-triangular banded Toeplitz solve."""
        from scipy.linalg import solve_banded   # here, so that importing oscillax does not load it

        law = self.heights[variant]
        band = max(abs(h) for h in law)
        # I - T in solve_banded layout, ab[i - j, j] = M[i, j]: diagonal 1 - P[H = 0]
        ab = np.zeros((band + 1, length))
        ab[0] = 1.0
        for h, p in law.items():
            ab[abs(h), : length - abs(h)] -= p
        return solve_banded((band, 0), ab, np.eye(1, length)[0])

    def V(self, variant: LadderVariant, x):
        """Renewal function: ascending U[0,x), descending U(]-x,0]); V(x)=0 for x<=0.

        ``x`` is an int or an int array.
        """
        x = np.asarray(x)
        table = np.append(0.0, np.cumsum(self.U(variant, max(int(np.max(x)), 0))))
        out = table[np.maximum(x, 0)]
        return float(out) if out.ndim == 0 else out

    def height_mean(self, variant: LadderVariant) -> float:
        return sum(h * p for h, p in self.heights[variant].items())


def ladder_potentials(dist: LatticeDist) -> LadderPotentials:
    """The renewal measures of ``dist``'s strict ascending and weak descending
    ladder processes, from the Wiener-Hopf root laws."""
    strict_asc, weak_desc = wiener_hopf_heights(dist)
    return LadderPotentials({LadderVariant.STRICT_ASC: strict_asc,
                             LadderVariant.WEAK_DESC: weak_desc})


def centered_sides(model: OscillatingModel) -> list:
    """Each centered medium of ``model`` in left form: (name, law, potentials, s, theta).

    The right medium's left form is ``mirror_dist`` of its law, whose strict
    ascending and weak descending tables are the right law's strict descending
    and weak ascending ones.  Site x lies at distance theta - s x >= 1 from
    the interface: s = +1 on the left, -1 on the right; theta = hi + 1 on the
    left and 1 - lo on the right, hi and lo the inner ends of the outer
    media.  A drifted medium is left out.
    """
    first, last = model.media[0], model.media[-1]
    sides = (("left", first.law, 1, first.hi + 1),
             ("right", mirror_dist(last.law), -1, 1 - last.lo))
    return [(name, law, ladder_potentials(law), s, theta)
            for name, law, s, theta in sides if abs(law.mean) <= ZERO_DRIFT_TOL]


def centered_tail_sums(model: OscillatingModel, nu: np.ndarray, window) -> list:
    """Each centered side with its tail sum: (name, law, potentials, nu(V_strict_asc)).

    The tail sum is sum_x nu(x) V_strict_asc(theta - s x) over a window-indexed
    measure ``nu``, in the left form of :func:`centered_sides`.  It runs over
    nu's support only: nu is exactly 0 off the arrival band, and V is 0 at
    distances <= 0 (the other medium).
    """
    support = np.flatnonzero(nu)
    xs = window.positions()[support]
    return [(name, law, pot,
             float(sum(nu[support] * pot.V(LadderVariant.STRICT_ASC, theta - s * xs))))
            for name, law, pot, s, theta in centered_sides(model)]


# ---------------------------------------------------------------------------
# Wiener-Hopf factorization (root route)
# ---------------------------------------------------------------------------

def wiener_hopf_heights(dist: LatticeDist) -> tuple[dict, dict]:
    """Strict ascending and weak descending ladder height laws of a centered law.

    For a law on [-a, b], p(u) = u^a (1 - phi(u)) has degree a + b and a
    double root at u = 1, divided out exactly.  The b - 1 remaining roots r_j
    with |r_j| > 1 give 1 - E[u^H+] = (1 - u) prod_j (1 - u / r_j); dividing
    p by that factor leaves u^a (1 - E[u^H-]).  Returns ({h: P[H+ = h]},
    {h: P[H- = h]}) over h = 1..b and h = -a..0.
    """
    if abs(dist.mean) > ZERO_DRIFT_TOL:
        raise NotCentered(f"mean {dist.mean!r} is not 0")
    _require_two_sided(dist)
    a = -dist.min_support
    _, coef = dist.dense_kernel()
    coef = -coef
    coef[a] += 1.0
    # synthetic division by (u - 1)^2: p(1) = p'(1) = 0 leave no remainder
    reduced = np.cumsum(np.cumsum(coef)[:-1])[:-1]
    roots = P.polyroots(reduced)
    if np.any(np.abs(np.abs(roots) - 1.0) < UNIT_CIRCLE_TOL):
        raise ValidationError("1 - phi has a root on the unit circle: support in dZ, d > 1")
    outer = P.polyfromroots(roots[np.abs(roots) > 1.0])
    outer = (outer / outer[0]).real
    asc = P.polymul([1.0, -1.0], outer)
    desc = P.polymul([1.0, -1.0], P.polydiv(reduced, outer)[0])
    strict_asc = {h: float(-asc[h]) for h in range(1, len(asc))}
    weak_desc = {h: float(-desc[h + a]) for h in range(-a, 0)}
    weak_desc[0] = float(1.0 - desc[a])
    return strict_asc, weak_desc


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


def direct_constant(dist: LatticeDist) -> float:
    """(1/(sigma sqrt(2 pi))) sum_{w>=1} V_-(w) mu[w, inf), V_- by duality: the
    weak descending U at {-w} is the time at -w before the first strict ascent."""
    v_weak_desc = np.cumsum(killed_green_row(dist, -SOLVE_WINDOW, 0, 0, (True, False))[::-1])
    return float(sum(
        v_weak_desc[w - 1] * dist.tail_ge(w)
        for w in range(1, dist.max_support + 1)
    ) / (dist.sigma * SQRT_2PI))


def fluctuation_constants(
    dist: LatticeDist,
    spitzer_horizon: int = 1 << 13,
    require_aperiodic: bool = True,
) -> FluctuationConstants:
    """The walk's fluctuation constant by three independent formulas.

    direct:   (1/(sigma sqrt(2 pi))) sum_{w>=1} V_-(w) mu[w, inf)
    harmonic: (1/2)(1/sqrt(pi)) exp(sum_n (P[S_n<=0] - 1/2)/n), tail
              extrapolated assuming P[S_n<=0] - 1/2 ~ a/sqrt(n)
    ladder:   sigma / (2 sqrt(2 pi) |E[weak descending height]|)

    Requires a centered law.  The aperiodicity check can be waived for a law
    whose support generates the integers: the three formulas, being
    factorization identities, agree even for a periodic walk such as the
    nearest-neighbor one -- only the local-limit interpretation of c needs
    parity averaging there.  A law on a sublattice dZ, d > 1, has roots of
    1 - phi on the unit circle and the ladder route raises ValidationError.
    """
    if abs(dist.mean) > ZERO_DRIFT_TOL:
        raise NotCentered(f"mean {dist.mean!r} is not 0")
    if require_aperiodic and not is_strongly_aperiodic(dist):
        raise ValidationError("law must be strongly aperiodic")
    sigma = dist.sigma
    c_direct = direct_constant(dist)

    mean_desc = ladder_potentials(dist).height_mean(LadderVariant.WEAK_DESC)
    c_ladder = sigma / (2.0 * SQRT_2PI * abs(mean_desc))

    probs_le0 = nonpositive_probs(dist, spitzer_horizon)
    ns = np.arange(1, spitzer_horizon + 1)
    t_n = probs_le0[1:] - 0.5
    partial = float(np.sum(t_n / ns))
    top = ns >= spitzer_horizon // 2
    a_est = float(np.mean(t_n[top] * np.sqrt(ns[top])))
    tail = a_est * float(ZETA_3_2 - np.sum(ns ** -1.5))
    c_spitzer = 0.5 / math.sqrt(math.pi) * math.exp(partial + tail)
    return FluctuationConstants(
        c_direct=c_direct,
        c_spitzer=float(c_spitzer),
        c_ladder=float(c_ladder),
        sigma=sigma,
        ladder_mean_weak_desc=mean_desc,
        spitzer_partial=partial,
        spitzer_tail=tail,
    )
