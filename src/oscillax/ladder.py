"""Ladder heights, renewal functions, and fluctuation constants of a walk.

Two independent computational routes are provided and cross-checked in tests:

* the characteristic roots of u^a (1 - phi(u)) for a law on [-a, b]
  (:func:`small_roots`): the Wiener-Hopf factorization of 1 - phi(u) into
  ascending and descending ladder factors, exact up to root-finding error,
  whose height laws feed the renewal functions of :func:`ladder_potentials`,
  hence E(x, y), the tail levels nu(V) / |E H|, the ladder means and the
  ladder-mean fluctuation constant; and :func:`killed_green`, the killed walk's Green
  function on a segment, whose homogeneous runs are combinations of the
  powers of the same roots;
* killed-walk Green rows by block cyclic reduction of the banded I - A
  (:func:`killed_green_row`), which give the renewal point masses U({z})
  via time-reversal duality, with error O(1/window): one such row feeds the
  direct fluctuation constant only.

The three fluctuation-constant formulas (defining sum, harmonic/occupation
series, ladder-mean) deliberately use disjoint machinery so their agreement
is a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NotCentered, ValidationError
from .evolve import Window, check_size
from .model import (
    LatticeDist,
    Medium,
    OscillatingModel,
    _require_two_sided,
    is_strongly_aperiodic,
    mirror_dist,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
ZETA_3_2 = 2.612375348685488   # zeta(3/2), float(scipy.special.zeta(1.5)) bit for bit
SOLVE_WINDOW = 40000   # sites of the killed-walk Green solve in direct_constant
# root finding splits a repeated root by about sqrt(machine eps); roots this
# close (relative) are taken as one repeated root
REPEATED_ROOT_TOL = 1e-6


class LadderVariant(Enum):
    """The two ladder processes with tables; the weak ascending and strict
    descending ones of a law are these of ``mirror_dist(law)``."""

    STRICT_ASC = "strict_asc"
    WEAK_DESC = "weak_desc"


# ---------------------------------------------------------------------------
# Characteristic roots
# ---------------------------------------------------------------------------

class CharacteristicRoots(NamedTuple):
    """The a + b roots of p(u) = u^a (1 - phi(u)) of a law on [-a, b], a, b >= 0.

    ``poly`` holds p's ascending coefficients, which are also the stencil of
    the killed walk: (I - A) X(s) = sum_j poly[j] X(s - a + j) off the ends.
    The roots on the unit circle are the ``period``-th roots of unity, period
    the gcd of the support, each of multiplicity ``order``: 2 for a centered
    law, 1 for a drifted one.  They are divided out exactly, which leaves
    ``reduced``, the ascending coefficients of p(u) / (u^period - 1)^order as
    a polynomial in w = u^period; ``others`` holds every period-th root of
    each root of ``reduced`` (none is 0).  ``repeated`` lists all a + b roots
    as (root, multiplicity) pairs, the unit roots first, roots of ``others``
    within REPEATED_ROOT_TOL of each other merged at their mean.  The small
    roots are those in the closed unit disc.
    """

    poly: np.ndarray
    period: int
    order: int
    reduced: np.ndarray
    others: np.ndarray
    repeated: tuple
    real: bool   # no root is complex


def small_roots(dist: LatticeDist) -> CharacteristicRoots:
    """The :class:`CharacteristicRoots` of ``dist``, computed once per law
    (the last 64 laws are kept; their arrays are read-only)."""
    return _roots(dist.values, dist.probs.tobytes(), dist.centered)


@lru_cache(maxsize=64)
def _roots(values: tuple, probs: bytes, centered: bool) -> CharacteristicRoots:
    from numpy.polynomial import polynomial as P   # here, not at import: it takes 1.5 ms

    a, b = max(-values[0], 0), max(values[-1], 0)
    poly = np.zeros(a + b + 1)
    poly[np.add(values, a)] = -np.frombuffer(probs)
    poly[a] += 1.0
    period, order = math.gcd(*values), 2 if centered else 1
    if not period:
        raise ValidationError("a law that never moves has no killed Green function")
    reduced = poly[::period]
    for _ in range(order):   # synthetic division by w - 1: p(1) = 0 leaves no remainder
        reduced = np.cumsum(reduced)[:-1]
    # polyroots' companion matrix: as wide as the law's jumps, whatever the horizon
    check_size((len(reduced) - 1,) * 2, lower="the law's jump span")
    others = P.polyroots(reduced)
    units = np.exp(2j * np.pi * np.arange(period) / period) if period > 2 else [1.0, -1.0][:period]
    if period > 1:
        others = (others.astype(complex) ** (1.0 / period) * np.array(units)[:, None]).ravel()
    real = period <= 2 and not np.any(np.imag(others))
    if real:
        others = np.real(others)
    groups = []   # [sum of the roots, multiplicity]
    for r in others:
        near = [g for g in groups if abs(r - g[0] / g[1]) <= REPEATED_ROOT_TOL * max(1.0, abs(r))]
        if near:
            near[0][0] += r
            near[0][1] += 1
        else:
            groups.append([r, 1])
    repeated = tuple((complex(u), order) for u in units) + tuple(
        (complex(s / m), m) for s, m in groups)
    for array in (poly, reduced, others):
        array.flags.writeable = False
    return CharacteristicRoots(poly, period, order, reduced, others, repeated, real)


def _basis(roots: CharacteristicRoots, L: int) -> np.ndarray:
    """(L + 1, a + b): a basis of the solutions of X(s) = sum_v mu(v) X(s + v)
    on a run of L + 1 sites t = 0..L, each at most 1 in modulus there.

    A root r of multiplicity m gives r^t (t/L)^k, k < m, if |r| <= 1, and
    r^-(L - t) ((L - t)/L)^k outside the unit disc.  A simple real root
    e^lam near 1 other than 1 itself (|lam| L <= 1, a drifted law's partner
    of the unit root) gives expm1(lam t) / expm1(lam L), which stays apart
    from the constant as lam -> 0.
    """
    t, p = np.arange(L + 1), roots.period
    cols = []
    for j, (r, m) in enumerate(roots.repeated):
        lam = math.log(r.real) if r.imag == 0 and r.real > 0 else math.inf
        inside = abs(r) <= 1.0
        e = t if inside else L - t   # r^t, or r^-(L - t) outside the unit disc
        if j < p:   # the unit root e^(2 pi i j / p), its phase reduced mod 2 pi exactly
            base = 1.0 - 2.0 * (j * t % 2) if p <= 2 else np.exp(2j * np.pi / p * (j * t % p))
        elif m == 1 and abs(lam) * L <= 1.0:
            cols.append(np.expm1(lam * t) / math.expm1(lam * L))
            continue
        elif r.imag:
            base = np.exp((np.log(r) if inside else -np.log(r)) * e)
        else:   # |r|^e, negated at odd e when r < 0
            base = np.exp((1.0 if inside else -1.0) * math.log(abs(r.real)) * e)
            if r.real < 0:
                base[(1 if inside else L + 1) % 2:: 2] *= -1.0
        cols += [base, base * (e / L)][:m] if m <= 2 else [base * (e / L) ** i for i in range(m)]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Killed-walk Green functions
# ---------------------------------------------------------------------------

def _refined(solve, law: LatticeDist, medium: Medium, window: Window,
             rhs: np.ndarray) -> np.ndarray:
    """``solve(law, rhs)``, a killed-walk solve on len(rhs) sites, on the
    medium's segment of ``window``, with each cut end refined and the result
    clipped at 0.  A cut end is a segment end that is the window's edge, not
    the medium's own end: a second solve on the segment with each cut end
    halved, and X = 2 X - X_half on the sites both share, removes the
    O(1/size) truncation bias of the cuts.  A window straddles 0, so a
    halved cut end stays inside."""
    lo, hi = medium.segment(window)
    X = solve(law, rhs)
    a, b = lo // 2 if medium.lo is None else lo, hi // 2 if medium.hi is None else hi
    if (medium.lo is None or medium.hi is None) and a <= b:
        X[a - lo: b - lo + 1] = 2.0 * X[a - lo: b - lo + 1] - solve(law, rhs[a - lo: b - lo + 1])
    return np.clip(X, 0.0, None)


def _roots_solve(dist: LatticeDist, rhs: np.ndarray) -> np.ndarray:
    """(I - A)^{-1} rhs for ``dist`` killed on leaving a segment of len(rhs) sites.

    Off rhs's support X solves X(s) = sum_v mu(v) X(s + v), so on a run of
    such rows, with the a sites before it and the b after, X is a
    combination of :func:`_basis`.  The rows within max(a, b) of the
    support are kept as unknowns (blocks, merged across gaps of at most
    a + b rows), each run between them gets a + b root coefficients, and
    one dense system states the recurrence on the block rows and, on each
    side of a run, that its combination is 0 off the segment and X on a
    block.  When the blocks cover the segment it is the plain dense solve
    of (I - A) X = rhs.
    """
    n = len(rhs)
    cols = rhs.reshape(n, -1)
    a, b = max(-dist.min_support, 0), max(dist.max_support, 0)
    k, reach = a + b, max(a, b)
    blocks = []   # [first, last] row of each block
    for h in np.flatnonzero(cols.any(axis=1)).tolist():
        if blocks and h - reach <= blocks[-1][1] + k + 1:
            blocks[-1][1] = min(h + reach, n - 1)
        else:
            blocks.append([max(h - reach, 0), min(h + reach, n - 1)])
    if not blocks:
        return np.zeros(rhs.shape)
    ends = [-1] + [x for block in blocks for x in block] + [n]
    runs = [(p + 1, q - 1) for p, q in zip(ends[::2], ends[1::2]) if p + 1 <= q - 1]
    sizes = [q - p + 1 for p, q in blocks]
    if sum(sizes) + k * len(runs) >= n:   # the blocks cover the segment
        check_size((n, n))
        blocks, runs, sizes = [[0, n - 1]], [], [n]
    roots = small_roots(dist)
    first = np.cumsum([0] + sizes + [k] * len(runs))   # the first unknown of each piece
    x = [slice(first[j], first[j + 1]) for j in range(len(blocks))]
    c = [slice(f, f + k) for f in first[len(blocks):-1]]
    D = [_basis(roots, q - p + k) for p, q in runs]   # on each run with its sides
    M = np.zeros((first[-1],) * 2, float if roots.real or not runs else complex)
    B = np.zeros((first[-1], cols.shape[1]), M.dtype)
    after = {q: r for r, (p, q) in enumerate(runs)}   # the run that ends at a site
    before = {p: r for r, (p, q) in enumerate(runs)}   # the run that starts at a site
    for (p, q), xj in zip(blocks, x):
        i = np.arange(q - p + 1)[:, None]
        T = np.zeros((len(i), len(i) + k))   # the block rows of I - A, on a sites before to b after
        T[i, i + np.arange(k + 1)] = roots.poly
        M[xj, xj] = T[:, a: a + len(i)]
        B[xj] = cols[p: q + 1]
        if p - 1 in after:   # the a sites before the block: the run's combination
            r = after[p - 1]
            M[xj, c[r]] = T[:, :a] @ D[r][len(D[r]) - k: len(D[r]) - b]
            np.fill_diagonal(M[c[r].start + a: c[r].stop, xj], -1.0)
        if q + 1 in before:   # the b sites after it
            r = before[q + 1]
            M[xj, c[r]] = T[:, len(i) + a:] @ D[r][a: k]
            np.fill_diagonal(M[c[r].start: c[r].start + a, xj.stop - a: xj.stop], -1.0)
    for cr, Dr in zip(c, D):   # each side of a run: its combination there is 0 or X
        M[cr.start: cr.start + a, cr] = Dr[:a]
        M[cr.start + a: cr.stop, cr] = Dr[len(Dr) - b:]
    sol = np.linalg.solve(M, B)
    X = np.empty(cols.shape)
    for (p, q), xj in zip(blocks, x):
        X[p: q + 1] = sol[xj].real
    for (p, q), cr, Dr in zip(runs, c, D):
        X[p: q + 1] = (Dr[a: len(Dr) - b] @ sol[cr]).real
    return X.reshape(rhs.shape)


def killed_green(medium: Medium, window: Window, rhs: np.ndarray) -> np.ndarray:
    """X = (I - A)^{-1} rhs for the walk with the medium's law killed on
    leaving its segment of ``window``.

    A[x, x + v] = mu(v) for x and x + v in the segment, so X(x) sums rhs over
    the visits of the killed walk started at x; the transpose I - A^T is the
    killed matrix of ``mirror_dist(medium.law)`` on the same segment.
    ``rhs`` is a vector or a block of columns indexed by the segment's sites.
    One solve by characteristic roots (:func:`_roots_solve`), exact on a
    bounded medium, and else a second on the segment with each cut end
    halved (:func:`_refined`).  The result is clipped at 0.
    """
    return _refined(_roots_solve, medium.law, medium, window, rhs)


def _block_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for a p x p block X and p rows Y, each entry summed over j in
    order, so that a block row goes through the same arithmetic whichever
    rows it is taken with."""
    out = X[:, 0, None] * Y[0]
    for j in range(1, len(X)):
        out += X[:, j, None] * Y[j]
    return out


def _gauss_jordan(W: np.ndarray) -> np.ndarray:
    """[D | R] -> [M | D^{-1} R] in place, by Gauss-Jordan elimination
    without pivoting: D is an M-matrix block, whose pivots are all positive;
    one that is not means D is singular.  Column j of M holds step j's pivot
    and multipliers, which :func:`_sweep` replays on a right-hand side."""
    p = len(W)
    for j in range(p):
        pivot = W[j, j]
        if not pivot > 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        W[j, j + 1:] /= pivot
        for rows in (slice(0, j), slice(j + 1, p)):   # every row but j
            W[rows, j + 1:] -= W[rows, j, None] * W[j, j + 1:]
    return W


def _sweep(W: np.ndarray, Y: np.ndarray) -> None:
    """Y -> D^{-1} Y in place, for columns Y of p rows and W a table that
    :func:`_gauss_jordan` eliminated: its steps, replayed on Y."""
    p = len(Y)
    for j in range(p):
        Y[j] /= W[j, j]
        for rows in (slice(0, j), slice(j + 1, p)):
            Y[rows] -= W[rows, j, None] * Y[j]


def _kind(runs: list, row: int) -> int:
    """The kind of block row ``row``, given the (start, stop, kind) runs of rows."""
    return next(k for a, b, k in runs if a <= row < b)


def _cyclic_solve(law: LatticeDist, rhs: np.ndarray) -> np.ndarray:
    """(I - A)^{-1} rhs for ``law`` killed on leaving a segment of len(rhs)
    sites, by block cyclic reduction on the distinct blocks.

    Cut into p x p blocks, p the law's largest jump (at least 1), the banded
    Toeplitz I - A is block tridiagonal: block row k is D_k x_k + L_k x_{k-1}
    + U_k x_{k+1} = b_k, and the sites past the segment's end are padded
    with identity rows, so that their unknowns are 0.  Each level solves the
    odd block rows for their unknowns, x_k = y_k - F_k x_{k-1} - G_k x_{k+1}
    with [F | G | y] = D^{-1} [L | U | b], and eliminates them from the even
    rows, which leaves a block tridiagonal system of half the size;
    back-substitution runs the levels in reverse.

    The blocks [D | L | U] of a level take at most three values, its kinds:
    the interior rows share one, and the first and the last row (at first,
    the padded last block) have their own.  A level holds one p x 3p table
    per kind and the runs of block rows of one kind; an even row's next
    kind is set by the kinds of its left, own and right rows.  So
    Gauss-Jordan and the Schur-complement products run once per kind,
    O(p^3 log m) work for m = ceil(n / p) blocks, and only the right-hand
    sides, with the odd rows' y kept for back-substitution, go row by row, a
    run at a time: O(p^2 n) work and O(p n + p^2 log m) memory.  I - A is a
    nonsingular M-matrix (A >= 0 and the walk always leaves the segment),
    and so is every block and Schur complement of it (Heller, SIAM J.
    Numer. Anal. 13, 1976), so no pivoting is needed; a law that never moves
    makes I - A singular and raises LinAlgError.
    """
    n, p = len(rhs), max(-law.min_support, law.max_support, 1)
    m = -(-n // p)
    check_size((3 * (m.bit_length() + 1), p, 3 * p))   # the tables: 3 kinds a level at most
    d, l, u = slice(0, p), slice(p, 2 * p), slice(2 * p, 3 * p)   # a table's column groups
    S = np.zeros((p, 3 * p))   # a block row of I - A: L, D and U side by side
    r = np.arange(p)
    S[r, p + r] = 1.0
    for v, q in zip(law.values, law.probs):
        S[r, p + r + v] -= q
    tables = [S[:, np.r_[p: 2 * p, :p, u]]]   # [D | L | U] of each kind
    runs = [(0, m, 0)]   # (start, stop, kind) of each run of block rows of one kind
    if pad := m * p - n:   # the last block's rows p - pad.. lie past the end: x = 0 there
        tables.append(tables[0].copy())
        tables[1][p - pad:] = 0.0
        tables[1][p - pad:, p - pad: p] = np.eye(pad)
        runs = [(0, m - 1, 0), (m - 1, m, 1)]
    y = np.concatenate([rhs, np.zeros(pad)]).reshape(m, p).T   # column k: block row k's b
    levels = []   # per level: the odd rows' y, their runs of kinds, [F | G] of each kind
    while m > 1:
        me = m - m // 2
        odd, even = y[:, 1::2].copy(), y[:, ::2].copy()
        odd_runs = [(a // 2, b // 2, k) for a, b, k in runs if a // 2 < b // 2]
        solved = {k: _gauss_jordan(tables[k].copy()) for *_, k in odd_runs}
        for a, b, k in odd_runs:
            _sweep(solved[k], odd[:, a: b])
        # even row i's (left, own, right) kinds, None for no such row, change
        # only where row 2i - 1, 2i or 2i + 1 enters a run, or 2i + 1 = m
        cuts = sorted({m // 2, *(a // 2 + e for a, *_ in runs for e in (0, 1))} - {me})
        even_runs = []
        for a, b in zip(cuts, [*cuts[1:], me]):
            kinds = (_kind(runs, 2 * a - 1) if a else None, _kind(runs, 2 * a),
                     _kind(runs, 2 * a + 1) if 2 * a + 1 < m else None)
            if even_runs and even_runs[-1][2] == kinds:
                a = even_runs.pop()[0]
            even_runs.append((a, b, kinds))
        new_tables = {}
        for a, b, kinds in even_runs:
            lk, sk, rk = kinds
            T = tables[sk]
            if lk is not None:   # x_{k-1} = y - F x_{k-2} - G x_k, put into L x_{k-1}
                even[:, a: b] -= _block_product(T[:, l], odd[:, a - 1: b - 1])
            if rk is not None:   # and x_{k+1} into U x_{k+1}
                even[:, a: b] -= _block_product(T[:, u], odd[:, a: b])
            if kinds not in new_tables:
                new = new_tables[kinds] = T.copy()
                if lk is not None:
                    FG = _block_product(T[:, l], solved[lk][:, p:])
                    new[:, d] -= FG[:, p:]
                    new[:, l] = -FG[:, :p]
                if rk is not None:
                    FG = _block_product(T[:, u], solved[rk][:, p:])
                    new[:, d] -= FG[:, :p]
                    new[:, u] = -FG[:, p:]
        levels.append((odd, odd_runs, {k: W[:, p:] for k, W in solved.items()}))
        ids = {kinds: i for i, kinds in enumerate(new_tables)}
        tables, runs = list(new_tables.values()), [(a, b, ids[kinds]) for a, b, kinds in even_runs]
        y, m = even, me
    _sweep(_gauss_jordan(tables[_kind(runs, 0)].copy()), y)   # the one block row left
    x = y
    while levels:   # the odd rows: x = y - F x_left - G x_right
        odd, odd_runs, solved = levels.pop()
        me = x.shape[1]
        for a, b, k in odd_runs:
            odd[:, a: b] -= _block_product(solved[k][:, :p], x[:, a: b])
            if a < (c := min(b, me - 1)):
                odd[:, a: c] -= _block_product(solved[k][:, p:], x[:, a + 1: c + 1])
        full = np.empty((me + odd.shape[1], p))
        full[::2], full[1::2] = x.T, odd.T
        x = full.T
    return x.T.ravel()[:n]


def killed_green_row(medium: Medium, window: Window, start: int) -> np.ndarray:
    """g[z] = sum_{n>=0} P[S_1..S_n all in the segment, S_n = z], S_0 = start.

    Row ``start`` of the killed Green function on the medium's segment of
    ``window``: the solve of the mirrored law's killed matrix against the
    first-step vector, by block cyclic reduction (:func:`_cyclic_solve`), a
    route disjoint from :func:`killed_green`'s roots, refined at the cut ends
    as there; the n = 0 term is added when the start lies inside.
    """
    lo, hi = medium.segment(window)
    rhs = np.zeros(hi - lo + 1)
    for v, p in zip(medium.law.values, medium.law.probs):
        if lo <= start + v <= hi:
            rhs[start + v - lo] += float(p)
    g = _refined(_cyclic_solve, mirror_dist(medium.law), medium, window, rhs)
    if lo <= start <= hi:
        g[start - lo] += 1.0
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
        d = 0..length-1, by forward recursion: (1 - P[H = 0]) u_d is [d = 0]
        plus the sum over the nonzero heights."""
        law = self.heights[variant]
        stay = 1.0 - law.get(0, 0.0)
        steps = [(abs(h), p) for h, p in law.items() if h]
        u = [1.0 / stay] if length else []
        for d in range(1, length):
            u.append(sum(p * u[d - h] for h, p in steps if h <= d) / stay)
        return np.array(u)

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
            for name, law, s, theta in sides if law.centered]


def centered_tail_levels(model: OscillatingModel, nu: np.ndarray, window) -> dict:
    """The tail level of each centered side, {name: nu(V_strict_asc) / |E H_weak_desc|}.

    nu(V_strict_asc) = sum_x nu(x) V_strict_asc(theta - s x) over a
    window-indexed measure ``nu``, in the left form of :func:`centered_sides`;
    it runs over nu's support only: nu is exactly 0 off the arrival band, and
    V is 0 at distances <= 0 (the other medium).  By the ladder identities the
    level is lambda_X(-inf) on the left and lambda_X(+inf) on the right.  A
    drifted side, visited finitely often, has no entry.
    """
    support = np.flatnonzero(nu)
    xs = window.positions()[support]
    return {name: float(sum(nu[support] * pot.V(LadderVariant.STRICT_ASC, theta - s * xs)))
            / abs(pot.height_mean(LadderVariant.WEAK_DESC))
            for name, _, pot, s, theta in centered_sides(model)}


def tail_normaliser(model: OscillatingModel, levels: dict) -> float:
    """sqrt(pi/2) (sigma lambda(-inf) + sigma' lambda(+inf)) from the
    :func:`centered_tail_levels` ``levels``: the renewal-tail normaliser, with
    C_y = lambda_X(y) / normaliser and pi times the limit of sqrt(n) times
    the tail sum_{j>n} r_j.  A drifted side, without a level, drops its term."""
    return SQRT_PI_OVER_2 * (model.left.sigma * levels.get("left", 0.0)
                             + model.right.sigma * levels.get("right", 0.0))


# ---------------------------------------------------------------------------
# Wiener-Hopf factorization (root route)
# ---------------------------------------------------------------------------

def wiener_hopf_heights(dist: LatticeDist) -> tuple[dict, dict]:
    """Strict ascending and weak descending ladder height laws of a centered law.

    For a law on [-a, b], p(u) = u^a (1 - phi(u)) has degree a + b and a
    double root at u = 1, which :func:`small_roots` divides out exactly; a
    law on dZ, d > 1, has more roots on the unit circle and is refused.  The
    b - 1 remaining roots r_j
    with |r_j| > 1 give 1 - E[u^H+] = (1 - u) prod_j (1 - u / r_j); dividing
    p by that factor leaves u^a (1 - E[u^H-]).  Returns ({h: P[H+ = h]},
    {h: P[H- = h]}) over h = 1..b and h = -a..0.
    """
    from numpy.polynomial import polynomial as P   # as in small_roots

    if not dist.centered:
        raise NotCentered(f"mean {dist.mean!r} is not 0")
    _require_two_sided(dist)
    a = -dist.min_support
    char = small_roots(dist)
    if char.period > 1:
        raise ValidationError("1 - phi has a root on the unit circle: support in dZ, d > 1")
    outer = P.polyfromroots(char.others[np.abs(char.others) > 1.0])
    outer = (outer / outer[0]).real
    asc = P.polymul([1.0, -1.0], outer)
    desc = P.polymul([1.0, -1.0], P.polydiv(char.reduced, outer)[0])
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
    below = killed_green_row(Medium(dist, None, 0), Window(-SOLVE_WINDOW, 1), 0)
    v_weak_desc = np.cumsum(below[::-1])
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
    if not dist.centered:
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
