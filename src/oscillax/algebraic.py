"""Exact comparison of the algebraic numbers behind transient-subcase ties.

An exact law's argmin u* = e^lambda is the one positive root of an integer
polynomial, and its transform values at such roots are algebraic too.
:class:`ArgminRoot` isolates u*; :func:`compare_roots` and
:func:`compare_values` give exact signs, 0 only for true equality, using
integer polynomials and ``fractions.Fraction`` alone.  ``regimes`` imports
this module on the first comparison that the float screen cannot decide.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import LatticeDist

# Polynomials over Q are coefficient lists, lowest degree first, with a nonzero
# last entry ([] is zero); a law's transform phi(u) = sum_i p_i u^{v_i} is the
# Laurent polynomial {v_i: p_i}.  Roots are counted by Sturm's theorem, and
# resultants computed by Euclid's algorithm (Cohen, A Course in Computational
# Algebraic Number Theory, section 3.3).


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly(f: dict) -> list:
    """u^k f(u) as a polynomial, for the least k >= 0 that makes it one."""
    k = max(0, -min(f))
    p = [0] * (max(f) + k + 1)
    for v, c in f.items():
        p[v + k] += c
    return _trim(p)


def _eval(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k, c = len(a) - len(b), Fraction(a[-1]) / b[-1]
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        a.pop()
        _trim(a)
    return q, a


def _gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _deriv(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _sturm(p: list) -> list:
    """The Sturm sequence of a squarefree p."""
    seq = [p, _deriv(p)]
    while seq[-1]:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    return seq[:-1]


def _roots_in(seq: list, lo, hi) -> int:
    """Distinct roots of the squarefree seq[0] in [lo, hi]: the drop in sign
    variations of its Sturm sequence counts those in (lo, hi]."""
    def variations(x):
        signs = [v > 0 for v in (_eval(q, x) for q in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(lo) - variations(hi) + (_eval(seq[0], lo) == 0)


def _resultant(a: list, b: list):
    """Res(a, b) by Euclid's remainder sequence."""
    res = 1
    while len(b) > 1:
        rem = _divmod(a, b)[1]
        if not rem:
            return 0
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(rem))
        a, b = b, rem
    return res * b[0] ** (len(a) - 1)


def _value_poly(P: list, f: dict) -> list:
    """A squarefree polynomial in c with root f(u) at every root u of P.

    It is Res_u(P(u), u^k (f(u) - c)), k = -min(f) > 0, of degree deg P in c:
    interpolated through its values at c = 0..deg P by divided differences.
    """
    N, k, n = _poly(f), -min(f), len(P) - 1
    dd = []
    for _ in range(n + 1):   # c = 0, 1, ..., n
        dd.append(Fraction(_resultant(P, N)))
        N[k] -= 1
    for i in range(1, n + 1):
        for j in range(n, i - 1, -1):
            dd[j] = (dd[j] - dd[j - 1]) / i
    R = [dd[n]]
    for i in range(n - 1, -1, -1):   # R <- R (c - i) + dd[i]
        R = [dd[i] - i * R[0]] + [R[j - 1] - i * R[j] for j in range(1, len(R))] + [R[-1]]
    return _divmod(R, _gcd(R, _deriv(R)))[0]


def _has_positive_root(g: list) -> bool:
    """For g dividing an argmin polynomial P, whose one positive root is
    simple and P(0) != 0: whether that root is g's, i.e. g changes sign on
    (0, inf)."""
    return len(g) > 1 and (g[0] > 0) != (g[-1] > 0)


def transform(d: LatticeDist) -> dict:
    """A law's transform as the Laurent polynomial {v_i: p_i}."""
    return dict(zip(d.values, d.fracs))


def _at(f: dict, u):
    return sum(c * u ** v for v, c in f.items())


class ArgminRoot:
    """u* = e^lambda of an exact law, the one positive root of the integer
    polynomial P(u) = u^-m u phi'(u), m the least atom: L' is increasing, so
    P < 0 below u* and P > 0 above.  It lies in [lo, hi], seeded around the
    float argmin; :meth:`refine` bisects on the exact sign of P, and lo == hi
    once u* is known to be rational."""

    def __init__(self, d: LatticeDist, lam: float):
        P = _poly({v: v * p for v, p in transform(d).items()})
        den = math.lcm(*(c.denominator for c in P))
        self.P = [int(c * den) for c in P]
        u0 = Fraction(math.exp(lam))
        # a rational u* has a denominator that divides P's leading coefficient
        q = u0.limit_denominator(abs(self.P[-1]))
        if _eval(self.P, q) == 0:
            self.lo = self.hi = q
            return
        w = Fraction(1, 2 ** 40)
        while not _eval(self.P, u0 / (1 + w)) < 0 < _eval(self.P, u0 * (1 + w)):
            w *= 2 ** 10
        self.lo, self.hi = u0 / (1 + w), u0 * (1 + w)

    def refine(self):
        if self.lo < self.hi:
            mid = (self.lo + self.hi) / 2
            s = _eval(self.P, mid)
            if s <= 0:
                self.lo = mid
            if s >= 0:
                self.hi = mid

    def vanishes(self, f: dict) -> bool:
        """Whether the Laurent polynomial f is exactly 0 at u*."""
        return _has_positive_root(_gcd(self.P, _poly(f)))

    def enclose(self, f: dict) -> tuple:
        """Bounds on f(u*) for f convex on u > 0, a transform or u itself:
        the larger end value above, the end value or a tangent line's lowest
        point below."""
        a, b = self.lo, self.hi
        fa, fb = _at(f, a), _at(f, b)
        if a == b:
            return fa, fa
        df = {v - 1: v * c for v, c in f.items()}
        ga, gb = _at(df, a), _at(df, b)
        low = fa if ga >= 0 else fb if gb <= 0 else max(fa + ga * (b - a), fb - gb * (b - a))
        return low, max(fa, fb)


_U = {1: 1}   # the identity u, whose box is the root's own interval


def _separate(x: ArgminRoot, f: dict, y: ArgminRoot, g: dict) -> int:
    """Sign of f(x) - g(y), known to be nonzero: refine x and y until the
    boxes of the two values are disjoint."""
    while True:
        (a, b), (c, d) = x.enclose(f), y.enclose(g)
        if b < c or d < a:
            return -1 if b < c else 1
        x.refine()
        y.refine()


def _isolate(x: ArgminRoot, f: dict, seq: list) -> tuple:
    """A box of f(x) that holds no other root of seq[0]."""
    while _roots_in(seq, *(box := x.enclose(f))) > 1:
        x.refine()
    return box


def _values_equal(x: ArgminRoot, f: dict, y: ArgminRoot, g: dict) -> bool:
    """Whether f(x) == g(y) exactly, for transforms f and g."""
    if x is not y and x.lo == x.hi:
        x, f, y, g = y, g, x, f
    if x is y or y.lo == y.hi:   # a polynomial in x vanishes
        other = g if x is y else {0: _at(g, y.lo)}
        return x.vanishes({v: f.get(v, 0) - other.get(v, 0) for v in f.keys() | other.keys()})
    # two irrational points: equal iff the boxes that isolate f(x) and g(y)
    # among the roots of their value polynomials share a common root
    rf, rg = _value_poly(x.P, f), _value_poly(y.P, g)
    common = _gcd(rf, rg)
    if len(common) < 2:
        return False
    sf, sg, sc = _sturm(rf), _sturm(rg), _sturm(common)
    while True:
        (a, b), (c, d) = _isolate(x, f, sf), _isolate(y, g, sg)
        if b < c or d < a:
            return False
        if _roots_in(sc, max(a, c), min(b, d)):
            return True
        x.refine()
        y.refine()


def compare_roots(x: ArgminRoot, y: ArgminRoot) -> int:
    """Sign of x - y."""
    if _has_positive_root(_gcd(x.P, y.P)):
        return 0
    return _separate(x, _U, y, _U)


def compare_values(x: ArgminRoot, f: dict, y: ArgminRoot, g: dict) -> int:
    """Sign of f(x) - g(y) for transforms f and g."""
    return 0 if _values_equal(x, f, y, g) else _separate(x, f, y, g)
