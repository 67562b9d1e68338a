"""Lattice jump distributions, model validation, and Laplace-transform analysis.

A model splits Z into media, left to right, each with its own finitely
supported integer jump law: Kemperman's walk has one law on Z-, one at 0 and
one on Z+ (three media), or puts the origin in the left medium (two media).
All quantities that feed the asymptotic classification -- argmin of
the Laplace transform, its minimum value, the crossing point of two transforms,
exponential tilting -- live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DegenerateInterval,
    IdenticalTransforms,
    NotAperiodic,
    O3Violated,
    O4Violated,
    SupportOneSided,
    ValidationError,
)

PROB_SUM_TOL = 1e-14
ZERO_DRIFT_TOL = 1e-12
TIE_TOL = 1e-10
MAX_BISECT_ITER = 200
EXP_OVERFLOW = 700.0


class DriftCase(Enum):
    PN = "(P,N)"
    ZZ = "(Z,Z)"
    PZ = "(P,Z)"
    ZP = "(Z,P)"
    NP = "(N,P)"
    PP = "(P,P)"
    ZN = "(Z,N)"
    NZ = "(N,Z)"
    NN = "(N,N)"

    @property
    def markovian(self) -> bool:
        """No outer law drifts away from the interface: the switching chain
        switches forever ((P,N), (P,Z), (Z,Z), (Z,N))."""
        return self.value[1] in "PZ" and self.value[3] in "NZ"

    @property
    def centered_side(self) -> bool:
        """An outer law has zero drift."""
        return "Z" in self.value


@dataclass(frozen=True)
class LatticeDist:
    """Finitely supported probability law on the integers.

    ``fracs`` holds exact rational probabilities when the law was built from
    exact inputs; it backs the exact-arithmetic mode of the DP engines.
    ``atoms`` is ``values`` as a float array, the one the Laplace transforms read.
    """

    values: tuple[int, ...]
    probs: np.ndarray
    fracs: Optional[tuple[Fraction, ...]] = None
    atoms: np.ndarray = field(init=False, repr=False, compare=False)
    mean: float = field(init=False)
    variance: float = field(init=False)
    min_support: int = field(init=False)
    max_support: int = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if len(vals) == 0:
            raise ValidationError("distribution has no atoms")
        if np.any(np.diff(vals) <= 0):
            raise ValidationError("atom values must be strictly increasing")
        if np.any(probs <= 0):
            raise ValidationError("every atom probability must be > 0")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        m = float(probs @ vals)
        var = float(probs @ vals**2) - m * m
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "atoms", vals)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", max(var, 0.0))
        object.__setattr__(self, "min_support", int(self.values[0]))
        object.__setattr__(self, "max_support", int(self.values[-1]))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    @property
    def centered(self) -> bool:
        """Whether the law has no drift: |mean| within ZERO_DRIFT_TOL."""
        return abs(self.mean) <= ZERO_DRIFT_TOL

    @cached_property
    def argmin(self) -> tuple[float, float]:
        """(lambda, rho) of :func:`argmin_laplace`, solved on first access."""
        _require_two_sided(self)
        if self.centered:
            return 0.0, laplace(self, 0.0)  # centered: the minimum is at the origin
        b = min(1.0, EXP_OVERFLOW / max(-self.min_support, self.max_support))
        a = -b
        while laplace_deriv(self, a) > 0:
            a *= 2.0
        while laplace_deriv(self, b) < 0:
            b *= 2.0
        lam = _bisect(lambda t: laplace_deriv(self, t), a, b)
        return lam, laplace(self, lam)

    @property
    def exact(self) -> bool:
        return self.fracs is not None

    def tail_ge(self, w: int) -> float:
        """mu[w, +inf)."""
        return float(sum(p for v, p in zip(self.values, self.probs) if v >= w))

    def dense_kernel(self, exact: bool = False, scale: int = 1):
        """(offset of index 0, contiguous pmf array over [min,max] support).

        ``exact`` gives the rational probabilities times ``scale``, as Python
        ints where they are integral: with a ``scale`` every denominator
        divides (see :func:`common_denominator`) the whole kernel is integer.
        """
        lo, hi = self.min_support, self.max_support
        if exact:
            k = np.zeros(hi - lo + 1, dtype=object)
            for v, p in zip(self.values, self.fracs):
                w = p * scale
                k[v - lo] = w.numerator if w.denominator == 1 else w
        else:
            k = np.zeros(hi - lo + 1)
            for v, p in zip(self.values, self.probs):
                k[v - lo] = p
        return lo, k

    def as_pairs(self):
        if self.fracs is not None:
            return [(v, p) for v, p in zip(self.values, self.fracs)]
        return [(v, float(p)) for v, p in zip(self.values, self.probs)]


def dist(atoms: Iterable) -> LatticeDist:
    """Build a LatticeDist from (value, prob) pairs or a {value: prob} map.

    Probabilities given as int/Fraction/str are kept exactly; any float makes
    the law float-only.
    """
    if isinstance(atoms, dict):
        atoms = atoms.items()
    pairs = sorted((int(v), p) for v, p in atoms)
    values = tuple(v for v, _ in pairs)
    raw = [p for _, p in pairs]
    exact = all(isinstance(p, (int, Fraction, str)) for p in raw)
    if exact:
        fracs = tuple(Fraction(p) for p in raw)
        total = sum(fracs)
        if total != 1:
            raise ValidationError(f"exact probabilities sum to {total}, not 1")
        probs = np.array([float(f) for f in fracs])
        return LatticeDist(values, probs, fracs)
    probs = np.array([float(p) for p in raw])
    return LatticeDist(values, probs, None)


def common_denominator(*dists: LatticeDist) -> int:
    """lcm D of the denominators of the exact laws given.

    After n steps of a walk driven by these laws every probability is an
    integer over D**n, which is what the exact DP engines compute on.
    """
    return math.lcm(*(p.denominator for d in dists for p in d.fracs))


def mirror_dist(d: LatticeDist) -> LatticeDist:
    """Reflect the law through the origin: atoms (v, p) -> (-v, p)."""
    pairs = list(zip(d.values, d.fracs if d.exact else d.probs))
    return dist([(-v, p) for v, p in pairs])


# ---------------------------------------------------------------------------
# Laplace transform analysis
# ---------------------------------------------------------------------------

def _check_exponent(d: LatticeDist, t: float) -> None:
    """Raise OverflowError when some |t v| exceeds EXP_OVERFLOW.  The largest
    |fl(t v)| is fl(|t| max|v|), as rounding is monotone and |fl(t v)| =
    fl(|t| |v|), so one product decides."""
    if abs(t) * max(-d.min_support, d.max_support) > EXP_OVERFLOW:
        raise OverflowError(f"|t*v| exceeds {EXP_OVERFLOW} for t={t}")


def laplace(d: LatticeDist, t: float) -> float:
    """L(t) = sum_i p_i e^{t v_i}; exact finite sum, entire in t."""
    _check_exponent(d, t)
    return float(d.probs @ np.exp(t * d.atoms))


def laplace_deriv(d: LatticeDist, t: float) -> float:
    """dL/dt = sum_i p_i v_i e^{t v_i}."""
    _check_exponent(d, t)
    return float(d.probs @ (d.atoms * np.exp(t * d.atoms)))


def _require_two_sided(d: LatticeDist):
    if d.min_support >= 0 or d.max_support <= 0:
        raise SupportOneSided(
            f"support [{d.min_support}, {d.max_support}] lies on one side of 0"
        )


def _bisect(f, a: float, b: float) -> float:
    """A sign change of f on [a, b], f(a) and f(b) of opposite signs (or one
    of them 0): bisect, keeping the left end's sign.

    Signs are compared, not multiplied, so two tiny values of one sign cannot
    underflow to a product of 0; a NaN f(mid) moves the left end, as a NaN
    product would.  The loop stops when the bracket is below 1e-16 relative
    to max(1, |a|), or when the midpoint equals a or b: no double then lies
    strictly inside, and further halving would only freeze the bracket or
    collapse it onto the midpoint, which is returned either way.  The first
    test ends small roots, the second every root with |root| >= 0.5, whose
    neighbouring doubles are more than 1e-16 apart.
    """
    fa = f(a)
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = f(mid)
        if fa <= 0 <= fm or fm <= 0 <= fa:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-16 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def argmin_laplace(d: LatticeDist) -> tuple[float, float]:
    """Locate (lambda, rho) with rho = min L = L(lambda).

    Bisection on dL/dt over a bracketing interval grown geometrically from
    [-t0, t0], t0 = min(1, EXP_OVERFLOW / max|v|) so that L' is finite there;
    two-sided support guarantees an interior minimum.  A centered law skips
    the search: its minimum is L(0) at lambda = 0.  Each law object is solved
    once, on first use, and keeps the result as ``d.argmin``.
    """
    return d.argmin


def tilt(d: LatticeDist, t: float) -> LatticeDist:
    """Exponential change of measure: atom (v, p) -> (v, p e^{tv} / L(t))."""
    if t == 0.0:
        return d
    norm = laplace(d, t)
    probs = [p * math.exp(t * v) / norm for v, p in zip(d.values, d.probs)]
    total = sum(probs)
    return LatticeDist(d.values, np.array(probs) / total, None)


def geometric_tilt(d: LatticeDist, ratio: Fraction) -> LatticeDist:
    """Tilt by t = log(ratio) with exact rational weights p_i * ratio**v_i.

    Keeps the law exact when ``d`` is exact, which is what makes the tilting
    identities assertable to zero residual.
    """
    ratio = Fraction(ratio)
    if ratio <= 0:
        raise ValidationError("tilt ratio must be positive")
    if not d.exact:
        return tilt(d, math.log(float(ratio)))
    weights = [p * ratio**v for v, p in zip(d.values, d.fracs)]
    total = sum(weights)
    return dist([(v, w / total) for v, w in zip(d.values, weights)])


def cross_point(left: LatticeDist, right: LatticeDist) -> Optional[tuple[float, float]]:
    """Solve L(t) = L'(t) between the two argmins.

    Returns (lambda_star, rho_star), or None when the difference keeps a
    strict sign on the whole interval (no crossing).
    """
    lam, _ = argmin_laplace(left)
    lamp, _ = argmin_laplace(right)
    a, b = min(lam, lamp), max(lam, lamp)
    grid = np.linspace(a - 1.0, b + 1.0, 17)
    if all(abs(laplace(left, t) - laplace(right, t)) < 1e-13 for t in grid):
        raise IdenticalTransforms("the two Laplace transforms coincide")
    if b - a <= TIE_TOL:
        raise DegenerateInterval(f"argmins coincide: {lam} vs {lamp}")

    def g(t):
        return laplace(left, t) - laplace(right, t)

    if g(a) * g(b) > 0:
        return None
    lam_star = _bisect(g, a, b)
    return lam_star, laplace(left, lam_star)


# ---------------------------------------------------------------------------
# Model assembly and hypotheses
# ---------------------------------------------------------------------------

def is_strongly_aperiodic(d: LatticeDist) -> bool:
    """gcd of pairwise support differences equals 1 (needs >= 2 atoms)."""
    if len(d.values) < 2:
        return False
    g = 0
    for v in d.values[1:]:
        g = math.gcd(g, v - d.values[0])
    return g == 1


def _drift_letter(d: LatticeDist) -> str:
    return "Z" if d.centered else "P" if d.mean > 0 else "N"


@dataclass(frozen=True)
class Medium:
    """The sites lo..hi (None: unbounded on that side) on which the walk
    jumps by ``law``."""

    law: LatticeDist
    lo: Optional[int]
    hi: Optional[int]

    def __contains__(self, x: int) -> bool:
        return (self.lo is None or self.lo <= x) and (self.hi is None or x <= self.hi)

    def __str__(self) -> str:
        if self.lo is None or self.hi is None:
            return f"sites <= {self.hi}" if self.lo is None else f"sites >= {self.lo}"
        return f"sites {self.lo}..{self.hi}"

    def segment(self, window) -> tuple[int, int]:
        """The medium's sites in ``window``: where its killed walk survives."""
        return (window.lo if self.lo is None else self.lo,
                window.hi if self.hi is None else self.hi)

    @property
    def band(self) -> tuple[int, int]:
        """Where a first passage out of the medium can land: from lo + the
        least atom (hi + 1 when unbounded below) to hi + the largest atom
        (lo - 1 when unbounded above)."""
        return (self.hi + 1 if self.lo is None else self.lo + self.law.min_support,
                self.lo - 1 if self.hi is None else self.hi + self.law.max_support)


@dataclass(frozen=True)
class OscillatingModel:
    """Validated media, left to right, plus the derived classification inputs.

    ``media`` is the one statement of how Z splits: the first medium is
    unbounded below, the last unbounded above, and each ends where the next
    begins.  ``left`` and ``right`` are the laws of the outer media and
    ``origin`` the law used at 0.
    """

    media: tuple[Medium, ...]

    left = property(lambda self: self.media[0].law)
    right = property(lambda self: self.media[-1].law)
    origin = property(lambda self: self.law_at(0))
    laws = property(lambda self: [m.law for m in self.media])
    two_media = property(lambda self: len(self.media) == 2)
    D = property(lambda self: self.left.max_support)
    Dprime = property(lambda self: self.right.min_support)

    @cached_property
    def drift_case(self) -> DriftCase:
        return DriftCase(f"({_drift_letter(self.left)},{_drift_letter(self.right)})")

    @property
    def exact(self) -> bool:
        return all(law.exact for law in self.laws)

    @property
    def max_jump(self) -> int:
        return max(max(abs(d.min_support), abs(d.max_support)) for d in self.laws)

    def medium_index(self, x):
        """Index in ``media`` of the medium of site ``x``, elementwise for an
        integer array: the number of inner medium ends below it."""
        idx = np.greater(x, self.media[0].hi).astype(np.intp)
        for m in self.media[1:-1]:
            idx += np.greater(x, m.hi)
        return idx

    def law_at(self, x: int) -> LatticeDist:
        """Jump law used from position x."""
        return self.media[self.medium_index(x)].law


def validate_model(
    left: LatticeDist,
    origin: LatticeDist,
    right: LatticeDist,
    two_media: bool = False,
    _allow_o3_violation: bool = False,
) -> OscillatingModel:
    """Check the structural hypotheses and assemble a model.

    Raises NotAperiodic / SupportOneSided / O3Violated / O4Violated.  Two
    media put the origin in the left medium, so ``origin`` must then be the
    left law: any other raises ValidationError rather than being dropped.
    ``_allow_o3_violation`` exists only for closed-form test oracles and is
    rejected by the CLI.
    """
    if two_media and origin.as_pairs() != left.as_pairs():
        raise ValidationError("a two-media model's origin is its left law, and this "
                              "origin differs: drop two_media for a three-media model")
    if two_media:
        media = (Medium(left, None, 0), Medium(right, 1, None))
    else:
        media = (Medium(left, None, -1), Medium(origin, 0, 0), Medium(right, 1, None))
    return validate_media(media, _allow_o3_violation)


def validate_media(media, _allow_o3_violation: bool = False) -> OscillatingModel:
    """:func:`validate_model` on a model given by its media, left to right."""
    model = OscillatingModel(tuple(media))
    if model.media[0].lo is not None or model.media[-1].hi is not None or any(
            a.hi is None or a.hi + 1 != b.lo for a, b in zip(model.media, model.media[1:])):
        raise ValidationError("the media must tile the integers, left to right")
    left, origin, right = model.left, model.origin, model.right
    _require_two_sided(left)
    _require_two_sided(right)
    if not is_strongly_aperiodic(left):
        raise NotAperiodic("left law is not strongly aperiodic")
    if not is_strongly_aperiodic(right):
        raise NotAperiodic("right law is not strongly aperiodic")
    if model.D * model.Dprime > -2 and not _allow_o3_violation:
        raise O3Violated(model.D, model.Dprime)
    if not (origin.min_support < 0 < origin.max_support):
        raise O4Violated("origin law must charge both strict half-lines")
    return model


def mirror_model(model: OscillatingModel) -> OscillatingModel:
    """Reflect through the origin: each medium's law is mirrored onto the
    reflected sites, so P_x[X_n = y] of the model is P_-x[X_n = -y] of its
    mirror.  A two-media model's mirror has its origin in the right medium."""
    def neg(end):
        return None if end is None else -end

    return validate_media([Medium(mirror_dist(m.law), neg(m.hi), neg(m.lo))
                           for m in reversed(model.media)])


def is_own_mirror(model: OscillatingModel) -> bool:
    """Whether ``model`` is its :func:`mirror_model`: each medium is the
    reflection of its counterpart from the other end, sites and atoms, with
    equal probabilities."""
    def neg(end):
        return None if end is None else -end

    return all((m.lo, m.hi) == (neg(r.hi), neg(r.lo))
               and m.law.values == tuple(-v for v in reversed(r.law.values))
               and np.array_equal(m.law.probs, r.law.probs[::-1])
               for m, r in zip(model.media, reversed(model.media)))


def essential_class(model: OscillatingModel) -> list[int]:
    """Arrival sites of the switching subprocess: its unique essential class.

    An unbounded medium lands on every site of its band; a bounded one only
    where one of its atoms takes it out of the medium."""
    sites = set()
    for m in model.media:
        if m.lo is None or m.hi is None:
            sites.update(range(m.band[0], m.band[1] + 1))
        else:
            sites.update(x + v for x in range(m.lo, m.hi + 1) for v in m.law.values
                         if not m.lo <= x + v <= m.hi)
    return sorted(sites)


def arrival_band(model: OscillatingModel) -> tuple[int, int]:
    """[min, max] of the essential class: the columns the switching kernel can hit.

    Read from the media's bands, without listing the sites: an unbounded
    medium's band is in the class, and starts (or ends) at the first (or
    last) site of the bounded core; a bounded medium's band ends are
    landings out of it, or sites of the core."""
    bands = [m.band for m in model.media]
    return min(lo for lo, _ in bands), max(hi for _, hi in bands)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _pairs_from_json(entries) -> LatticeDist:
    pairs = [(v, p) for v, p in entries]
    for v, _ in pairs:
        if type(v) is not int:   # int() would read 2.7 as the atom 2
            raise ValidationError(f"atom value {v!r} is not a JSON integer")
    return dist(pairs)


def _pairs_to_json(d: LatticeDist):
    out = []
    for v, p in d.as_pairs():
        out.append([v, str(p) if isinstance(p, Fraction) else p])
    return out


def load_model(source) -> OscillatingModel:
    """Load a model from a JSON file path, JSON string, or dict; unknown keys are refused."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text() if Path(str(source)).exists() else str(source)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"not a model file or JSON document: {source}") from exc
    else:
        payload = source
    try:
        left = _pairs_from_json(payload["left"])
        right = _pairs_from_json(payload["right"])
        if unknown := sorted(set(payload) - {"left", "origin", "right", "two_media"}):
            raise ValidationError(f"unknown key {', '.join(map(repr, unknown))} in the model file")
        two_media = payload.get("two_media", False)
        if type(two_media) is not bool:   # bool("false") is True
            raise ValidationError(f"two_media must be true or false, not {two_media!r}")
        origin = _pairs_from_json(payload.get("origin", payload["left"]) if two_media
                                  else payload["origin"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed model file: {exc}") from exc
    return validate_model(left, origin, right, two_media=two_media)


def dump_model(model: OscillatingModel) -> dict:
    """The model file's payload.  The file states three media or two with
    the origin in the left medium; a model with its origin in the right
    medium (a two-media model's mirror) raises ValidationError."""
    if model.medium_index(0) == len(model.media) - 1:
        raise ValidationError("a model with its origin in the right medium has no model file")
    payload = {
        "left": _pairs_to_json(model.left),
        "origin": _pairs_to_json(model.origin),
        "right": _pairs_to_json(model.right),
    }
    if model.two_media:
        payload["two_media"] = True
    return payload


def save_model(model: OscillatingModel, path) -> None:
    Path(path).write_text(json.dumps(dump_model(model), indent=1) + "\n")
