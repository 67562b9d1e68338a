"""Asymptotic regime classification and predicted constants.

Maps a validated model to its predicted return-probability shape
P_x[X_n = y] ~ C * rate^n / n^exponent, choosing among the nine drift cases
and, for the two-media transient cases, the A/B/C transform-geometry subcases.
Equality branches (same argmin, same minimum, tangency of one transform at the
other's argmin) are measure-zero and are only ever entered through exact
comparison: a float difference within TIE_TOL is settled by ``_Comparator``
through :mod:`.algebraic` (integer polynomials and ``fractions.Fraction``);
float ties without exact inputs raise TieUnresolvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ConventionMismatch,
    PlateauNotReached,
    TieUnresolvable,
    ValidationError,
)
from .evolve import Window
from .ladder import centered_tail_levels, killed_green, tail_normaliser
from .model import (
    DriftCase,
    LatticeDist,
    Medium,
    OscillatingModel,
    TIE_TOL,
    argmin_laplace,
    cross_point,
    laplace,
    mirror_dist,
    mirror_model,
    tilt,
    validate_media,
)
from .switching import dominant_eigenpair, switching_kernel

PLATEAU_REL_TOL = 0.02   # largest relative spread of lambda_X over a probe band

_MIRROR = {
    DriftCase.ZN: DriftCase.PZ,
    DriftCase.NZ: DriftCase.ZP,
    DriftCase.NN: DriftCase.PP,
}


@dataclass
class RegimePrediction:
    drift_case: DriftCase
    rate: float
    exponent: float
    constant_kind: str                     # invariant_measure | local_constant | unknown
    subcase: Optional[str] = None          # A1, A2, B1..B7, C; set for (N,P)/(P,P)
    rate_kind: str = "one"                 # one|rho|rho_prime|rho_star|max_rho
    mirrored: bool = False
    details: dict = field(default_factory=dict)
    # the exact comparisons classify made, for select_tilt to go on with
    comparator: Optional[_Comparator] = field(default=None, repr=False, compare=False)

    def report(self) -> dict:
        return {
            "case": self.drift_case.value,
            "subcase": self.subcase,
            "rate": self.rate,
            "exponent": self.exponent,
            "rate_kind": self.rate_kind,
            "constant_kind": self.constant_kind,
            "tilt_t": None,                  # predict() fills both from the tilt plan
            "base_case_after_tilt": None,
            "mirrored": self.mirrored,
            "details": {k: float(v) for k, v in self.details.items()},
        }


# ---------------------------------------------------------------------------
# Exact comparison of transform-derived algebraic numbers
# ---------------------------------------------------------------------------

def _float_cmp(a: float, b: float) -> int:
    """Three-way float comparison that calls a difference within TIE_TOL a tie (0)."""
    return 0 if abs(a - b) <= TIE_TOL else (-1 if a < b else 1)


class _Comparator:
    """Compares lambda/rho-type quantities of the laws "L" and "R" in float,
    and exactly (:mod:`.algebraic`) when the float difference is within
    TIE_TOL.  Each law's argmin root is isolated once, on the first exact
    comparison that needs it."""

    def __init__(self, left: LatticeDist, right: LatticeDist, lam: float, lamp: float):
        self.laws, self.lams = {"L": left, "R": right}, {"L": lam, "R": lamp}
        self.roots = {}
        self.same_argmin = False   # u_L == u_R, once exact_lambda has shown it

    def _root(self, which: str):
        if not (self.laws["L"].exact and self.laws["R"].exact):
            raise TieUnresolvable(
                "comparison inside tie tolerance but probabilities are not exact rationals"
            )
        from .algebraic import ArgminRoot

        which = "L" if self.same_argmin else which
        if which not in self.roots:
            self.roots[which] = ArgminRoot(self.laws[which], self.lams[which])
        return self.roots[which]

    def cmp_lambda(self, lam: float, lamp: float) -> int:
        return _float_cmp(lam, lamp) or self.exact_lambda()

    def exact_lambda(self) -> int:
        """Sign of lambda - lambda', that is of u_L - u_R."""
        from .algebraic import compare_roots

        s = compare_roots(self._root("L"), self._root("R"))
        self.same_argmin = s == 0
        return s

    def cmp_values(self, a: float, b: float, da: str, ua: str, db: str, ub: str) -> int:
        """Compare transform values, e.g. rho = L at u_L vs rho' = L' at u_R."""
        return _float_cmp(a, b) or self.exact_values(da, ua, db, ub)

    def exact_values(self, da: str, ua: str, db: str, ub: str) -> int:
        """Sign of phi_da(u_ua) - phi_db(u_ub)."""
        from .algebraic import compare_values, transform

        return compare_values(self._root(ua), transform(self.laws[da]),
                              self._root(ub), transform(self.laws[db]))


# ---------------------------------------------------------------------------
# The finer branch table shared by case B (lambda < lambda') and case C
# ---------------------------------------------------------------------------

# branch k -> (rate kind, case-B exponent, details key of the tilt point);
# the rate kind is also the details key of the case-B rate
_BRANCHES = {
    1: ("rho_star", 0.0, "lambda_star"),       # rho == rho': the transforms cross
    2: ("rho_prime", 1.5, "lambda_prime"),     # rho < rho', L(lambda') < rho'
    3: ("rho_prime", 0.5, "lambda_prime"),     # rho < rho', L(lambda') == rho'
    4: ("rho_star", 0.0, "lambda_star"),       # rho < rho', L(lambda') > rho'
    5: ("rho", 1.5, "lambda"),                 # rho > rho', L'(lambda) < rho
    6: ("rho", 0.5, "lambda"),                 # rho > rho', L'(lambda) == rho
    7: ("rho_star", 0.0, "lambda_star"),       # rho > rho', L'(lambda) > rho
}


def _crossing_branch(model: OscillatingModel, details: dict, cmpx: _Comparator) -> int:
    """Branch k = 1..7 of ``_BRANCHES`` for argmins lambda != lambda', ties
    settled exactly by ``cmpx``.

    ``details`` holds lambda, lambda_prime, rho and rho_prime and receives the
    transform value the second comparison reads; a crossing branch also gets
    its crossing point.
    """
    rho, rhop = details["rho"], details["rho_prime"]
    s_rho = cmpx.cmp_values(rho, rhop, "L", "L", "R", "R")
    if s_rho == 0:
        k = 1
    elif s_rho < 0:  # compare L(lambda') with rho'
        val = details["L_at_lambda_prime"] = laplace(model.left, details["lambda_prime"])
        k = 3 + cmpx.cmp_values(val, rhop, "L", "R", "R", "R")
    else:
        val = details["Lprime_at_lambda"] = laplace(model.right, details["lambda"])
        k = 6 + cmpx.cmp_values(val, rho, "R", "L", "L", "L")
    if _BRANCHES[k][0] == "rho_star":
        star = cross_point(model.left, model.right)
        if star is None:
            # the exact signs put a crossing where the float transforms show
            # none: it lies within float resolution of the argmin where the
            # two are closer, and rho_star is that side's minimum
            lam, lamp = details["lambda"], details["lambda_prime"]
            at_lamp = (abs(laplace(model.left, lamp) - details["rho_prime"])
                       <= abs(laplace(model.right, lam) - details["rho"]))
            star = (lamp, details["rho_prime"]) if at_lamp else (lam, details["rho"])
            details["crossing_below_resolution"] = 1.0
        details["rho_star"], details["lambda_star"] = star[1], star[0]
    return k


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def classify(model: OscillatingModel) -> RegimePrediction:
    """Predicted (rate, exponent, constant kind) for the model's regime."""
    case = model.drift_case
    if case in _MIRROR:
        inner = classify(mirror_model(model))
        inner.drift_case = case
        inner.mirrored = True
        return inner
    if case is DriftCase.PN:
        return RegimePrediction(case, 1.0, 0.0, "invariant_measure", rate_kind="one")
    if case in (DriftCase.ZZ, DriftCase.PZ):
        return RegimePrediction(case, 1.0, 0.5, "local_constant", rate_kind="one")
    if case is DriftCase.ZP:
        return RegimePrediction(case, 1.0, 1.5, "unknown", rate_kind="one")
    # transient (N,P) / (P,P): the transform geometry decides
    if not model.two_media:
        raise ConventionMismatch(
            f"case {case.value} analysis requires a two-media model"
        )
    lam, rho = argmin_laplace(model.left)
    lamp, rhop = argmin_laplace(model.right)
    details = {"lambda": lam, "lambda_prime": lamp, "rho": rho, "rho_prime": rhop}
    cmpx = _Comparator(model.left, model.right, lam, lamp)
    pred = RegimePrediction(case, 0.0, 0.0, "unknown", details=details, comparator=cmpx)

    s_lam = cmpx.cmp_lambda(lam, lamp)
    if s_lam == 0 and cmpx.cmp_values(rho, rhop, "L", "L", "R", "R") == 0:
        pred.subcase, pred.rate, pred.rate_kind, pred.exponent = "A1", rho, "rho", 0.5
    elif s_lam >= 0:
        # same argmin with different minima (A2), or lambda > lambda' (case C,
        # one shape whatever its finer branch).  (N,P) always lands in C, as
        # lambda > 0 > lambda': any transform crossing sits at value >= 1, so a
        # pure-geometric branch is impossible
        pred.subcase = "A2" if s_lam == 0 else "C"
        pred.rate, pred.rate_kind, pred.exponent = max(rho, rhop), "max_rho", 1.5
    else:  # lambda < lambda': case B
        k = _crossing_branch(model, details, cmpx)
        pred.rate_kind, pred.exponent, _ = _BRANCHES[k]
        pred.subcase, pred.rate = f"B{k}", details[pred.rate_kind]
    return pred


# ---------------------------------------------------------------------------
# Tilt selection
# ---------------------------------------------------------------------------

@dataclass
class TiltPlan:
    """The change of measure :func:`select_tilt` picks.  ``rate`` is
    max(L(t_left), L'(t_right)), the larger transform value at the plan's
    tilts, and ``r`` the smaller over it.  That is ``classify``'s rate on
    A1-B7 and (N,P), but not in case C, whose C1 plan tilts at the crossing
    point: 0.958534 against 0.95 on the C witness.  ``damped_side`` is the
    side whose transform value is the smaller; None when the two agree
    within 1e-12 relative (crossing and tangency branches).  With each side
    tilted by its own parameter, Q_n(x, y) = rate^n e^{t_ref (x - y)} Qtilde_n(x, y),
    Qtilde_n being ``tilted_model``'s Q_n times e^{(t_side - t_ref)(x - y)}
    (t_side the tilt of x's side) and times r^n on the damped side's rows."""

    t_left: float
    t_right: float
    single_t: Optional[float]
    branch: str
    base_case: DriftCase
    tilted_model: OscillatingModel
    rate: float
    r: float
    damped_side: Optional[str]   # 'left' | 'right' | None

    @property
    def t_ref(self) -> float:
        """The tilt of the undamped side (t_left when neither is damped)."""
        return self.t_right if self.damped_side == "left" else self.t_left


def select_tilt(model: OscillatingModel, prediction: Optional[RegimePrediction] = None) -> TiltPlan:
    """Choose the change-of-measure parameter(s) for a transient two-media model.

    Crossing subcases pick the transform-crossing point; dominated subcases
    pick the dominating side's argmin; (N,P) tilts each side by its own argmin
    and never requests a crossing.
    """
    prediction = prediction or classify(model)
    case = model.drift_case
    if case not in (DriftCase.NP, DriftCase.PP):
        raise ConventionMismatch(f"select_tilt applies to (N,P)/(P,P), not {case.value}")
    details = dict(prediction.details)
    lam, lamp = details["lambda"], details["lambda_prime"]
    sub = prediction.subcase
    if case is DriftCase.NP:
        t_left, t_right, single, branch = lam, lamp, None, "NP"
    else:
        if sub in ("A1", "A2"):
            branch, key = sub, "lambda"
        else:
            # case B carries its branch in the subcase; case C refines into C1..C7
            cmpx = prediction.comparator or _Comparator(model.left, model.right, lam, lamp)
            k = _crossing_branch(model, details, cmpx) if sub == "C" else int(sub[1])
            branch, key = f"{sub[0]}{k}", _BRANCHES[k][2]
        t_left = t_right = single = details[key]
    # the right medium is tilted by t_right, every other by t_left
    tilts = [t_left] * (len(model.media) - 1) + [t_right]
    tilted = validate_media([Medium(tilt(m.law, t), m.lo, m.hi)
                             for m, t in zip(model.media, tilts)])
    La, Lb = laplace(model.left, t_left), laplace(model.right, t_right)
    rate = max(La, Lb)
    damped = None if abs(La - Lb) <= 1e-12 * rate else ("right" if La > Lb else "left")
    return TiltPlan(
        t_left=t_left, t_right=t_right, single_t=single, branch=branch,
        base_case=tilted.drift_case, tilted_model=tilted,
        rate=rate, r=min(La, Lb) / rate, damped_side=damped,
    )


# ---------------------------------------------------------------------------
# Predicted local-limit constant (null-recurrent cases)
# ---------------------------------------------------------------------------

@dataclass
class InvariantProfile:
    """The walk's invariant measure via occupation times of the switching chain."""

    window: Window
    values: np.ndarray          # lambda_X(y) over the window
    lam_minus_inf: float
    lam_plus_inf: float
    plateau_minus: tuple[float, float]   # (mean, rel spread) over the probe band
    plateau_plus: tuple[float, float]


def invariant_profile(
    model: OscillatingModel,
    nu: np.ndarray,
    window: Window,
) -> InvariantProfile:
    """Occupation-time invariant measure lambda_X and its tail levels.

    The tail levels are :func:`ladder.centered_tail_levels`, the ladder identities
    lambda_X(-inf) = nu(V_strict_asc(|.|)) / |E weak-desc height| (left side)
    and symmetrically on the right; the plateau of lambda_X over a probe band
    is required to agree within PLATEAU_REL_TOL as a consistency check.
    """
    vals = np.zeros(window.width)
    # occupation h(y) = sum_x nu(x) G(x, y) of each medium's killed walk solves
    # (I - A^T) h = nu, and I - A^T is the killed matrix of the mirrored law
    for m in model.media:
        lo, hi = m.segment(window)
        seg = slice(window.index(lo), window.index(hi) + 1)
        vals[seg] = killed_green(replace(m, law=mirror_dist(m.law)), window, nu[seg])

    def plateau(side):
        probe_hi = (abs(window.lo) if side < 0 else window.hi) // 4
        probe_lo = max(4, probe_hi // 2)
        ys = range(probe_lo, probe_hi + 1)
        sel = [vals[window.index(-y if side < 0 else y)] for y in ys]
        m = float(np.mean(sel))
        spread = float((np.max(sel) - np.min(sel)) / m) if m > 0 else math.inf
        return m, spread

    plateaus = {"left": plateau(-1), "right": plateau(+1)}
    # tail levels of the centered sides (a drifted side is visited finitely often: 0)
    lam = centered_tail_levels(model, nu, window)
    for name in lam:
        spread = plateaus[name][1]
        if spread > PLATEAU_REL_TOL:
            raise PlateauNotReached(
                f"{name} tail of lambda_X varies {spread:.1%} over the probe band")
    return InvariantProfile(window, vals, lam.get("left", 0.0), lam.get("right", 0.0),
                            plateaus["left"], plateaus["right"])


def predicted_constant_Cy(
    model: OscillatingModel,
    y: int,
    window: Optional[Window] = None,
) -> tuple[float, InvariantProfile]:
    """The constant C_y in P_x[X_n = y] ~ C_y / sqrt(n) for (Z,Z), (P,Z) and (Z,N).

    C_y = lambda_X(y) / (sqrt(pi/2) (sigma lam_X(-inf) + sigma' lam_X(+inf))),
    with the drifted-side term dropped in the (P,Z) case.  (Z,N) is read off
    its exact (P,Z) mirror at -y, with the profile reversed.  The default
    window is +-max(256, 128 max jump), wide enough for lambda_X to reach its
    plateau on a law with long jumps.
    """
    case = model.drift_case
    if not (case.markovian and case.centered_side):
        raise ValidationError(f"C_y formula applies to (Z,Z)/(P,Z)/(Z,N), not {case.value}")
    half = max(256, 128 * model.max_jump)
    window = window or Window(-half, half)
    if case is DriftCase.ZN:
        c, prof = predicted_constant_Cy(mirror_model(model), -y, Window(-window.hi, -window.lo))
        return c, InvariantProfile(window, prof.values[::-1], prof.lam_plus_inf,
                                   prof.lam_minus_inf, prof.plateau_plus, prof.plateau_minus)
    spectral = dominant_eigenpair(switching_kernel(model, window))
    prof = invariant_profile(model, spectral.nu, window)
    denom = tail_normaliser(model, {"left": prof.lam_minus_inf, "right": prof.lam_plus_inf})
    return float(prof.values[window.index(y)] / denom), prof


def predict(model: OscillatingModel) -> dict:
    """Full regime report: classification, tilt plan, and constants."""
    pred = classify(model)
    report = pred.report()
    report["tilt_branch"] = report["tilt_r"] = None   # every report has the plan's keys
    if pred.subcase is not None:   # (N,N) is planned, like its details, in its mirror's terms
        plan = select_tilt(mirror_model(model) if pred.mirrored else model, pred)
        report["tilt_t"] = plan.single_t
        report["tilt_branch"] = plan.branch
        report["base_case_after_tilt"] = plan.base_case.value
        report["tilt_r"] = plan.r
    constants = {"kind": report["constant_kind"]}
    if pred.constant_kind == "local_constant":
        c0, prof = predicted_constant_Cy(model, 0)
        constants["C_0"] = c0
        constants["lambda_X_minus_inf"] = prof.lam_minus_inf
        constants["lambda_X_plus_inf"] = prof.lam_plus_inf
    report["constants"] = constants
    return report
