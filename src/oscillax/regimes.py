"""Asymptotic regime classification and predicted constants.

Maps a validated model to its predicted return-probability shape
P_x[X_n = y] ~ C * rate^n / n^exponent, choosing among the nine drift cases
and, for the two-media transient cases, the A/B/C transform-geometry subcases.
Equality branches (same argmin, same minimum, tangency of one transform at the
other's argmin) are measure-zero and are only ever entered through exact
rational/algebraic comparison; float ties without exact inputs raise
TieUnresolvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConventionMismatch,
    CrossingMissing,
    PlateauNotReached,
    TieUnresolvable,
    ValidationError,
)
from .evolve import Window
from .ladder import LadderVariant, centered_sides, killed_green
from .model import (
    DriftCase,
    LatticeDist,
    OscillatingModel,
    TIE_TOL,
    argmin_laplace,
    cross_point,
    laplace,
    mirror_dist,
    mirror_model,
    tilt,
    validate_model,
)
from .switching import dominant_eigenpair, switching_kernel

SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

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
    tilt_t: Optional[float] = None
    base_case_after_tilt: Optional[DriftCase] = None
    mirrored: bool = False
    details: dict = field(default_factory=dict)

    def report(self) -> dict:
        return {
            "case": self.drift_case.value,
            "subcase": self.subcase,
            "rate": self.rate,
            "exponent": self.exponent,
            "rate_kind": self.rate_kind,
            "constant_kind": self.constant_kind,
            "tilt_t": self.tilt_t,
            "base_case_after_tilt":
                self.base_case_after_tilt.value if self.base_case_after_tilt else None,
            "mirrored": self.mirrored,
            "details": {k: float(v) for k, v in self.details.items()},
        }


# ---------------------------------------------------------------------------
# Exact comparison of transform-derived algebraic numbers
# ---------------------------------------------------------------------------

def _sympy_argmin_u(d: LatticeDist):
    """The unique positive root u* = exp(argmin) of u d/du [sum p_i u^{v_i}]."""
    import sympy

    u = sympy.Symbol("u", positive=True)
    poly = sum(sympy.Rational(p) * v * u ** (int(v) - d.min_support)
               for v, p in zip(d.values, d.fracs) if v != 0)
    poly = sympy.Poly(sympy.together(poly), u)
    roots = [r for r in poly.real_roots() if r.is_positive]
    if len(roots) != 1:
        raise TieUnresolvable(f"expected one positive critical point, got {roots}")
    return roots[0]


def _sympy_value(d: LatticeDist, u_expr):
    import sympy

    return sum(sympy.Rational(p) * u_expr ** int(v) for v, p in zip(d.values, d.fracs))


def _exact_sign(expr) -> int:
    """Sign of an exact algebraic expression: 0 when it is identically zero."""
    import sympy

    simplified = sympy.nsimplify(expr, rational=False)
    try:
        mp = sympy.minimal_polynomial(simplified, sympy.Symbol("x"))
        if mp == sympy.Symbol("x"):
            return 0
    except (sympy.SympifyError, NotImplementedError):
        pass
    val = expr.evalf(60)
    if abs(val) < sympy.Float(10) ** -50:
        return 0
    return 1 if val > 0 else -1


class _Comparator:
    """Compares lambda/rho-type quantities, escalating ties to exact arithmetic."""

    def __init__(self, left: LatticeDist, right: LatticeDist):
        self.left, self.right = left, right
        self._u = {}

    def _exact_ready(self):
        if not (self.left.exact and self.right.exact):
            raise TieUnresolvable(
                "comparison inside tie tolerance but probabilities are not exact rationals"
            )

    def _u_star(self, which: str):
        if which not in self._u:
            self._u[which] = _sympy_argmin_u(self.left if which == "L" else self.right)
        return self._u[which]

    def cmp_lambda(self, lam: float, lamp: float) -> int:
        if abs(lam - lamp) > TIE_TOL:
            return -1 if lam < lamp else 1
        self._exact_ready()
        import sympy

        return _exact_sign(sympy.log(self._u_star("L")) - sympy.log(self._u_star("R")))

    def _pair(self, which_dist: str, which_u: str):
        d = self.left if which_dist == "L" else self.right
        return _sympy_value(d, self._u_star(which_u))

    def cmp_values(self, a: float, b: float, da: str, ua: str, db: str, ub: str) -> int:
        """Compare transform values, e.g. rho = L at u_L vs rho' = L' at u_R."""
        if abs(a - b) > TIE_TOL:
            return -1 if a < b else 1
        self._exact_ready()
        return _exact_sign(self._pair(da, ua) - self._pair(db, ub))


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
            f"case {case.value} analysis requires the two-media convention"
        )
    lam, rho = argmin_laplace(model.left)
    lamp, rhop = argmin_laplace(model.right)
    details = {"lambda": lam, "lambda_prime": lamp, "rho": rho, "rho_prime": rhop}
    cmpx = _Comparator(model.left, model.right)
    pred = RegimePrediction(case, 0.0, 0.0, "unknown", details=details)

    if case is DriftCase.NP:
        # lambda > 0 > lambda'; any transform crossing sits at value >= 1, so a
        # pure-geometric branch is impossible and the shape is always max/n^{3/2}
        pred.subcase = "C"
        pred.rate, pred.rate_kind = max(rho, rhop), "max_rho"
        pred.exponent = 1.5
        return pred

    s_lam = cmpx.cmp_lambda(lam, lamp)
    if s_lam == 0:
        s_rho = cmpx.cmp_values(rho, rhop, "L", "L", "R", "R")
        if s_rho == 0:
            pred.subcase, pred.rate, pred.rate_kind, pred.exponent = "A1", rho, "rho", 0.5
        else:
            pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                "A2", max(rho, rhop), "max_rho", 1.5)
        return pred
    if s_lam < 0:  # lambda < lambda': case B
        s_rho = cmpx.cmp_values(rho, rhop, "L", "L", "R", "R")
        if s_rho == 0:
            star = cross_point(model.left, model.right)
            if star is None:
                raise CrossingMissing("B1 selected but the transforms do not cross")
            details["rho_star"] = star[1]
            details["lambda_star"] = star[0]
            pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                "B1", star[1], "rho_star", 0.0)
            return pred
        if s_rho < 0:  # rho < rho': compare L(lambda') with rho'
            val = laplace(model.left, lamp)
            details["L_at_lambda_prime"] = val
            s = cmpx.cmp_values(val, rhop, "L", "R", "R", "R")
            if s < 0:
                pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                    "B2", rhop, "rho_prime", 1.5)
            elif s == 0:
                pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                    "B3", rhop, "rho_prime", 0.5)
            else:
                star = cross_point(model.left, model.right)
                if star is None:
                    raise CrossingMissing("B4 selected but the transforms do not cross")
                details["rho_star"], details["lambda_star"] = star[1], star[0]
                pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                    "B4", star[1], "rho_star", 0.0)
        else:  # rho > rho': compare L'(lambda) with rho
            val = laplace(model.right, lam)
            details["Lprime_at_lambda"] = val
            s = cmpx.cmp_values(val, rho, "R", "L", "L", "L")
            if s < 0:
                pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                    "B5", rho, "rho", 1.5)
            elif s == 0:
                pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                    "B6", rho, "rho", 0.5)
            else:
                star = cross_point(model.left, model.right)
                if star is None:
                    raise CrossingMissing("B7 selected but the transforms do not cross")
                details["rho_star"], details["lambda_star"] = star[1], star[0]
                pred.subcase, pred.rate, pred.rate_kind, pred.exponent = (
                    "B7", star[1], "rho_star", 0.0)
        return pred
    # lambda > lambda': case C, single shape regardless of the finer branch
    pred.subcase = "C"
    pred.rate, pred.rate_kind, pred.exponent = max(rho, rhop), "max_rho", 1.5
    return pred


# ---------------------------------------------------------------------------
# Tilt selection
# ---------------------------------------------------------------------------

@dataclass
class TiltPlan:
    t_left: float
    t_right: float
    single_t: Optional[float]
    branch: str
    base_case: DriftCase
    tilted_model: OscillatingModel
    rate: float
    r: float


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
    lam = prediction.details["lambda"]
    lamp = prediction.details["lambda_prime"]
    rho, rhop = prediction.details["rho"], prediction.details["rho_prime"]

    def finish(t_left, t_right, branch, single):
        tl = tilt(model.left, t_left)
        tr = tilt(model.right, t_right)
        tilted = validate_model(tl, tl, tr, two_media=True)
        La, Lb = laplace(model.left, t_left), laplace(model.right, t_right)
        plan = TiltPlan(
            t_left=t_left, t_right=t_right, single_t=single, branch=branch,
            base_case=tilted.drift_case, tilted_model=tilted,
            rate=max(La, Lb), r=min(La, Lb) / max(La, Lb),
        )
        return plan

    if case is DriftCase.NP:
        return finish(lam, lamp, "NP", None)

    sub = prediction.subcase
    if sub in ("A1", "A2"):
        return finish(lam, lam, sub, lam)
    if sub in ("B1", "B4", "B7"):
        star = prediction.details.get("lambda_star")
        if star is None:
            raise CrossingMissing(f"{sub} requires a transform crossing")
        return finish(star, star, sub, star)
    if sub == "B2" or sub == "B3":
        return finish(lamp, lamp, sub, lamp)
    if sub in ("B5", "B6"):
        return finish(lam, lam, sub, lam)
    # case C: refine the branch the same way case B does, mirrored in order
    cmpx = _Comparator(model.left, model.right)
    s_rho = cmpx.cmp_values(rho, rhop, "L", "L", "R", "R")
    if s_rho == 0:
        branch = "C1"
    elif s_rho < 0:
        val = laplace(model.left, lamp)
        s = cmpx.cmp_values(val, rhop, "L", "R", "R", "R")
        branch = "C2" if s < 0 else ("C3" if s == 0 else "C4")
    else:
        val = laplace(model.right, lam)
        s = cmpx.cmp_values(val, rho, "R", "L", "L", "L")
        branch = "C5" if s < 0 else ("C6" if s == 0 else "C7")
    if branch in ("C1", "C4", "C7"):
        star = cross_point(model.left, model.right)
        if star is None:
            raise CrossingMissing(f"{branch} requires a transform crossing")
        return finish(star[0], star[0], branch, star[0])
    if branch in ("C2", "C3"):
        return finish(lamp, lamp, branch, lamp)
    return finish(lam, lam, branch, lam)


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
    plateau_rel_tol: float = 0.02,
) -> InvariantProfile:
    """Occupation-time invariant measure lambda_X and its tail levels.

    The tail levels come from the ladder identities
    lambda_X(-inf) = nu(V_strict_asc(|.|)) / |E weak-desc height| (left side)
    and symmetrically on the right; the plateau of lambda_X over a probe band
    is required to agree within ``plateau_rel_tol`` as a consistency check.
    """
    vals = np.zeros(window.width)
    # occupation h(y) = sum_x nu(x) G(x, y) of each medium's killed walk solves
    # (I - A^T) h = nu, and I - A^T is the killed matrix of the mirrored law
    for law, lo, hi in ((model.left, window.lo, model.convention.left_end),
                        (model.right, 1, window.hi)):
        seg = slice(window.index(lo), window.index(hi) + 1)
        vals[seg] = killed_green(mirror_dist(law), lo, hi, nu[seg])
    if not model.two_media:
        vals[window.index(0)] = nu[window.index(0)] / (1.0 - model.origin.pmf(0))

    def plateau(side):
        probe_hi = (abs(window.lo) if side < 0 else window.hi) // 4
        probe_lo = max(4, probe_hi // 2)
        ys = range(probe_lo, probe_hi + 1)
        sel = [vals[window.index(-y if side < 0 else y)] for y in ys]
        m = float(np.mean(sel))
        spread = float((np.max(sel) - np.min(sel)) / m) if m > 0 else math.inf
        return m, spread

    plateaus = {"left": plateau(-1), "right": plateau(+1)}
    # tail levels of the centered sides (a drifted side is visited finitely often: 0);
    # nu is exactly 0 off the arrival band, V is 0 on the other medium
    support = np.flatnonzero(nu)
    xs = window.positions()[support]
    lam = {"left": 0.0, "right": 0.0}
    for name, _, pot, s, theta in centered_sides(model):
        nu_v = sum(nu[support] * pot.V(LadderVariant.STRICT_ASC, theta - s * xs))
        lam[name] = float(nu_v) / abs(pot.height_mean(LadderVariant.WEAK_DESC))
        spread = plateaus[name][1]
        if spread > plateau_rel_tol:
            raise PlateauNotReached(
                f"{name} tail of lambda_X varies {spread:.1%} over the probe band")
    return InvariantProfile(window, vals, lam["left"], lam["right"],
                            plateaus["left"], plateaus["right"])


def predicted_constant_Cy(
    model: OscillatingModel,
    y: int,
    spectral=None,
    window: Optional[Window] = None,
) -> tuple[float, InvariantProfile]:
    """The constant C_y in P_x[X_n = y] ~ C_y / sqrt(n) for (Z,Z) and (P,Z).

    C_y = lambda_X(y) / (sqrt(pi/2) (sigma lam_X(-inf) + sigma' lam_X(+inf))),
    with the drifted-side term dropped in the (P,Z) case.
    """
    case = model.drift_case
    if case not in (DriftCase.ZZ, DriftCase.PZ):
        raise ValidationError(f"C_y formula applies to (Z,Z)/(P,Z), not {case.value}")
    window = window or Window(-256, 256)
    if spectral is None:
        spectral = dominant_eigenpair(switching_kernel(model, window))
    prof = invariant_profile(model, spectral.nu, window)
    if case is DriftCase.ZZ:
        denom = SQRT_PI_OVER_2 * (model.left.sigma * prof.lam_minus_inf
                                  + model.right.sigma * prof.lam_plus_inf)
    else:
        denom = SQRT_PI_OVER_2 * model.right.sigma * prof.lam_plus_inf
    return float(prof.values[window.index(y)] / denom), prof


def predict(model: OscillatingModel, window: Optional[Window] = None) -> dict:
    """Full regime report: classification, tilt plan, and constants."""
    pred = classify(model)
    report = pred.report()
    if pred.drift_case in (DriftCase.NP, DriftCase.PP) and not pred.mirrored:
        plan = select_tilt(model, pred)
        report["tilt_t"] = plan.single_t
        report["tilt_branch"] = plan.branch
        report["base_case_after_tilt"] = plan.base_case.value
        report["tilt_r"] = plan.r
        pred.tilt_t = plan.single_t
        pred.base_case_after_tilt = plan.base_case
    constants = {"kind": report["constant_kind"]}
    if pred.drift_case in (DriftCase.ZZ, DriftCase.PZ):
        c0, prof = predicted_constant_Cy(model, 0, window=window)
        constants["C_0"] = c0
        constants["lambda_X_minus_inf"] = prof.lam_minus_inf
        constants["lambda_X_plus_inf"] = prof.lam_plus_inf
    report["constants"] = constants
    return report
