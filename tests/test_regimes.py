import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscillax import algebraic
from oscillax.cli import main
from oscillax.errors import (
    ConventionMismatch,
    OscillaxError,
    PlateauNotReached,
    TieUnresolvable,
    ValidationError,
)
from oscillax.evolve import Window, default_window, marginal_sequence
from oscillax.fixtures import (
    FIXTURES,
    MU_A,
    MU_A_MIRROR,
    SUBCASE_FIXTURES,
    _pp,
    fix_pp,
    subcase_witnesses,
)
from oscillax.model import (
    TIE_TOL,
    DriftCase,
    Medium,
    argmin_laplace,
    dist,
    laplace,
    load_model,
    mirror_dist,
    mirror_model,
    save_model,
    validate_media,
    validate_model,
)
from oscillax.regimes import (
    _Comparator,
    classify,
    invariant_profile,
    predict,
    predicted_constant_Cy,
    select_tilt,
)
from oscillax.switching import dominant_eigenpair, switching_kernel

# (subcase, rate, exponent) pinned per fixture; rates for the crossing
# branches are filled from the classifier's own bisection (checked >= max rho)
EXPECTED = {
    "A1": ("A1", 1.5 * 4 ** (-2 / 3) + 0.25, 0.5),
    "A2": ("A2", 0.625 + 0.125 * 4 ** (1 / 3) + 0.25 * 4 ** (-2 / 3), 1.5),
    "B1": ("B1", None, 0.0),
    "B2": ("B2", 3 ** (2 / 3) / 8 + 0.125 + 0.75 * 3 ** (-1 / 3), 1.5),
    "B3": ("B3", 0.72, 0.5),
    "B4": ("B4", None, 0.0),
    "B5": ("B5", 1.5 * 4 ** (-2 / 3) + 0.25, 1.5),
    "B6": ("B6", 0.875, 0.5),
    "B7": ("B7", None, 0.0),
    "C": ("C", 0.95, 1.5),
}


class TestClassifyFixtures:
    def test_drift_regimes(self, fix_pn, fix_zz, fix_pz, fix_zp, fix_pp):
        for m, case, rate, exp, kind in [
            (fix_pn, DriftCase.PN, 1.0, 0.0, "invariant_measure"),
            (fix_zz, DriftCase.ZZ, 1.0, 0.5, "local_constant"),
            (fix_pz, DriftCase.PZ, 1.0, 0.5, "local_constant"),
            (fix_zp, DriftCase.ZP, 1.0, 1.5, "unknown"),
        ]:
            p = classify(m)
            assert p.drift_case is case
            assert p.rate == rate and p.exponent == exp
            assert p.constant_kind == kind
            assert p.subcase is None
        p = classify(fix_pp)
        assert (p.subcase, p.exponent) == ("B2", 1.5)
        assert p.rate == pytest.approx(EXPECTED["B2"][1], abs=1e-12)

    def test_subcase_table(self, subcase_models):
        for name, m in subcase_models.items():
            p = classify(m)
            sub, rate, exp = EXPECTED[name]
            assert p.subcase == sub, name
            assert p.exponent == exp, name
            if rate is not None:
                assert p.rate == pytest.approx(rate, abs=1e-10), name
            else:
                # crossing value dominates both minima strictly
                assert p.rate > max(p.details["rho"], p.details["rho_prime"]), name
                assert p.rate < 1.0

    # the first grid hit of each subcase the search reaches: its left and
    # right atoms, masses in twelfths
    GRID_WITNESSES = {
        "A1": ({-1: 1, 0: 1, 2: 10}, {-1: 1, 0: 1, 2: 10}),
        "A2": ({-1: 1, 0: 7, 2: 4}, {-1: 2, 0: 2, 2: 8}),
        "B2": ({-1: 1, 0: 1, 2: 10}, {-2: 1, 0: 1, 1: 10}),
        "B4": ({-1: 1, 0: 7, 2: 4}, {-1: 3, 0: 3, 2: 6}),
        "B5": ({-1: 1, 0: 4, 2: 7}, {-1: 2, 0: 1, 2: 9}),
        "B6": ({-1: 1, 0: 7, 2: 4}, {-2: 1, 0: 1, 1: 10}),
        "B7": ({-1: 1, 0: 8, 2: 3}, {-1: 3, 0: 4, 2: 5}),
        "C": ({-1: 1, 0: 2, 2: 9}, {-1: 1, 0: 1, 2: 10}),
    }

    def test_grid_search_witnesses(self):
        from oscillax.fixtures import search_subcase_fixtures

        def twelfths(law):
            return {v: p * 12 for v, p in law.as_pairs()}

        found = search_subcase_fixtures()
        assert {name: (twelfths(m.left), twelfths(m.right))
                for name, [(m, _)] in found.items()} == self.GRID_WITNESSES
        for name, [(m, pred)] in found.items():
            assert m.two_media and pred.subcase == name == classify(m).subcase

    def test_pp_requires_two_media(self, fix_pn):
        m = validate_model(fix_pn.left, fix_pn.origin, fix_pn.left)  # (P,P) three-media
        with pytest.raises(ConventionMismatch):
            classify(m)

    def test_atom_beyond_exp_overflow(self, fix_pp):
        # an atom at 701: L'(t) at t = -1 would need e^{701}, so the argmin
        # bracket starts inside |t v| <= 700
        left = dist({-1: F(1, 3), 0: F(1, 3), 701: F(1, 3)})
        m = validate_model(left, left, fix_pp.right, two_media=True)
        p = classify(m)
        assert (p.drift_case, p.subcase, p.exponent) == (DriftCase.PP, "C", 1.5)
        assert p.details["lambda"] < 0 and p.details["rho"] < 1.0
        assert predict(m)["subcase"] == "C"


def _two_sided_law(atoms, weights):
    """A law on [-2, 2] with integer weights and at least the three ``atoms``."""
    weights = {**weights, **{v: weights.get(v, 0) + 1 for v in atoms}}
    tot = sum(weights.values())
    return dist({v: F(w, tot) for v, w in weights.items()})


# atoms neg < 0 < pos and a third whose differences with them have gcd 1
_APERIODIC_ATOMS = [(neg, pos, t) for neg in (-2, -1) for pos in (1, 2) for t in range(-2, 3)
                    if math.gcd(pos - neg, t - neg) == 1]
_two_sided_laws = st.builds(_two_sided_law, st.sampled_from(_APERIODIC_ATOMS),
                            st.dictionaries(st.integers(-2, 2), st.integers(1, 3), max_size=3))
# centered laws on [-2, 2], so that random models can be (Z,Z) or (P,Z)
_CENTERED_LAWS = [dist(law) for law in (
    {-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)},
    {-1: F(1, 2), 0: F(1, 4), 2: F(1, 4)},
    {-2: F(1, 4), 0: F(1, 4), 1: F(1, 2)},
    {-2: F(1, 6), -1: F(1, 6), 0: F(1, 3), 1: F(1, 6), 2: F(1, 6)},
)]


class TestMirrorSymmetry:
    def test_mirrored_cases(self, fix_pz, fix_zp, fix_pp):
        for m in (fix_pz, fix_zp, fix_pp):
            mm = mirror_model(m)
            p, pm = classify(m), classify(mm)
            assert pm.mirrored
            assert pm.drift_case.value == {
                "(P,Z)": "(Z,N)", "(Z,P)": "(N,Z)", "(P,P)": "(N,N)"}[p.drift_case.value]
            assert pm.rate == pytest.approx(p.rate, abs=1e-12)
            assert pm.exponent == p.exponent

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_two_sided_laws, min_size=3, max_size=3))
    def test_random_models(self, laws):
        # three-media laws on [-2, 2]: a model and its mirror raise the same
        # error or agree on rate and exponent
        try:
            m = validate_model(*laws)
        except ValidationError:
            assume(False)

        def outcome(model):
            try:
                pred = classify(model)
            except OscillaxError as exc:
                return type(exc), None, None
            return None, pred.rate, pred.exponent

        err, rate, exponent = outcome(m)
        m_err, m_rate, m_exponent = outcome(mirror_model(m))
        assert err is m_err
        if err is None:
            assert abs(m_rate - rate) <= 1e-12
            assert m_exponent == exponent

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(_two_sided_laws, st.sampled_from(_CENTERED_LAWS)),
                    min_size=3, max_size=3))
    def test_random_models_predict(self, laws):
        # predict on three-media laws on [-2, 2]: a model and its mirror raise
        # the same error or agree on rate and exponent, and on C_0 where both
        # report it, (Z,Z) and (P,Z)/(Z,N) pairs; centered laws are mixed in
        # so that these occur
        try:
            m = validate_model(*laws)
        except ValidationError:
            assume(False)

        def outcome(model):
            try:
                rep = predict(model)
            except OscillaxError as exc:
                return type(exc), None
            return None, rep

        err, rep = outcome(m)
        m_err, m_rep = outcome(mirror_model(m))
        assert err is m_err
        if err is None:
            assert abs(m_rep["rate"] - rep["rate"]) <= 1e-12
            assert m_rep["exponent"] == rep["exponent"]
            c0, m_c0 = rep["constants"].get("C_0"), m_rep["constants"].get("C_0")
            if c0 is not None and m_c0 is not None:
                assert m_c0 == pytest.approx(c0, rel=1e-9, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(_two_sided_laws, _two_sided_laws)
    def test_select_tilt_random_np_models(self, a, b):
        # a two-media (N,P) model mirrors to an (N,P) model whose tilts are
        # the model's negated and swapped, at the same rate and ratio; each
        # medium takes the drawn law or its mirror, whichever drifts its way
        left = a if a.mean < 0 else mirror_dist(a)
        right = b if b.mean > 0 else mirror_dist(b)
        try:
            m = validate_model(left, left, right, two_media=True)
        except ValidationError:
            assume(False)
        assume(m.drift_case is DriftCase.NP)
        plan, m_plan = select_tilt(m), select_tilt(mirror_model(m))
        assert abs(m_plan.t_left + plan.t_right) <= 1e-12
        assert abs(m_plan.t_right + plan.t_left) <= 1e-12
        assert abs(m_plan.rate - plan.rate) <= 1e-12
        assert abs(m_plan.r - plan.r) <= 1e-12

    @pytest.mark.parametrize("name", ["FIX-PP", *SUBCASE_FIXTURES])
    def test_predict_plans_nn_in_its_mirrors_terms(self, name):
        # predict answers (N,N) by the plan of its (P,P) mirror, as classify
        # states (N,N)'s details in the mirror's terms
        m = fix_pp() if name == "FIX-PP" else SUBCASE_FIXTURES[name]()
        assert m.drift_case is DriftCase.PP
        rep, m_rep = predict(m), predict(mirror_model(m))
        assert m_rep["case"] == "(N,N)" and m_rep["mirrored"] is True
        for key in ("tilt_t", "tilt_branch", "base_case_after_tilt", "tilt_r"):
            assert rep[key] is not None and m_rep[key] == rep[key], key

    def test_every_report_has_the_same_keys(self):
        # classify.json's key set does not depend on the drift case: a model
        # without a tilt plan writes the plan's keys as null
        reports = [predict(m) for make in (*FIXTURES.values(), *SUBCASE_FIXTURES.values())
                   for m in (make(), mirror_model(make()))]
        assert len({frozenset(rep) for rep in reports}) == 1
        assert {"tilt_t", "tilt_branch", "base_case_after_tilt", "tilt_r"} <= set(reports[0])
        assert reports[0]["case"] == "(P,N)" and reports[0]["tilt_branch"] is None

    def test_select_tilt_mirrored_pp_raises(self, fix_pp):
        # the mirror of a (P,P) model is (N,N), which select_tilt does not cover
        with pytest.raises(ConventionMismatch):
            select_tilt(mirror_model(fix_pp))

    def test_invariant_profile_mirrors(self, fix_zz, fix_pz):
        # the mirrored model's nu is nu reversed; its lambda_X is lambda_X
        # reversed, with the two tail levels swapped ((Z,N) for FIX-PZ)
        w = Window(-256, 256)
        for m in (fix_zz, fix_pz):
            nu = dominant_eigenpair(switching_kernel(m, w)).nu
            prof = invariant_profile(m, nu, w)
            mprof = invariant_profile(mirror_model(m), nu[::-1], w)
            assert mprof.lam_minus_inf == pytest.approx(prof.lam_plus_inf, rel=1e-12, abs=0)
            assert mprof.lam_plus_inf == pytest.approx(prof.lam_minus_inf, rel=1e-12, abs=0)
            assert np.allclose(mprof.values, prof.values[::-1], rtol=1e-12, atol=0)


class TestNP:
    @pytest.fixture()
    def np_model(self):
        left = dist({-2: F(1, 2), 0: F(1, 4), 1: F(1, 4)})   # mean -3/4
        right = dist({-2: F(1, 8), 0: F(1, 8), 1: F(3, 4)})  # mean +1/2
        return validate_model(left, left, right, two_media=True)

    def test_np_classification(self, np_model):
        assert np_model.drift_case is DriftCase.NP
        p = classify(np_model)
        assert p.subcase == "C"
        assert p.exponent == 1.5
        assert p.rate == pytest.approx(max(p.details["rho"], p.details["rho_prime"]))

    def test_np_never_requests_crossing(self, np_model):
        # lambda > 0 > lambda': any transform crossing sits at value >= 1, so
        # the plan must tilt each side by its own argmin instead
        p = classify(np_model)
        plan = select_tilt(np_model, p)
        assert plan.branch == "NP"
        assert plan.single_t is None
        assert plan.t_left == pytest.approx(p.details["lambda"])
        assert plan.t_right == pytest.approx(p.details["lambda_prime"])
        assert plan.base_case is DriftCase.ZZ


class TestSelectTilt:
    def test_tilt_table(self, subcase_models):
        expected_base = {
            "A1": DriftCase.ZZ, "A2": DriftCase.ZZ,
            "B1": DriftCase.PN, "B4": DriftCase.PN, "B7": DriftCase.PN,
            "B2": DriftCase.PZ, "B3": DriftCase.PZ,
            "B5": DriftCase.ZN, "B6": DriftCase.ZN,
            "C": DriftCase.NP,
        }
        for name, m in subcase_models.items():
            p = classify(m)
            plan = select_tilt(m, p)
            assert plan.base_case is expected_base[name], name
            # tilt consistency: revalidating the tilted laws reproduces it
            assert plan.tilted_model.drift_case is plan.base_case, name
            # composition: extracted geometric factor times the tilted walk's
            # own rate reproduces the predicted rate
            residual_rate = classify(plan.tilted_model).rate
            assert plan.rate * residual_rate == pytest.approx(p.rate, abs=1e-9), name
        # B2: r = L(lambda')/rho' in closed form, on the damped left side
        plan = select_tilt(subcase_models["B2"])
        assert plan.r == pytest.approx(0.8509373209614202 / 0.905031433644464, abs=1e-12)
        assert plan.damped_side == "left"

    @pytest.mark.parametrize("branch, left, right, base", [
        ("C2", {-1: F(1, 6), 0: F(1, 12), 2: F(3, 4)},
         {-1: F(1, 12), 0: F(1, 3), 2: F(7, 12)}, DriftCase.NZ),
        ("C4", {-1: F(1, 4), 0: F(1, 3), 2: F(5, 12)},
         {-1: F(1, 12), 0: F(2, 3), 2: F(1, 4)}, DriftCase.NP),
        ("C5", {-1: F(1, 12), 0: F(1, 6), 2: F(3, 4)},
         {-1: F(1, 12), 0: F(1, 12), 2: F(5, 6)}, DriftCase.ZP),
        ("C7", {-1: F(1, 6), 0: F(1, 2), 2: F(1, 3)},
         {-1: F(1, 12), 0: F(2, 3), 2: F(1, 4)}, DriftCase.NP),
    ])
    def test_case_C_branches(self, branch, left, right, base):
        # denominator-12 grid models, one per reachable case-C branch beyond C1
        m = _pp(left, right)
        p = classify(m)
        assert p.subcase == "C"
        plan = select_tilt(m, p)
        assert plan.branch == branch
        assert plan.base_case is base
        assert plan.rate * classify(plan.tilted_model).rate == pytest.approx(p.rate, abs=1e-9)

    def test_crossing_branches_use_lambda_star(self, subcase_models):
        for name in ("B1", "B4", "B7"):
            m = subcase_models[name]
            p = classify(m)
            plan = select_tilt(m, p)
            assert plan.single_t == pytest.approx(p.details["lambda_star"], abs=1e-12)
            assert plan.r == pytest.approx(1.0, abs=1e-9)

    def test_rate_dominance(self, subcase_models):
        # For lambda <= lambda' the crossing (when present) tilts both media
        # toward the interface, so no tilt between the argmins beats the rate:
        # rate >= min(L, L')(t) with equality exactly at the crossing branches.
        for name, m in subcase_models.items():
            p = classify(m)
            if p.subcase.startswith("C"):
                continue  # see below: the inequality genuinely reverses there
            lam, lamp = p.details["lambda"], p.details["lambda_prime"]
            for t in np.linspace(min(lam, lamp), max(lam, lamp), 41):
                assert p.rate >= min(laplace(m.left, t),
                                     laplace(m.right, t)) - 1e-10, (name, t)

    def test_rate_dominance_reverses_in_case_C(self, subcase_models):
        # With lambda > lambda' the crossing value rho_star exceeds the true
        # rate max(rho, rho'): the tilted walk there drifts away from the
        # interface, so the min(L, L') level is not an achievable confinement
        # rate.  Pin the counterexample so the asymmetry stays documented.
        m = subcase_models["C"]
        p = classify(m)
        from oscillax.model import cross_point

        star = cross_point(m.left, m.right)
        assert star is not None and star[1] > p.rate + 1e-4


    @pytest.mark.parametrize("name", [*SUBCASE_FIXTURES, "NP"])
    def test_plan_rate_is_larger_transform(self, name, subcase_models):
        # TiltPlan.rate is max(L(t_left), L'(t_right)); that is classify's rate
        # on A1-B7 and (N,P), but not in case C, whose C1 plan tilts at the
        # crossing point
        if name == "NP":
            left = dist({-2: F(1, 2), 0: F(1, 4), 1: F(1, 4)})   # TestNP's model
            m = validate_model(left, left, dist({-2: F(1, 8), 0: F(1, 8), 1: F(3, 4)}),
                               two_media=True)
        else:
            m = subcase_models[name]
        p = classify(m)
        plan = select_tilt(m, p)
        assert plan.rate == max(laplace(m.left, plan.t_left), laplace(m.right, plan.t_right))
        if name == "C":
            assert plan.branch == "C1"
            assert plan.rate == pytest.approx(0.958534, abs=1e-6)
            assert p.rate == pytest.approx(0.95, abs=1e-6)
        else:
            assert plan.rate == pytest.approx(p.rate, rel=1e-9)


class TestTies:
    def test_float_tie_unresolvable(self):
        left = dist({-1: 0.25, 0: 0.25, 2: 0.5})
        right = dist({-1: 0.25, 0: 0.25, 2: 0.5})
        m = validate_model(left, left, right, two_media=True)
        with pytest.raises(TieUnresolvable):
            classify(m)

    def test_rational_tie_resolved(self, subcase_models):
        # same-argmin different-minimum pair: resolved exactly to A2
        assert classify(subcase_models["A2"]).subcase == "A2"

    @pytest.mark.parametrize("eps, subcase", [(F(1, 10**13), "C"), (F(-1, 10**13), "B2")])
    def test_near_a1_lambda_tie_resolved(self, eps, subcase):
        # 1e-13 moved between the end atoms of A1's left law puts lambda and
        # lambda' inside the float tie tolerance but apart: the exact
        # comparison of the argmins decides which side lambda is on
        left = {-1: F(1, 4) + eps, 0: F(1, 4), 2: F(1, 2) - eps}
        report = predict(_pp(left, {-1: F(1, 4), 0: F(1, 4), 2: F(1, 2)}))
        assert report["subcase"] == subcase


# The tie decisions predict makes on each FIX-PP model, as (comparison, sign):
# "lambda" is lambda vs lambda', "LLRR" rho = L(lambda) vs rho' = L'(lambda'),
# "LRRR" L(lambda') vs rho' and "RLLL" L'(lambda) vs rho.  Every one is an
# equality, as the earlier sympy-based resolution also found.
PINNED_TIES = {
    "FIX-PP": [], "FIX-PP-A1": [("lambda", 0), ("LLRR", 0)], "FIX-PP-A2": [("lambda", 0)],
    "FIX-PP-B1": [("LLRR", 0)], "FIX-PP-B2": [], "FIX-PP-B3": [("LRRR", 0)],
    "FIX-PP-B4": [], "FIX-PP-B5": [], "FIX-PP-B6": [("RLLL", 0)], "FIX-PP-B7": [],
    "FIX-PP-C": [("LLRR", 0)],
}


def _grid_law(support, weights):
    return dist({v: F(w, sum(weights)) for v, w in zip(support, weights)})


# the supports of the subcase grid search, with random integer masses
_grid_laws = st.builds(_grid_law, st.sampled_from([(-1, 0, 2), (-2, 0, 1)]),
                       st.lists(st.integers(1, 60), min_size=3, max_size=3))


def _moved(law, eps, to, frm):
    """``law``'s exact masses with ``eps`` moved from atom ``frm`` to atom ``to``."""
    atoms = dict(zip(law.values, law.fracs))
    atoms[to] += eps
    atoms[frm] -= eps
    return atoms


class TestExactComparator:
    @pytest.mark.parametrize("source", ["fixture files", "witnesses"])
    def test_tie_decisions_pinned(self, source, tmp_path, monkeypatch):
        # 7 ties on the 11 FIX-PP files and 7 on the 10 witnesses
        if source == "witnesses":
            models = {f"FIX-PP-{k}": m for k, m in subcase_witnesses().items()}
        else:
            assert main(["fixtures", "-o", str(tmp_path)]) == 0
            models = {p.stem: load_model(p) for p in tmp_path.glob("FIX-PP*.json")}
        exact_lambda, exact_values = _Comparator.exact_lambda, _Comparator.exact_values
        decisions = []

        def logged(label, sign):
            decisions.append((label, sign))
            return sign

        monkeypatch.setattr(_Comparator, "exact_lambda",
                            lambda self: logged("lambda", exact_lambda(self)))
        monkeypatch.setattr(_Comparator, "exact_values",
                            lambda self, *w: logged("".join(w), exact_values(self, *w)))
        found = {}
        for name, m in models.items():
            decisions.clear()
            predict(m)
            found[name] = list(decisions)
        assert found == {k: v for k, v in PINNED_TIES.items() if k in models}
        assert sum(map(len, found.values())) == 7

    @settings(max_examples=60, deadline=None)
    @given(_grid_laws, _grid_laws)
    def test_exact_agrees_with_float_outside_tie_tol(self, left, right):
        # each exact comparison, run whatever the float difference, never
        # contradicts a float decision that is outside TIE_TOL
        lam, rho = argmin_laplace(left)
        lamp, rhop = argmin_laplace(right)
        cmpx = _Comparator(left, right, lam, lamp)
        for diff, exact in [
            (lam - lamp, cmpx.exact_lambda),
            (rho - rhop, lambda: cmpx.exact_values("L", "L", "R", "R")),
            (laplace(left, lamp) - rhop, lambda: cmpx.exact_values("L", "R", "R", "R")),
            (laplace(right, lam) - rho, lambda: cmpx.exact_values("R", "L", "L", "L")),
        ]:
            if abs(diff) > TIE_TOL:
                assert exact() == (1 if diff > 0 else -1), diff

    @pytest.mark.parametrize("right", [
        {-2: F(1, 4), 0: F(1, 4), 4: F(1, 2)},    # L(u^2): u_R = u_L^(1/2)
        {-2: F(1, 2), 0: F(1, 4), 1: F(1, 4)},    # L(1/u): u_R = 1/u_L
    ])
    def test_equal_minima_at_irrational_argmins(self, right):
        # u_L = 4^(-1/3) and u_R are irrational and apart, rho == rho': the
        # value polynomials (resultants) decide the tie
        left = dist({-1: F(1, 4), 0: F(1, 4), 2: F(1, 2)})
        right = dist(right)
        cmpx = _Comparator(left, right, argmin_laplace(left)[0], argmin_laplace(right)[0])
        assert cmpx.exact_lambda() == -1
        assert cmpx.exact_values("L", "L", "R", "R") == 0
        assert cmpx.exact_values("R", "L", "L", "L") == 1

    def test_overlapping_boxes_of_unequal_values(self):
        # u_L = (sqrt 5 - 1)/2 and u_R = (sqrt 17 - 1)/8 are irrational, and
        # both argmin polynomials have the root -1, where both transforms are
        # -1/2: the value polynomials share the factor c + 1/2.  Brackets
        # wide enough that the first boxes isolating phi_L(u_L) = 0.886 and
        # phi_R(u_R) = 0.602 overlap hold no common root there, so the boxes
        # are refined until they part
        left = dist({-1: F(1, 4), 0: F(1, 8), 1: F(1, 2), 2: F(1, 8)})
        right = dist({-1: F(1, 8), 1: F(5, 8), 2: F(1, 4)})
        f, g = algebraic.transform(left), algebraic.transform(right)
        x = algebraic.ArgminRoot(left, argmin_laplace(left)[0])
        y = algebraic.ArgminRoot(right, argmin_laplace(right)[0])
        x.lo, x.hi, y.lo, y.hi = F(1, 2), F(1), F(3, 10), F(9, 10)
        rf, rg = algebraic._value_poly(x.P, f), algebraic._value_poly(y.P, g)
        common = algebraic._gcd(rf, rg)
        assert len(common) == 2 and common[0] / common[1] == F(1, 2)
        (a, b), (c, d) = (algebraic._isolate(x, f, algebraic._sturm(rf)),
                          algebraic._isolate(y, g, algebraic._sturm(rg)))
        assert c < a < d < b   # the first isolating boxes overlap
        x.lo, x.hi, y.lo, y.hi = F(1, 2), F(1), F(3, 10), F(9, 10)
        assert algebraic.compare_values(x, f, y, g) == 1

    @pytest.mark.parametrize("lo, hi, count", [
        (0, 4, 3), (1, 1, 1), (1, 2, 2), (F(3, 2), F(5, 2), 1), (F(5, 2), 3, 1), (4, 5, 0)])
    def test_sturm_count_on_closed_intervals(self, lo, hi, count):
        # (u - 1)(u - 2)(u - 3): roots at either end of [lo, hi] count
        seq = algebraic._sturm([-6, 11, -6, 1])
        assert algebraic._roots_in(seq, F(lo), F(hi)) == count

    def test_near_b3_crossing_below_float_resolution(self, tmp_path):
        # 1e-40 moved from atom 2 to atom -1 of B3's left law leaves the float
        # model unchanged, but L(lambda') - rho' = +1.75e-40 exactly: branch
        # B4, whose crossing is below float resolution and is reported at lambda'
        b3 = SUBCASE_FIXTURES["B3"]()
        m = _pp(_moved(b3.left, F(1, 10**40), -1, 2), dict(zip(b3.right.values, b3.right.fracs)))
        p = classify(m)
        assert (p.subcase, p.exponent, p.rate_kind) == ("B4", 0.0, "rho_star")
        assert p.details["crossing_below_resolution"] == 1.0
        assert p.details["lambda_star"] == p.details["lambda_prime"]
        assert p.rate == p.details["rho_prime"]
        plan = select_tilt(m, p)
        assert (plan.branch, plan.single_t) == ("B4", p.details["lambda_prime"])
        save_model(m, tmp_path / "near-B3.json")
        assert main(["classify", str(tmp_path / "near-B3.json"), "-o", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "classify.json").read_text())
        assert (rep["subcase"], rep["tilt_branch"], rep["exponent"]) == ("B4", "B4", 0.0)

    @pytest.mark.parametrize("eps", [0, F(1, 10**13)])
    def test_predict_isolates_each_root_once(self, eps, monkeypatch):
        # FIX-PP-C: select_tilt's C1 plan decides rho == rho'.  Near-A1 at
        # +1e-13: classify decides lambda > lambda' and select_tilt then
        # rho vs rho' on the same roots
        m = (SUBCASE_FIXTURES["C"]() if not eps else
             _pp(_moved(SUBCASE_FIXTURES["A1"]().left, eps, -1, 2),
                 {-1: F(1, 4), 0: F(1, 4), 2: F(1, 2)}))
        init, isolated = algebraic.ArgminRoot.__init__, []

        def counted(self, d, lam):
            isolated.append(d.fracs)
            init(self, d, lam)

        monkeypatch.setattr(algebraic.ArgminRoot, "__init__", counted)
        assert predict(m)["subcase"] == "C"
        assert sorted(isolated) == sorted([m.left.fracs, m.right.fracs])


class TestConstants:
    def test_classical_walk_constant(self):
        # mu = mu0 = mu': C_y = 1/(sigma sqrt(2 pi)) for every y
        mu_a = dist({-1: F(1, 2), 0: F(1, 4), 2: F(1, 4)})
        m = validate_model(mu_a, mu_a, mu_a)
        target = 1.0 / (mu_a.sigma * math.sqrt(2 * math.pi))
        for y in (0, 4, -7):
            cy, _ = predicted_constant_Cy(m, y)
            assert cy == pytest.approx(target, rel=5e-3)

    def test_toy_closed_form_constant(self):
        """Unit-overshoot model: each medium exits only through the origin, the
        origin-return times are iid with a c_t/n^{3/2} tail, and the strong
        renewal theorem pins the return constant in closed form:

            P_0[X_n = 0] ~ 1 / (2 pi c_t sqrt(n)),
            c_t = c sum_{y<0} mu0(y) V_*(|y|) + c' sum_{y>0} mu0(y) V'_*(y).

        The DP plateau and the package's own occupation-measure constant must
        both reproduce it.  (The doubled-tail variant 2 c_t, which sometimes
        circulates as the toy answer, is off by a factor 4 pi c_t^2; the exact
        DP rules it out decisively.)"""
        from oscillax.ladder import LadderVariant, fluctuation_constants, ladder_potentials
        from oscillax.model import mirror_dist

        left = dist({-2: F(1, 5), -1: F(1, 5), 1: F(3, 5)})
        right = mirror_dist(left)
        m = validate_model(left, dist({-1: F(1, 2), 1: F(1, 2)}), right,
                           _allow_o3_violation=True)
        c = fluctuation_constants(left).c_direct
        pot = ladder_potentials(left)
        v1 = pot.V(LadderVariant.STRICT_ASC, 1)
        c_t = c * 0.5 * v1 + c * 0.5 * v1
        C0 = 1.0 / (2.0 * math.pi * c_t)
        t = marginal_sequence(m, 0, 0, 4096, Window(-512, 512))
        plateau = math.sqrt(4096) * t.data["values"][4096]
        assert plateau == pytest.approx(C0, rel=0.02)
        wrong = 2.0 * c_t
        assert abs(plateau - wrong) / C0 > 0.2
        cy, _ = predicted_constant_Cy(m, 0)
        assert cy == pytest.approx(C0, rel=0.01)
        assert plateau == pytest.approx(cy, rel=0.01)

    @pytest.mark.parametrize("core", [{-1: F(1, 3), 0: F(1, 3), 1: F(1, 3)},
                                      {-1: F(1, 2), 1: F(1, 2)}, MU_A],
                             ids=["uniform", "plus-minus-one", "MU_A"])
    def test_wide_core_constant_matches_dp(self, core):
        # a core on [-1, 1] between MU_A and its mirror: its ends are the
        # medium's, not window cuts, so its killed-walk solves are exact.
        # P_0[X_n = 0] sqrt(n) = C_0 + O(1/n): the Richardson value of the DP
        # at n = 2048 and 4096 within 1e-3 relative (a Richardson step on the
        # core put C_0 24-33% high)
        m = validate_media((Medium(dist(MU_A), None, -2), Medium(dist(core), -1, 1),
                            Medium(dist(MU_A_MIRROR), 2, None)))
        window = Window(-1024, 1024)
        v = marginal_sequence(m, 0, 0, 4096, window).data["values"]
        dp = 2 * math.sqrt(4096) * v[4096] - math.sqrt(2048) * v[2048]
        c0, _ = predicted_constant_Cy(m, 0, window)
        assert c0 == pytest.approx(dp, rel=1e-3)

    def test_zn_constant_is_its_mirrors(self, fix_pz):
        # (Z,N) is answered by its exact (P,Z) mirror: C_y at -y, the profile
        # reversed and the tail levels swapped, in predict and the library
        zn = mirror_model(fix_pz)
        assert zn.drift_case is DriftCase.ZN
        rep, m_rep = predict(fix_pz), predict(zn)
        assert m_rep["constant_kind"] == rep["constant_kind"] == "local_constant"
        c0, m_c0 = rep["constants"]["C_0"], m_rep["constants"]["C_0"]
        assert m_c0 == pytest.approx(c0, rel=1e-12, abs=0)
        assert m_rep["constants"]["lambda_X_minus_inf"] == rep["constants"]["lambda_X_plus_inf"]
        assert m_rep["constants"]["lambda_X_plus_inf"] == rep["constants"]["lambda_X_minus_inf"]
        # on a lopsided window the mirror reads the reflected one
        cy, prof = predicted_constant_Cy(fix_pz, 3, Window(-256, 300))
        m_cy, m_prof = predicted_constant_Cy(zn, -3, Window(-300, 256))
        assert m_cy == pytest.approx(cy, rel=1e-12, abs=0)
        assert m_prof.window == Window(-300, 256)
        assert np.array_equal(m_prof.values, prof.values[::-1])
        assert m_prof.lam_minus_inf == prof.lam_plus_inf
        assert m_prof.lam_plus_inf == prof.lam_minus_inf
        assert (m_prof.plateau_minus, m_prof.plateau_plus) == (prof.plateau_plus,
                                                               prof.plateau_minus)

    def test_wide_jump_model_constant(self, tmp_path):
        # a centered model with jumps up to 8: at a fixed window of +-256 the
        # boundary layer of lambda_X still reached the probe band and
        # classify exited 3; the default window grows with the largest jump.
        # C_0 against the DP's Richardson value 2 sqrt(N) a_N - sqrt(N/2) a_{N/2}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "left": [[-8, "904/3147"], [-3, "226/1049"], [0, "7/3147"], [5, "574/3147"],
                     [6, "246/1049"], [8, "82/1049"]],
            "origin": [[-1, "1/2"], [1, "1/2"]],
            "right": [[-8, "16/55"], [-6, "8/55"], [-1, "8/55"], [8, "23/55"]]}))
        assert main(["classify", str(path), "-o", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert report["case"] == "(Z,Z)"
        m, n = load_model(path), 4096
        v = marginal_sequence(m, 0, 0, n, default_window(m, n)).data["values"]
        dp = 2 * math.sqrt(n) * v[n] - math.sqrt(n // 2) * v[n // 2]
        assert report["constants"]["C_0"] == pytest.approx(dp, rel=1e-3, abs=0)

    def test_plateau_not_reached_at_a_narrow_window(self):
        # the wide-jump model of test_wide_jump_model_constant: at +-256 the
        # boundary layer of lambda_X still reaches the probe band
        m = load_model({
            "left": [[-8, "904/3147"], [-3, "226/1049"], [0, "7/3147"], [5, "574/3147"],
                     [6, "246/1049"], [8, "82/1049"]],
            "origin": [[-1, "1/2"], [1, "1/2"]],
            "right": [[-8, "16/55"], [-6, "8/55"], [-1, "8/55"], [8, "23/55"]]})
        with pytest.raises(PlateauNotReached, match="probe band"):
            predicted_constant_Cy(m, 0, Window(-256, 256))

    def test_wrong_case_rejected(self, fix_zp):
        with pytest.raises(ValidationError):
            predicted_constant_Cy(fix_zp, 0)

    def test_pz_constant_drops_left_term(self, fix_pz):
        cy, prof = predicted_constant_Cy(fix_pz, 0)
        assert prof.lam_minus_inf == 0.0
        assert prof.lam_plus_inf > 0
        assert cy > 0


class TestPredictReport:
    def test_report_shapes(self, fix_pp, fix_zz):
        rep = predict(fix_pp)
        assert rep["subcase"] == "B2"
        assert rep["tilt_branch"] == "B2"
        assert rep["base_case_after_tilt"] == "(P,Z)"
        rep = predict(fix_zz)
        assert rep["constants"]["C_0"] == pytest.approx(0.16286, abs=2e-3)
