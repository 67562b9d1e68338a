import functools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscillax import model as model_mod
from oscillax.errors import (
    DegenerateInterval,
    IdenticalTransforms,
    NotAperiodic,
    O3Violated,
    O4Violated,
    OscillaxError,
    SupportOneSided,
    ValidationError,
)
from oscillax.fixtures import (
    FIXTURES,
    MU_A,
    MU_A_MIRROR,
    MU_B,
    MU_BP,
    SUBCASE_FIXTURES,
    UNIF_PM1,
)
from oscillax.model import (
    EXP_OVERFLOW,
    MAX_BISECT_ITER,
    TIE_TOL,
    ZERO_DRIFT_TOL,
    DriftCase,
    LatticeDist,
    Medium,
    _bisect,
    argmin_laplace,
    arrival_band,
    cross_point,
    dist,
    essential_class,
    geometric_tilt,
    is_strongly_aperiodic,
    laplace,
    laplace_deriv,
    load_model,
    mirror_dist,
    mirror_model,
    tilt,
    validate_media,
    validate_model,
)
from oscillax.regimes import classify
from oscillax.verify import asymptotics_suite

MU_B_DIST = dist(MU_B)
MU_BP_DIST = dist(MU_BP)

# closed forms: dL/dt = 0 for {-1:1/4, 0:1/4, 2:1/2} gives e^{3t} = 1/4
LAM_B = -math.log(4.0) / 3.0
RHO_B = 1.5 * 4.0 ** (-2.0 / 3.0) + 0.25
LAM_BP = -math.log(3.0) / 3.0
RHO_BP = 3.0 ** (2.0 / 3.0) / 8.0 + 0.125 + 0.75 * 3.0 ** (-1.0 / 3.0)


class TestLatticeDist:
    def test_basic_stats(self):
        d = dist(MU_A)
        assert d.mean == 0.0
        assert d.variance == pytest.approx(1.5, abs=1e-15)
        assert (d.min_support, d.max_support) == (-1, 2)
        assert d.exact

    def test_probability_sum_enforced(self):
        with pytest.raises(ValidationError):
            dist({-1: F(1, 2), 1: F(1, 3)})

    def test_float_atoms_lose_exactness(self):
        d = dist({-1: 0.5, 1: 0.5})
        assert not d.exact

    def test_mirror(self):
        d = mirror_dist(dist(MU_A))
        assert d.as_pairs() == dist(MU_A_MIRROR).as_pairs()

    @pytest.mark.parametrize("values,probs,reason", [
        ((), [], "no atoms"),
        ((1, 0), [0.5, 0.5], "strictly increasing"),
        ((0, 1), [1.0, 0.0], "> 0"),
        ((0, 1), [0.5, 0.4], "not 1"),
    ], ids=["no-atoms", "not-increasing", "zero-probability", "sum-not-one"])
    def test_refusals(self, values, probs, reason):
        with pytest.raises(ValidationError, match=reason):
            LatticeDist(values, np.array(probs))

    def test_sum_refusal_prints_a_plain_float(self):
        # numpy 2's repr of the sum would read "np.float64(0.9)"
        with pytest.raises(ValidationError, match=r"^probabilities sum to 0\.9, not 1$"):
            LatticeDist((0, 1), np.array([0.5, 0.4]))


class TestDriftCase:
    MARKOVIAN = {DriftCase.PN, DriftCase.PZ, DriftCase.ZZ, DriftCase.ZN}

    @pytest.mark.parametrize("case", list(DriftCase), ids=lambda c: c.value)
    def test_properties_read_from_the_letters(self, case):
        # markovian: no outer law drifts away from the interface (left N or
        # right P); centered_side: an outer law is centered
        left, right = case.value[1], case.value[3]
        assert case.markovian == (case in self.MARKOVIAN) == (left != "N" and right != "P")
        assert case.centered_side == ("Z" in (left, right))

    def test_mirror_keeps_both_properties(self):
        # reflection swaps the sides and P with N, so a model and its mirror
        # agree on both
        for fn in [*FIXTURES.values(), *SUBCASE_FIXTURES.values()]:
            case, mirrored = fn().drift_case, mirror_model(fn()).drift_case
            assert (mirrored.markovian, mirrored.centered_side) == (case.markovian,
                                                                   case.centered_side)


class TestValidation:
    def test_fix_zz_case(self):
        m = validate_model(dist(MU_A), dist(UNIF_PM1), dist(MU_A_MIRROR))
        assert m.drift_case is DriftCase.ZZ
        assert (m.D, m.Dprime) == (2, -2)

    def test_one_sided_left(self):
        with pytest.raises(SupportOneSided):
            validate_model(dist({1: 1}), dist(UNIF_PM1), dist(MU_A_MIRROR))

    def test_periodic_left(self):
        with pytest.raises(NotAperiodic):
            validate_model(dist({-1: F(1, 2), 2: F(1, 2)}), dist(UNIF_PM1),
                           dist(MU_A_MIRROR))

    def test_o3(self):
        # aperiodic laws with D = 1, D' = -1: product -1 violates the
        # two-sided-overshoot hypothesis
        toy_left = dist({-2: F(1, 5), -1: F(1, 5), 1: F(3, 5)})
        toy_right = mirror_dist(toy_left)
        with pytest.raises(O3Violated):
            validate_model(toy_left, dist(UNIF_PM1), toy_right)
        # the test-only escape hatch admits it
        m = validate_model(toy_left, dist(UNIF_PM1), toy_right,
                           _allow_o3_violation=True)
        assert m.drift_case is DriftCase.ZZ

    @pytest.mark.parametrize("left,right,error", [
        (MU_A, {-2: F(1, 2), 2: F(1, 2)}, NotAperiodic),
        # a law with no atom on the far side fails the two-sided support
        # check, which comes first
        ({-1: F(1, 2), 0: F(1, 2)}, MU_A_MIRROR, SupportOneSided),
        (MU_A, {0: F(1, 2), 1: F(1, 2)}, SupportOneSided),
    ], ids=["periodic-right", "left-no-positive-atom", "right-no-negative-atom"])
    def test_media_refusals(self, left, right, error):
        with pytest.raises(error):
            validate_media([Medium(dist(left), None, -1), Medium(dist(UNIF_PM1), 0, 0),
                            Medium(dist(right), 1, None)])

    def test_o4(self):
        with pytest.raises(O4Violated):
            validate_model(dist(MU_A), dist({1: F(1, 2), 2: F(1, 2)}),
                           dist(MU_A_MIRROR))

    def test_two_media_refuses_another_origin(self):
        # two media put the origin in the left medium: an origin law other
        # than the left one is refused, not dropped (B2's laws with a sticky
        # origin are a three-media walk with another rate)
        for origin in (UNIF_PM1, {-1: F(1, 10), 0: F(4, 5), 1: F(1, 10)}):
            with pytest.raises(ValidationError, match="origin"):
                validate_model(dist(MU_B), dist(origin), dist(MU_BP), two_media=True)
        m = validate_model(dist(MU_B), dist(MU_B), dist(MU_BP), two_media=True)
        assert m.origin.as_pairs() == m.left.as_pairs()

    @pytest.mark.parametrize("ends", [
        [(None, -1), (1, None)],          # a gap at 0
        [(None, 0), (0, None)],           # 0 in two media
        [(-5, 0), (1, None)],             # bounded below
        [(None, 0), (1, 7)],              # bounded above
    ])
    def test_media_must_tile_the_integers(self, ends):
        left, right = dist(MU_A), dist(MU_A_MIRROR)
        with pytest.raises(ValidationError, match="tile"):
            model_mod.validate_media([model_mod.Medium(law, lo, hi)
                                      for law, (lo, hi) in zip((left, right), ends)])

    def test_aperiodicity_predicate(self):
        assert is_strongly_aperiodic(dist(MU_A))
        assert not is_strongly_aperiodic(dist({-1: F(1, 2), 2: F(1, 2)}))


class TestLaplace:
    def test_normalization(self):
        for d in (dist(MU_A), dist(MU_B), dist(MU_BP)):
            assert laplace(d, 0.0) == pytest.approx(1.0, abs=1e-15)
            assert laplace_deriv(d, 0.0) == pytest.approx(d.mean, abs=1e-15)

    def test_closed_form_value(self):
        # L(mu_B, -ln4/3) = (3/2) 4^{-2/3} + 1/4
        assert laplace(MU_B_DIST, LAM_B) == pytest.approx(RHO_B, abs=1e-14)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            laplace(dist(MU_A), 500.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-400, 400), min_size=1, max_size=8, unique=True), st.data())
    def test_matches_per_call_formula(self, values, data):
        # the formulas that rebuilt the float atoms and tested every |t v| on
        # each call: the same values (==) and OverflowError at the same t,
        # also at the last representable t on either side of the guard
        def reference(d, t, deriv):
            vals = np.asarray(d.values, dtype=float)
            if np.max(np.abs(t * vals)) > EXP_OVERFLOW:
                raise OverflowError
            return float(d.probs @ (vals * np.exp(t * vals) if deriv else np.exp(t * vals)))

        weights = data.draw(st.lists(st.integers(1, 1000), min_size=len(values),
                                     max_size=len(values)))
        d = dist({v: F(w, sum(weights)) for v, w in zip(values, weights)})
        edge = EXP_OVERFLOW / max(max(values), -min(values), 1)
        near = [s * e for s in (1, -1) for e in (np.nextafter(edge, 0), edge,
                                                 np.nextafter(edge, np.inf))]
        t = data.draw(st.one_of(st.floats(-2 * edge, 2 * edge), st.sampled_from(near)))
        for fn, deriv in ((laplace, False), (laplace_deriv, True)):
            try:
                expected = reference(d, t, deriv)
            except OverflowError:
                with pytest.raises(OverflowError):
                    fn(d, t)
            else:
                assert fn(d, t) == expected

    def test_argmin_centered(self):
        lam, rho = argmin_laplace(dist(MU_A))
        assert lam == 0.0 and rho == 1.0

    def test_argmin_closed_form(self):
        lam, rho = argmin_laplace(MU_B_DIST)
        assert lam == pytest.approx(LAM_B, abs=1e-12)
        assert rho == pytest.approx(RHO_B, abs=1e-14)
        lam, rho = argmin_laplace(MU_BP_DIST)
        assert lam == pytest.approx(LAM_BP, abs=1e-12)
        assert rho == pytest.approx(RHO_BP, abs=1e-14)

    def test_argmin_one_sided(self):
        with pytest.raises(SupportOneSided):
            argmin_laplace(dist({1: 1}))

    def test_derivative_vanishes_at_argmin(self):
        lam, _ = argmin_laplace(MU_B_DIST)
        assert abs(laplace_deriv(MU_B_DIST, lam)) <= 1e-12

    def test_global_minimum_property(self):
        lam, rho = argmin_laplace(MU_B_DIST)
        rng = np.random.default_rng(7)
        for t in rng.uniform(lam - 2.0, lam + 2.0, size=1000):
            assert laplace(MU_B_DIST, float(t)) >= rho - 1e-14

    def test_strict_convexity_on_grid(self):
        for d in (dist(MU_A), MU_B_DIST, MU_BP_DIST):
            ts = np.linspace(-1.5, 1.5, 41)
            vals = np.array([laplace(d, t) for t in ts])
            second = np.diff(vals, 2)
            assert np.all(second > 0)


class TestTilt:
    def test_identity_tilt(self):
        d = dist(MU_A)
        assert tilt(d, 0.0) is d

    def test_tilt_at_argmin_centered(self):
        lam, _ = argmin_laplace(MU_B_DIST)
        assert abs(tilt(MU_B_DIST, lam).mean) <= 1e-12

    def test_recentered_argmin_is_zero(self):
        lam, _ = argmin_laplace(MU_B_DIST)
        lam2, rho2 = argmin_laplace(tilt(MU_B_DIST, lam))
        assert abs(lam2) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_tilt_group_property(self, s, t):
        d = dist(MU_A)
        a = tilt(tilt(d, s), t)
        b = tilt(d, s + t)
        assert a.values == b.values
        assert np.max(np.abs(a.probs - b.probs)) <= 1e-14

    def test_geometric_tilt_exact(self):
        d = geometric_tilt(dist(MU_A), F(1, 2))
        assert d.exact
        assert sum(d.fracs) == 1
        # matches the float tilt at t = log(1/2)
        ref = tilt(dist(MU_A), math.log(0.5))
        assert np.max(np.abs(d.probs - ref.probs)) <= 1e-15

    @pytest.mark.parametrize("ratio", [F(0), F(-1, 2)])
    def test_geometric_tilt_refuses_nonpositive_ratio(self, ratio):
        with pytest.raises(ValidationError, match="positive"):
            geometric_tilt(dist(MU_A), ratio)


class TestCrossPoint:
    def test_identical(self):
        with pytest.raises(IdenticalTransforms):
            cross_point(MU_B_DIST, MU_B_DIST)

    def test_degenerate_interval(self):
        # same argmin ratio p/(2r), different masses
        other = dist({-1: F(1, 8), 0: F(5, 8), 2: F(1, 4)})
        with pytest.raises(DegenerateInterval):
            cross_point(MU_B_DIST, other)

    def test_no_crossing_for_b2_pair(self):
        # L - L' < 0 at both argmins (evaluated in closed form): no crossing
        assert laplace(MU_B_DIST, LAM_B) - laplace(MU_BP_DIST, LAM_B) < 0
        assert laplace(MU_B_DIST, LAM_BP) - laplace(MU_BP_DIST, LAM_BP) < 0
        assert cross_point(MU_B_DIST, MU_BP_DIST) is None

    def test_b4_pair_crossing(self):
        left = dist({-1: F(1, 100), 0: F(67, 100), 2: F(32, 100)})
        right = dist({-2: F(13, 250), 0: F(29, 250), 1: F(208, 250)})
        lam_star, rho_star = cross_point(left, right)
        assert abs(laplace(left, lam_star) - laplace(right, lam_star)) <= 1e-12
        _, rho = argmin_laplace(left)
        _, rhop = argmin_laplace(right)
        assert rho_star > max(rho, rhop)


def _bisect_reference(f, a, b):
    """The bisection loop before the float-resolution stop and the sign test."""
    fa = f(a)
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (a + b)
        if fa * (fm := f(mid)) <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-16 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def _argmin_reference(d):
    b = min(1.0, EXP_OVERFLOW / max(-d.min_support, d.max_support))
    a = -b
    while laplace_deriv(d, a) > 0:
        a *= 2.0
    while laplace_deriv(d, b) < 0:
        b *= 2.0
    lam = _bisect_reference(lambda t: laplace_deriv(d, t), a, b)
    if abs(d.mean) <= ZERO_DRIFT_TOL:
        lam = 0.0
    return lam, laplace(d, lam)


def _cross_reference(left, right, lam, lamp):
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
    lam_star = _bisect_reference(g, a, b)
    return lam_star, laplace(left, lam_star)


def _grid_atoms(q, support):
    """Every law with all three atoms of ``support`` charged, masses in 1/q."""
    return [dict(zip(support, (F(i, q), F(j, q), F(q - i - j, q))))
            for i in range(1, q) for j in range(1, q - i)]


def _fixture_atoms():
    out = []
    for fn in (*FIXTURES.values(), *SUBCASE_FIXTURES.values()):
        m = fn()
        out += [m.left.as_pairs(), m.origin.as_pairs(), m.right.as_pairs()]
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OscillaxError as exc:
        return type(exc)


class TestBisection:
    """The float-resolution stop returns the double the 200-step loop did."""

    def test_tiny_values_do_not_underflow(self):
        # 1e-200 * 1e-200 is 0.0: a product test moved b onto a when both
        # values were positive and lost the root
        assert _bisect(lambda t: 1e-200 * (t - 0.75), 0.0, 1.0) == 0.75

    def test_zero_and_nan_as_before(self):
        for f in (lambda t: t - 0.5, lambda t: 0.0,
                  lambda t: math.nan if t > 0.3 else -1.0):
            assert _bisect(f, 0.0, 1.0) == _bisect_reference(f, 0.0, 1.0)

    def test_argmin_unchanged(self, monkeypatch):
        evals = []

        def counted(f, a, b):
            n = [0]

            def g(t):
                n[0] += 1
                return f(t)

            out = _bisect(g, a, b)
            evals.append(n[0])
            return out

        monkeypatch.setattr(model_mod, "_bisect", counted)
        laws = _fixture_atoms()
        for q in (12, 17, 30):
            laws += _grid_atoms(q, (-1, 0, 2)) + _grid_atoms(q, (-2, 0, 1))
        assert len(laws) == 1207
        for atoms in laws:
            assert argmin_laplace(dist(atoms)) == _argmin_reference(dist(atoms)), atoms
        assert evals and max(evals) <= 64

    def test_cross_point_unchanged(self):
        # each law object is solved once and reused across its pairs
        ref = {}

        def law(atoms):
            d = dist(atoms)
            ref[id(d)] = _argmin_reference(dist(atoms))[0]
            return d

        pairs = []
        for name in ("B1", "B4", "B7"):
            m = SUBCASE_FIXTURES[name]()
            pairs.append((law(m.left.as_pairs()), law(m.right.as_pairs())))
        lefts = [law(a) for a in _grid_atoms(12, (-1, 0, 2)) if dist(a).mean > 0]
        rights = [law(a) for a in _grid_atoms(12, (-2, 0, 1)) if dist(a).mean > 0]
        pairs += [(ld, rd) for ld in lefts for rd in rights + lefts]
        crossings = 0
        for ld, rd in pairs:
            new = _outcome(cross_point, ld, rd)
            assert new == _outcome(_cross_reference, ld, rd, ref[id(ld)], ref[id(rd)]), \
                (ld.as_pairs(), rd.as_pairs())
            crossings += isinstance(new, tuple)
        assert crossings == 3 + 31


class TestOneSolvePerLaw:
    @staticmethod
    def _count_deriv_calls(monkeypatch):
        calls = {}
        real = laplace_deriv

        def counted(d, t):
            calls[id(d)] = calls.get(id(d), 0) + 1
            return real(d, t)

        monkeypatch.setattr(model_mod, "laplace_deriv", counted)
        return calls

    def test_classify_and_asymptotics_solve_each_law_once(self, monkeypatch):
        m = load_model(model_mod.dump_model(SUBCASE_FIXTURES["B1"]()))
        calls = self._count_deriv_calls(monkeypatch)
        fresh = [dist(law.as_pairs()) for law in (m.left, m.right)]
        for d in fresh:
            argmin_laplace(d)
        one_solve = [calls[id(d)] for d in fresh]
        classify(m)
        asymptotics_suite(m, 512)
        assert [calls.get(id(law), 0) for law in (m.left, m.right)] == one_solve
        assert min(one_solve) > 0

    def test_fixture_search_solves_each_screened_law_once(self, monkeypatch):
        # every admissible grid pair is classified, built from the grid's
        # law objects: 37 left laws and 15 more right ones (the right list
        # reuses the left objects), so the 52 laws cost one solve each;
        # rebuilding a hit from its atoms gives the same model file and report
        from oscillax.fixtures import search_subcase_fixtures

        solved = []
        real = model_mod.LatticeDist.argmin.func

        def counted(d):
            solved.append(id(d))
            return real(d)

        prop = functools.cached_property(counted)
        prop.__set_name__(model_mod.LatticeDist, "argmin")
        monkeypatch.setattr(model_mod.LatticeDist, "argmin", prop)
        found = search_subcase_fixtures()
        assert len(solved) == len(set(solved)) == 52
        monkeypatch.undo()
        for m, pred in (hit for hits in found.values() for hit in hits):
            rebuilt = validate_model(dist(m.left.as_pairs()), dist(m.left.as_pairs()),
                                     dist(m.right.as_pairs()), two_media=True)
            assert model_mod.dump_model(rebuilt) == model_mod.dump_model(m)
            assert classify(rebuilt).report() == pred.report()

    def test_centered_law_skips_bisection(self, monkeypatch):
        m = FIXTURES["FIX-ZZ"]()
        calls = self._count_deriv_calls(monkeypatch)
        for law in (m.left, m.origin, m.right):
            assert argmin_laplace(law) == (0.0, 1.0)
        assert calls == {}


class TestModelFiles:
    def test_round_trip(self, tmp_path, fix_zz):
        from oscillax.model import save_model

        path = tmp_path / "m.json"
        save_model(fix_zz, path)
        m2 = load_model(path)
        assert m2.left.as_pairs() == fix_zz.left.as_pairs()
        assert m2.drift_case is fix_zz.drift_case

    def test_rational_strings(self):
        m = load_model({"left": [[-1, "1/2"], [0, "1/4"], [2, "1/4"]],
                        "origin": [[-1, "1/2"], [1, "1/2"]],
                        "right": [[-2, "1/4"], [0, "1/4"], [1, "1/2"]]})
        assert m.exact

    def test_malformed(self):
        with pytest.raises(ValidationError):
            load_model({"left": [[-1, "1/2"]]})

    def test_non_integer_atom(self):
        # int(2.7) would silently make the atom 2
        with pytest.raises(ValidationError, match="not a JSON integer"):
            load_model({"left": [[-1, "1/2"], [0, "1/4"], [2.7, "1/4"]],
                        "origin": [[-1, "1/2"], [1, "1/2"]],
                        "right": [[-2, "1/4"], [0, "1/4"], [1, "1/2"]]})

    def test_string_two_media(self):
        # bool("false") is True, which would read the model as two-media
        with pytest.raises(ValidationError, match="two_media"):
            load_model({"left": [[-1, "1/2"], [0, "1/4"], [2, "1/4"]],
                        "right": [[-2, "1/4"], [0, "1/4"], [1, "1/2"]],
                        "two_media": "false"})

    def test_two_media_origin_must_be_the_left_law(self, fix_pp):
        # a two-media file's origin is its left law: it may be left out or
        # equal left (as the saved files write it), and any other origin is
        # refused rather than silently dropped
        payload = model_mod.dump_model(fix_pp)
        assert payload["origin"] == payload["left"]
        without = {k: v for k, v in payload.items() if k != "origin"}
        for p in (payload, without):
            assert load_model(p).origin.as_pairs() == fix_pp.left.as_pairs()
        with pytest.raises(ValidationError, match="origin"):
            load_model({**payload, "origin": [[-1, "1/10"], [0, "4/5"], [1, "1/10"]]})

    def test_mirror_model_involution(self, fix_pz, fix_pp):
        for model in (fix_pz, fix_pp):
            m = mirror_model(mirror_model(model))
            for a, b in zip(m.media, model.media, strict=True):
                assert (a.law.as_pairs(), a.lo, a.hi) == (b.law.as_pairs(), b.lo, b.hi)

    def test_mirror_of_two_media_has_no_file(self, fix_pp, fix_pz):
        # the file states three media, or two with the origin in the left
        # medium; a two-media mirror holds the origin in its right medium
        mm = mirror_model(fix_pp)
        assert [(m.lo, m.hi) for m in mm.media] == [(None, -1), (0, None)]
        assert mm.origin is mm.right
        with pytest.raises(ValidationError, match="origin in the right medium"):
            model_mod.dump_model(mm)
        three = load_model(model_mod.dump_model(mirror_model(fix_pz)))
        assert [(m.lo, m.hi) for m in three.media] == [(None, -1), (0, 0), (1, None)]
        assert three.origin.as_pairs() == mirror_dist(fix_pz.origin).as_pairs()


def _law(draw, support, extra):
    """A law on ``support`` plus any of ``extra``, with integer weights."""
    values = sorted(set(support) | set(draw(st.lists(st.sampled_from(extra), max_size=4))))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    return dist({v: F(w, sum(weights)) for v, w in zip(values, weights)})


@st.composite
def _bounded_core_models(draw):
    """Outer laws on {-1, 0, 2} and {-2, 0, 1} with more atoms up to 5 away,
    around 1 to 3 bounded media of 1 to 4 sites each, with laws on any atoms
    in [-5, 5]: one-sided, staying put or jumping past their neighbours."""
    near = list(range(-5, 6))
    left, right = _law(draw, [-1, 0, 2], near), _law(draw, [-2, 0, 1], near)
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    lo = -draw(st.integers(0, sum(sizes) - 1))   # the core holds the origin
    media = [Medium(left, None, lo - 1)]
    for size in sizes:
        media.append(Medium(_law(draw, [draw(st.sampled_from(near))], near), lo, lo + size - 1))
        lo += size
    media.append(Medium(right, lo, None))
    try:
        return validate_media(media)
    except OscillaxError:   # an origin law that misses a half-line
        assume(False)


class TestArrivalBand:
    """arrival_band reads the ends of the essential class from the media's
    bands, without listing its sites."""

    @pytest.mark.parametrize("name", sorted({**FIXTURES, **SUBCASE_FIXTURES}))
    def test_fixtures(self, name):
        model = {**FIXTURES, **SUBCASE_FIXTURES}[name]()
        sites = essential_class(model)
        assert arrival_band(model) == (sites[0], sites[-1])

    @settings(max_examples=200, deadline=None)
    @given(_bounded_core_models())
    def test_random_bounded_core_models(self, model):
        sites = essential_class(model)
        assert arrival_band(model) == (sites[0], sites[-1])

    def test_wide_law_lists_no_site(self):
        # a jump of 20000 makes a 39999-site band: 3.8 MB traced when its
        # sites were listed
        law = dist({-1: F(20000, 40002), 0: F(20001, 40002), 20000: F(1, 40002)})
        model = validate_model(law, dist({-1: F(1, 2), 1: F(1, 2)}), mirror_dist(law))
        tracemalloc.start()
        try:
            band = arrival_band(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert band == (-19999, 19999)
        assert peak < 1e6
