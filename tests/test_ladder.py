import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscillax import ladder
from oscillax.errors import NotCentered, ValidationError
from oscillax.evolve import Window, passage_operator
from oscillax.fixtures import FIXTURES, MU_A, SUBCASE_FIXTURES, fix_pz, fix_zz
from oscillax.ladder import (
    ZETA_3_2,
    LadderVariant,
    direct_constant,
    fluctuation_constants,
    killed_green,
    killed_green_row,
    ladder_potentials,
    small_roots,
    wiener_hopf_heights,
)
from oscillax.model import Medium, arrival_band, dist, mirror_dist, validate_model
from oscillax.switching import dominant_eigenpair, switching_kernel

TOY = dist({-1: F(1, 2), 1: F(1, 2)})       # nearest-neighbor walk
MU_A_DIST = dist(MU_A)
# the two centered laws of a model with jumps up to 8
WIDE_LEFT = {-8: F(904, 3147), -3: F(226, 1049), 0: F(7, 3147), 5: F(574, 3147),
             6: F(246, 1049), 8: F(82, 1049)}
WIDE_RIGHT = {-8: F(16, 55), -6: F(8, 55), -1: F(8, 55), 8: F(23, 55)}


class TestToyLadders:
    """Nearest-neighbor walk: every ladder quantity is known in closed form."""

    def test_strict_ascending_heights_are_one(self):
        asc, _ = wiener_hopf_heights(TOY)
        assert asc == pytest.approx({1: 1.0}, abs=1e-12)

    def test_weak_descending_heights(self):
        # first weak descent: -1 directly (prob 1/2) or back to 0 via the
        # positive side (prob 1/2)
        _, desc = wiener_hopf_heights(TOY)
        assert desc == pytest.approx({-1: 0.5, 0: 0.5}, abs=1e-12)

    def test_weak_ascending_heights(self):
        # first weak ascent: +1 directly (prob 1/2) or back to 0 via the
        # negative side (prob 1/2); the weak descending law of the mirror
        _, desc = wiener_hopf_heights(mirror_dist(TOY))
        assert {-h: p for h, p in desc.items()} == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-12)

    def test_strict_ascending_renewal_is_identity(self):
        pot = ladder_potentials(TOY)
        for x in (1, 2, 5, 8):
            assert pot.V(LadderVariant.STRICT_ASC, x) == pytest.approx(x, rel=1e-6)

    def test_weak_descending_potential_is_two(self):
        u = ladder_potentials(TOY).U(LadderVariant.WEAK_DESC, 6)
        assert np.allclose(u, 2.0, atol=1e-6)
        tables, _ = _duality_tables(TOY)
        assert np.allclose(u, tables[LadderVariant.WEAK_DESC][:6], atol=1e-6)

    def test_constants_closed_form(self):
        # c = 1/sqrt(2 pi): V_-(1) = 2, mu[1, inf) = 1/2, sigma = 1.
        # The walk is period-2, so the aperiodicity precondition is waived;
        # the three factorization identities hold regardless.
        fc = fluctuation_constants(TOY, spitzer_horizon=1 << 12, require_aperiodic=False)
        target = 1.0 / math.sqrt(2.0 * math.pi)
        assert fc.c_direct == pytest.approx(target, rel=1e-5)
        assert fc.c_ladder == pytest.approx(target, rel=1e-12)
        assert fc.c_spitzer == pytest.approx(target, rel=1e-3)


class TestMuALadders:
    def test_strict_heights_support(self):
        asc, desc = wiener_hopf_heights(MU_A_DIST)
        assert asc == pytest.approx({1: 0.5, 2: 0.5}, abs=1e-12)
        assert desc == pytest.approx({-1: 0.5, 0: 0.5}, abs=1e-12)

    def test_exact_heights_via_duality(self):
        pot = ladder_potentials(MU_A_DIST)
        _, heights = _duality_tables(MU_A_DIST)
        for variant, hs in heights.items():
            assert hs == pytest.approx(pot.heights[variant], abs=1e-6), variant
        hs = heights[LadderVariant.STRICT_ASC]
        assert hs[1] == pytest.approx(0.5, abs=1e-6)
        assert hs[2] == pytest.approx(0.5, abs=1e-6)
        hd = heights[LadderVariant.WEAK_DESC]
        assert hd[0] == pytest.approx(0.5, abs=1e-6)
        assert hd[-1] == pytest.approx(0.5, abs=1e-6)

    def test_wiener_hopf_mean_identity(self):
        # E[strict ascending height] * |E[weak descending height]| = sigma^2 / 2
        pot = ladder_potentials(MU_A_DIST)
        prod = (pot.height_mean(LadderVariant.STRICT_ASC)
                * abs(pot.height_mean(LadderVariant.WEAK_DESC)))
        assert prod == pytest.approx(MU_A_DIST.variance / 2.0, rel=1e-6)

    def test_renewal_tables(self):
        pot = ladder_potentials(MU_A_DIST)
        assert pot.V(LadderVariant.STRICT_ASC, 0) == 0.0
        assert pot.V(LadderVariant.STRICT_ASC, 1) == pytest.approx(1.0, abs=1e-9)
        asc, _ = wiener_hopf_heights(MU_A_DIST)
        u = pot.U(LadderVariant.STRICT_ASC, 31)
        assert _renewal_residual(u, asc) <= 1e-7
        tables, _ = _duality_tables(MU_A_DIST)
        assert _renewal_residual(tables[LadderVariant.STRICT_ASC][:31], asc) <= 1e-7
        assert np.allclose(u, tables[LadderVariant.STRICT_ASC][:31], rtol=0, atol=1e-6)

    def test_weak_variant_from_strict(self):
        # the weak law, atom at 0 included, comes from dividing out the strict factor
        pot = ladder_potentials(MU_A_DIST)
        _, desc = wiener_hopf_heights(MU_A_DIST)
        u = pot.U(LadderVariant.WEAK_DESC, 31)
        assert _renewal_residual(u, desc) <= 1e-7
        tables, _ = _duality_tables(MU_A_DIST)
        assert _renewal_residual(tables[LadderVariant.WEAK_DESC][:31], desc) <= 1e-7
        assert np.allclose(u, tables[LadderVariant.WEAK_DESC][:31], rtol=0, atol=1e-6)

    def test_matches_exact_renewal(self):
        # u_d = [d = 0] + sum_h P[|H| = h] u_{d-h} in rationals, on MU_A's
        # height laws {1: 1/2, 2: 1/2} and {-1: 1/2, 0: 1/2}
        pot = ladder_potentials(MU_A_DIST)
        for variant, law in ((LadderVariant.STRICT_ASC, {1: F(1, 2), 2: F(1, 2)}),
                             (LadderVariant.WEAK_DESC, {-1: F(1, 2), 0: F(1, 2)})):
            assert pot.heights[variant] == pytest.approx(
                {h: float(p) for h, p in law.items()}, abs=1e-15)
            exact = []
            for d in range(201):
                rhs = F(int(d == 0)) + sum(p * exact[d - abs(h)]
                                           for h, p in law.items() if 0 < abs(h) <= d)
                exact.append(rhs / (1 - law.get(0, F(0))))
            u = pot.U(variant, 201)
            assert np.max(np.abs(u - np.array(exact, dtype=float))) <= 1e-15, variant

    def test_renewal_limit(self):
        # u_d -> 1/E|H| (renewal theorem), checked at d = 40 000
        model = fix_zz()
        for law in (model.left, mirror_dist(model.right)):
            pot = ladder_potentials(law)
            for variant in LadderVariant:
                u_far = pot.U(variant, 40001)[-1]
                assert u_far * abs(pot.height_mean(variant)) == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing_and_sublinear(self):
        # MU_A's own tables and its mirror's (its weak ascending and strict
        # descending ones): four renewal functions
        for law in (MU_A_DIST, mirror_dist(MU_A_DIST)):
            pot = ladder_potentials(law)
            for variant in LadderVariant:
                V = np.array([pot.V(variant, x) for x in range(31)])
                assert np.all(np.diff(V) >= -1e-12)
                assert np.all(V[1:] <= 2.5 * np.arange(1, 31))

    def test_weak_ascending_first_step_at_max_support(self):
        # the free first step of FIX-ZZ's left law lands on its top atom 2
        left = fix_zz().left
        _, desc = wiener_hopf_heights(mirror_dist(left))
        top = float(left.probs[left.values.index(left.max_support)])
        assert desc[-left.max_support] == pytest.approx(top, abs=1e-12)
        assert sum(desc.values()) == pytest.approx(1.0, abs=1e-15)


class TestPerStepDuality:
    def test_survival_equals_ladder_epoch(self):
        # P[stay >= 1 through n, S_n = z] == P[first crossing of level z at n
        # lands exactly at z]; both sides by independent exact DPs
        from conftest import as_fractions
        from oscillax.evolve import Window, first_passage_rows
        from oscillax.model import Medium, common_denominator
        from oscillax.verify import _survival_landing

        zs = range(1, 5)
        lhs = as_fractions(_survival_landing(MU_A_DIST, True, 16, zs, exact=True),
                           common_denominator(MU_A_DIST))
        for i, z in enumerate(zs):
            t = as_fractions(first_passage_rows(Medium(MU_A_DIST, None, -1), [-z], 16,
                                                Window(-64, 8), exact=True))
            bl, _ = t.band
            for n in range(1, 17):
                assert lhs[n, i] == t.R[n, 0, 0 - bl], (z, n)


class TestFluctuationConstants:
    def test_three_way_agreement_mu_a(self):
        fc = fluctuation_constants(MU_A_DIST)
        assert fc.max_pairwise_rel_diff <= 1e-3

    def test_not_centered(self):
        with pytest.raises(NotCentered):
            fluctuation_constants(dist({-1: F(1, 4), 0: F(1, 4), 2: F(1, 2)}))

    def test_periodic_law_refused(self):
        # the nearest-neighbor walk has period 2; only an explicit waiver runs it
        with pytest.raises(ValidationError, match="strongly aperiodic"):
            fluctuation_constants(TOY)

    def test_atom_order_invariance(self):
        d1 = dist([(-1, F(1, 2)), (0, F(1, 4)), (2, F(1, 4))])
        d2 = dist([(2, F(1, 4)), (-1, F(1, 2)), (0, F(1, 4))])
        f1 = fluctuation_constants(d1, spitzer_horizon=2048)
        f2 = fluctuation_constants(d2, spitzer_horizon=2048)
        assert f1.as_tuple() == f2.as_tuple()

    def test_zeta_constant_is_scipys(self):
        from scipy.special import zeta

        assert ZETA_3_2 == float(zeta(1.5))

    @pytest.mark.parametrize("model,side,tail,c", [
        (fix_zz, "left", 0.004798199207373576, 0.48860244353679677),
        (fix_zz, "right", 0.0023990544928686, 0.32573497398539053),
        (fix_pz, "right", 0.0023990544928686, 0.32573497398539053),
    ], ids=["FIX-ZZ-left", "FIX-ZZ-right", "FIX-PZ-right"])
    def test_spitzer_route_is_pinned(self, model, side, tail, c):
        # the values of the scipy zeta(1.5) tail, to the last bit
        fc = fluctuation_constants(getattr(model(), side))
        assert (fc.spitzer_tail, fc.c_spitzer) == (tail, c)


def _duality_tables(law, size=40000):
    """The killed-Green duality route, the reference for the root-law one.

    ({variant: U table}, {variant: height law}): the weak descending U at
    {-w} is the time at -w before the first strictly positive value, the
    strict ascending U at {d} the time at d after step 1 before the first
    weak descent, each a killed-Green row on ``size`` sites; the heights come
    from the other variant's table by the over-the-extremum identity
    P[H*+ = h] = sum_w U_-({-w}) mu(h + w),  P[H- = h] = sum_w U*+({w}) mu(h - w).
    """
    u_wd = killed_green_row(Medium(law, None, 0), Window(-size, 1), 0)[::-1]
    u_sa = np.append(1.0, killed_green_row(Medium(law, 1, None), Window(-1, size), 0))
    pmf = {int(v): float(p) for v, p in zip(law.values, law.probs)}
    ws = range(max(abs(law.min_support), law.max_support) + 1)
    asc = {h: sum(u_wd[w] * pmf.get(h + w, 0.0) for w in ws)
           for h in range(1, law.max_support + 1)}
    desc = {h: sum(u_sa[w] * pmf.get(h - w, 0.0) for w in ws)
            for h in range(law.min_support, 1)}
    return ({LadderVariant.WEAK_DESC: u_wd, LadderVariant.STRICT_ASC: u_sa},
            {LadderVariant.STRICT_ASC: {h: p for h, p in asc.items() if p > 0},
             LadderVariant.WEAK_DESC: {h: p for h, p in desc.items() if p > 0}})


def _renewal_residual(U, heights):
    """max_d |U[d] - delta_0(d) - sum_h P[H = h] U[d - |h|]| over the table."""
    out = 0.0
    for d in range(len(U)):
        rhs = float(d == 0) + sum(p * U[d - abs(h)] for h, p in heights.items() if abs(h) <= d)
        out = max(out, abs(U[d] - rhs))
    return out


def _center(parts):
    """Scale the negative and positive atoms so the law has mean 0."""
    neg, pos, zero = parts
    m_neg = sum(-v * w for v, w in neg.items())
    m_pos = sum(v * w for v, w in pos.items())
    weights = {v: w * m_pos for v, w in neg.items()}
    weights.update({v: w * m_neg for v, w in pos.items()})
    if zero:
        weights[0] = zero
    tot = sum(weights.values())
    return dist({v: F(w, tot) for v, w in weights.items()})


# centered laws with atoms on both sides whose support generates the integers
_centered_laws = st.tuples(
    st.dictionaries(st.integers(-3, -1), st.integers(1, 5), min_size=1, max_size=3),
    st.dictionaries(st.integers(1, 3), st.integers(1, 5), min_size=1, max_size=3),
    st.integers(0, 5),
).filter(lambda t: math.gcd(*t[0], *t[1]) == 1).map(_center)


class TestWienerHopfRoots:
    @settings(max_examples=30, deadline=None)
    @given(_centered_laws)
    def test_root_laws(self, law):
        asc, desc = wiener_hopf_heights(law)
        assert sum(asc.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(desc.values()) == pytest.approx(1.0, abs=1e-12)
        _, heights = _duality_tables(law)
        for variant, root in ((LadderVariant.STRICT_ASC, asc), (LadderVariant.WEAK_DESC, desc)):
            exact = heights[variant]
            for h in set(root) | set(exact):
                assert root.get(h, 0.0) == pytest.approx(exact.get(h, 0.0), abs=1e-7), (variant, h)
        mean_asc = sum(h * p for h, p in asc.items())
        mean_desc = sum(h * p for h, p in desc.items())
        assert mean_asc * abs(mean_desc) == pytest.approx(law.variance / 2.0, abs=1e-10)

    def test_drifted_law_raises(self):
        with pytest.raises(NotCentered):
            wiener_hopf_heights(dist({-1: F(1, 4), 0: F(1, 4), 2: F(1, 2)}))

    def test_sublattice_law_raises(self):
        # {-2, 2} lives on 2Z: 1 - phi has a double root at u = -1
        with pytest.raises(ValidationError):
            wiener_hopf_heights(dist({-2: F(1, 2), 2: F(1, 2)}))


class TestWeakVsStrictInLocalAsymptotics:
    def test_weak_descending_is_the_right_normalizer(self):
        """n^{3/2} P[tau(x) > n, x+S_n = y] converges to
        V_strict_asc(|x|) V_weak_desc(|y|) / (sigma sqrt(2 pi)); the strict
        descending variant visibly misses."""
        from oscillax.evolve import Window
        from oscillax.fixtures import FIXTURES
        from oscillax.evolve import excursion_functions

        model = FIXTURES["FIX-ZZ"]()
        w = Window(-400, 8)
        x, y, n = -1, -2, 2048
        V = excursion_functions(model, y, n, w)
        val = n ** 1.5 * V.data["V"][n][w.index(x)]
        pot = ladder_potentials(MU_A_DIST)
        # the strict descending V of a law is the strict ascending V of its mirror
        mirror_pot = ladder_potentials(mirror_dist(MU_A_DIST))
        strict_desc = mirror_pot.V(LadderVariant.STRICT_ASC, abs(y))
        sigma = MU_A_DIST.sigma
        weak = (pot.V(LadderVariant.STRICT_ASC, abs(x))
                * pot.V(LadderVariant.WEAK_DESC, abs(y)) / (sigma * math.sqrt(2 * math.pi)))
        strict = (pot.V(LadderVariant.STRICT_ASC, abs(x))
                  * strict_desc / (sigma * math.sqrt(2 * math.pi)))
        assert val == pytest.approx(weak, rel=0.10)
        assert abs(val - strict) / weak > 0.2   # the strict variant is not it


class TestGreenRow:
    def test_counts_visits(self):
        # toy walk killed at >= 1: expected visits to 0 before first ascent = 2
        g = killed_green_row(Medium(TOY, None, 0), Window(-4000, 1), 0)
        assert g[-1] == pytest.approx(2.0, rel=1e-3)


def _dense_killed(law, lo, hi):
    """Dense I - A for the walk killed on leaving [lo, hi], A[x, x + v] = mu(v)."""
    size = hi - lo + 1
    A = np.zeros((size, size))
    for v, p in zip(law.values, law.probs):
        for i in range(max(0, -v), min(size, size - v)):
            A[i, i + v] = p
    return np.eye(size) - A


def _dense_richardson(matrix, medium, window, rhs):
    """2 X - X_half on the medium's segment with its cut ends halved,
    clipped, from dense solves; one solve on a bounded medium."""
    (lo, hi), cuts = medium.segment(window), (medium.lo is None, medium.hi is None)
    X = np.linalg.solve(matrix(lo, hi), rhs)
    a, b = lo // 2 if cuts[0] else lo, hi // 2 if cuts[1] else hi
    if any(cuts) and a <= b:
        shared = slice(a - lo, b - lo + 1)
        X[shared] = 2.0 * X[shared] - np.linalg.solve(matrix(a, b), rhs[shared])
    return np.clip(X, 0.0, None)


# a walk that moves: at least one nonzero atom, so every segment kills it
_moving_laws = st.dictionaries(st.integers(-3, 3), st.integers(1, 5), min_size=1,
                               max_size=4).filter(lambda w: any(v != 0 for v in w))


@st.composite
def _media_in_windows(draw):
    """(low end, high end, window): a medium's ends, each None (unbounded,
    cut at the window's edge) or a site of the window, on at most 49 sites."""
    window = Window(-draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    lo = draw(st.one_of(st.none(), st.integers(window.lo, window.hi)))
    hi = draw(st.one_of(st.none(), st.integers(window.lo if lo is None else lo, window.hi)))
    return lo, hi, window


# a bounded medium reads no window
ANY_WINDOW = Window(-1, 1)


class TestKilledGreen:
    @settings(max_examples=60, deadline=None)
    @given(_moving_laws, _media_in_windows(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_richardson(self, weights, ends, cols, seed):
        tot = sum(weights.values())
        law = dist({v: F(w, tot) for v, w in weights.items()})
        *ends, window = ends
        medium = Medium(law, *ends)
        lo, hi = medium.segment(window)
        rhs = np.random.default_rng(seed).random((hi - lo + 1, cols))
        X = killed_green(medium, window, rhs)
        ref = _dense_richardson(lambda a, b: _dense_killed(law, a, b), medium, window, rhs)
        assert np.allclose(X, ref, rtol=1e-10, atol=1e-12)
        # the mirrored law's killed matrix is the transpose on the same segment
        Xt = killed_green(Medium(mirror_dist(law), *ends), window, rhs[:, 0])
        ref_t = _dense_richardson(lambda a, b: _dense_killed(law, a, b).T, medium, window,
                                  rhs[:, 0])
        assert np.allclose(Xt, ref_t, rtol=1e-10, atol=1e-12)

    def test_single_site_segments(self):
        # [1, 1] has no segment with its high end halved; [-1, -1] halves to
        # itself; a bounded site is solved once
        law = dist({-1: F(1, 4), 0: F(1, 4), 1: F(1, 2)})
        for lo, hi in ((1, None), (None, -1), (0, 0)):
            X = killed_green(Medium(law, lo, hi), Window(-1, 1), np.ones(1))
            assert X[0] == pytest.approx(4.0 / 3.0)

    def test_bounded_segment_is_one_exact_solve(self):
        # a medium's own ends are not truncation: no Richardson step mixes in
        # a shorter segment's solve
        law = dist({-1: F(1, 3), 0: F(1, 3), 1: F(1, 3)})
        rhs = np.eye(3)
        X = killed_green(Medium(law, -1, 1), Window(-8, 8), rhs)
        assert np.allclose(X, np.linalg.inv(_dense_killed(law, -1, 1)), rtol=1e-13, atol=0)


# p = the law's largest jump, the block size of the cyclic reduction
_wide_laws = st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1,
                             max_size=5).filter(lambda w: any(v != 0 for v in w))


class TestCyclicReduction:
    """killed_green_row's block cyclic reduction against numpy's dense solve
    of I - A, and direct_constant against the banded LU it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(_wide_laws, st.integers(1, 80), st.integers(0, 2 ** 32 - 1))
    @example({-8: 1, 8: 1}, 5, 0)             # a segment shorter than p
    @example({-3: 1, 0: 1, 2: 1}, 79, 1)      # 79 sites, p = 3: a padded last block
    @example({-1: 1, 0: 3, 1: 1}, 40, 2)      # mu(0) > 0
    @example({-2: 1, 0: 2, 2: 1}, 33, 3)      # on 2Z
    @example({-3: 1, 3: 1}, 80, 4)            # on 3Z
    @example({1: 1, 2: 1}, 50, 5)             # one-sided
    @example({-5: 2, -1: 1, 0: 1}, 64, 6)     # one-sided, downward
    # p = 5: 256 blocks, even at every level, and 257, odd at every level but
    # the last two; p = 8: 188 blocks over 8 levels, the last padded by 5 rows
    @example({-5: 1, -2: 1, 4: 2}, 1280, 7)
    @example({-5: 1, -2: 1, 4: 2}, 1285, 8)
    @example({-8: 3, 1: 8, 7: 1}, 1499, 9)
    def test_matches_dense_solve(self, weights, size, seed):
        tot = sum(weights.values())
        law = dist({v: F(w, tot) for v, w in weights.items()})
        rhs = np.random.default_rng(seed).random(size)
        M = _dense_killed(law, 0, size - 1)
        _assert_close(ladder._cyclic_solve(law, rhs), np.linalg.solve(M, rhs), 1e-12)
        # a whole Green row, from each start within a jump of the segment:
        # row start of (I - A)^{-1}, or the first-step average of its rows
        inverse, lo = np.linalg.inv(M), -size // 2
        for start in (lo - 1, lo, lo + size // 2, lo + size - 1, lo + size):
            ref = np.zeros(size)
            for v, p in zip(law.values, law.probs):
                if 0 <= start + v - lo < size:
                    ref += p * inverse[start + v - lo]
            if 0 <= start - lo < size:
                ref[start - lo] += 1.0
            g = killed_green_row(Medium(law, lo, lo + size - 1), ANY_WINDOW, start)
            assert np.allclose(g, ref, rtol=1e-12, atol=1e-12 * np.max(inverse)), start

    @pytest.mark.parametrize("lo,hi,cuts", [(0, 0, (False, False)), (-6, 0, (True, False)),
                                            (1, 4096, (False, True)),
                                            (-2048, 2047, (True, True))])
    def test_a_law_that_never_moves_raises(self, lo, hi, cuts):
        # mu(0) = 1 makes I - A singular: LinAlgError, as the banded LU
        # raised, before any pivot is divided by (warnings are errors here);
        # on [lo, hi], each cut end unbounded and cut at the window's edge
        medium = Medium(dist({0: 1}), None if cuts[0] else lo, None if cuts[1] else hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                killed_green_row(medium, Window(min(lo, -1), max(hi, 1)), 0)

    def test_solve_memory_is_linear_in_the_sites(self):
        # p = 8 on 40001 sites: the right-hand sides and the kept y, O(p n),
        # and one table per kind of block, not a (p, 3p + 1, m) stack of
        # every block row (19.6 MB)
        law, rhs = dist(WIDE_RIGHT), np.random.default_rng(0).random(40001)
        tracemalloc.start()
        try:
            ladder._cyclic_solve(law, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_direct_constant_matches_the_banded_lu_at_wide_jumps(self, monkeypatch):
        # the wide-jump model's two laws, p = 8, at SOLVE_WINDOW sites
        laws = [dist(WIDE_LEFT), dist(WIDE_RIGHT)]
        cyclic = [direct_constant(law) for law in laws]
        monkeypatch.setattr(ladder, "_cyclic_solve",
                            lambda law, rhs: _banded_lu_solve(law, rhs, corrections=1))
        for law, c in zip(laws, cyclic):
            assert c == pytest.approx(direct_constant(law), rel=1e-11, abs=0)

    # direct_constant by the banded LU solve (scipy.linalg.solve_banded)
    # that the cyclic reduction replaced, at SOLVE_WINDOW sites, on every
    # centered law of the 15 fixture files and their mirrors
    LU_DIRECT_CONSTANTS = {
        ((-1, "1/2"), (1, "1/2")): 0.3989422794042207,
        ((-1, "1/2"), (0, "1/4"), (2, "1/4")): 0.4886025100031321,   # MU_A
        ((-2, "1/4"), (0, "1/4"), (1, "1/2")): 0.3257350069853848,   # its mirror
    }

    def test_direct_constant_matches_the_banded_lu(self):
        laws = {}
        for make in FIXTURE_MODELS.values():
            for m in make().media:
                for law in (m.law, mirror_dist(m.law)):
                    if law.centered:
                        laws[tuple((v, str(p)) for v, p in zip(law.values, law.fracs))] = law
        assert laws.keys() == self.LU_DIRECT_CONSTANTS.keys()
        for key, law in laws.items():
            assert direct_constant(law) == pytest.approx(self.LU_DIRECT_CONSTANTS[key],
                                                         rel=1e-11, abs=0), key


def _two_prod(a, b):
    """(p, e) with a * b = p + e exactly: Dekker's product of split halves."""
    def split(x):
        c = 134217729.0 * x   # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    (ah, al), (bh, bl), p = split(a), split(b), a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _residual(law, X, rhs):
    """rhs - (I - A) X for the law's exact probabilities, as if in twice the
    working precision: a probability p is p_hi + p_lo, p_hi = float(p),
    p_hi X is split exactly, and the terms are summed with their rounding
    errors carried (Ogita, Rump and Oishi's Sum2)."""
    n, terms = len(X), [rhs, -X]
    for v, p in zip(law.values, law.fracs or law.probs):
        p_hi = float(p)
        moved = np.zeros_like(X)   # X(s + v), 0 off the segment
        moved[max(0, -v): min(n, n - v)] = X[max(0, v): min(n, n + v)]
        terms += [*_two_prod(np.full_like(X, p_hi), moved), float(F(p) - F(p_hi)) * moved]
    total, carried = terms[0], 0.0
    for t in terms[1:]:
        s = total + t
        z = s - total
        carried = carried + ((total - (s - z)) + (t - z))
        total = s
    return total + carried


def _banded_lu_solve(law, rhs, corrections=0):
    """(I - A)^{-1} rhs for ``law`` killed on leaving a segment of len(rhs)
    sites, by scipy's banded LU solve, the route the roots solve and the
    cyclic reduction replaced; each of ``corrections`` adds the LU solve of
    the residual of the exact law, which takes the LU's own error, and that
    of the float law not summing to exactly 1, to rounding."""
    from scipy.linalg import solve_banded

    size, maxj = len(rhs), max(abs(law.min_support), abs(law.max_support))
    ab = np.zeros((2 * maxj + 1, size))   # ab[maxj + i - j, j] = (I - A)[i, j]
    ab[maxj] = 1.0
    for v, p in zip(law.values, law.probs):
        if abs(v) < size:
            ab[maxj - v, max(v, 0): size + min(v, 0)] -= p
    X = solve_banded((maxj, maxj), ab, rhs)
    for _ in range(corrections):
        X = X + solve_banded((maxj, maxj), ab, _residual(law, X, rhs))
    return X


def _banded_lu_green(medium, window, rhs, corrections=0):
    """killed_green by :func:`_banded_lu_solve`, refined and clipped the same way."""
    law, (lo, hi) = medium.law, medium.segment(window)
    cuts = (medium.lo is None, medium.hi is None)
    X = _banded_lu_solve(law, rhs, corrections)
    a, b = lo // 2 if cuts[0] else lo, hi // 2 if cuts[1] else hi
    if any(cuts) and a <= b:
        X[a - lo: b - lo + 1] = (2.0 * X[a - lo: b - lo + 1]
                                 - _banded_lu_solve(law, rhs[a - lo: b - lo + 1], corrections))
    return np.clip(X, 0.0, None)


def _assert_close(X, ref, rtol):
    """Column by column, max |X - ref| <= rtol max |ref|."""
    X, ref = X.reshape(len(X), -1), ref.reshape(len(ref), -1)
    err, scale = np.max(np.abs(X - ref), axis=0), np.max(np.abs(ref), axis=0)
    assert np.all(err <= rtol * scale), (err / scale).max()


FIXTURE_MODELS = {**FIXTURES, **{f"FIX-PP-{k}": f for k, f in SUBCASE_FIXTURES.items()}}
_EPS = F(1, 10**9)
SPECIAL_LAWS = {
    # mean 1e-9: drifted, so u = 1 is a simple root, and its partner is 1 + 2e-9
    "mean-1e-9": dist({-1: F(1, 2) - _EPS / 2, 1: F(1, 2) + _EPS / 2}),
    # on 2Z: the unit roots +1 and -1, each double
    "on-2Z": dist({-2: F(1, 4), 0: F(1, 2), 2: F(1, 4)}),
    # on 3Z: complex unit roots
    "on-3Z": dist({-3: F(1, 4), 0: F(1, 2), 3: F(1, 4)}),
    # a complex pair off the unit circle
    "complex-pair": dist({-1: F(1, 10), 3: F(9, 10)}),
    # one-sided: no root coefficient for the missing side
    "up-only": dist({0: F(1, 4), 1: F(1, 4), 2: F(1, 2)}),
    "down-only": dist({-2: F(1, 3), -1: F(2, 3)}),
}
# p(u) = -(1/24) (u - 1)^2 (u + 4)^2: a double root off the unit circle
DOUBLE_ROOT = dist({-1: F(2, 3), 1: F(1, 24), 2: F(1, 4), 3: F(1, 24)})


def _placed(n, where):
    """A two-column rhs on n sites held at rows ``where``: 'low', 'high',
    'middle' or 'both' (a row near each end: two blocks)."""
    rows = {"low": [0, 2], "high": [n - 1, n - 3], "middle": [n // 2, n // 2 + 5],
            "both": [3, n - 4]}[where]
    rhs = np.zeros((n, 2))
    rhs[rows[0], 0] = 1.0
    rhs[rows, 1] = 0.5
    return rhs


class TestRootsSolve:
    """killed_green by characteristic roots against scipy's banded LU solve,
    which it replaced; both are refined at the cuts and clipped alike."""

    @pytest.mark.parametrize("half", [64, 512, 4096])
    @pytest.mark.parametrize("name", list(FIXTURE_MODELS))
    def test_matches_banded_lu_on_every_medium(self, name, half):
        # the package's two calls: switching_kernel's (the law against the
        # arrivals of its band rows) and invariant_profile's (the mirrored law
        # against a measure on the model's arrival band); the 10 subcase
        # witnesses are the FIX-PP-* models
        model, w = FIXTURE_MODELS[name](), Window(-half, half)
        band = arrival_band(model)
        for m in model.media:
            op = passage_operator(m, w, steps=1)
            lo, hi = op.sites
            ys = [y for y in range(band[0], band[1] + 1) if lo <= y <= hi]
            unit = np.zeros((hi - lo + 1, len(ys)))
            unit[[y - lo for y in ys], range(len(ys))] = 1.0
            for medium, rhs in ((m, op.dense(op.band_rows).T),
                                (Medium(mirror_dist(m.law), m.lo, m.hi), unit)):
                _assert_close(killed_green(medium, w, rhs), _banded_lu_green(medium, w, rhs),
                              1e-11)

    @pytest.mark.parametrize("where", ["low", "high", "middle", "both"])
    @pytest.mark.parametrize("name", [*SPECIAL_LAWS, "double-root"])
    def test_special_laws_on_4096_sites(self, name, where):
        # against the corrected LU: the plain one is off by 1.2e-10 on the
        # nearest-neighbour mean-1e-9 law, whose float probabilities miss
        # summing to 1 by about 1e-16, and by 3e-11 on the double root
        law = SPECIAL_LAWS.get(name, DOUBLE_ROOT)
        for lo, hi, w in ((None, 0, Window(-4095, 1)), (1, None, Window(-1, 4096)),
                          (None, None, Window(-2048, 2047)), (-2048, 2047, ANY_WINDOW)):
            for medium in (Medium(law, lo, hi), Medium(mirror_dist(law), lo, hi)):
                a, b = medium.segment(w)
                rhs = _placed(b - a + 1, where)
                _assert_close(killed_green(medium, w, rhs),
                              _banded_lu_green(medium, w, rhs, corrections=2), 1e-11)

    def test_arrival_band_deeper_than_the_mirrored_law_jumps(self):
        # the right law jumps 4 into the left medium, whose mirrored law moves
        # at most 2: nu charges a site 3 deep, off the rows next to the end
        model = validate_model(MU_A_DIST, dist({-1: F(1, 2), 1: F(1, 2)}),
                               dist({-4: F(1, 6), 0: F(1, 6), 1: F(2, 3)}))
        w = Window(-512, 512)
        nu = dominant_eigenpair(switching_kernel(model, w)).nu
        assert nu[w.index(-3)] > 0.0 and max(-MU_A_DIST.min_support, MU_A_DIST.max_support) < 3
        for m in model.media:
            lo, hi = m.segment(w)
            rhs, medium = nu[w.index(lo): w.index(hi) + 1], Medium(mirror_dist(m.law), m.lo, m.hi)
            _assert_close(killed_green(medium, w, rhs), _banded_lu_green(medium, w, rhs), 1e-11)

    def test_a_law_that_never_moves_is_refused(self):
        # I - A is 0 on every segment: one ValidationError, for a bounded
        # core and a cut medium alike
        for lo, hi, w in ((-1, 1, ANY_WINDOW), (None, 0, Window(-4095, 1))):
            medium = Medium(dist({0: 1}), lo, hi)
            a, b = medium.segment(w)
            with pytest.raises(ValidationError, match="never moves"):
                killed_green(medium, w, np.ones(b - a + 1))

    def test_small_roots(self):
        # p(u) = u^a (1 - phi(u)) and its first m - 1 derivatives vanish at a
        # root of multiplicity m, and the multiplicities add up to a + b
        from numpy.polynomial import polynomial as P

        cases = [(MU_A_DIST, 1, 2), (SPECIAL_LAWS["on-2Z"], 2, 2), (SPECIAL_LAWS["up-only"], 1, 1),
                 (SPECIAL_LAWS["mean-1e-9"], 1, 1), (DOUBLE_ROOT, 1, 2),
                 (dist({-3: F(1, 2), 3: F(1, 2)}), 3, 2)]
        for law, period, order in cases:
            roots = small_roots(law)
            assert (roots.period, roots.order) == (period, order)
            assert sum(m for _, m in roots.repeated) == len(roots.poly) - 1
            for r, m in roots.repeated:
                for d in range(m):
                    assert abs(P.polyval(r, P.polyder(roots.poly, d))) <= 1e-9, (law, r, d)
        assert small_roots(SPECIAL_LAWS["on-2Z"]).repeated == ((1.0, 2), (-1.0, 2))
        (r, m), = small_roots(DOUBLE_ROOT).repeated[1:]
        assert m == 2 and r == pytest.approx(-4.0, rel=1e-12)
        assert small_roots(MU_A_DIST) is small_roots(dist(MU_A))   # one computation per law
