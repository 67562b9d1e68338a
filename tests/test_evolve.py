from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    as_fractions,
    enumerate_first_passage,
    enumerate_marginal,
    reference_marginal_sequence,
    reference_step,
    step,
    transition_matrix,
)
from oscillax.errors import ConventionMismatch, ValidationError
from oscillax import evolve
from oscillax.evolve import (
    BLOCK,
    TINY,
    Window,
    _advance,
    default_window,
    excursion_functions,
    first_passage_rows,
    marginal_sequence,
    walk_plan,
)
from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
from oscillax.model import (
    Medium,
    common_denominator,
    dist,
    dump_model,
    is_strongly_aperiodic,
    load_model,
    mirror_model,
    validate_model,
)


class TestStep:
    def test_one_step_from_origin(self, fix_zz):
        w = Window(-16, 16)
        state = np.zeros(w.width)
        state[w.index(0)] = 1.0
        new, (lk_lo, lk_hi) = step(state, fix_zz, w)
        assert new[w.index(-1)] == 0.5 and new[w.index(1)] == 0.5
        assert lk_lo == lk_hi == 0.0

    def test_two_steps_mass_at_one(self, fix_zz):
        # exhaustive enumeration of all length-2 paths
        oracle = enumerate_marginal(fix_zz, 0, 2)
        assert oracle[1] == F(1, 4)
        t = as_fractions(marginal_sequence(fix_zz, 0, 1, 2, Window(-16, 16), exact=True))
        assert t.data["values"][2] == F(1, 4)

    def test_conservation_exact(self, fix_zz):
        w = Window(-8, 8)  # deliberately tiny so mass leaks
        state = np.array([F(0)] * w.width, dtype=object)
        state[w.index(0)] = F(1)
        total_leak = F(0)
        for _ in range(12):
            state, (lo, hi) = step(state, fix_zz, w)
            total_leak += lo + hi
        assert state.sum() + total_leak == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    def test_conservation_random_exact_models(self, a, b, c):
        tot = a + b + c
        left = dist({-1: F(a, tot), 0: F(b, tot), 2: F(c, tot)})
        right = dist({-2: F(c, tot), 0: F(b, tot), 1: F(a, tot)})
        m = validate_model(left, dist({-1: F(1, 2), 1: F(1, 2)}), right)
        w = Window(-6, 6)
        state = np.array([F(0)] * w.width, dtype=object)
        state[w.index(1)] = F(1)
        leak = F(0)
        for _ in range(8):
            state, (lo, hi) = step(state, m, w)
            leak += lo + hi
        assert state.sum() + leak == 1


@pytest.mark.parametrize("lo,hi", [(0, 5), (-5, 0), (2, 5)])
def test_window_must_straddle_zero(lo, hi):
    with pytest.raises(ValidationError, match="straddle 0"):
        Window(lo, hi)


class TestMarginalSequence:
    def test_n0_indicator(self, fix_zz):
        t = marginal_sequence(fix_zz, 3, 3, 1, Window(-16, 16))
        assert t.data["values"][0] == 1.0
        t = marginal_sequence(fix_zz, 3, 2, 1, Window(-16, 16))
        assert t.data["values"][0] == 0.0

    def test_matches_enumeration(self, fix_zz):
        w = Window(-16, 16)
        for x, y in [(0, 0), (-1, 1), (2, -2)]:
            t = as_fractions(marginal_sequence(fix_zz, x, y, 5, w, exact=True))
            for n in range(6):
                oracle = enumerate_marginal(fix_zz, x, n)
                assert t.data["values"][n] == oracle.get(y, F(0)), (x, y, n)

    def test_two_media_matches_enumeration(self, fix_pp):
        w = Window(-16, 16)
        t = as_fractions(marginal_sequence(fix_pp, 0, 1, 4, w, exact=True))
        for n in range(5):
            oracle = enumerate_marginal(fix_pp, 0, n)
            assert t.data["values"][n] == oracle.get(1, F(0))

    @pytest.mark.parametrize("name", sorted(FIXTURES) + [f"FIX-PP-{k}" for k in SUBCASE_FIXTURES])
    def test_defaults_run_every_fixture(self, name):
        # the default window's leak is reported, not refused
        model = FIXTURES[name]() if name in FIXTURES else SUBCASE_FIXTURES[name[7:]]()
        t = marginal_sequence(model, 0, 0, 4096)
        assert len(t.data["values"]) == 4097 and np.all(np.diff(t.leak) >= 0)

    def test_size_guard_follows_the_longest_block(self, fix_zz, monkeypatch):
        # on 129 sites the bands a 1-step float DP builds take about 47 KB and
        # those of A^8 or A^16 and their squarings 211 KB and 421 KB
        monkeypatch.setattr(evolve, "MAX_ARRAY_BYTES", 100_000)
        w = Window(-64, 64)
        assert len(marginal_sequence(fix_zz, 0, 0, 1, w).data["values"]) == 2
        for horizon in (8, 16):
            with pytest.raises(ValidationError, match="GiB"):
                marginal_sequence(fix_zz, 0, 0, horizon, w)

    def test_window_doubling_within_leak(self, fix_zz):
        small = marginal_sequence(fix_zz, 0, 0, 256, Window(-40, 40))
        big = marginal_sequence(fix_zz, 0, 0, 256, Window(-80, 80))
        gap = np.max(np.abs(small.data["values"] - big.data["values"]))
        assert gap <= float(small.leak[-1]) + 1e-15

    def test_rescaled_matches_plain(self, fix_pp):
        w = Window(-32, 48)
        plain = marginal_sequence(fix_pp, 0, 0, 60, w)
        resc = marginal_sequence(fix_pp, 0, 0, 60, w)
        sel = plain.data["values"] > 0
        assert np.allclose(np.log(plain.data["values"][sel]),
                           resc.data["log_values"][sel], atol=1e-9)

    def test_rescaled_dynamic_range(self):
        # FIX-PP-B3 at the CLI default window: by n = 4096 the origin holds
        # about 1e-277 of the in-window bulk, about 1e46 above the subnormal
        # floor, so the per-step normalisation must keep it resolved
        from oscillax.fixtures import SUBCASE_FIXTURES

        model = SUBCASE_FIXTURES["B3"]()
        wide, narrow = (marginal_sequence(model, 0, 0, 4096, w).data["log_values"][512:]
                        for w in (default_window(model, 4096), Window(-224, 256)))
        assert default_window(model, 4096) == Window(-1024, 1024)
        assert np.all(np.isfinite(wide))
        assert np.max(np.abs(wide - narrow) / np.abs(narrow)) <= 1e-9

    def test_leak_monotone(self, fix_zz):
        t = marginal_sequence(fix_zz, 0, 0, 128, Window(-24, 24))
        assert np.all(np.diff(t.leak.astype(float)) >= 0)

    def test_exact_leak_stays_rational(self, fix_zz):
        # the cumulative leak of the exact DP is rational (integer numerators
        # over D**n), so mass balances exactly
        raw = marginal_sequence(fix_zz, 0, 0, 30, Window(-6, 6), exact=True)
        assert all(type(v) is int for v in raw.leak)
        t = as_fractions(raw)
        for key in ("leak_below", "leak_above"):
            assert all(isinstance(v, F) for v in t.data[key])
        assert all(isinstance(v, F) for v in t.leak)
        assert t.leak[30] > 0
        assert sum(t.data["final_state"]) + t.leak[30] == 1

    def test_default_window_rule(self, fix_zz):
        w = default_window(fix_zz, 4096)
        assert w.hi == -w.lo == 8 * 64 * 2


class TestFirstPassage:
    def test_one_step_values(self, fix_zz):
        w = Window(-32, 8)
        t = as_fractions(first_passage_rows(Medium(fix_zz.left, None, -1), [-1], 8, w, exact=True))
        bl, _ = t.band
        assert t.R[1, 0, 1 - bl] == F(1, 4)   # jump +2 lands at +1
        assert t.R[1, 0, 0 - bl] == F(0)      # mu(1) = 0
        assert t.survival[0][1] == F(3, 4)

    def test_two_step_path(self, fix_zz):
        # single path -1 -> -2 -> 0 with probability mu(-1) mu(2)
        w = Window(-32, 8)
        t = as_fractions(first_passage_rows(Medium(fix_zz.left, None, -1), [-1], 8, w, exact=True))
        bl, _ = t.band
        assert t.R[2, 0, 0 - bl] == F(1, 2) * F(1, 4)

    def test_matches_enumeration(self, fix_zz):
        oracle, _ = enumerate_first_passage(fix_zz.left, -2, 6, absorb_ge=0)
        w = Window(-40, 8)
        t = as_fractions(first_passage_rows(Medium(fix_zz.left, None, -1), [-2], 6, w, exact=True))
        bl, bh = t.band
        for n in range(1, 7):
            for y in range(bl, bh + 1):
                assert t.R[n, 0, y - bl] == oracle.get((n, y), F(0))

    def test_survival_identity_exact(self, fix_zz):
        w = Window(-64, 8)
        t = as_fractions(first_passage_rows(Medium(fix_zz.left, None, -1), [-1], 64, w, exact=True))
        absorbed = sum(t.R[n, 0].sum() for n in range(65))
        assert absorbed + t.survival[0][64] == 1

    def test_two_media_regions(self, fix_pp):
        w = Window(-32, 8)
        t = as_fractions(first_passage_rows(fix_pp.media[0], [0], 4, w, exact=True))
        bl, bh = t.band
        assert (bl, bh) == (1, 2)
        assert t.R[1, 0, 2 - bl] == F(1, 2)   # 0 -> +2 crosses

    def test_start_outside_region(self, fix_zz):
        with pytest.raises(ConventionMismatch):
            first_passage_rows(fix_zz.media[0], [0], 4, Window(-16, 8))


def _medium_rows(lo, hi, count):
    """The ``count`` start rows of the medium lo..hi nearest its inner end
    (the origin's one site for 0..0)."""
    if lo is None:
        return list(range(hi - count + 1, hi + 1))
    return list(range(lo, lo + count)) if hi is None else [lo]


_laws = st.dictionaries(st.integers(-3, 3), st.integers(1, 5), min_size=1, max_size=4)
# the five medium shapes: the left one under three media and under two, the
# three-media origin, the right one, and the right one of a two-media model's
# mirror, which holds the origin
_shapes = st.sampled_from([(None, -1), (None, 0), (0, 0), (1, None), (0, None)])


def _rational_law(weights):
    tot = sum(weights.values())
    return dist({v: F(w, tot) for v, w in weights.items()})


class TestFirstPassageRows:
    @settings(max_examples=40, deadline=None)
    @given(_laws, _shapes)
    def test_batch_matches_enumeration(self, weights, shape):
        medium = Medium(_rational_law(weights), *shape)
        law, (lo, hi) = medium.law, shape
        n_max, xs = 5, _medium_rows(lo, hi, 4)
        w = Window(-24, 24)   # wide enough that nothing leaks in n_max steps
        hist = as_fractions(first_passage_rows(medium, xs, n_max, w, exact=True))
        absorb = {"absorb_ge": None if hi is None else hi + 1,
                  "absorb_le": None if lo is None else lo - 1}
        bl, bh = hist.band
        for x in xs:
            i = hist.rows.index(x)
            oracle, alive = enumerate_first_passage(law, x, n_max, **absorb)
            assert all(bl <= y <= bh for _, y in oracle)
            for n in range(1, n_max + 1):
                for y in range(bl, bh + 1):
                    assert hist.R[n, i, y - bl] == oracle.get((n, y), F(0))
            assert not any(hist.leak[i])
            assert hist.survival[i, n_max] == sum(alive.values(), F(0))

    @settings(max_examples=40, deadline=None)
    @given(_laws, _shapes, st.booleans())
    def test_batch_equals_single_rows(self, weights, shape, exact):
        medium = Medium(_rational_law(weights), *shape)
        w, horizon = Window(-5, 5), 12   # narrow: rows leak and die at different times
        xs = _medium_rows(*shape, 5)
        batch = first_passage_rows(medium, xs, horizon, w, exact=exact)
        for x in xs:
            i = batch.rows.index(x)
            one = first_passage_rows(medium, [x], horizon, w, exact=exact)
            for key, rec, row in (("arrivals", batch.R[:, i], one.R[:, 0]),
                                  ("survival", batch.survival[i], one.survival[0])):
                assert np.array_equal(rec, row), (x, key)
            assert np.array_equal(batch.leak[i], one.leak[0])
            if exact:
                fb = as_fractions(batch)
                for n in range(horizon + 1):
                    assert fb.survival[i, n] + fb.R[: n + 1, i].sum() == 1

    def test_rows_die_at_different_times(self):
        # an upward-only law empties row x after at most |x| steps
        law = dist({1: F(1, 2), 2: F(1, 2)})
        xs = list(range(-6, 0))
        w = Window(-8, 8)
        medium = Medium(law, None, -1)
        batch = as_fractions(first_passage_rows(medium, xs, 10, w, exact=True))
        for x in xs:
            i = batch.rows.index(x)
            one = as_fractions(first_passage_rows(medium, [x], 10, w, exact=True))
            assert np.array_equal(batch.R[:, i], one.R[:, 0])
            assert np.array_equal(batch.survival[i], one.survival[0])
            assert batch.survival[i, -x] == 0 and not batch.survival[i, -x:].any()
            assert batch.R[:, i].sum() == 1

    def test_float_matches_exact(self, fix_zz):
        w = Window(-16, 16)   # small enough that the far rows leak
        for medium, xs in ((fix_zz.media[0], range(-8, 0)), (fix_zz.media[-1], range(1, 9))):
            fl = first_passage_rows(medium, xs, 64, w)
            ex = as_fractions(first_passage_rows(medium, xs, 64, w, exact=True))
            for x in xs:
                i = fl.rows.index(x)
                for a, b in ((fl.R[:, i], ex.R[:, i]),
                             (fl.survival[i], ex.survival[i]),
                             (fl.leak[i], ex.leak[i])):
                    assert np.max(np.abs(a - b.astype(float))) <= 1e-15
                assert np.all(fl.leak[i] >= 0)
                assert np.all(np.diff(fl.leak[i]) >= 0)
            assert max(float(fl.leak[i, -1]) for i in range(len(fl))) > 0

    @pytest.mark.parametrize("side,x", [("left", -20), ("right", 20)])
    def test_start_outside_window(self, fix_zz, side, x):
        medium = fix_zz.media[0 if side == "left" else -1]
        with pytest.raises(ValidationError):
            first_passage_rows(medium, [x], 4, Window(-16, 16))
        with pytest.raises(ValidationError):
            first_passage_rows(medium, [x // 4, x], 4, Window(-16, 16))


def _subnormals(a):
    return np.count_nonzero((a > 0) & (a < TINY))


class TestUnderflowFlush:
    """A float DP sets every state entry below the smallest normal double to 0
    after each block product and counts that mass as leak."""

    def test_fix_pn_state_stays_normal(self, fix_pn):
        # FIX-PN's profile decays exponentially away from the origin, so at
        # n = 4096 the default window holds a band of sites below 2.2e-308;
        # no window leak reaches a double there, so the leak is all underflow
        horizon = 4096
        window = default_window(fix_pn, horizon)
        op, state = walk_plan(fix_pn, window), np.zeros(window.width)
        state[window.index(0)] = 1
        flushed = []
        for _, state, _, lost in _advance(op, [op.below, op.above], state, horizon):
            assert _subnormals(state) == 0
            flushed.append(0.0 if lost is None else lost)
        t = marginal_sequence(fix_pn, 0, 0, horizon, window)
        d = t.data
        assert _subnormals(d["final_state"]) == 0
        assert np.array_equal(t.leak, d["leak_below"] + d["leak_above"] + d["leak_underflow"])
        assert not d["leak_below"].any() and not d["leak_above"].any()
        # a block's flush counts from the next block's first step on, and the
        # last block's from no step of the horizon
        assert d["leak_underflow"][-1] == pytest.approx(sum(flushed[:-1]), rel=1e-12)
        assert d["leak_underflow"][-1] > 0 and np.all(np.diff(d["leak_underflow"]) >= 0)
        assert np.all((np.flatnonzero(np.diff(d["leak_underflow"])) + 1) % BLOCK == 1)

    def test_fix_pn_final_flush_in_meta(self, fix_pn):
        # the last block's flush, which no leak entry holds, is meta's
        # final_flush; with it the final state and the leak hold all the mass
        horizon = 4096
        window = default_window(fix_pn, horizon)
        op, state = walk_plan(fix_pn, window), np.zeros(window.width)
        state[window.index(0)] = 1
        *_, (_, _, _, last) = _advance(op, [op.below, op.above], state, horizon)
        t = marginal_sequence(fix_pn, 0, 0, horizon, window)
        assert last is not None and t.meta["final_flush"] == last > 0
        total = t.data["final_state"].sum() + t.leak[-1] + t.meta["final_flush"]
        assert total == pytest.approx(1.0, abs=1e-14)
        # 4096 / BLOCK products of BLOCK steps: at most width * (BLOCK *
        # (span + 3) + 1) terms each, every one losing at most 2**-1075 (span
        # 4, jumps -2..2)
        terms = window.width * (horizon // BLOCK) * (BLOCK * (4 + 3) + 1)
        assert t.meta["unflushed_bound"] == terms * 2.0**-1074 / 2

    def test_exact_run_has_no_underflow(self, fix_zz):
        t = marginal_sequence(fix_zz, 0, 0, 30, Window(-6, 6), exact=True)
        assert not t.data["leak_underflow"].any()
        assert t.meta["final_flush"] == 0 and t.meta["unflushed_bound"] == 0
        assert list(t.leak) == list(t.data["leak_below"] + t.data["leak_above"])

    def test_first_passage_flush_is_leak(self, monkeypatch):
        # a law drifting hard into the boundary: the surviving mass falls
        # about 0.3 a step, none of it reaches the window's far end, so every
        # leak is flushed mass, and the DP stops once all of it is flushed
        law = dist({-3: F(9, 10), 1: F(1, 10)})
        products = []

        def counted(*args):
            for out in _advance(*args):
                products.append(out[0])
                yield out

        monkeypatch.setattr(evolve, "_advance", counted)
        fp = first_passage_rows(Medium(law, 1, None), [1, 5], 800, Window(-8, 400),
                                keep_states=True)
        assert _subnormals(fp.states) == 0
        empty = int(np.flatnonzero(~fp.states.any(axis=(1, 2)))[0])
        assert len(products) == empty < 800
        assert np.all(fp.leak[:, -1] > 0)
        # survival_{n-1} - survival_n = R_n, at the scale of the surviving mass
        gap = -np.diff(fp.survival, axis=1) - fp.R[1:].sum(axis=2).T
        assert np.all(np.abs(gap) <= 1e-12 * fp.survival[:, :-1] + 1e-318)
        np.testing.assert_allclose(fp.survival + np.cumsum(fp.R.sum(axis=2).T, axis=1), 1,
                                   rtol=0, atol=1e-12)

    def test_float_within_leak_of_exact(self):
        # jumps of +-3 keep the walk on 3Z but for the atoms of 2**-530 at +4
        # and -2, each a class up mod 3: the sites two classes up hold about
        # 2**-1060, below the smallest normal, from the second step on (an
        # atom of 2**-600 would put them below the subnormals, at 0)
        eps = F(1, 2**530)
        left = dist({-3: F(1, 2), 3: F(1, 2) - eps, 4: eps})
        right = dist({-3: F(1, 2) - eps, -2: eps, 3: F(1, 2)})
        m = validate_model(left, dist({-3: F(1, 2), 3: F(1, 2)}), right)
        # two blocks: the first one's flush is leak from the second one on
        horizon, half = 2 * BLOCK, 8 * BLOCK + 1   # no path of the horizon leaves the wide one
        for y in (0, 1):
            small = marginal_sequence(m, 0, y, horizon, Window(-12, 12))
            wide = as_fractions(marginal_sequence(m, 0, y, horizon, Window(-half, half),
                                                  exact=True))
            assert small.data["leak_underflow"][-1] > 0
            assert _subnormals(small.data["final_state"]) == 0
            err = np.abs(small.data["values"] - wide.data["values"].astype(float))
            assert np.all(err <= small.leak + 1e-12)


class TestExcursions:
    def test_no_target_refused(self, fix_zz):
        with pytest.raises(ValidationError, match="no target"):
            excursion_functions(fix_zz, [], 4, Window(-16, 16))

    def test_v0_indicator(self, fix_zz):
        w = Window(-16, 16)
        t = excursion_functions(fix_zz, -2, 4, w)
        V = t.data["V"]
        assert V[0][w.index(-2)] == 1.0
        assert V[0].sum() == 1.0

    def test_wrong_side_is_zero(self, fix_zz):
        w = Window(-16, 16)
        V = excursion_functions(fix_zz, 2, 5, w).data["V"]
        for n in range(1, 6):
            assert not V[n][: w.index(1)].any()

    def test_one_step_value(self, fix_zz):
        w = Window(-16, 16)
        V = as_fractions(excursion_functions(fix_zz, -2, 3, w, exact=True)).data["V"]
        assert V[1][w.index(-1)] == F(1, 2)

    def test_origin_row_three_media(self):
        # origin law with an atom at 0 so the geometric factor is visible: the
        # closed form mu0(0)^n, and the mass that left 0 is leak, as for any y
        m = validate_model(dist({-1: F(1, 2), 0: F(1, 4), 2: F(1, 4)}),
                           dist({-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}),
                           dist({-2: F(1, 4), 0: F(1, 4), 1: F(1, 2)}))
        w = Window(-8, 8)
        t = as_fractions(excursion_functions(m, 0, 5, w, exact=True))
        V = t.data["V"]
        for n in range(6):
            assert V[n][w.index(0)] == F(1, 2) ** n
            assert V[n].sum() == F(1, 2) ** n
            assert t.leak[n] == 1 - F(1, 2) ** n

    def test_matches_survival_enumeration(self, fix_zz):
        # V_{n,y}(x) = P[stay <= -1 for n steps, land at y]
        w = Window(-24, 8)
        V = as_fractions(excursion_functions(fix_zz, -3, 4, w, exact=True)).data["V"]
        for x in (-1, -2, -4):
            cur = {x: F(1)}
            for n in range(1, 5):
                new = {}
                for pos, mass in cur.items():
                    for v, p in zip(fix_zz.left.values, fix_zz.left.fracs):
                        dest = pos + v
                        if dest <= -1:
                            new[dest] = new.get(dest, F(0)) + mass * p
                cur = new
                assert V[n][w.index(x)] == cur.get(-3, F(0))


    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.booleans(),
           st.sampled_from([-4, -2, -1, 1, 3]))
    def test_matches_survival_enumeration_random_models(self, a, b, c, two_media, y):
        tot = a + b + c
        left = dist({-1: F(a, tot), 0: F(b, tot), 2: F(c, tot)})
        right = dist({-2: F(c, tot), 0: F(b, tot), 1: F(a, tot)})
        m = validate_model(left, left if two_media else dist({-1: F(1, 2), 1: F(1, 2)}),
                           right, two_media=two_media)
        w, horizon = Window(-7, 7), 5   # narrow, so the window cuts paths too
        V = as_fractions(excursion_functions(m, y, horizon, w, exact=True)).data["V"]
        law = m.law_at(y)
        inside = (lambda p: w.lo <= p <= (0 if two_media else -1)) if y < 0 else \
            (lambda p: 1 <= p <= w.hi)
        for x in range(w.lo, w.hi + 1):
            cur = {x: F(1)} if inside(x) else {}
            for n in range(1, horizon + 1):
                new = {}
                for pos, mass in cur.items():
                    for v, p in zip(law.values, law.fracs):
                        if inside(pos + v):
                            new[pos + v] = new.get(pos + v, F(0)) + mass * p
                cur = new
                assert V[n][w.index(x)] == cur.get(y, F(0)), (x, n)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_media_tile_the_window(name):
    # on a model and on its mirror the media's segments, left to right, tile
    # the window, and medium_index and law_at agree with them on every site
    for model in (FIXTURES[name](), mirror_model(FIXTURES[name]())):
        w = Window(-9, 7)
        sites = []
        for k, m in enumerate(model.media):
            lo, hi = m.segment(w)
            sites += range(lo, hi + 1)
            for x in range(lo, hi + 1):
                assert x in m and model.medium_index(x) == k
                assert model.law_at(x) is m.law
        assert sites == list(range(w.lo, w.hi + 1))
        assert np.array_equal(model.medium_index(w.positions()),
                              [model.medium_index(x) for x in range(w.lo, w.hi + 1)])
        assert len(model.media) == (2 if model.two_media else 3)


class TestTransitionMatrix:
    def test_rows_are_step(self, fix_pn):
        w = Window(-16, 16)
        P = transition_matrix(fix_pn, w)
        state = np.zeros(w.width)
        state[w.index(-2)] = 1.0
        ref, _ = step(state, fix_pn, w)
        assert np.allclose(P[w.index(-2)], ref)


class TestDriftTailBounds:
    def test_second_moment_growth_exponent(self, fix_pn):
        # E[(first-crossing time)^2] from x grows at most like (1 + |x|)^2
        w = Window(-256, 8)
        moments = []
        xs = range(-1, -21, -1)
        for x in xs:
            t = first_passage_rows(fix_pn.media[0], [x], 600, w)
            surv = t.survival[0].astype(float)
            assert surv[-1] < 1e-12   # positive drift: crossing is fast
            f = -np.diff(surv)
            ns = np.arange(1, 601)
            moments.append(float(np.sum(ns**2 * f)))
        lx = np.log([1 + abs(x) for x in xs])
        slope = np.polyfit(lx, np.log(moments), 1)[0]
        assert slope <= 2.1

    def test_nagaev_scaled_array_bounded(self, fix_zp):
        # drifted right law: n^{p-1-eps} (1+|y|^{1+eps}) P[tau=n, landing y] stays
        # bounded and does not grow across doubling n
        p, eps = 2.5, 0.25
        w = Window(-64, 2048 + 64)
        t = first_passage_rows(fix_zp.media[-1], [1], 2048, w)
        bl, bh = t.band
        sups = []
        for n in (256, 512, 1024, 2048):
            vals = []
            for y in range(bl, bh + 1):
                vals.append(n ** (p - 1 - eps) * (1 + abs(y) ** (1 + eps))
                            * float(t.R[n, 0, y - bl]))
            sups.append(max(vals))
        assert all(np.isfinite(sups))
        for a, b in zip(sups, sups[1:]):
            assert b <= max(a, 1e-30) * 2.0


def _three_atom_law(neg, w_neg, w_zero, pos, w_pos):
    return _rational_law({-neg: w_neg, 0: w_zero, pos: w_pos})


_weights = st.integers(1, 6)
_three_atom_laws = st.builds(_three_atom_law, st.integers(1, 3), _weights, _weights,
                             st.integers(1, 3), _weights).filter(is_strongly_aperiodic)


@st.composite
def _exact_models(draw, two_media):
    left, origin, right = draw(_three_atom_laws), draw(_three_atom_laws), draw(_three_atom_laws)
    # overshoot hypothesis: max left jump times min right jump is at most -2
    assume(left.max_support * right.min_support <= -2)
    return validate_model(left, left if two_media else origin, right, two_media=two_media)


ALL_FIXTURES = {**FIXTURES, **{f"FIX-PP-{k}": fn for k, fn in SUBCASE_FIXTURES.items()}}


class TestStepPlan:
    """The window operator against the step it replaced
    (``conftest.reference_step``), run by the reference DP loop of
    ``conftest.reference_marginal_sequence``.  Exact results are equal; float
    results differ in rounding only, as the BLOCK-step band products sum in
    another order: at most 1e-13 relative on values and 1e-13 absolute on
    leak."""

    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    @pytest.mark.parametrize("rescaled", [False, True], ids=["float", "rescaled"])
    def test_marginal_sequence_bitwise(self, name, rescaled):
        # a narrow, lopsided window, so both sides leak; one run, against the
        # plain reference or, on its log values, the renormalised one
        model = ALL_FIXTURES[name]()
        args = (model, 1, -1, 512, Window(-96, 128))
        ref, _ = reference_marginal_sequence(*args, rescaled=rescaled)
        new = marginal_sequence(*args)
        if rescaled:
            np.testing.assert_allclose(new.data["log_values"], ref["log_values"], rtol=1e-13,
                                       atol=0)
            return
        np.testing.assert_allclose(new.leak, ref["leak"], rtol=0, atol=1e-13)
        for key in ("leak_below", "leak_above"):
            np.testing.assert_allclose(new.data[key], ref[key], rtol=0, atol=1e-13, err_msg=key)
        for key in ("values", "final_state"):
            np.testing.assert_allclose(new.data[key], ref[key], rtol=1e-13, atol=0, err_msg=key)

    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_power_of_two_scaling_is_exact(self, name):
        # marginal_sequence scales its state by powers of two; an unscaled run
        # of the same operator blocks gives the same bits.  Every walk that
        # drifts out of this window within 512 steps is scaled on the way
        model = ALL_FIXTURES[name]()
        w, horizon = Window(-96, 128), 512
        op, iy = walk_plan(model, w), w.index(-1)
        state = np.zeros(w.width)
        state[w.index(1)] = 1
        values = np.zeros(horizon + 1)
        for ns, state, F, _ in _advance(op, [op.below, op.above, iy], state, horizon):
            values[ns] = F[:, 2]
        new = marginal_sequence(model, 1, -1, horizon, w)
        assert np.array_equal(new.data["values"], values)
        assert np.array_equal(new.data["final_state"], state)
        if name not in ("FIX-ZZ", "FIX-PZ", "FIX-PN", "FIX-PP-C"):   # C drifts 0.14 a step
            assert state.sum() < 0.5

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_exact_marginal_sequence(self, name):
        model = FIXTURES[name]()
        args = (model, 0, 2, 40, Window(-16, 16))
        ref, _ = reference_marginal_sequence(*args, exact=True)
        new = as_fractions(marginal_sequence(*args, exact=True))
        assert list(new.leak) == ref["leak"]
        for key in ("values", "leak_below", "leak_above", "final_state"):
            assert list(new.data[key]) == ref[key], key

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_exact_crossings(self, name):
        model, w = FIXTURES[name](), Window(-16, 16)
        plan = walk_plan(model, w, exact=True)
        state = np.full(w.width, F(0), dtype=object)
        state[w.index(1)] = F(1)
        ref = state.copy()
        for _ in range(24):
            crossed, crossed_ref = (np.full(w.width, F(0), dtype=object) for _ in range(2))
            state, leaked = step(state, model, w, plan, crossed=crossed)
            ref, leaked_ref = reference_step(ref, model, w, crossed=crossed_ref)
            assert (state == ref).all() and (crossed == crossed_ref).all()
            assert leaked == leaked_ref

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.integers(-12, -1), st.integers(1, 12),
           st.data())
    def test_random_models(self, m, lo, hi, data):
        # windows down to one site a side, where whole convolutions leave them
        w = Window(lo, hi)
        x = data.draw(st.integers(lo, hi))
        for exact in (False, True):
            plan = walk_plan(m, w, exact)
            state = np.zeros(w.width, dtype=object if exact else float)
            state[w.index(x)] = 1
            ref = state.copy()
            for _ in range(12):
                crossed, crossed_ref = np.zeros_like(state), np.zeros_like(state)
                state, leaked = step(state, m, w, plan, crossed=crossed)
                ref, leaked_ref = reference_step(ref, m, w, crossed=crossed_ref)
                if exact:
                    assert np.array_equal(state, ref) and np.array_equal(crossed, crossed_ref)
                    assert leaked == leaked_ref
                else:   # the bounds of the class docstring
                    np.testing.assert_allclose(state, ref, rtol=1e-13, atol=0)
                    np.testing.assert_allclose(crossed, crossed_ref, rtol=1e-13, atol=0)
                    np.testing.assert_allclose(leaked, leaked_ref, rtol=0, atol=1e-13)


class TestMarginalProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.integers(-4, 4), st.integers(-4, 4))
    def test_mirror_invariance_three_media(self, m, x, y):
        # P_x[X_n = y](m) = P_{-x}[X_n = -y](mirror m) on a symmetric window,
        # with the leak sides swapped, on three media and on two, whose
        # mirror has its origin in the right medium
        w, horizon = Window(-9, 9), 14   # narrow, so both sides leak
        t = marginal_sequence(m, x, y, horizon, w, exact=True)
        tm = marginal_sequence(mirror_model(m), -x, -y, horizon, w, exact=True)
        assert list(t.data["values"]) == list(tm.data["values"])
        assert list(t.data["leak_below"]) == list(tm.data["leak_above"])
        assert list(t.data["leak_above"]) == list(tm.data["leak_below"])
        assert list(t.data["final_state"]) == list(tm.data["final_state"][::-1])

    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_mirror_is_exact_on_fixture_files(self, name):
        # the same reflection on every shipped model file, two-media ones
        # included: P_x[X_n = y] = P'_{-x}[X_n = -y] for n <= 12 on a symmetric
        # window, numerators and denominators, with the leak sides swapped
        m = load_model(dump_model(ALL_FIXTURES[name]()))
        mm, w = mirror_model(m), Window(-10, 10)
        for x in range(-3, 4):
            for y in range(-3, 4):
                t = marginal_sequence(m, x, y, 12, w, exact=True)
                tm = marginal_sequence(mm, -x, -y, 12, w, exact=True)
                assert t.meta["D"] == tm.meta["D"]
                assert list(t.data["values"]) == list(tm.data["values"]), (x, y)
                assert list(t.data["leak_below"]) == list(tm.data["leak_above"]), (x, y)
                assert list(t.data["leak_above"]) == list(tm.data["leak_below"]), (x, y)

    @settings(max_examples=30, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.integers(-4, 4), st.integers(-4, 4))
    def test_float_within_leak_of_exact(self, m, x, y):
        horizon = 16
        small = marginal_sequence(m, x, y, horizon, Window(-6, 6))
        half = abs(x) + horizon * m.max_jump + 1   # no path of this length leaves it
        wide = as_fractions(marginal_sequence(m, x, y, horizon, Window(-half, half), exact=True))
        assert not any(wide.leak)
        err = np.abs(small.data["values"] - wide.data["values"].astype(float))
        assert np.all(err <= small.leak + 1e-12)


def _csr_block(op, readouts, j):
    """[A^j; F; F A; ..; F A^(j-1)] of ``op`` by scipy.sparse: the float DP's
    block before the band engine, the reference here."""
    import scipy.sparse as sp

    E = sp.csr_array((op.vals, (op.rows, op.cols)), shape=(op.band_rows.stop, op.width))
    power, parts = E[:op.width], [E[readouts]]
    for _ in range(j - 1):
        parts.append(parts[-1] @ E[:op.width])
    for _ in range(j.bit_length() - 1):
        power = power @ power
    return sp.vstack([power, *parts], format="csr")


def _float(model):
    return validate_model(*(dist({v: float(p) for v, p in zip(law.values, law.probs)})
                            for law in (model.left, model.origin, model.right)),
                          two_media=model.two_media)


class TestBandEngine:
    """The blocks of ``_advance`` (dense bands, numpy only).  A float block
    against the scipy.sparse block it replaced, on the same operator
    triplets: each entry is a sum of positive terms, up to j * span + 1 of
    them, over a power squared up in another order, 1.7e-15 relative at most
    over 675 checked cases, bounded here by RTOL.  An exact step, on integer
    numerators, equal to the dense object product of the same triplets."""

    RTOL = 4e-15

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.integers(8, 40), st.integers(8, 40),
           st.integers(0, 2), st.sampled_from([1, BLOCK]), st.integers(0, 2**32 - 1))
    def test_block_matches_csr(self, m, lo, hi, walk, j, seed):
        # walk 0: the full walk, one column; else the killed walk of a medium,
        # 1 or 5 columns; readouts: every F row and two rows of A
        rng, w = np.random.default_rng(seed), Window(-lo, hi)
        if walk:
            medium = m.media[0 if walk == 1 else -1]
            op = evolve.passage_operator(medium, w)
            state = rng.random((op.width, 5 if walk == 2 else 1))
        else:
            op, state = walk_plan(_float(m), w), rng.random(w.width)
        readouts = [op.below, op.above, op.kept, *op.band_rows, 0, op.width - 1]
        (ns, new, F_band, lost), = _advance(op, readouts, state, j)
        ref = _csr_block(op, readouts, j) @ state.reshape(op.width, -1)
        assert ns == slice(1, j + 1) and lost is None
        np.testing.assert_allclose(new.reshape(op.width, -1), ref[:op.width], rtol=self.RTOL)
        np.testing.assert_allclose(F_band.reshape(-1, ref.shape[1]), ref[op.width:],
                                   rtol=self.RTOL)

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.integers(8, 40), st.integers(8, 40),
           st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_exact_step_matches_dense(self, m, lo, hi, walk, seed):
        # as test_block_matches_csr, on integer states past the int64 range
        # with some empty sites, against E @ state on object arrays
        rng, w, D = np.random.default_rng(seed), Window(-lo, hi), common_denominator(*m.laws)
        if walk:
            op = evolve.passage_operator(m.media[0 if walk == 1 else -1], w, True, D)
        else:
            op = walk_plan(m, w, True, D)
        shape = (op.width, 5) if walk == 2 else (op.width, 1) if walk else (op.width,)
        state = rng.integers(0, 2**40, shape).astype(object) << 40
        state[rng.random(shape) < 0.3] = 0
        readouts = [op.below, op.above, op.kept, *op.band_rows, 0, op.width - 1]
        (ns, new, F_band, lost), = _advance(op, readouts, state, 1)
        E = np.zeros((op.band_rows.stop, op.width), dtype=object)
        np.add.at(E, (op.rows, op.cols), op.vals)
        ref = E @ state
        assert ns == slice(1, 2) and lost is None and new.dtype == F_band.dtype == object
        assert np.array_equal(new, ref[:op.width])
        assert np.array_equal(F_band[0], ref[readouts])

    @pytest.mark.parametrize("exact", [False, True])
    def test_empty_readout_row_reads_zero(self, fix_zz, exact):
        # the left medium's jumps cannot pass its band, so its ``above`` row
        # has no entries: it reads 0, and the other rows read as without it
        w, D = Window(-40, 20), common_denominator(*fix_zz.laws) if exact else 1
        op = evolve.passage_operator(fix_zz.media[0], w, exact, D)
        assert not np.any(op.rows == op.above)
        state = np.zeros((op.width, 2), dtype=object if exact else float)
        state[[op.width - 1, op.width - 3], [0, 1]] = 1
        full = [op.below, op.above, op.kept, *op.band_rows]
        rest = [op.below, op.kept, *op.band_rows]
        for (ns, new, F, _), (ms, new2, F2, _) in zip(_advance(op, full, state.copy(), 40),
                                                       _advance(op, rest, state.copy(), 40)):
            assert ns == ms and np.array_equal(new, new2)
            assert np.array_equal(F[:, [0, *range(2, len(full))]], F2)
            assert all(type(f) is (int if exact else np.float64) and f == 0 for f in F[:, 1].flat)

    def test_exact_zero_state(self, fix_zz):
        w, D = Window(-20, 20), common_denominator(*fix_zz.laws)
        for op in (walk_plan(fix_zz, w, True, D),
                   evolve.passage_operator(fix_zz.media[0], w, True, D)):
            readouts = [op.below, op.above, op.kept, *op.band_rows]
            state = np.zeros((op.width, 3), dtype=object)
            out = list(_advance(op, readouts, state, 5))
            assert [ns for ns, *_ in out] == [slice(n, n + 1) for n in range(1, 6)]
            for _, new, F_band, lost in out:
                assert lost is None and new.shape == state.shape
                assert F_band.shape == (1, len(readouts), 3)
                assert not new.any() and not F_band.any()

    @pytest.mark.parametrize("steps", [1, 2, BLOCK, 64])
    def test_exact_operator_takes_one_step_blocks(self, fix_zz, steps):
        w, D = Window(-20, 20), common_denominator(*fix_zz.laws)
        assert walk_plan(fix_zz, w, True, D, steps).steps == 1
        assert evolve.passage_operator(fix_zz.media[0], w, True, D, steps).steps == 1
        assert walk_plan(fix_zz, w, steps=steps).steps == steps

    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_default_window_block_matches_csr(self, name):
        # long runs of equal rows, which the squarings cut short
        model = ALL_FIXTURES[name]()
        w = default_window(model, 4096)
        op, state = walk_plan(model, w), np.random.default_rng(1).random(w.width)
        readouts = [op.below, op.above, w.index(0)]
        (_, new, F_band, _), = _advance(op, readouts, state, BLOCK)
        ref = _csr_block(op, readouts, BLOCK) @ state
        np.testing.assert_allclose(new, ref[:w.width], rtol=self.RTOL)
        np.testing.assert_allclose(F_band.ravel(), ref[w.width:], rtol=self.RTOL)

    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_rows_without_mass_change_no_bit(self, name):
        # column 0 starts at one site, so its blocks skip the sites it cannot
        # reach; beside a column that fills the window it runs over them all
        model, w = ALL_FIXTURES[name](), Window(-200, 150)
        op, iy = walk_plan(model, w), w.index(3)
        alone = np.zeros((w.width, 1))
        alone[w.index(0)] = 1
        both = np.hstack([alone, np.full((w.width, 1), 1 / w.width)])
        horizon = 12 * BLOCK + 7
        for a, b in zip(_advance(op, [op.below, op.above, iy], alone, horizon),
                        _advance(op, [op.below, op.above, iy], both, horizon)):
            assert a[0] == b[0]
            assert np.array_equal(a[1][:, 0], b[1][:, 0])
            assert np.array_equal(a[2][..., 0], b[2][..., 0])

    def test_flushed_mass_is_lost(self):
        # the model of test_float_within_leak_of_exact: sites two classes up
        # mod 3 hold about 2**-1060, which each block flushes and reports
        eps = F(1, 2**530)
        left = dist({-3: F(1, 2), 3: F(1, 2) - eps, 4: eps})
        right = dist({-3: F(1, 2) - eps, -2: eps, 3: F(1, 2)})
        m = _float(validate_model(left, dist({-3: F(1, 2), 3: F(1, 2)}), right))
        w = Window(-40, 40)
        op, state = walk_plan(m, w), np.zeros(w.width)
        state[w.index(0)] = 1
        flushed = 0
        for ns, new, _, lost in _advance(op, [op.below], state.copy(), 5 * BLOCK):
            ref = _csr_block(op, [op.below], ns.stop - ns.start)[:w.width] @ state
            small = ref < TINY
            assert _subnormals(new) == 0 and not new[small].any()
            np.testing.assert_allclose(new[~small], ref[~small], rtol=1e-13, atol=0)
            assert lost == pytest.approx(ref[small].sum(), rel=1e-6, abs=0)
            flushed += lost
            state = new.copy()
        assert flushed > 0


def _same(a, b, exact):
    """Exact numerators equal, or float arrays equal bit for bit (NaN = NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.tolist() == b.tolist() if exact else np.array_equal(a, b, equal_nan=True)


class TestBatchedDPs:
    """Several pairs in one full-walk DP, or several targets in one reversed
    DP: each state column runs through the products it runs alone, so every
    entry of its record equals the single run's, exact numerators under ==
    and float bits under np.array_equal."""

    @staticmethod
    def check_pairs(m, pairs, horizon, window, exact):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        t = marginal_sequence(m, xs, ys, horizon, window, exact=exact)
        assert t.meta["x"] == xs and t.meta["y"] == ys
        for c, (x, y) in enumerate(pairs):
            s = marginal_sequence(m, x, y, horizon, window, exact=exact)
            assert s.data.keys() == t.data.keys()
            for key, v in s.data.items():
                assert _same(t.data[key][..., c], v, exact), (key, x, y)
            assert _same(t.leak[:, c], s.leak, exact)
            assert t.meta["final_flush"][c] == s.meta["final_flush"]
        return t

    @settings(max_examples=30, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.booleans(),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1,
                    max_size=4))
    def test_pairs_match_single_runs(self, m, exact, pairs):
        # a narrow window, so both sides leak and a float state is rescaled
        self.check_pairs(m, pairs, 40, Window(-8, 10), exact)

    @pytest.mark.parametrize("name", ["FIX-PP", "FIX-PP-B4"])
    def test_rescaled_and_flushed_float_pairs(self, name):
        # 4096 float steps on the default window: the mass leaves the window,
        # so every column is scaled up, and the states flush below TINY
        t = self.check_pairs(ALL_FIXTURES[name](), [(0, 0), (3, -2), (-5, 4)], 4096, None, False)
        assert np.all(t.data["leak_underflow"][-1] > 0)
        assert np.all(t.data["leak_below"][-1] + t.data["leak_above"][-1] > 0.5)

    def test_pairs_need_equal_lengths(self, fix_zz):
        for xs, ys in (([0, 1], [0]), ([], [])):
            with pytest.raises(ValidationError):
                marginal_sequence(fix_zz, xs, ys, 4, Window(-16, 16))

    @settings(max_examples=30, deadline=None)
    @given(st.booleans().flatmap(_exact_models), st.booleans(), st.integers(0, 2),
           st.lists(st.integers(-7, 7), min_size=1, max_size=4, unique=True))
    def test_targets_match_single_runs(self, m, exact, k, sites):
        # the targets of one medium as the rows of one reversed DP
        medium = m.media[min(k, len(m.media) - 1)]
        ys = [y for y in sites if y in medium]
        assume(ys)
        w = Window(-9, 9)
        t = excursion_functions(m, ys, 30 if exact else 300, w, exact=exact)
        for c, y in enumerate(ys):
            s = excursion_functions(m, y, t.horizon, w, exact=exact)
            assert _same(t.data["V"][:, c], s.data["V"], exact), y
            assert _same(t.leak[:, c], s.leak, exact), y
            assert t.meta["D"] == s.meta["D"]

    def test_targets_share_a_medium(self, fix_zz):
        with pytest.raises(ConventionMismatch):
            excursion_functions(fix_zz, [-2, 2], 4, Window(-16, 16))
