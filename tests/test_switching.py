import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.fft

from conftest import (
    as_fractions,
    reference_marginal_sequence,
    reference_step,
    step,
    transition_matrix,
)
from oscillax import evolve, ladder
from oscillax.errors import ConventionMismatch, NoConvergence, ValidationError
from oscillax.evolve import (
    Window,
    default_window,
    first_passage_rows,
    marginal_sequence,
    walk_plan,
)
from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
from oscillax.ladder import wiener_hopf_heights
from oscillax.model import (
    Medium,
    OscillatingModel,
    arrival_band,
    common_denominator,
    dist,
    essential_class,
    geometric_tilt,
    is_own_mirror,
    mirror_model,
    validate_model,
)
from oscillax.regimes import classify, invariant_profile
from oscillax.switching import (
    SwitchingKernel,
    WeightSpec,
    banded_power_sequences,
    build_Q,
    default_weight,
    dominant_eigenpair,
    limit_operator_E,
    limit_operator_E_ell,
    renewal_sequence,
    switching_kernel,
    switching_time_marginals,
)


def origin_zero_model():
    """FIX-ZZ's media around an origin law that charges 0."""
    zz = FIXTURES["FIX-ZZ"]()
    return validate_model(zz.left, dist({-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}), zz.right)


RENEWAL_MODELS = {**FIXTURES, "origin-0": origin_zero_model}


def dense_q(sk, cols=None):
    """The full width x width matrix with band columns ``cols``, by default
    Q = R S_B, for checks against a dense reference on small windows."""
    Q = np.zeros((sk.window.width, sk.window.width))
    Q[:, sk.band_rows] = sk.R if cols is None else cols
    return Q


def period_two_model():
    """+-1 with probability 1/2 in every medium: Q has eigenvalues rho and -rho."""
    pm1 = dist({-1: F(1, 2), 1: F(1, 2)})
    return OscillatingModel((Medium(pm1, None, -1), Medium(pm1, 0, 0), Medium(pm1, 1, None)))


def window_rows(w):
    return list(range(w.lo, w.hi + 1))


def band_cols(w, band):
    """Window indices of the arrival band."""
    return slice(w.index(band[0]), w.index(band[1]) + 1)


class TestBuildQ:
    def test_origin_row_closed_form(self, fix_zz):
        sk = switching_kernel(fix_zz, Window(-48, 48))
        w, bl = sk.window, sk.band[0]
        assert sk.R[w.index(0), 1 - bl] == pytest.approx(0.5)
        assert sk.R[w.index(0), -1 - bl] == pytest.approx(0.5)
        assert sk.R[w.index(0), 0 - bl] == 0.0

    def test_mass_accounting_exact(self, fix_zz):
        w = Window(-48, 48)
        hist = as_fractions(build_Q(fix_zz, 50, w, rows=essential_class(fix_zz), exact=True))
        for i, x in enumerate(hist.rows):
            assert hist.R[:, i].sum() + hist.survival[i, 50] == 1, x

    def test_exact_rows_have_fraction_leak(self, fix_zz):
        raw = build_Q(fix_zz, 12, Window(-16, 16), rows=[-3, 0, 2], exact=True)
        assert all(type(v) is int for v in raw.leak.flat)   # numerators over D**n
        hist = as_fractions(raw)
        for i, x in enumerate(hist.rows):
            assert all(type(v) is F for v in hist.leak[i]), x

    @pytest.mark.parametrize("x", [-20, 20])
    def test_row_outside_window(self, fix_zz, x):
        with pytest.raises(ValidationError):
            build_Q(fix_zz, 4, Window(-16, 16), rows=[0, x])

    def test_rows_keep_requested_order(self, fix_zz):
        rows = [3, -2, 0, 1, -5]
        hist = build_Q(fix_zz, 4, Window(-16, 16), rows=rows)
        assert hist.rows == rows
        assert hist.R.shape == (5, 5, 3) and hist.survival.shape == (5, 5)

    def test_row_matches_ladder_formula(self, fix_zz):
        # Q(-1, y) = mu_strict_asc(y + 1): the single-term overshoot identity
        sk = switching_kernel(fix_zz, Window(-256, 256))
        w, bl = sk.window, sk.band[0]
        hs, _ = wiener_hopf_heights(fix_zz.left)
        assert sk.R[w.index(-1), 0 - bl] == pytest.approx(hs[1], abs=2e-4)
        assert sk.R[w.index(-1), 1 - bl] == pytest.approx(hs[2], abs=2e-4)

    def test_origin_row_geometric_history(self):
        m = validate_model(dist({-1: F(1, 2), 0: F(1, 4), 2: F(1, 4)}),
                           dist({-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}),
                           dist({-2: F(1, 4), 0: F(1, 4), 1: F(1, 2)}))
        hist = as_fractions(build_Q(m, 6, Window(-16, 16), rows=[0], exact=True))
        bl, _ = hist.band
        for n in range(1, 7):
            assert hist.R[n, 0, 1 - bl] == F(1, 2) ** (n - 1) * F(1, 4)

    @pytest.mark.parametrize("name", RENEWAL_MODELS)
    def test_rows_are_first_passage_arrivals(self, name):
        # each row carries its medium's first-passage arrivals at that medium's
        # columns and exact zeros elsewhere, and conserves mass at every n
        model = RENEWAL_MODELS[name]()
        w, N = Window(-16, 16), 12
        hist = as_fractions(build_Q(model, N, w, rows=range(-5, 6), exact=True))
        bl = hist.band[0]
        for i, x in enumerate(hist.rows):
            expected = np.full(hist.R[:, i].shape, F(0), dtype=object)
            medium = model.media[model.medium_index(x)]
            if medium.lo == medium.hi == 0:   # the three-media origin: stay put, then jump
                p0 = dict(zip(model.origin.values, model.origin.fracs)).get(0, F(0))
                for v, p in zip(model.origin.values, model.origin.fracs):
                    if v != 0:
                        expected[1:, v - bl] = [p0 ** (n - 1) * p for n in range(1, N + 1)]
            else:
                fp = as_fractions(first_passage_rows(medium, [x], N, w, exact=True))
                lo, hi = fp.band
                expected[:, lo - bl: hi - bl + 1] = fp.R[:, 0]
            assert (hist.R[:, i] == expected).all(), x
            for n in range(N + 1):
                assert hist.survival[i, n] + hist.R[: n + 1, i].sum() == 1, (x, n)


@pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES])
def test_arrival_band_is_tight(name):
    # one band for the kernel, the power sequences and the helper; each column is hit
    model = {**FIXTURES, **SUBCASE_FIXTURES}[name]()
    sk = switching_kernel(model, Window(-32, 32))
    assert sk.band == arrival_band(model)
    assert np.all(sk.R.sum(axis=0) > 0)
    assert banded_power_sequences(model, 4, Window(-8, 8), [1])["band"] == sk.band


def on_window(row, w, band):
    """A band row written out over the whole window, zero off the band."""
    full = np.zeros(w.width, dtype=row.dtype)
    full[band_cols(w, band)] = row
    return full


class TestRenewalSequence:
    def test_small_expansions(self, fix_zz):
        w = Window(-10, 10)
        hist = build_Q(fix_zz, 4, w, rows=window_rows(w), exact=True)
        R, C = hist.R, hist.C
        T = renewal_sequence(R, C)
        assert not T[0].any()
        assert (T[1] == R[1]).all()
        assert (T[2] == R[2] + R[1] @ C[1]).all()

    def test_recursion_equals_direct_power_sum(self, fix_zz):
        # both sides on the integer numerators Z_n = D^n Q_n: D^n T_n is the
        # same recursion on Z, and likewise D^n Q^(l)_n = sum_j D^j Q^(l-1)_j Z_(n-j);
        # in band form Q^(l-1)_j Q_(n-j) is the band columns times the band block
        w = Window(-10, 10)
        N = 12
        D = common_denominator(fix_zz.left, fix_zz.origin, fix_zz.right)
        hist = as_fractions(build_Q(fix_zz, N, w, rows=window_rows(w), exact=True))
        scaled = hist.R * np.array([D ** n for n in range(N + 1)], dtype=object)[:, None, None]
        assert all(z.denominator == 1 for z in scaled.flat)
        Z = np.vectorize(lambda z: z.numerator, otypes=[object])(scaled)
        ZC = Z[:, [hist.rows.index(y) for y in range(hist.band[0], hist.band[1] + 1)]]
        T = renewal_sequence(Z, ZC)
        total = Z.copy()
        cur = Z.copy()
        for _ in range(2, N + 1):
            new = np.full_like(cur, 0)
            for n in range(2, N + 1):
                acc = np.full(cur.shape[1:], 0, dtype=object)
                for j in range(1, n):
                    acc = acc + cur[j] @ ZC[n - j]
                new[n] = acc
            cur = new
            total = total + cur
        for n in range(1, N + 1):
            assert all(type(t) is int for t in T[n].flat)
            assert (T[n] == total[n]).all()

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PP", "origin-0"])
    def test_dp_matches_recursion(self, name):
        model = RENEWAL_MODELS[name]()
        w = Window(-12, 12)
        hist = build_Q(model, 40, w, rows=window_rows(w))
        T = renewal_sequence(hist.R, hist.C)
        Tdp = switching_time_marginals(model, [0], 40, w)[:, 0]
        i0 = hist.rows.index(0)
        err = max(np.max(np.abs(T[n, i0] - Tdp[n])) for n in range(1, 41))
        assert err <= 1e-14

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PP", "FIX-PN", "origin-0"])
    def test_step_crossings_equal_exact_recursion(self, name):
        # the mass step reads out as changing medium is the row of the exact
        # renewal sequence, entry for entry, on the same window
        model = RENEWAL_MODELS[name]()
        w, N = Window(-10, 10), 12
        hist = as_fractions(build_Q(model, N, w, rows=window_rows(w), exact=True))
        T = renewal_sequence(hist.R, hist.C)
        plan = walk_plan(model, w, exact=True)
        for x in (-1, 0, 1):
            state = np.full(w.width, F(0), dtype=object)
            state[w.index(x)] = F(1)
            for n in range(1, N + 1):
                crossed = np.full(w.width, F(0), dtype=object)
                state, _ = step(state, model, w, plan, crossed=crossed)
                assert (on_window(T[n, hist.rows.index(x)], w, hist.band) == crossed).all()


@pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES, "origin-0"])
def test_switching_time_marginals_match_reference_step(name):
    # the window operator against the step it replaced, run by the reference
    # DP loop (conftest.reference_marginal_sequence); the BLOCK-step band
    # products sum in another order, so T agrees to 1e-13 relative
    model = {**RENEWAL_MODELS, **SUBCASE_FIXTURES}[name]()
    w = Window(-40, 48)
    _, full = reference_marginal_sequence(model, 1, 1, 256, w)
    np.testing.assert_allclose(switching_time_marginals(model, [1], 256, w)[:, 0],
                               full[:, band_cols(w, arrival_band(model))], rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES, "origin-0"])
def test_switching_time_marginals_keep_every_crossing(name):
    # the window-wide table T[n] = crossed row of step n, built with the
    # reference step, holds every crossing on the arrival band: the band
    # columns are the band-form T to 1e-13 relative, and nothing is lost off
    # the band
    model = {**RENEWAL_MODELS, **SUBCASE_FIXTURES}[name]()
    w = Window(-40, 48)
    state = np.zeros(w.width)
    state[w.index(1)] = 1.0
    full = np.zeros((257, w.width))
    for n in range(1, 257):
        state, _ = reference_step(state, model, w, crossed=full[n])
    T = switching_time_marginals(model, [1], 256, w)[:, 0]
    cols = band_cols(w, arrival_band(model))
    assert T.shape == (257, cols.stop - cols.start)
    np.testing.assert_allclose(T, full[:, cols], rtol=1e-13, atol=0)
    full[:, cols] = 0.0
    assert not full.any()


@pytest.mark.parametrize("horizon", [64, 1000])
@pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES, "origin-0"])
def test_switching_time_marginals_batch_equals_each_row(name, horizon):
    # every start row is a column of one DP state, run through the same
    # products as alone: each column is its one-row call's, bit for bit
    model = {**RENEWAL_MODELS, **SUBCASE_FIXTURES}[name]()
    w = default_window(model, horizon)
    xs = [*essential_class(model), -7, 5]
    T = switching_time_marginals(model, xs, horizon, w)
    assert T.shape[:2] == (horizon + 1, len(xs))
    for i, x in enumerate(xs):
        assert np.array_equal(T[:, i], switching_time_marginals(model, [x], horizon, w)[:, 0]), x


def direct_power_sum(C, prev):
    """Band columns of Q^(l)_n = sum_j Q^(l-1)_j Q_{n-j}, the time convolution done
    directly: Q^(l-1)_j Q_{n-j} is prev[j] times the band block C[n-j]."""
    out = np.zeros_like(prev)
    for n in range(2, prev.shape[0]):
        for j in range(1, n):
            out[n] += prev[j] @ C[n - j]
    return out


class TestPowerSequences:
    def test_fft_matches_direct(self, fix_zz):
        w = Window(-8, 8)
        hist = build_Q(fix_zz, 32, w, rows=window_rows(w))
        seqs = banded_power_sequences(fix_zz, 32, w, ells=[2, 3])
        direct2 = direct_power_sum(hist.C, hist.R)
        direct3 = direct_power_sum(hist.C, direct2)
        assert np.max(np.abs(seqs[2][: 33] - direct2)) <= 1e-10
        assert np.max(np.abs(seqs[3][: 33] - direct3)) <= 1e-10

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PN", "FIX-PP"])
    def test_banded_matches_dense(self, name):
        # the full-walk DP lands every switch on the band, and up to the horizon
        # the banded powers add up to it: T_n = sum_{l <= n} Q^(l)_n
        model, w, N = FIXTURES[name](), Window(-8, 8), 32
        banded = banded_power_sequences(model, N, w, ells=range(1, N + 1))
        total = sum(banded[ell][: N + 1] for ell in range(1, N + 1))
        Tdp = switching_time_marginals(model, window_rows(w), N, w)
        for i, x in enumerate(window_rows(w)):
            assert np.max(np.abs(total[1:, banded["rows"][x]] - Tdp[1:, i])) <= 1e-14, x


def full_array_powers(model, horizon, window, ells, rows=None):
    """Q^(l) = R C^(l-1) by one time-axis FFT of build_Q's whole (N+1, rows, B)
    stack: the independent reference of banded_power_sequences' first-step
    recurrence."""
    band_lo, band_hi = arrival_band(model)
    band = range(band_lo, band_hi + 1)
    rows = window_rows(window) if rows is None else sorted(set(rows) | set(band))
    M = scipy.fft.next_fast_len(2 * horizon + 1, real=True)
    hist = build_Q(model, horizon, window, rows=rows)
    Rhat = scipy.fft.rfft(hist.R, n=M, axis=0)
    Chat = scipy.fft.rfft(hist.C, n=M, axis=0)
    out, cpow = {1: hist.R}, None
    for ell in range(2, max(ells) + 1):
        cpow = Chat if cpow is None else scipy.fft.rfft(
            scipy.fft.irfft(cpow @ Chat, n=M, axis=0)[: horizon + 1], n=M, axis=0)
        out[ell] = scipy.fft.irfft(Rhat @ cpow, n=M, axis=0)[: horizon + 1]
    return {ell: out[ell] for ell in ells}


class TestBlockedPowers:
    """banded_power_sequences gives every power, for any row set, by one
    first-step recurrence over the window; it equals the full-array transform
    up to rounding, and a row subset is those rows of the full-window call."""

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PN", "FIX-PP", "FIX-ZP"])
    @pytest.mark.parametrize("rows,ells", [
        (None, [1, 2, 3]),                # every window site: the recurrence
        ([-7, 3, 5], [2, 3]),             # a subset, with the band rows added
        (list(range(-10, 10)), [1, 2, 3]),   # 20 rows: all but the window's last
        (None, [2, 5]),                   # layers 3 and 4 run, not returned
    ], ids=["full-window", "rows-subset", "partial-block", "ells-2-5"])
    def test_matches_full_array(self, name, rows, ells):
        model, w, N = FIXTURES[name](), Window(-10, 10), 200
        got = banded_power_sequences(model, N, w, ells=ells, rows=rows)
        ref = full_array_powers(model, N, w, ells, rows)
        assert sorted(k for k in got if isinstance(k, int)) == sorted(ells)
        for ell in ells:
            assert got[ell].shape == ref[ell].shape and got[ell].dtype == ref[ell].dtype
            scale = np.max(np.abs(ref[ell]))
            assert scale > 0
            assert np.max(np.abs(got[ell] - ref[ell])) <= 1e-14 * scale, ell

    def test_long_horizon_matches_full_array(self, fix_pp):
        # the renewal workload's window and powers at N = 4096, on FIX-PP
        w, N, ells = Window(-64, 64), 4096, [1, 2, 3, 4, 5]
        got = banded_power_sequences(fix_pp, N, w, ells=ells)
        ref = full_array_powers(fix_pp, N, w, ells)
        for ell in ells:
            scale = np.max(np.abs(ref[ell]))
            assert scale > 0
            assert np.max(np.abs(got[ell] - ref[ell])) <= 1e-14 * scale, ell

    @pytest.mark.parametrize("N", [1, 2])
    def test_short_horizons(self, fix_zz, N):
        # no power of order ell >= 2 is reached before step ell: exact zeros,
        # and the reference within 1e-14 of the history's scale
        w, ells = Window(-10, 10), [1, 2, 3]
        got = banded_power_sequences(fix_zz, N, w, ells=ells)
        ref = full_array_powers(fix_zz, N, w, ells)
        scale = np.max(np.abs(ref[1]))
        for ell in ells:
            assert got[ell].shape == (N + 1, w.width, 3)
            assert not np.any(got[ell][:ell]), ell
            assert np.max(np.abs(got[ell] - ref[ell])) <= 1e-14 * scale, ell

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PN", "FIX-PP", "FIX-ZP"])
    def test_full_window_powers_are_nonnegative(self, name):
        # the recurrence sums nonnegative terms only, where FFTs leave entries
        # down to about -3e-19 at this size; and Q^(ell)_n is 0 for n < ell,
        # exactly; on the full window and on a row subset
        for rows in (None, [-7, 3, 5]):
            got = banded_power_sequences(FIXTURES[name](), 4096, Window(-64, 64),
                                         ells=[1, 2, 3, 4, 5], rows=rows)
            for ell in range(1, 6):
                assert np.all(got[ell] >= 0.0), (rows, ell)
                assert not np.any(got[ell][:ell]), (rows, ell)

    @pytest.mark.parametrize("name", [*FIXTURES, "origin-0"])
    def test_row_subset_is_the_full_windows_rows(self, name):
        # one recurrence over the whole window whatever the rows: a subset
        # (band rows added) is bit for bit those rows of the full-window call
        model, w, ells = RENEWAL_MODELS[name](), Window(-64, 64), [1, 2, 3, 4, 5]
        full = banded_power_sequences(model, 1024, w, ells=ells)
        sub = banded_power_sequences(model, 1024, w, ells=ells, rows=[5, -7, 3])
        band = range(sub["band"][0], sub["band"][1] + 1)
        assert list(sub["rows"]) == sorted({-7, 3, 5, *band})
        for ell in ells:
            assert np.array_equal(sub[ell], full[ell][:, [full["rows"][x] for x in sub["rows"]]])

    @pytest.mark.parametrize("ells,bad", [
        ([], "empty"), ([0], r"\[0\]"), ([-1, 2], r"\[-1\]"), ([2.5], r"\[2\.5\]"),
        ([1, True], r"\[True\]"),
    ], ids=["empty", "zero", "negative", "fraction", "bool"])
    def test_bad_ells_are_refused(self, fix_zz, monkeypatch, ells, bad):
        # one ValidationError naming the bad entries, before the recurrence's
        # kernel is built
        def no_dp(*args, **kwargs):
            raise AssertionError("walk_plan ran")

        monkeypatch.setattr("oscillax.switching.walk_plan", no_dp)
        with pytest.raises(ValidationError, match=bad):
            banded_power_sequences(fix_zz, 16, Window(-8, 8), ells=ells)

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PP"])
    def test_first_power_is_the_history(self, name):
        # layer 1 of the recurrence is build_Q's first-passage history, which
        # sums in another order: within 1e-14 of its scale
        model, w = FIXTURES[name](), Window(-10, 10)
        got = banded_power_sequences(model, 64, w, ells=[1])
        assert [k for k in got if isinstance(k, int)] == [1]
        ref = build_Q(model, 64, w, rows=window_rows(w)).R
        scale = np.max(np.abs(ref))
        assert got[1].shape == ref.shape and scale > 0
        assert np.max(np.abs(got[1] - ref)) <= 1e-14 * scale

    @staticmethod
    def _peak_and_outputs(model, rows):
        args = (model, 4096, Window(-64, 64))
        banded_power_sequences(*args, ells=[1, 2, 3, 4, 5], rows=rows)   # warm-up
        tracemalloc.start()
        try:
            out = banded_power_sequences(*args, ells=[1, 2, 3, 4, 5], rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, sum(out[ell].nbytes for ell in range(1, 6))

    def test_peak_memory_within_outputs(self, fix_zz):
        # the renewal workload's call: five (4097, 129, 3) outputs; the peak
        # is theirs plus the recurrence's state, where three full-size
        # transforms took it to 2.2x
        peak, outputs = self._peak_and_outputs(fix_zz, None)
        assert outputs == 5 * 4097 * 129 * 3 * 8
        assert peak <= 1.25 * outputs

    def test_row_subset_peak_memory_within_outputs(self, fix_zz):
        # all window rows but one: five (4097, 128, 3) outputs; the peak is
        # theirs plus the recurrence's state over the whole window
        peak, outputs = self._peak_and_outputs(fix_zz, range(-64, 64))
        assert outputs == 5 * 4097 * 128 * 3 * 8
        assert peak <= 1.25 * outputs


class TestSpectra:
    def test_pn_markovian_unit_radius(self, fix_pn):
        sd = dominant_eigenpair(switching_kernel(fix_pn, Window(-48, 48)))
        assert sd.markovian
        assert sd.rho_psi == pytest.approx(1.0, abs=1e-9)
        support = [int(x) for x in sd.window.positions() if sd.nu[sd.window.index(int(x))] > 1e-12]
        assert support == essential_class(fix_pn) == [-1, 0, 1]

    def test_zp_submarkovian(self, fix_zp):
        sd = dominant_eigenpair(switching_kernel(fix_zp, Window(-128, 128)))
        assert not sd.markovian
        assert sd.rho_psi < 1.0 - 1e-3
        assert np.all(sd.H > 0)
        assert sd.residual <= 1e-8

    def test_rank_one_projector(self, fix_zz):
        w = Window(-16, 16)
        R = np.full((w.width, 3), 1 / 3)
        sk = SwitchingKernel(w, R, (-1, 1), 1.0 - R.sum(axis=1), fix_zz)
        sd = dominant_eigenpair(sk)
        assert sd.rho_psi == pytest.approx(1.0, abs=1e-12)
        h = sd.H / sd.H[w.index(0)]
        assert np.max(np.abs(h - 1.0)) <= 1e-9

    def test_weight_robustness(self, fix_zp):
        sk = switching_kernel(fix_zp, Window(-128, 128))
        s1 = dominant_eigenpair(sk, WeightSpec("polynomial", 0.5))
        s2 = dominant_eigenpair(sk, WeightSpec("polynomial", 0.8))
        assert abs(s1.rho_psi - s2.rho_psi) <= 1e-8

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            WeightSpec("polynomial", -1.0).values(Window(-8, 8))

    @pytest.mark.parametrize("spec,reason", [
        (WeightSpec("cubic"), "unknown weight kind"),
        (WeightSpec("exponential", 0.1, rate_neg=-1.0, rate_pos=1.0), ">= 1 everywhere"),
        # e^(0.001 * 10) at the edges stays below 1 + 10
        (WeightSpec("exponential", 0.1, rate_neg=0.001, rate_pos=0.001), "dominate"),
    ], ids=["unknown-kind", "below-one", "not-dominating"])
    def test_weight_values_refusals(self, spec, reason):
        with pytest.raises(ValidationError, match=reason):
            spec.values(Window(-10, 10))

    @pytest.mark.parametrize("kind,delta", [
        ("polynomial", -5.0), ("polynomial", -1.0), ("polynomial", 0.0),
        ("polynomial", float("nan")), ("polynomial", float("inf")),
        ("exponential", float("nan")), ("exponential", float("inf")),
    ])
    def test_meaningless_delta_refused_up_front(self, kind, delta):
        # one ValidationError naming delta, before any power: no numpy warning
        # and no "overflows on window"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^delta ") as err:
                WeightSpec(kind, delta, 1.0, 1.0).values(Window(-4, 4))
        assert "overflows" not in str(err.value)

    def test_exponential_delta_below_zero_runs(self):
        # the rates stay positive, so the weight is kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = WeightSpec("exponential", -0.05, 0.5, 0.5).values(Window(-4, 4))
        assert psi[0] == psi[-1] == pytest.approx(math.exp(2.0), rel=1e-15)

    def test_default_weight_kinds(self, fix_zz, fix_pp):
        # auto follows the drift case; an explicit kind holds on any model
        from oscillax.model import argmin_laplace

        assert default_weight(fix_zz) == WeightSpec("polynomial", 0.5)
        assert default_weight(fix_pp, 0.3, "polynomial") == WeightSpec("polynomial", 0.3)
        lam, lamp = argmin_laplace(fix_pp.left)[0], argmin_laplace(fix_pp.right)[0]
        assert default_weight(fix_pp) == WeightSpec(
            "exponential", 0.1, rate_neg=abs(lamp) + 0.1, rate_pos=abs(lam) + 0.1)
        assert default_weight(fix_zz, 0.2, "exponential").kind == "exponential"
        with pytest.raises(ValidationError):
            default_weight(fix_zz, kind="gaussian")

    def test_auto_weight_is_exponential_on_the_transform_subcases(self):
        # exponential exactly where classify reads a transform-geometry
        # subcase: (N,P), (P,P) and, through its mirror, (N,N)
        for fn in [*FIXTURES.values(), *SUBCASE_FIXTURES.values()]:
            for m in (fn(), mirror_model(fn())):
                kind = "exponential" if classify(m).subcase else "polynomial"
                assert default_weight(m).kind == kind, m.drift_case


SPECTRAL_MODELS = [*sorted(FIXTURES), "period-2"]


def spectral_model(name):
    return period_two_model() if name == "period-2" else FIXTURES[name]()


class TestDominantEigenpair:
    @pytest.mark.parametrize("name", SPECTRAL_MODELS)
    def test_matches_dense_eigensolve(self, name):
        sk = switching_kernel(spectral_model(name), Window(-48, 48))
        sd = dominant_eigenpair(sk)
        Q = dense_q(sk)
        assert sd.rho_psi == pytest.approx(np.max(np.linalg.eigvals(Q).real), abs=1e-12)
        H, nu = sd.H, sd.nu
        assert np.max(np.abs(Q @ H - sd.rho_psi * H)) <= 1e-12 * np.max(H)
        assert np.max(np.abs(nu @ Q - sd.rho_psi * nu)) <= 1e-12
        assert np.all(H > 0)
        off_band = np.ones(sk.window.width, dtype=bool)
        off_band[sk.band_rows] = False
        assert not nu[off_band].any()
        assert np.all(nu[sk.band_rows] > 0)
        assert nu.sum() == pytest.approx(1.0, abs=1e-15)

    def test_period_two_picks_perron_root(self):
        sk = switching_kernel(period_two_model(), Window(-48, 48))
        spectrum = np.linalg.eigvals(sk.C)
        assert np.min(spectrum.real) == pytest.approx(-np.max(spectrum.real), abs=1e-12)
        assert dominant_eigenpair(sk).rho_psi > 0.99

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PZ", "FIX-PN", "FIX-ZP"])
    def test_residual_at_w512(self, name):
        sd = dominant_eigenpair(switching_kernel(FIXTURES[name](), Window(-512, 512)))
        assert sd.residual <= 1e-12

    def test_no_positive_eigenvalue(self, fix_zz):
        sk = switching_kernel(fix_zz, Window(-32, 32))
        with pytest.raises(NoConvergence, match="no positive eigenvalue"):
            dominant_eigenpair(SwitchingKernel(sk.window, np.zeros_like(sk.R), sk.band,
                                               sk.defect, fix_zz))

    def test_eigenfunction_not_positive(self, fix_zz):
        # the band block diag(1, 0, 0): its Perron vector is 0 on two band sites
        sk = switching_kernel(fix_zz, Window(-32, 32))
        R = np.zeros_like(sk.R)
        R[sk.band_rows.start, 0] = 1.0
        with pytest.raises(NoConvergence, match="not positive"):
            dominant_eigenpair(SwitchingKernel(sk.window, R, sk.band, sk.defect, fix_zz))

    def test_no_dense_kernel(self, fix_zz):
        # the dense W x W kernel alone would be 537 MB at W = 4096
        tracemalloc.start()
        try:
            dominant_eigenpair(switching_kernel(fix_zz, Window(-4096, 4096)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestMirror:
    # mirroring is x -> -x on every model, so each kernel flips on both axes
    @pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES])
    def test_build_q_flips_exactly(self, name):
        m = {**FIXTURES, **SUBCASE_FIXTURES}[name]()
        w = Window(-10, 10)
        hist = build_Q(m, 12, w, rows=window_rows(w), exact=True)
        mhist = build_Q(mirror_model(m), 12, w, rows=window_rows(w), exact=True)
        assert mhist.band == (-hist.band[1], -hist.band[0]) and mhist.D == hist.D
        assert np.array_equal(mhist.R, hist.R[:, ::-1, ::-1])

    @pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES])
    def test_own_mirror(self, name):
        # FIX-ZZ and FIX-PN reflect onto themselves; a model is its own
        # mirror exactly when its mirror is
        m = {**FIXTURES, **SUBCASE_FIXTURES}[name]()
        assert is_own_mirror(m) == is_own_mirror(mirror_model(m)) == (name in ("FIX-ZZ", "FIX-PN"))

    @pytest.mark.parametrize("half", [64, 1024])
    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PN"])
    def test_own_mirror_nu_is_exact(self, name, half):
        # nu(-x) == nu(x) bit for bit (np.linalg.eig alone gives
        # nu(-1) = 0.33333361480376866 and nu(1) = 0.3333336148037686 on
        # FIX-ZZ at half-width 1024)
        nu = dominant_eigenpair(switching_kernel(FIXTURES[name](), Window(-half, half))).nu
        assert np.array_equal(nu, nu[::-1]) and nu.any()

    def test_switching_kernel_flips(self, fix_pp):
        w = Window(-64, 64)
        R = switching_kernel(fix_pp, w).R
        mR = switching_kernel(mirror_model(fix_pp), w).R
        np.testing.assert_allclose(mR, R[::-1, ::-1], rtol=1e-12, atol=0)


class TestTiltedKernels:
    def test_requires_two_media(self, fix_zz):
        # a non-(N,P)/(P,P) model has no tilt plan
        from oscillax.regimes import select_tilt

        with pytest.raises(ConventionMismatch):
            select_tilt(fix_zz)

    @pytest.mark.parametrize("name", ["FIX-PP", *SUBCASE_FIXTURES])
    def test_plan_damped_side(self, fix_pp, subcase_models, name):
        # the damped side is the one with the smaller transform value, unless
        # the two agree to 1e-12 relative; t_ref is the other side's tilt
        from oscillax.model import laplace
        from oscillax.regimes import select_tilt

        m = fix_pp if name == "FIX-PP" else subcase_models[name]
        plan = select_tilt(m)
        expected = {"FIX-PP": "left", "A2": "left", "B2": "left", "B5": "right"}
        assert plan.damped_side == expected.get(name)
        La, Lb = laplace(m.left, plan.t_left), laplace(m.right, plan.t_right)
        if abs(La - Lb) <= 1e-12 * plan.rate:
            assert plan.damped_side is None
            assert plan.t_ref == plan.t_left
        elif La < Lb:
            assert (plan.damped_side, plan.t_ref) == ("left", plan.t_right)
        else:
            assert (plan.damped_side, plan.t_ref) == ("right", plan.t_left)

    def test_change_of_measure_identity_exact(self, fix_pp):
        # Q_n(x,y) = L(t)^n e^{t(x-y)} Q_n^t(x,y) with e^t = 1/2, checked
        # exactly through the rational geometric tilt
        ratio = F(1, 2)
        w = Window(-16, 16)
        lt = geometric_tilt(fix_pp.left, ratio)
        rt = geometric_tilt(fix_pp.right, ratio)
        tilted = validate_model(lt, lt, rt, two_media=True)
        hist = as_fractions(build_Q(fix_pp, 10, w, rows=[0, -2, 1], exact=True))
        hist_t = as_fractions(build_Q(tilted, 10, w, rows=[0, -2, 1], exact=True))
        Lval = sum(p * ratio ** int(v) for v, p in zip(fix_pp.left.values, fix_pp.left.fracs))
        Lpval = sum(p * ratio ** int(v) for v, p in zip(fix_pp.right.values, fix_pp.right.fracs))
        bl, bh = hist.band
        for i, x in enumerate(hist.rows):
            Ln = Lval if x <= 0 else Lpval
            acc = F(1)
            for n in range(1, 11):
                acc = acc * Ln
                for y in range(bl, bh + 1):
                    lhs = hist.R[n, i, y - bl]
                    rhs = acc * ratio ** (x - y) * hist_t.R[n, i, y - bl]
                    assert lhs == rhs, (x, n, y)

    def test_crossing_case_no_damping(self, subcase_models):
        from oscillax.regimes import classify, select_tilt

        m = subcase_models["B3"]
        plan = select_tilt(m, classify(m))
        assert plan.r == pytest.approx(1.0, abs=1e-12)
        assert plan.damped_side is None

    def test_build_Q_peak_memory(self, fix_zz):
        # the result stack, its survival and leak, and one medium's DP record
        # at a time: about 29.7e6 bytes; a medium's record kept alive through
        # the other medium's DP would add about 8.4e6
        w = Window(-64, 64)
        tracemalloc.start()
        try:
            hist = build_Q(fix_zz, 4096, w, rows=range(-64, 65))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.R.shape == (4097, 129, 3)
        assert peak < 33e6


class TestLimitOperator:
    def test_pz_left_rows_vanish(self, fix_pz):
        w = Window(-24, 24)
        E = limit_operator_E(fix_pz, w)
        bl, bh = arrival_band(fix_pz)
        assert E.shape == (w.width, bh - bl + 1)
        assert not E[: w.index(0) + 1, :].any()
        assert E[w.index(1):, :].any()

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PZ", "FIX-ZP"])
    def test_mirror_flips_e(self, name):
        # three-media mirroring is x -> -x, so E flips on both axes exactly
        m = FIXTURES[name]()
        w = Window(-64, 64)
        E = limit_operator_E(m, w)
        assert np.array_equal(limit_operator_E(mirror_model(m), w), E[::-1, ::-1])

    def test_row_sums_grow_like_v(self, fix_zz):
        # E(x, .).sum() = c V_strict_asc(d) at every distance d = -x of the
        # left medium; V(d) from the renewal recursion U = delta_0 + U * law(H+)
        # on the Wiener-Hopf root law
        w = Window(-64, 64)
        E = limit_operator_E(fix_zz, w)
        asc, _ = wiener_hopf_heights(fix_zz.left)
        U = np.zeros(65)
        for d in range(65):
            U[d] = float(d == 0) + sum(p * U[d - h] for h, p in asc.items() if h <= d)
        V = np.cumsum(U)   # V[d - 1] = U[0, d)
        sums = E.sum(axis=1)
        for d in range(1, 65):
            ratio = sums[w.index(-d)] / sums[w.index(-1)]
            assert ratio == pytest.approx(V[d - 1] / V[0], rel=1e-12), d

    def test_e1_is_e(self, fix_zz):
        w = Window(-24, 24)
        E = limit_operator_E(fix_zz, w)
        sk = switching_kernel(fix_zz, w)
        assert np.array_equal(limit_operator_E_ell(E, sk, 1), E)

    def test_e_ell_matches_dense_powers(self, fix_zz):
        # the factored Q^(i) = R C^(i-1) S_B give the dense-definition E_ell,
        # which has no mass off the band
        w = Window(-24, 24)
        E = limit_operator_E(fix_zz, w)
        sk = switching_kernel(fix_zz, w)
        Q, Ed = dense_q(sk), dense_q(sk, E)
        for ell in (2, 3, 4):
            powers = [np.linalg.matrix_power(Q, i) for i in range(ell)]
            dense = sum(powers[i] @ Ed @ powers[ell - 1 - i] for i in range(ell))
            El = dense_q(sk, limit_operator_E_ell(E, sk, ell))
            assert np.max(np.abs(El - dense)) <= 1e-14

    def test_zz_pointwise_limit(self, fix_zz):
        # n^{3/2} Q_n(-1, 0) approaches E(-1, 0) (tested loosely here; the
        # acceptance suite pins the 5% version at n = 4096)
        w = Window(-512, 16)
        t = first_passage_rows(fix_zz.media[0], [-1], 1024, w)
        bl, _ = t.band
        val = 1024 ** 1.5 * t.R[1024, 0, 0 - bl]
        E = limit_operator_E(fix_zz, Window(-24, 24))
        target = E[Window(-24, 24).index(-1), 0 - arrival_band(fix_zz)[0]]
        assert val == pytest.approx(target, rel=0.1)


HUGE = 10 ** 6
# a centered law with a jump of 20000: its killed-walk blocks are 20000 x 20000
WIDE_LAW = dist({-1: F(20000, 40002), 0: F(20001, 40002), 20000: F(1, 40002)})


SIZED_BY_RUN = "the horizon or the window"


class TestSizeGuard:
    # each call would allocate far over MAX_ARRAY_BYTES (switching_time_marginals
    # would run 10^6 steps over 32001 sites, refused as a 238 GiB table would
    # be); it must be refused before allocating anything, and the refusal
    # names the inputs that size the array
    @pytest.mark.parametrize("call,lower", [
        (lambda m: switching_time_marginals(m, 0, HUGE, default_window(m, HUGE)), SIZED_BY_RUN),
        (lambda m: build_Q(m, 1000 * HUGE, Window(-64, 64)), SIZED_BY_RUN),
        (lambda m: banded_power_sequences(m, HUGE, Window(-64, 64), ells=[1]), SIZED_BY_RUN),
        (lambda m: first_passage_rows(m.media[0], list(range(-16000, 0)), 10,
                                      Window(-16000, 16000)), SIZED_BY_RUN),
        (lambda m: marginal_sequence(m, 0, 0, 1000 * HUGE), SIZED_BY_RUN),
        (lambda m: transition_matrix(m, Window(-16000, 16000)), SIZED_BY_RUN),
        # ten steps, but the bands of A^8 and its squarings on 6e6 sites hold 1.2e9 entries
        (lambda m: marginal_sequence(m, 0, 0, 10, Window(-3_000_000, 3_000_000)), SIZED_BY_RUN),
        # band columns R on 2e8 + 1 sites: 4.47 GiB
        (lambda m: switching_kernel(m, Window(-100 * HUGE, 100 * HUGE)), SIZED_BY_RUN),
        # direct_constant's solve on 40001 sites: p = 20000, 8.94 GiB a table
        (lambda m: ladder._cyclic_solve(WIDE_LAW, np.zeros(40001)), SIZED_BY_RUN),
        # the power recurrence's state of 10^9 layers: 5.77e3 GiB
        (lambda m: banded_power_sequences(m, 64, Window(-64, 64), ells=[10 ** 9]),
         r"max\(ells\) or the window"),
        # polyroots' companion matrix of a law on [-1, 20000]: 2.98 GiB
        (lambda m: ladder.small_roots(WIDE_LAW), "the law's jump span"),
    ], ids=["switching_time_marginals", "build_Q", "banded_power_sequences",
            "first_passage_rows", "marginal_sequence", "transition_matrix",
            "marginal_sequence-operator", "switching_kernel", "cyclic_solve",
            "banded_power_sequences-ells", "small_roots"])
    def test_refused_before_allocating(self, fix_zz, call, lower):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"GiB.*: lower {lower}$"):
                call(fix_zz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_switching_time_work_counts_every_row(self, fix_zz, monkeypatch):
        # one row's 10^5 steps over 1025 sites fit, but 129 rows are 1.3e10
        # cell-steps: refused before the DP takes a step
        def no_dp(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr("oscillax.switching._advance", no_dp)
        with pytest.raises(ValidationError, match=f"word-steps.*: lower {SIZED_BY_RUN}$"):
            switching_time_marginals(fix_zz, range(-64, 65), 100_000, Window(-512, 512))

    def test_first_passage_work_refused_before_dp(self, fix_zz, monkeypatch):
        # every array fits, but 10^6 steps of row -1 over its 16000-site
        # segment are 1.6e10 cell-steps: refused before the DP takes a step
        def no_dp(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr("oscillax.evolve._advance", no_dp)
        with pytest.raises(ValidationError, match=f"word-steps.*: lower {SIZED_BY_RUN}$"):
            build_Q(fix_zz, HUGE, Window(-16000, 16000), rows=[-1])


    @pytest.mark.parametrize("rows", [None, [-1]], ids=["recurrence", "row-subset"])
    def test_power_work_refused_before_dp(self, fix_zz, monkeypatch, rows):
        # every array fits, but 4096 steps of 10^4 layers over all 129 sites
        # and 3 band columns are 1.6e10 cell-steps, whatever the output rows:
        # refused before the recurrence's kernel is built, with advice that
        # names max(ells), the input that grew, not only the horizon and window
        def no_dp(*args, **kwargs):
            raise AssertionError("walk_plan ran")

        monkeypatch.setattr("oscillax.switching.walk_plan", no_dp)
        with pytest.raises(ValidationError,
                           match=r"word-steps.*: lower the horizon, max\(ells\) or the window$"):
            banded_power_sequences(fix_zz, 4096, Window(-64, 64), ells=[10 ** 4], rows=rows)

    def test_row_outside_window_refused_before_allocating(self, fix_zz):
        # the outputs of 10^5 steps would take 48 MB; a row one past the
        # window is refused before they, or the recurrence's kernel, exist
        w = Window(-64, 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="outside window"):
                banded_power_sequences(fix_zz, 10 ** 5, w, ells=[1, 2, 3, 4, 5],
                                       rows=[w.hi + 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_operators_never_advanced_are_sized_by_one_step(self, fix_zz, monkeypatch):
        # on 101 sites the bands a 1-step DP builds fit in 100 kB and those of
        # a 16-step one do not; switching_kernel and transition_matrix never
        # advance their operators, so only the 16-step DP is refused
        monkeypatch.setattr(evolve, "MAX_ARRAY_BYTES", 100_000)
        w = Window(-50, 50)
        assert switching_kernel(fix_zz, w).R.shape == (w.width, 3)
        assert transition_matrix(fix_zz, w).shape == (w.width, w.width)
        with pytest.raises(ValidationError, match="GiB"):
            marginal_sequence(fix_zz, 0, 0, 16, w)


class TestOriginMedium:
    # the three-media origin is a medium like the other two, whose killed walk
    # stays put with probability mu0(0); on origin-0 (mu0(0) = 1/2) the origin
    # rows are checked against their closed forms (excursion_functions' in
    # TestExcursions::test_origin_row_three_media)
    W = Window(-64, 64)

    def test_switching_kernel_row(self):
        m = origin_zero_model()
        sk = switching_kernel(m, self.W)
        pmf = {v: float(p) for v, p in zip(m.origin.values, m.origin.probs)}
        p0 = pmf.get(0, 0.0)
        row = sk.R[self.W.index(0)]
        for j, y in enumerate(range(sk.band[0], sk.band[1] + 1)):
            assert row[j] == (0.0 if y == 0 else pmf.get(y, 0.0) / (1.0 - p0))

    def test_invariant_profile_at_origin(self):
        m = origin_zero_model()
        nu = dominant_eigenpair(switching_kernel(m, self.W)).nu
        vals = invariant_profile(m, nu, self.W).values
        i0 = self.W.index(0)
        p0 = float(m.origin.probs[m.origin.values.index(0)])
        assert vals[i0] == nu[i0] / (1.0 - p0)
