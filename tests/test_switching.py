import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from oscillax.errors import ConventionMismatch, ValidationError
from oscillax.evolve import Window, step
from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
from oscillax.ladder import SOLVE_WINDOW, LadderVariant, ladder_potentials, wiener_hopf_heights
from oscillax.model import (
    Convention,
    DriftCase,
    OscillatingModel,
    arrival_band,
    common_denominator,
    dist,
    essential_class,
    geometric_tilt,
    mirror_model,
    validate_model,
)
from oscillax.switching import (
    SwitchingKernel,
    WeightSpec,
    banded_power_sequences,
    build_Q,
    default_weight,
    dominant_eigenpair,
    doob_transform,
    limit_operator_E,
    limit_operator_E_ell,
    q_history_matrices,
    renewal_sequence,
    switching_kernel,
    switching_time_marginals,
    tilted_kernels,
)


def origin_zero_model():
    """FIX-ZZ's media around an origin law that charges 0."""
    zz = FIXTURES["FIX-ZZ"]()
    return validate_model(zz.left, dist({-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}), zz.right)


RENEWAL_MODELS = {**FIXTURES, "origin-0": origin_zero_model}


def dense_q(sk):
    """The full width x width matrix Q = R S_B, for checks on small windows."""
    Q = np.zeros((sk.window.width, sk.window.width))
    Q[:, sk.band_rows] = sk.R
    return Q


def period_two_model():
    """+-1 with probability 1/2 in every medium: Q has eigenvalues rho and -rho."""
    pm1 = dist({-1: F(1, 2), 1: F(1, 2)})
    return OscillatingModel(pm1, pm1, pm1, Convention.THREE_MEDIA, D=1, Dprime=-1,
                            D0_plus=1, D0_minus=-1, drift_case=DriftCase.ZZ)


class TestBuildQ:
    def test_origin_row_closed_form(self, fix_zz):
        sk = switching_kernel(fix_zz, Window(-48, 48))
        w, bl = sk.window, sk.band[0]
        assert sk.R[w.index(0), 1 - bl] == pytest.approx(0.5)
        assert sk.R[w.index(0), -1 - bl] == pytest.approx(0.5)
        assert sk.R[w.index(0), 0 - bl] == 0.0

    def test_mass_accounting_exact(self, fix_zz):
        w = Window(-48, 48)
        hist = build_Q(fix_zz, 50, w, rows=essential_class(fix_zz), exact=True)
        for x, t in hist.items():
            total = sum(t.data["arrivals"][n].sum() for n in range(51))
            assert total + t.data["survival"][50] == 1, x

    def test_exact_rows_have_fraction_leak(self, fix_zz):
        hist = build_Q(fix_zz, 12, Window(-16, 16), rows=[-3, 0, 2], exact=True)
        for x, t in hist.items():
            assert all(type(v) is F for v in t.leak), x

    @pytest.mark.parametrize("x", [-20, 20])
    def test_row_outside_window(self, fix_zz, x):
        with pytest.raises(ValidationError):
            build_Q(fix_zz, 4, Window(-16, 16), rows=[0, x])

    def test_rows_keep_requested_order(self, fix_zz):
        rows = [3, -2, 0, 1, -5]
        assert list(build_Q(fix_zz, 4, Window(-16, 16), rows=rows)) == rows

    def test_row_matches_ladder_formula(self, fix_zz):
        # Q(-1, y) = mu_strict_asc(y + 1): the single-term overshoot identity
        sk = switching_kernel(fix_zz, Window(-256, 256))
        w, bl = sk.window, sk.band[0]
        pot = ladder_potentials(fix_zz.left)
        hs = pot.heights_exact[LadderVariant.STRICT_ASC]
        assert sk.R[w.index(-1), 0 - bl] == pytest.approx(hs[1], abs=2e-4)
        assert sk.R[w.index(-1), 1 - bl] == pytest.approx(hs[2], abs=2e-4)

    def test_origin_row_geometric_history(self):
        m = validate_model(dist({-1: F(1, 2), 0: F(1, 4), 2: F(1, 4)}),
                           dist({-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}),
                           dist({-2: F(1, 4), 0: F(1, 4), 1: F(1, 2)}))
        hist = build_Q(m, 6, Window(-16, 16), rows=[0], exact=True)
        t = hist[0]
        bl, _ = t.data["band"]
        for n in range(1, 7):
            assert t.data["arrivals"][n][1 - bl] == F(1, 2) ** (n - 1) * F(1, 4)


@pytest.mark.parametrize("name", [*FIXTURES, *SUBCASE_FIXTURES])
def test_arrival_band_is_tight(name):
    # one band for the kernel, the power sequences and the helper; each column is hit
    model = {**FIXTURES, **SUBCASE_FIXTURES}[name]()
    sk = switching_kernel(model, Window(-32, 32))
    assert sk.band == arrival_band(model)
    assert np.all(sk.R.sum(axis=0) > 0)
    assert banded_power_sequences(model, 4, Window(-8, 8), [1])["band"] == sk.band


class TestRenewalSequence:
    def test_small_expansions(self, fix_zz):
        w = Window(-10, 10)
        Qn = q_history_matrices(fix_zz, 4, w, exact=True)
        T = renewal_sequence(Qn)
        assert (T[1] == Qn[1]).all()
        assert (T[2] == Qn[2] + Qn[1] @ Qn[1]).all()

    def test_recursion_equals_direct_power_sum(self, fix_zz):
        # both sides on the integer numerators Z_n = D^n Q_n: D^n T_n is the
        # same recursion on Z because T_0 is never multiplied, and likewise
        # D^n Q^(l)_n = sum_j D^j Q^(l-1)_j Z_(n-j)
        w = Window(-10, 10)
        N = 12
        D = common_denominator(fix_zz.left, fix_zz.origin, fix_zz.right)
        Qn = q_history_matrices(fix_zz, N, w, exact=True)
        scaled = np.array([Qn[n] * D ** n for n in range(N + 1)])
        assert all(z.denominator == 1 for z in scaled.flat)
        Z = np.vectorize(lambda z: z.numerator, otypes=[object])(scaled)
        T = renewal_sequence(Z)
        width = Z.shape[1]
        total = Z.copy()
        cur = Z.copy()
        for _ in range(2, N + 1):
            new = np.full_like(cur, 0)
            for n in range(2, N + 1):
                acc = np.full((width, width), 0, dtype=object)
                for j in range(1, n):
                    acc = acc + cur[j] @ Z[n - j]
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
        Qn = q_history_matrices(model, 40, w)
        T = renewal_sequence(Qn)
        Tdp = switching_time_marginals(model, 0, 40, w)
        err = max(np.max(np.abs(T[n][w.index(0)] - Tdp[n])) for n in range(1, 41))
        assert err <= 1e-14

    @pytest.mark.parametrize("name", ["FIX-ZZ", "FIX-PP", "FIX-PN", "origin-0"])
    def test_step_crossings_equal_exact_recursion(self, name):
        # the mass step reads out as changing medium is the row of the exact
        # renewal sequence, entry for entry, on the same window
        model = RENEWAL_MODELS[name]()
        w, N = Window(-10, 10), 12
        T = renewal_sequence(q_history_matrices(model, N, w, exact=True))
        kernels = [d.dense_kernel(True) for d in (model.left, model.origin, model.right)]
        for x in (-1, 0, 1):
            state = np.full(w.width, F(0), dtype=object)
            state[w.index(x)] = F(1)
            for n in range(1, N + 1):
                crossed = np.full(w.width, F(0), dtype=object)
                state, _ = step(state, model, w, kernels, crossed=crossed)
                assert (T[n][w.index(x)] == crossed).all()


def direct_power_sum(Qn, prev):
    """Q^(l)_n = sum_j Q^(l-1)_j Q_{n-j}, the time convolution done directly."""
    out = np.zeros_like(Qn)
    for n in range(2, Qn.shape[0]):
        for j in range(1, n):
            out[n] += prev[j] @ Qn[n - j]
    return out


class TestPowerSequences:
    def test_fft_matches_direct(self, fix_zz):
        w = Window(-8, 8)
        Qn = q_history_matrices(fix_zz, 32, w)
        seqs = banded_power_sequences(fix_zz, 32, w, ells=[2, 3], pad_factor=8)
        bl, bh = seqs["band"]
        cols = slice(w.index(bl), w.index(bh) + 1)
        direct2 = direct_power_sum(Qn, Qn)
        direct3 = direct_power_sum(Qn, direct2)
        assert np.max(np.abs(seqs[2][: 33] - direct2[:, :, cols])) <= 1e-10
        assert np.max(np.abs(seqs[3][: 33] - direct3[:, :, cols])) <= 1e-10

    def test_banded_matches_dense(self, fix_zz):
        # the dense power has no mass off the band, so the banded form is complete
        w = Window(-8, 8)
        Qn = q_history_matrices(fix_zz, 32, w)
        dense = direct_power_sum(Qn, Qn)
        banded = banded_power_sequences(fix_zz, 32, w, ells=[2], pad_factor=8)
        bl, bh = banded["band"]
        cols = slice(w.index(bl), w.index(bh) + 1)
        embedded = np.zeros_like(dense)
        embedded[:, :, cols] = banded[2][: 33]
        assert np.max(np.abs(embedded - dense)) <= 1e-9


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

    def test_no_dense_kernel(self, fix_zz):
        # the dense W x W kernel alone would be 537 MB at W = 4096
        tracemalloc.start()
        try:
            dominant_eigenpair(switching_kernel(fix_zz, Window(-4096, 4096)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestDoob:
    def test_identity_transform(self, fix_zz):
        Q = dense_q(switching_kernel(fix_zz, Window(-24, 24)))
        out = doob_transform(Q, np.ones(Q.shape[0]), 1.0)
        assert np.array_equal(out, Q)

    def test_power_structure(self, fix_zp):
        # (HQ)^(l) equals the conjugation of Q^(l) by (rho, H), l = 2, 3
        sk = switching_kernel(fix_zp, Window(-32, 32))
        sd = dominant_eigenpair(sk)
        Q = dense_q(sk)
        HQ = doob_transform(Q, sd.H, sd.rho_psi)
        for ell in (2, 3):
            lhs = np.linalg.matrix_power(HQ, ell)
            rhs = np.linalg.matrix_power(Q, ell) * (
                sd.H[None, :] / sd.H[:, None]) / sd.rho_psi ** ell
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_markovization(self, fix_zp):
        # row sums of the transformed aggregate approach 1 (up to truncation)
        sk = switching_kernel(fix_zp, Window(-64, 64))
        sd = dominant_eigenpair(sk)
        HQ = doob_transform(dense_q(sk), sd.H, sd.rho_psi)
        rows = HQ.sum(axis=1)
        mid = slice(sk.window.index(-8), sk.window.index(8) + 1)
        assert np.max(np.abs(rows[mid] - 1.0)) <= 5e-3

    def test_horizon_doubling_shrinks_defect(self, fix_zp):
        # sum_{n<=N} HQ_n row sums approach 1 as the horizon doubles
        w = Window(-96, 96)
        sk = switching_kernel(fix_zp, w)
        sd = dominant_eigenpair(sk)
        defects = []
        for N in (64, 128, 256):
            hist = build_Q(fix_zp, N, w, rows=[-1, 0, 1])
            worst = 0.0
            for x, t in hist.items():
                bl, bh = t.data["band"]
                total = 0.0
                for n in range(1, N + 1):
                    row = t.data["arrivals"][n].astype(float)
                    ys = np.arange(bl, bh + 1)
                    inside = (ys >= w.lo) & (ys <= w.hi)
                    Hy = np.array([sd.H[w.index(int(y))] for y in ys[inside]])
                    total += float(row[inside] @ Hy) / (sd.rho_psi * sd.H[w.index(x)])
                worst = max(worst, abs(1.0 - total))
            defects.append(worst)
        assert defects[2] < defects[1] < defects[0]


class TestTiltedKernels:
    def test_requires_two_media(self, fix_zz):
        with pytest.raises(ConventionMismatch):
            tilted_kernels(fix_zz, -0.1, -0.1, 8, Window(-16, 16))

    def test_change_of_measure_identity_exact(self, fix_pp):
        # Q_n(x,y) = L(t)^n e^{t(x-y)} Q_n^t(x,y) with e^t = 1/2, checked
        # exactly through the rational geometric tilt
        ratio = F(1, 2)
        w = Window(-16, 16)
        lt = geometric_tilt(fix_pp.left, ratio)
        rt = geometric_tilt(fix_pp.right, ratio)
        tilted = validate_model(lt, lt, rt, two_media=True)
        hist = build_Q(fix_pp, 10, w, rows=[0, -2, 1], exact=True)
        hist_t = build_Q(tilted, 10, w, rows=[0, -2, 1], exact=True)
        Lval = sum(p * ratio ** int(v) for v, p in zip(fix_pp.left.values, fix_pp.left.fracs))
        Lpval = sum(p * ratio ** int(v) for v, p in zip(fix_pp.right.values, fix_pp.right.fracs))
        for x in (0, -2, 1):
            t, tt = hist[x], hist_t[x]
            bl, bh = t.data["band"]
            Ln = Lval if x <= 0 else Lpval
            acc = F(1)
            for n in range(1, 11):
                acc = acc * Ln
                for y in range(bl, bh + 1):
                    lhs = t.data["arrivals"][n][y - bl]
                    rhs = acc * ratio ** (x - y) * tt.data["arrivals"][n][y - bl]
                    assert lhs == rhs, (x, n, y)

    def test_b2_damped_side_row_sums(self, fix_pp):
        from oscillax.evolve import Side, first_passage_kernel
        from oscillax.model import Convention
        from oscillax.regimes import classify, select_tilt

        plan = select_tilt(fix_pp, classify(fix_pp))
        w = Window(-24, 24)
        tk = tilted_kernels(fix_pp, plan.t_left, plan.t_right, 64, w)
        # B2: r = L(lambda')/rho' in closed form
        assert tk.r == pytest.approx(0.8509373209614202 / 0.905031433644464, abs=1e-12)
        assert tk.damped_side == "left"
        agg = tk.Qn.sum(axis=0)
        # undamped (right) side: exact mass accounting against its own survival
        fp = first_passage_kernel(tk.tilted_model.right, Side.FROM_POSITIVE,
                                  Convention.TWO_MEDIA, 4, 64, w)
        undamped = agg[w.index(4), :].sum()
        assert undamped + fp.data["survival"][64] == pytest.approx(1.0, abs=1e-12)
        # damped (left) side: strictly below the same accounting level
        fp_l = first_passage_kernel(tk.tilted_model.left, Side.FROM_NEGATIVE,
                                    Convention.TWO_MEDIA, -4, 64, w)
        damped = agg[w.index(-4), :].sum()
        assert damped < (1.0 - float(fp_l.data["survival"][64])) - 0.05

    def test_crossing_case_no_damping(self, subcase_models):
        from oscillax.regimes import classify, select_tilt

        m = subcase_models["B3"]
        plan = select_tilt(m, classify(m))
        tk = tilted_kernels(m, plan.t_left, plan.t_right, 16, Window(-16, 16))
        assert tk.r == pytest.approx(1.0, abs=1e-12)
        assert tk.damped_side is None


class TestLimitOperator:
    def test_pz_left_rows_vanish(self, fix_pz):
        w = Window(-24, 24)
        E = limit_operator_E(fix_pz, w)
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
            assert ratio == pytest.approx(V[d - 1] / V[0], rel=1e-5), d

    def test_v_beyond_table_raises(self, fix_zz):
        pot = ladder_potentials(fix_zz.left)
        with pytest.raises(ValidationError):
            pot.V(LadderVariant.STRICT_ASC, SOLVE_WINDOW // 2 + 2)

    def test_e1_is_e(self, fix_zz):
        w = Window(-24, 24)
        E = limit_operator_E(fix_zz, w)
        sk = switching_kernel(fix_zz, w)
        assert np.array_equal(limit_operator_E_ell(E, sk, 1), E)

    def test_e_ell_matches_dense_powers(self, fix_zz):
        # the factored Q^(i) = R C^(i-1) S_B give the dense-definition E_ell
        w = Window(-24, 24)
        E = limit_operator_E(fix_zz, w)
        sk = switching_kernel(fix_zz, w)
        Q = dense_q(sk)
        for ell in (2, 3, 4):
            powers = [np.linalg.matrix_power(Q, i) for i in range(ell)]
            dense = sum(powers[i] @ E @ powers[ell - 1 - i] for i in range(ell))
            assert np.max(np.abs(limit_operator_E_ell(E, sk, ell) - dense)) <= 1e-14

    def test_zz_pointwise_limit(self, fix_zz):
        # n^{3/2} Q_n(-1, 0) approaches E(-1, 0) (tested loosely here; the
        # acceptance suite pins the 5% version at n = 4096)
        w = Window(-512, 16)
        from oscillax.evolve import Side, first_passage_kernel
        from oscillax.model import Convention

        t = first_passage_kernel(fix_zz.left, Side.FROM_NEGATIVE,
                                 Convention.THREE_MEDIA, -1, 1024, w)
        bl, _ = t.data["band"]
        val = 1024 ** 1.5 * t.data["arrivals"][1024][0 - bl]
        E = limit_operator_E(fix_zz, Window(-24, 24))
        target = E[Window(-24, 24).index(-1), Window(-24, 24).index(0)]
        assert val == pytest.approx(target, rel=0.1)
