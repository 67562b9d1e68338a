import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_fractions
from oscillax.errors import LeakDominated, SequenceTooNoisy, ValidationError
from oscillax import evolve, ladder, regimes, verify
from oscillax.evolve import (
    KernelTable,
    Window,
    default_window,
    first_passage_rows,
    marginal_sequence,
)
from oscillax.fixtures import FIXTURES, SUBCASE_FIXTURES
from oscillax.model import (
    ZERO_DRIFT_TOL,
    DriftCase,
    argmin_laplace,
    arrival_band,
    common_denominator,
    dist,
    geometric_tilt,
    mirror_model,
    validate_model,
)
from oscillax.regimes import classify, predicted_constant_Cy
from oscillax.verify import (
    CHUNK,
    G,
    SimResult,
    _survival_landing,
    asymptotics_suite,
    convergence_suite,
    effective_leak,
    fit_rate_exponent,
    identity_suite,
    simulate,
)
from oscillax.switching import build_Q, dominant_eigenpair, renewal_sequence, switching_kernel


class TestFitter:
    def test_geometric_model_class(self):
        ns = np.arange(1, 4097, dtype=float)
        lv = np.concatenate([[-np.inf], ns * math.log(0.7) - 1.5 * np.log(ns)])
        f = fit_rate_exponent(log_values=lv, fit_window=(512, 4096))
        assert abs(f.rho_hat - 0.7) <= 1e-6
        assert abs(f.beta_hat - 1.5) <= 0.02

    def test_sqrt_model_class(self):
        ns = np.arange(1, 4097, dtype=float)
        lv = np.concatenate([[-np.inf], -0.5 * np.log(ns)])
        f = fit_rate_exponent(log_values=lv, fit_window=(512, 4096))
        assert f.rho_hat == pytest.approx(1.0, abs=1e-9)
        assert f.beta_hat == pytest.approx(0.5, abs=1e-6)
        assert f.C_hat == pytest.approx(1.0, rel=1e-6)

    def test_noise_guard(self):
        rng = np.random.default_rng(1)
        ns = np.arange(1, 4097, dtype=float)
        lv = np.concatenate([[-np.inf], -0.5 * np.log(ns) + rng.normal(0, 0.5, 4096)])
        with pytest.raises(SequenceTooNoisy):
            fit_rate_exponent(log_values=lv, fit_window=(512, 4096))

    def test_leak_guard(self):
        ns = np.arange(1, 257, dtype=float)
        lv = np.concatenate([[-np.inf], -0.5 * np.log(ns)])
        leaks = np.full(257, 10.0)  # every point leak-dominated
        with pytest.raises(LeakDominated):
            fit_rate_exponent(log_values=lv, leaks=leaks, fit_window=(64, 256))

    def test_empty_plateau_half(self):
        # 96 usable points, all below n_hi / 2: C_hat's plateau half is empty
        ns = np.arange(1, 257, dtype=float)
        lv = np.concatenate([[-np.inf], -0.5 * np.log(ns)])
        leaks = np.zeros(257)
        leaks[128:] = 10.0
        with pytest.raises(LeakDominated, match=r"\[128, 256\]"):
            fit_rate_exponent(log_values=lv, leaks=leaks, fit_window=(32, 256))

    def test_window_beyond_horizon(self):
        with pytest.raises(ValidationError):
            fit_rate_exponent(log_values=np.zeros(100), fit_window=(10, 500))

    def test_no_consecutive_points(self):
        # a value at every even n only: 113 usable points, but no two
        # consecutive, so no dyadic block holds a ratio
        lv = np.full(257, np.nan)
        lv[2::2] = -0.5 * np.log(np.arange(2, 257, 2))
        with pytest.raises(SequenceTooNoisy, match="consecutive"):
            fit_rate_exponent(log_values=lv, fit_window=(32, 256))


class TestEffectiveLeak:
    def test_recurrent_keeps_raw_bound(self, fix_zz):
        t = marginal_sequence(fix_zz, 0, 0, 128, Window(-32, 32))
        eff = effective_leak(t, fix_zz)
        raw = t.leak.astype(float)
        assert np.allclose(eff, raw, atol=1e-15)

    def test_transient_discounts_drift_side(self, fix_zp):
        t = marginal_sequence(fix_zp, 0, 0, 512, Window(-256, 256))
        eff = effective_leak(t, fix_zp)
        raw = t.leak.astype(float)
        assert raw[-1] > 0.3          # the drifting bulk left the window
        assert eff[-1] < 1e-20        # but it cannot plausibly come back

    def test_underflow_is_not_discounted(self, fix_pp):
        # mass the float DP flushed below the smallest normal double never
        # left the window: it enters at full size, where the same flux through
        # FIX-PP's drifted lower side is discounted
        rate, under = 0.9, np.cumsum(np.r_[0.0, np.full(64, 1e-300)])
        zero = np.zeros_like(under)
        t = KernelTable(Window(-48, 48), 64, {"leak_below": zero, "leak_above": zero,
                                              "leak_underflow": under}, under)
        ref = [0.0]
        for flux in np.diff(under):
            ref.append(rate * ref[-1] + flux)
        np.testing.assert_allclose(effective_leak(t, fix_pp, rate=rate), ref, rtol=1e-12, atol=0)
        t.data.update(leak_below=under, leak_underflow=zero)
        assert np.all(effective_leak(t, fix_pp, rate=rate)[1:] < ref[1:])

    @pytest.mark.parametrize("name", ["FIX-PP", *(f"FIX-PP-{k}" for k in SUBCASE_FIXTURES)])
    def test_closed_form_matches_recursion(self, name):
        # the closed form against the per-step recursion it replaced, on the
        # DP the asymptotics suite fits, to 1e-12 relative.  The
        # recursion runs in 40-digit decimals: in doubles it drifts by up to
        # 2e-11 relative over 4096 steps, and the closed form by 2e-13
        model = {**FIXTURES, **{f"FIX-PP-{k}": f for k, f in SUBCASE_FIXTURES.items()}}[name]()
        rate = classify(model).rate
        w = Window(-48, 48)
        t = marginal_sequence(model, 0, 0, 1024, w)
        d = [math.exp(-abs(argmin_laplace(law)[0]) * half) if abs(law.mean) > ZERO_DRIFT_TOL
             else 1.0 for law, half in ((model.left, -w.lo), (model.right, w.hi))]
        flux = np.diff(np.stack([t.data["leak_below"], t.data["leak_above"]]), axis=1)
        ref = [0.0]
        with localcontext() as ctx:
            ctx.prec = 40
            eff, floor, dl, dr = Decimal(0), Decimal(-700).exp(), Decimal(d[0]), Decimal(d[1])
            for lo, hi in flux.T:
                eff = Decimal(rate) * eff + Decimal(lo) * dl + Decimal(hi) * dr
                ref.append(float(eff) if eff > floor else 0.0)
        assert np.count_nonzero(ref) > 512
        np.testing.assert_allclose(effective_leak(t, model, rate=rate), ref, rtol=1e-12, atol=0)

def reference_simulate(model, x, n_steps, n_paths, seed):
    """The sampler before the bucketed lookup: a mask and a searchsorted per
    medium of ``model.media`` and step."""
    def class_of(positions):
        cls = np.full(positions.shape, -1)
        for idx, m in enumerate(model.media):
            cls[(m.lo is None or positions >= m.lo) & (m.hi is None or positions <= m.hi)] = idx
        return cls

    record = sorted({2 ** k for k in range(0, int(math.log2(max(n_steps, 1))) + 1)
                     if 2 ** k <= n_steps} | {n_steps})
    laws = {idx: (np.asarray(m.law.values), np.cumsum(m.law.probs))
            for idx, m in enumerate(model.media)}
    counts, c1_hist, switch_hist = {n: {} for n in record}, {}, {}
    for ci in range((n_paths + CHUNK - 1) // CHUNK):
        m = min(CHUNK, n_paths - ci * CHUNK)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(ci))
        pos = np.full(m, x, dtype=np.int64)
        cls = class_of(pos)
        first_switch = np.zeros(m, dtype=np.int64)
        n_switch = np.zeros(m, dtype=np.int64)
        for n in range(1, n_steps + 1):
            u = rng.random(m)
            inc = np.zeros(m, dtype=np.int64)
            for idx in laws:
                mask = cls == idx
                if mask.any():
                    vals, cum = laws[idx]
                    inc[mask] = vals[np.searchsorted(cum, u[mask], side="right")
                                     .clip(0, len(vals) - 1)]
            pos = pos + inc
            new_cls = class_of(pos)
            changed = new_cls != cls
            n_switch += changed
            first_switch[changed & (first_switch == 0)] = n
            cls = new_cls
            if n in counts:
                ys, hs = np.unique(pos, return_counts=True)
                for yy, hh in zip(ys, hs):
                    counts[n][int(yy)] = counts[n].get(int(yy), 0) + int(hh)
        for t, c in zip(*np.unique(first_switch, return_counts=True)):
            key = None if t == 0 else int(t)
            c1_hist[key] = c1_hist.get(key, 0) + int(c)
        for k, c in zip(*np.unique(n_switch, return_counts=True)):
            switch_hist[int(k)] = switch_hist.get(int(k), 0) + int(c)
    return SimResult(counts=counts, paths=n_paths, seed=seed, n_steps=n_steps,
                     c1_histogram=c1_hist, switch_counts=switch_hist)


def float_law_model():
    """Float probabilities: the left law's cumsum ends at 0.9999999999999999, and
    the right law has a threshold in the top percent of [0, 1)."""
    return validate_model(dist({-1: 0.3, 0: 0.35, 2: 0.35}), dist({-1: 0.5, 1: 0.5}),
                          dist({-2: 0.123, -1: 0.2, 0: 0.377, 1: 0.295, 2: 0.005}))


SAMPLER_MODELS = {"FIX-ZZ": FIXTURES["FIX-ZZ"], "FIX-PN": FIXTURES["FIX-PN"],
                  "FIX-PP-B1": SUBCASE_FIXTURES["B1"], "float": float_law_model,
                  # media (-inf, -1) and (0, inf): the origin is in the right one
                  "mirror-FIX-PP-B1": lambda: mirror_model(SUBCASE_FIXTURES["B1"]())}


class TestSamplerStream:
    """The bucketed inverse CDF draws the same jump for every u as the
    searchsorted it replaced, so the sample stream of every seed is kept."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    def test_same_result_as_reference(self, name):
        model = SAMPLER_MODELS[name]()
        if name in ("FIX-PP-B1", "float"):
            # thresholds off the 1/G grid: some buckets fall back to searchsorted
            assert any(np.any(np.cumsum(d.probs) * G % 1)
                       for d in (model.left, model.origin, model.right))
        # two chunks, the second one partial
        for x, seed in ((0, 1), (3, 2)):
            args = (model, x, 50, CHUNK + 5_000, seed)
            assert simulate(*args) == reference_simulate(*args)

    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    def test_lookup_at_edges_and_thresholds(self, name):
        model = SAMPLER_MODELS[name]()
        dists = (model.left, model.origin, model.right)
        lower = np.arange(G) / G
        for dtype in (np.int32, np.int64):
            table, resolve = verify._inverse_cdf(dists, dtype)
            for c, d in enumerate(dists):
                cum = np.cumsum(d.probs)
                u = np.concatenate([lower, np.nextafter(lower + 1 / G, 0), cum,
                                    np.nextafter(cum, 0), np.nextafter(cum, 2)])
                u = u[u < 1]
                vals = np.asarray(d.values)
                expected = vals[np.searchsorted(cum, u, side="right").clip(0, len(vals) - 1)]
                inc = table[c * G + (u * G).astype(np.intp)]
                fix = inc == np.iinfo(dtype).min   # a threshold inside the bucket
                inc[fix] = resolve(np.full(np.count_nonzero(fix), c * G), u[fix])
                assert np.array_equal(inc, expected)

    def test_raw_words_give_the_uniform_stream(self):
        # u = (w >> 11) 2^-53 is Generator.random's draw from the raw word w, and
        # w >> 52 its bucket floor(u G)
        u = np.random.Generator(np.random.Philox(key=9).jumped(3)).random(2 * CHUNK)
        w = np.random.Philox(key=9).jumped(3).random_raw(2 * CHUNK)
        assert np.array_equal((w >> 11) * 2.0 ** -53, u)
        assert np.array_equal(w >> 52, (u * G).astype(np.uint64))

    @pytest.mark.parametrize("x", [2 ** 31 - 5, -2 ** 31 + 5])
    def test_start_near_the_int32_range(self, fix_zz, x):
        # positions that may leave (-2^31, 2^31) are 64-bit
        args = (fix_zz, x, 50, 2_000, 4)
        r = simulate(*args)
        assert r == reference_simulate(*args)
        assert max(abs(y) for y in r.counts[50]) >= 2 ** 31

    def test_peak_memory_is_one_chunk(self, fix_zz):
        simulate(fix_zz, 0, 50, 1_000, seed=1)
        tracemalloc.start()
        try:
            simulate(fix_zz, 0, 50, 100_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a chunk's buffers take about 2 MB; 50 x 100_000 words drawn ahead, 40 MB
        assert peak < 4 * 2 ** 20


class TestSimulate:
    def test_reproducible(self, fix_zz):
        a = simulate(fix_zz, 0, 30, 20_000, seed=7)
        b = simulate(fix_zz, 0, 30, 20_000, seed=7)
        assert a.report() == b.report()
        c = simulate(fix_zz, 0, 30, 20_000, seed=8)
        assert a.report() != c.report()

    def test_counts_partition_paths(self, fix_zz):
        r = simulate(fix_zz, 0, 40, 10_000, seed=3)
        for n, cc in r.counts.items():
            assert sum(cc.values()) == r.paths

    def test_one_step_frequencies(self, fix_zz):
        r = simulate(fix_zz, 0, 1, 100_000, seed=11)
        m = {y: h / r.paths for y, h in r.counts[1].items()}
        se = 4.0 / math.sqrt(r.paths)
        assert abs(m[-1] - 0.5) <= se and abs(m[1] - 0.5) <= se

    def test_two_step_value(self, fix_zz):
        r = simulate(fix_zz, 0, 2, 100_000, seed=11)
        p = 0.25
        se = 4.0 * math.sqrt(p * (1 - p) / r.paths)
        assert abs(r.counts[2].get(1, 0) / r.paths - p) <= se

    def test_switching_statistics_by_regime(self, fix_pn, fix_pp):
        n = 120
        rec = simulate(fix_pn, 0, n, 4_000, seed=5)
        trans = simulate(fix_pp, 0, n, 4_000, seed=5)
        mean_switches_rec = sum(k * v for k, v in rec.switch_counts.items()) / rec.paths
        mean_switches_trans = sum(k * v for k, v in trans.switch_counts.items()) / trans.paths
        assert mean_switches_rec > 5 * mean_switches_trans
        # transience: a positive fraction of paths has stopped switching by n/2
        rec_half = simulate(fix_pn, 0, n // 2, 4_000, seed=5)
        trans_half = simulate(fix_pp, 0, n // 2, 4_000, seed=5)
        frac_frozen = sum(v for k, v in trans.switch_counts.items()
                          if k in trans_half.switch_counts
                          ) / trans.paths
        same = [trans.switch_counts.get(k, 0) == trans_half.switch_counts.get(k, 0)
                for k in trans_half.switch_counts]
        assert any(same)  # distribution of switch counts freezes for many paths

    def test_dyadic_recording(self, fix_zz):
        r = simulate(fix_zz, 0, 50, 1000, seed=2)
        assert sorted(r.counts) == [1, 2, 4, 8, 16, 32, 50]


class TestIdentitySuiteFloat:
    def test_float_mode_residuals(self, fix_zz):
        rep = identity_suite(fix_zz, horizon=24, exact=False)
        assert not rep["exact"]
        assert rep["trajectory_decomposition_residual"] <= 1e-12
        assert rep["tilting_residual"] <= 1e-12
        assert rep["duality_residual"] <= 1e-12

    def test_two_media_exact(self, fix_pp):
        rep = identity_suite(fix_pp, horizon=20, pairs=[(0, 0), (-1, 1)])
        assert rep["all_exact_zero"]
        assert rep["passed"] is True

    @pytest.mark.parametrize("delta, passed", [(0.0, True), (5e-13, True), (2e-12, False)])
    def test_float_verdict_follows_bound(self, fix_zz, monkeypatch, delta, passed):
        # a float-mode residual passes up to 1e-12, the float rounding it allows
        def perturbed(*args, **kwargs):
            t = marginal_sequence(*args, **kwargs)
            t.data["values"][9] += delta
            return t

        monkeypatch.setattr(verify, "marginal_sequence", perturbed)
        rep = identity_suite(fix_zz, horizon=12, pairs=[(0, 0)], exact=False)
        assert rep["trajectory_decomposition_residual"] == pytest.approx(delta, abs=1e-15)
        assert rep["passed"] is passed


class TestIdentitySuiteSensitivity:
    """One unit at the engines' scale 1/D**n must show as that exact residual.

    The records hold integer numerators over D**n, so the unit delta enters
    them as delta * D**n = 1."""

    def test_decomposition_sees_one_unit(self, fix_zz, monkeypatch):
        n0 = 9
        delta = F(1, common_denominator(fix_zz.left, fix_zz.origin, fix_zz.right) ** n0)

        def perturbed(*args, **kwargs):
            t = marginal_sequence(*args, **kwargs)
            t.data["values"][n0] += int(delta * t.meta["D"] ** n0)
            return t

        monkeypatch.setattr(verify, "marginal_sequence", perturbed)
        rep = identity_suite(fix_zz, horizon=12, pairs=[(0, 0)])
        assert not rep["trajectory_decomposition_exact_zero"]
        assert rep["trajectory_decomposition_residual"] == float(delta)
        assert rep["tilting_exact_zero"] and rep["duality_exact_zero"]

    def test_tilting_sees_one_unit(self, fix_zz, monkeypatch):
        ratio, n0, y0, x0 = F(1, 2), 5, 1, -1
        left_t = geometric_tilt(fix_zz.left, ratio)
        delta = F(1, common_denominator(left_t) ** n0)

        def perturbed(medium, *args, **kwargs):
            fp = first_passage_rows(medium, *args, **kwargs)
            if medium.law.fracs == left_t.fracs and fp.rows == [x0]:   # the tilted row of (ii)
                fp.R[n0, 0, y0 - fp.band[0]] += int(delta * fp.D ** n0)
            return fp

        monkeypatch.setattr(verify, "first_passage_rows", perturbed)
        rep = identity_suite(fix_zz, horizon=12, tilt_ratio=ratio, pairs=[(0, 0)])
        assert not rep["tilting_exact_zero"]
        L = sum(p * ratio ** v for v, p in zip(fix_zz.left.values, fix_zz.left.fracs))
        assert rep["tilting_residual"] == float(L ** n0 * ratio ** (x0 - y0) * delta)
        assert rep["trajectory_decomposition_exact_zero"] and rep["duality_exact_zero"]

    def test_duality_sees_one_unit(self, fix_zz, monkeypatch):
        n0, z0 = 7, 2
        delta = F(1, common_denominator(fix_zz.left) ** n0)
        records = []

        def perturbed(*args, **kwargs):
            fp = first_passage_rows(*args, **kwargs)
            if -z0 in fp.rows:   # the batched record of the starts -z
                records.append(fp)
                fp.R[n0, fp.rows.index(-z0), 0 - fp.band[0]] += int(delta * fp.D ** n0)
            return fp

        monkeypatch.setattr(verify, "first_passage_rows", perturbed)
        rep = identity_suite(fix_zz, horizon=12, pairs=[(0, 0)])
        assert len(records) == 1
        assert not rep["duality_exact_zero"]
        assert rep["duality_residual"] == float(delta)
        assert rep["trajectory_decomposition_exact_zero"] and rep["tilting_exact_zero"]


class TestIdentitySuiteDPs:
    def test_one_dp_per_medium_and_role(self, monkeypatch):
        # on a two-media model: build_Q one DP per medium, every pair's a_n
        # one, V one per medium holding a target (0 and -2 left, 1 right),
        # tilting two and duality two; 12 with one walk and one V per pair
        started = []

        def counting(*args, **kwargs):
            started.append(args[0])
            return advance(*args, **kwargs)

        advance = evolve._advance
        monkeypatch.setattr(evolve, "_advance", counting)
        rep = identity_suite(SUBCASE_FIXTURES["B4"]())
        assert rep["all_exact_zero"]
        assert len(started) == 9


class TestIdentitySuiteNumerators:
    def test_exact_suite_builds_few_fractions(self, monkeypatch):
        # every exact record is integer numerators over D**n, so the suite
        # builds Fractions only for the laws and the tilt's constants: 130 on
        # FIX-PP-B7, where turning each numerator into a Fraction and back
        # took 14544
        calls = []
        new = F.__new__

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return new(cls, *args, **kwargs)

        model = SUBCASE_FIXTURES["B7"]()
        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        rep = identity_suite(model)
        monkeypatch.undo()
        assert rep["all_exact_zero"]
        assert len(calls) <= 2000


class TestScalarChecks:
    def test_geometric_renewal(self):
        q = 0.25
        ns = np.arange(1, 301)
        qn = np.zeros(301)
        qn[1:] = q * (1 - q) ** (ns - 1)
        t = renewal_sequence(qn[:, None, None], qn[:, None, None])
        # elementary renewal theorem: t_n -> 1/E[epoch] = q
        assert t[300, 0, 0] == pytest.approx(q, abs=1e-12)

    def test_suite_scalars(self, fix_zp):
        rep = convergence_suite(fix_zp)
        assert rep["scalar_geometric_renewal_error"] < 1e-9
        assert rep["scalar_tail_convolution_error"] < 0.05
        assert rep["passed"] is True   # (Z,P) runs only the scalar checks

    def test_plateau_reads_the_origin(self, fix_pz):
        # sqrt(n) T_n(0, 0) bold_c / nu(0), with T_n(0, 0) from the renewal
        # recursion in place of the full-walk DP the suite runs
        w, N = Window(-64, 64), 128
        rep = convergence_suite(fix_pz, horizon=N, window=w)
        band = arrival_band(fix_pz)
        hist = build_Q(fix_pz, N, w, rows=[*range(band[0], band[1] + 1), 0])
        T = renewal_sequence(hist.R, hist.C)[:, hist.rows.index(0), 0 - band[0]]
        nu0 = dominant_eigenpair(switching_kernel(fix_pz, w)).nu[w.index(0)]
        assert [n for n, _ in rep["sqrt_n_Tn_plateau"]] == [64, 128]
        for n, val in rep["sqrt_n_Tn_plateau"]:
            assert val == pytest.approx(math.sqrt(n) * T[n] * rep["bold_c"] / nu0, rel=1e-12)

    def test_zn_runs_every_check_of_its_pz_mirror(self, fix_pz):
        # (Z,N) switches forever and has a centered side, as (P,Z) does: the
        # mirror of FIX-PZ runs the plateau and tail checks too, read off
        # FIX-PZ itself, so on the symmetric default window it gives FIX-PZ's
        # values to the bit, its tail part on the other side
        zn = mirror_model(fix_pz)
        assert zn.drift_case is DriftCase.ZN
        rep, m_rep = convergence_suite(fix_pz), convergence_suite(zn)
        for key in ("bold_c", "sqrt_n_Tn_final", "rn_tail_final"):
            assert m_rep[key] == rep[key], key
        assert m_rep["renewal_tail_parts"] == {"left": rep["renewal_tail_parts"]["right"]}
        assert m_rep["passed"] is True

    def test_mirror_tail_parts_are_equal(self, fix_zz):
        # FIX-ZZ is its own mirror, so nu(-x) == nu(x) and the two sides' tail
        # parts agree to the bit (they differed in the last bit with the
        # default window when nu did)
        parts = convergence_suite(fix_zz, horizon=64)["renewal_tail_parts"]
        assert parts["left"] == parts["right"]

    def test_reads_the_tail_levels_without_a_green_row_solve(self, fix_zz, fix_pz, monkeypatch):
        # the suite's normaliser comes from the ladder tail levels; the
        # killed-walk Green row solve serves the direct fluctuation constant only
        calls = []
        solve = ladder._cyclic_solve
        monkeypatch.setattr(ladder, "_cyclic_solve", lambda *a: calls.append(a) or solve(*a))
        for model in (fix_zz, fix_pz):
            assert convergence_suite(model, horizon=64, window=Window(-64, 64))["passed"]
        assert calls == []
        ladder.fluctuation_constants(fix_zz.left, spitzer_horizon=64)
        assert len(calls) == 2   # one Green row: a solve and its halved-cut refinement

    @pytest.mark.parametrize("which", ["FIX-ZZ", "FIX-PZ", "mirror of FIX-PZ"])
    def test_bold_c_is_the_cy_normaliser_to_the_bit(self, fix_zz, fix_pz, which, monkeypatch):
        # one tail level and one normaliser: bold_c is the denominator
        # predicted_constant_Cy divides lambda_X(y) by, on the same window,
        # (Z,N) included, whose C_y is read off its (P,Z) mirror
        model = {"FIX-ZZ": fix_zz, "FIX-PZ": fix_pz}.get(which) or mirror_model(fix_pz)
        w = Window(-64, 80)
        denominators = []
        normaliser = regimes.tail_normaliser
        monkeypatch.setattr(regimes, "tail_normaliser",
                            lambda *a: denominators.append(normaliser(*a)) or denominators[-1])
        predicted_constant_Cy(model, 0, w)
        assert denominators == [convergence_suite(model, horizon=64, window=w)["bold_c"]]


class TestAsymptoticsSuite:
    def test_b2_matches_prediction(self, subcase_models):
        m = subcase_models["B2"]
        rep = asymptotics_suite(m, 4096, default_window(m, 4096))
        assert rep["predicted"]["subcase"] == "B2"
        assert rep["fit"]["fit_window"] == (512, 4096)
        assert rep["passed"] is True


class TestSurvivalLanding:
    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(-3, 3), st.integers(1, 5), min_size=1, max_size=4),
           st.booleans())
    def test_matches_path_enumeration(self, weights, threshold_hi):
        tot = sum(weights.values())
        law = dist({v: F(w, tot) for v, w in weights.items()})
        n_max = 6
        zs = range(1, 7) if threshold_hi else range(-6, 0)
        table = as_fractions(_survival_landing(law, threshold_hi, n_max, zs, exact=True),
                             common_denominator(law))
        beyond = (lambda p: p >= 1) if threshold_hi else (lambda p: p <= -1)
        cur = {0: F(1)}
        for n in range(1, n_max + 1):
            new = {}
            for pos, mass in cur.items():
                for v, p in zip(law.values, law.fracs):
                    if beyond(pos + v):
                        new[pos + v] = new.get(pos + v, F(0)) + mass * p
            cur = new
            assert all(table[n, i] == cur.get(z, F(0)) for i, z in enumerate(zs)), n
