"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here exactly as stated; nothing is deferred to
later calibration.  Expected long-horizon behavior is cross-checked against
independently computed constants (ladder potentials, eigen-solves, closed
forms), never against the DP that produced the sequence.
"""

import math
import time

import numpy as np

from conftest import step, transition_matrix

from oscillax.evolve import Window, first_passage_rows, marginal_sequence
from oscillax.ladder import LadderVariant, fluctuation_constants, ladder_potentials
from oscillax.regimes import classify, predicted_constant_Cy, select_tilt
from oscillax.switching import (
    banded_power_sequences,
    limit_operator_E,
    dominant_eigenpair,
    limit_operator_E_ell,
    switching_kernel,
    WeightSpec,
)
from oscillax.verify import (
    convergence_suite,
    effective_leak,
    fit_rate_exponent,
    identity_suite,
    simulate,
)

RHO_PRIME_PP = 3 ** (2 / 3) / 8 + 0.125 + 0.75 * 3 ** (-1 / 3)  # = 0.905031...


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_exact_identities(fix_zz):
    t0 = time.time()
    exact = identity_suite(fix_zz, horizon=40, window=Window(-64, 64), exact=True)
    floaty = identity_suite(fix_zz, horizon=40, window=Window(-64, 64), exact=False)
    elapsed = time.time() - t0
    ok = (exact["all_exact_zero"]
          and floaty["trajectory_decomposition_residual"] <= 1e-12
          and floaty["tilting_residual"] <= 1e-12
          and floaty["duality_residual"] <= 1e-12
          and elapsed < 10.0)
    report(1, ok,
           f"identities exact-zero={exact['all_exact_zero']}, float residuals "
           f"{floaty['trajectory_decomposition_residual']:.2e}/"
           f"{floaty['tilting_residual']:.2e}/{floaty['duality_residual']:.2e}, "
           f"{elapsed:.1f}s (<10s)")


def test_criterion_02_pn_convergence(fix_pn):
    t0 = time.time()
    w = Window(-128, 128)
    P = transition_matrix(fix_pn, w)
    from scipy.sparse.linalg import eigs

    vals, vecs = eigs(P.T, k=1, which="LM", v0=np.ones(w.width))
    nu = np.real(vecs[:, 0])
    nu /= nu.sum()
    nu1 = float(nu[w.index(1)])
    state = np.zeros(w.width)
    state[w.index(-1)] = 1.0
    for _ in range(2048):
        state, _ = step(state, fix_pn, w)
    diff = abs(state[w.index(1)] - nu1)
    elapsed = time.time() - t0
    ok = diff <= 1e-6 and abs(vals[0].real - 1.0) < 1e-9 and elapsed < 30.0
    report(2, ok,
           f"|P_-1[X_2048=1] - nu(1)| = {diff:.2e} (<=1e-6), nu(1) = {nu1:.9f}, "
           f"{elapsed:.1f}s (<30s)")


def _fit_fixture(model, horizon, window, rate_for_leak=1.0):
    table = marginal_sequence(model, 0, 0, horizon, window)
    leaks = effective_leak(table, model, rate=rate_for_leak)
    return table, fit_rate_exponent(
        log_values=table.data["log_values"],
        leaks=leaks,
        fit_window=(512, horizon),
    )


def test_criterion_03_zz_local_limit(fix_zz):
    t0 = time.time()
    table, fit = _fit_fixture(fix_zz, 4096, Window(-512, 512))
    c0_pred, _ = predicted_constant_Cy(fix_zz, 0, window=Window(-512, 512))
    plateau = math.sqrt(4096) * float(table.data["values"][4096])
    rel = abs(plateau - c0_pred) / c0_pred
    elapsed = time.time() - t0
    ok = (abs(fit.rho_hat - 1.0) <= 1e-3 and abs(fit.beta_hat - 0.5) <= 0.05
          and rel <= 0.10 and elapsed < 120.0)
    report(3, ok,
           f"rho={fit.rho_hat:.6f} (1+-1e-3), beta={fit.beta_hat:.4f} (0.5+-0.05), "
           f"plateau {plateau:.6f} vs C_0 {c0_pred:.6f} (rel {rel:.2%} <=10%), "
           f"{elapsed:.1f}s (<120s)")


def test_criterion_04_pz_local_limit(fix_pz):
    t0 = time.time()
    table, fit = _fit_fixture(fix_pz, 4096, Window(-512, 512))
    c0_pred, prof = predicted_constant_Cy(fix_pz, 0, window=Window(-512, 512))
    plateau = math.sqrt(4096) * float(table.data["values"][4096])
    rel = abs(plateau - c0_pred) / c0_pred
    elapsed = time.time() - t0
    ok = (abs(fit.rho_hat - 1.0) <= 1e-3 and abs(fit.beta_hat - 0.5) <= 0.05
          and rel <= 0.10 and prof.lam_minus_inf == 0.0 and elapsed < 120.0)
    report(4, ok,
           f"rho={fit.rho_hat:.6f}, beta={fit.beta_hat:.4f}, plateau {plateau:.6f} "
           f"vs C_0 {c0_pred:.6f} (rel {rel:.2%} <=10%), {elapsed:.1f}s")


def test_criterion_05_zp_transient(fix_zp):
    t0 = time.time()
    table, fit = _fit_fixture(fix_zp, 4096, Window(-768, 768))
    elapsed = time.time() - t0
    ok = abs(fit.rho_hat - 1.0) <= 1e-3 and abs(fit.beta_hat - 1.5) <= 0.1
    report(5, ok,
           f"rho={fit.rho_hat:.6f} (1+-1e-3), beta={fit.beta_hat:.4f} (1.5+-0.1), "
           f"{elapsed:.1f}s")


def test_criterion_06_pp_b2(fix_pp):
    t0 = time.time()
    pred = classify(fix_pp)
    table, fit = _fit_fixture(fix_pp, 4096, Window(-256, 320), rate_for_leak=pred.rate)
    elapsed = time.time() - t0
    ok = (pred.subcase == "B2"
          and abs(fit.rho_hat - RHO_PRIME_PP) <= 1e-3
          and abs(fit.beta_hat - 1.5) <= 0.15
          and elapsed < 120.0)
    report(6, ok,
           f"B2: rho={fit.rho_hat:.7f} vs rho'={RHO_PRIME_PP:.7f} "
           f"(err {abs(fit.rho_hat - RHO_PRIME_PP):.2e} <=1e-3), "
           f"beta={fit.beta_hat:.4f} (1.5+-0.15), log-scale DP, {elapsed:.1f}s (<120s)")


def test_criterion_07_subcase_coverage():
    from oscillax.fixtures import search_subcase_fixtures, subcase_witnesses

    t0 = time.time()
    grid = search_subcase_fixtures()
    witnesses = subcase_witnesses()
    labels = {"A1", "A2", "B1", "B2", "B3", "B4", "B5", "B6", "B7", "C"}
    assert set(witnesses) == labels
    lines = []
    all_ok = True
    for name in sorted(labels):
        m = witnesses[name]
        pred = classify(m)
        plan = select_tilt(m, pred)   # every subcase must also tilt cleanly
        table, fit = _fit_fixture(m, 4096, Window(-224, 256), rate_for_leak=pred.rate)
        exp_tol = 0.15
        ok = fit.matches(pred.rate, pred.exponent, 1e-3, exp_tol)
        all_ok &= ok
        src = "grid-reachable" if name in grid else "constructed"
        lines.append(f"{name}[{src}] rho {fit.rho_hat:.6f}/{pred.rate:.6f} "
                     f"beta {fit.beta_hat:+.3f}/{pred.exponent} {'ok' if ok else 'MISMATCH'}")
    elapsed = time.time() - t0
    report(7, all_ok and elapsed < 1800.0,
           "subcase sweep (<30min: %.0fs): " % elapsed + "; ".join(lines))


def test_criterion_08_fluctuation_constants():
    from oscillax.fixtures import MU_A
    from oscillax.model import dist

    t0 = time.time()
    fc = fluctuation_constants(dist(MU_A))
    ok = fc.max_pairwise_rel_diff <= 0.01
    report(8, ok,
           f"c_direct={fc.c_direct:.8f} c_spitzer={fc.c_spitzer:.8f} "
           f"c_ladder={fc.c_ladder:.8f}, max pairwise rel diff "
           f"{fc.max_pairwise_rel_diff:.2e} (<=1%), {time.time()-t0:.1f}s")


def test_criterion_09_epoch_asymptotics(fix_zz):
    t0 = time.time()
    fc = fluctuation_constants(fix_zz.left)
    pot = ladder_potentials(fix_zz.left)
    n = 1 << 12
    oks, vals = [], []
    for x in (-1, -3):
        t = first_passage_rows(fix_zz.media[0], [x], n, Window(-1400, 8))
        f_n = float(t.R[n, 0].sum())
        val = n ** 1.5 * f_n / pot.V(LadderVariant.STRICT_ASC, abs(x))
        rel = abs(val - fc.c_direct) / fc.c_direct
        oks.append(rel <= 0.05)
        vals.append((x, val, rel))
    ok = all(oks)
    report(9, ok,
           "; ".join(f"x={x}: n^1.5 P[tau=n]/V = {v:.5f} vs c {fc.c_direct:.5f} "
                     f"(rel {r:.2%} <=5%)" for x, v, r in vals)
           + f", {time.time()-t0:.1f}s")


def test_criterion_10_operator_renewal(fix_zz):
    t0 = time.time()
    rep = convergence_suite(fix_zz, horizon=4096, window=Window(-512, 512))
    plateau = rep["sqrt_n_Tn_final"]
    ok_plateau = 0.9 <= plateau <= 1.1

    # l^2 growth bound of the kernel powers in the weighted norm
    w = Window(-64, 64)
    seqs = banded_power_sequences(fix_zz, 4096, w, ells=[1, 2, 3, 4, 5])
    bl, bh = seqs["band"]
    psi = WeightSpec("polynomial", 0.5).values(w)
    psi_cols = psi[w.index(bl): w.index(bh) + 1]
    ns = np.arange(1, 4097, dtype=float)
    b = {}
    for ell in range(1, 6):
        arr = seqs[ell][1:]
        # weighted operator norm per n: max_x sum_y |Q(x,y)| psi(y) / psi(x)
        norms = ((np.abs(arr) @ psi_cols) / psi[None, :]).max(axis=1)
        b[ell] = float(np.max(ns ** 1.5 * norms) / ell ** 2)
    no_doubling = all(b[ell + 1] < 2.0 * b[ell] for ell in range(1, 5))

    # per-l pointwise limits approach E_l (l <= 3) and stabilize; the band
    # rows need survival regions deep enough on BOTH sides for 4096-step
    # excursions, so this runs on a tall symmetric window with a compact
    # row set (band plus the probed start)
    tall = Window(-1280, 1280)
    deep = banded_power_sequences(fix_zz, 4096, tall, ells=[1, 2, 3], rows=[-1])
    dbl, _ = deep["band"]
    E = limit_operator_E(fix_zz, w)
    sk = switching_kernel(fix_zz, w)
    ok_ell = True
    details = []
    for ell in (1, 2, 3):
        El = limit_operator_E_ell(E, sk, ell)
        x, y = -1, 0
        row = deep["rows"][x]
        v1 = 2048 ** 1.5 * deep[ell][2048, row, y - dbl]
        v2 = 4096 ** 1.5 * deep[ell][4096, row, y - dbl]
        target = El[w.index(x), y - sk.band[0]]
        stable = abs(v2 - v1) / target <= 0.02
        close = abs(v2 - target) / target <= 0.05
        ok_ell &= stable and close
        details.append(f"l={ell}: {v2:.5f} vs E_l {target:.5f}")
    elapsed = time.time() - t0
    ok = ok_plateau and no_doubling and ok_ell
    report(10, ok,
           f"sqrt(n) T_n(0,0) c/nu(0) = {plateau:.5f} in [0.9,1.1]; "
           f"l^2-normalized sups {[round(b[l], 4) for l in range(1, 6)]} "
           f"(no successive doubling: {no_doubling}); " + "; ".join(details)
           + f", {elapsed:.1f}s")


def test_criterion_11_doob_spectral(fix_zp):
    t0 = time.time()
    s1 = dominant_eigenpair(switching_kernel(fix_zp, Window(-256, 256)))
    s2 = dominant_eigenpair(switching_kernel(fix_zp, Window(-512, 512)))
    drift_stab = abs(s1.rho_psi - s2.rho_psi)
    ok = (s2.rho_psi <= 1.0 - 1e-3
          and float(np.min(s2.H)) > 0.0
          and s2.residual <= 1e-8
          and drift_stab <= 1e-4)
    report(11, ok,
           f"rho_psi={s2.rho_psi:.7f} (<=1-1e-3), min H={float(np.min(s2.H)):.3e} (>0), "
           f"residual={s2.residual:.2e} (<=1e-8), window-doubling drift "
           f"{drift_stab:.2e} (<=1e-4), {time.time()-t0:.1f}s")


def test_criterion_12_mc_dp_cross_validation(fix_zz):
    t0 = time.time()
    n_paths, n_steps, seed = 100_000, 50, 20240817
    r1 = simulate(fix_zz, 0, n_steps, n_paths, seed=seed)
    r2 = simulate(fix_zz, 0, n_steps, n_paths, seed=seed)
    reproducible = r1.report() == r2.report()
    w = Window(-128, 128)
    state = np.zeros(w.width)
    state[w.index(0)] = 1.0
    dp = {0: state}
    for n in range(1, n_steps + 1):
        state, _ = step(state, fix_zz, w)
        dp[n] = state
    worst = 0.0
    checked = 0
    for n, counts in r1.counts.items():
        vec = dp[n]
        for y in range(w.lo, w.hi + 1):
            p = float(vec[w.index(y)])
            emp = counts.get(y, 0) / n_paths
            se = math.sqrt(max(p * (1 - p), 1e-12) / n_paths)
            if p > 0 or counts.get(y, 0) > 0:
                dev = abs(emp - p) / (4 * se)
                worst = max(worst, dev)
                checked += 1
    ok = reproducible and worst <= 1.0
    report(12, ok,
           f"{checked} recorded marginals all within 4 standard errors of DP "
           f"(worst = {worst:.2f} of allowance), byte-identical rerun: "
           f"{reproducible}, {time.time()-t0:.1f}s")
