"""Monte Carlo, asymptotic fitting, and the identity/convergence/asymptotics suites.

The fitting conventions: the geometric rate comes from ratio medians over
dyadic blocks refined by Aitken extrapolation (the ratio of consecutive terms
carries a -beta/n bias that halves per block, which Aitken removes); the
polynomial exponent from least squares against -log n after peeling the rate;
the constant from the plateau of the rectified sequence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import LeakDominated, SequenceTooNoisy, ValidationError
from .evolve import (
    MAX_WORK,
    Window,
    excursion_functions,
    first_passage_rows,
    marginal_sequence,
    powers,
)
from .ladder import centered_tail_levels, tail_normaliser
from .model import (
    LatticeDist,
    Medium,
    OscillatingModel,
    argmin_laplace,
    arrival_band,
    common_denominator,
    geometric_tilt,
    laplace,
    mirror_model,
)
from .regimes import classify
from .switching import (
    build_Q,
    dominant_eigenpair,
    renewal_sequence,
    switching_kernel,
    switching_time_marginals,
)

# ---------------------------------------------------------------------------
# Rate/exponent/constant fitting
# ---------------------------------------------------------------------------

NOISE_TOL = 0.1   # largest residual rms of the log-linear fit
MIN_FIT_POINTS = 64   # fewest usable points a fit reads

@dataclass
class AsymptoticFit:
    rho_hat: float
    beta_hat: float
    C_hat: float
    fit_window: tuple[int, int]
    residual_rms: float
    plateau_series: list
    usable_points: int

    def matches(self, rate: float, exponent: float,
                rate_tol: float = 1e-3, exp_tol: float = 0.15) -> bool:
        return abs(self.rho_hat - rate) <= rate_tol and abs(self.beta_hat - exponent) <= exp_tol


def fit_rate_exponent(
    log_values: np.ndarray,
    leaks: Optional[np.ndarray] = None,
    fit_window: Optional[tuple[int, int]] = None,
) -> AsymptoticFit:
    """Estimate (rho, beta, C) from log a_n ~ log C + n log rho - beta log n.

    ``log_values`` is indexed by n.  Points where the reported leak exceeds 1%
    of the value are discarded; at least ``MIN_FIT_POINTS`` usable points are
    required inside the fit window.  The Aitken step on the ratio medians and
    the n-weighted rectification magnify last-bit changes in ``log_values``: a
    rounding-only change of at most 6e-16 relative moved FIX-PP-A1's C_hat by
    1.3e-9, so C_hat carries about 8 digits.
    """
    log_values = np.asarray(log_values, dtype=float)
    N = len(log_values) - 1
    n_lo, n_hi = fit_window or (max(1, N // 8), N)
    if n_hi > N:
        raise ValidationError(f"fit window {n_hi} beyond horizon {N}")
    ns = np.arange(n_lo, n_hi + 1)
    usable = np.isfinite(log_values[ns])
    if leaks is not None:
        leaks = np.asarray(leaks, dtype=float)
        # compare on the log scale: the values may sit far below double range
        with np.errstate(divide="ignore"):
            log_leaks = np.where(leaks[ns] > 0, np.log(np.maximum(leaks[ns], 1e-320)),
                                 -np.inf)
        usable &= log_leaks <= math.log(0.01) + log_values[ns]
    ns = ns[usable]
    if len(ns) < MIN_FIT_POINTS:
        raise LeakDominated(f"only {len(ns)} usable points in [{n_lo}, {n_hi}]")
    if ns[-1] < n_hi // 2:
        raise LeakDominated(f"no usable point in [{n_hi // 2}, {n_hi}], the top half of "
                            f"the fit window [{n_lo}, {n_hi}] that C_hat is read from")

    # rho: dyadic-block ratio medians + Aitken
    ratios_n = ns[:-1][np.diff(ns) == 1]
    r = np.exp(log_values[ratios_n + 1] - log_values[ratios_n])
    blocks = []
    b_hi = n_hi
    for _ in range(3):
        b_lo = b_hi // 2
        sel = (ratios_n >= b_lo) & (ratios_n < b_hi)
        if sel.sum() >= 8:
            blocks.append(float(np.median(r[sel])))
        b_hi = b_lo
    blocks = blocks[::-1]
    if len(blocks) >= 3:
        m1, m2, m3 = blocks[-3:]
        d1, d2 = m2 - m1, m3 - m2
        rho_hat = m3 - d2 * d2 / (d2 - d1) if d2 != d1 else m3
    elif blocks:
        rho_hat = blocks[-1]
    else:
        raise SequenceTooNoisy("not enough consecutive points for ratio blocks")
    rho_hat = float(min(rho_hat, 1.0))

    # beta: least squares of (log a_n - n log rho) on -log n
    y = log_values[ns] - ns * math.log(rho_hat)
    A = np.vstack([-np.log(ns), np.ones(len(ns))]).T
    (beta_hat, logC), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ np.array([beta_hat, logC])
    residual_rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    if residual_rms > NOISE_TOL:
        raise SequenceTooNoisy(f"residual rms {residual_rms:.3g} exceeds {NOISE_TOL}")

    # C: plateau mean of the rectified values over the top half of the window
    top = ns >= n_hi // 2
    C_hat = float(np.mean(np.exp(log_values[ns[top]]
                                 - ns[top] * math.log(rho_hat)
                                 + beta_hat * np.log(ns[top]))))
    plateau = []
    n = n_lo
    while n <= n_hi:
        if np.isfinite(log_values[n]):
            plateau.append((int(n), float(math.exp(
                log_values[n] - n * math.log(rho_hat) + beta_hat * math.log(n)))))
        n *= 2
    return AsymptoticFit(
        rho_hat=rho_hat,
        beta_hat=float(beta_hat),
        C_hat=C_hat,
        fit_window=(int(n_lo), int(n_hi)),
        residual_rms=residual_rms,
        plateau_series=plateau,
        usable_points=int(len(ns)),
    )


def effective_leak(table, model: OscillatingModel, rate: float = 1.0) -> np.ndarray:
    """Returnable-mass estimate of the window-truncation error per step.

    The raw cumulative leak is a certified but crude bound: for a transient
    model the drifting bulk exits the window yet can only re-enter against its
    own drift, at exponential cost e^{-|tilt| * margin}.  Each leaked packet is
    therefore discounted by the re-entry factor of its side and then by the
    best possible in-window decay ``rate`` per remaining step:

        eff_n = rate * eff_{n-1} + flux_n^below * d_left + flux_n^above * d_right
                + flux_n^underflow.

    A centered side gets no discount (d = 1), so for recurrent models this
    reduces to the raw bound.  Mass the float DP flushed below the smallest
    normal double never left the window, so it is not discounted either.
    """
    window = table.window
    lo_cum, hi_cum, under_cum = (np.asarray(table.data[f"leak_{k}"], dtype=float)
                                 for k in ("below", "above", "underflow"))
    # a drifted side's leak, escaped with its drift or against it, must fight that drift
    d_left = d_right = 1.0
    if not model.left.centered:
        lam, _ = argmin_laplace(model.left)
        d_left = math.exp(-abs(lam) * abs(window.lo))
    if not model.right.centered:
        lamp, _ = argmin_laplace(model.right)
        d_right = math.exp(-abs(lamp) * window.hi)
    # summed in closed form, eff_n = sum_{k<=n} rate^(n-k) e^(new_k) with new_k
    # the log of step k's discounted flux, and in log space, as the bound keeps
    # decaying geometrically long after its linear representation would underflow
    with np.errstate(divide="ignore"):
        new = np.logaddexp(np.log(np.maximum(np.diff(lo_cum), 0)) + np.log(d_left),
                           np.log(np.maximum(np.diff(hi_cum), 0)) + np.log(d_right))
        new = np.logaddexp(new, np.log(np.maximum(np.diff(under_cum), 0)))
    log_eff = np.full(len(lo_cum), -np.inf)
    if rate > 0:
        k_log_rate = np.arange(1, len(lo_cum)) * math.log(rate)
        log_eff[1:] = np.logaddexp.accumulate(new - k_log_rate) + k_log_rate
    else:
        log_eff[1:] = new
    with np.errstate(over="ignore"):
        return np.where(log_eff > -700, np.exp(np.minimum(log_eff, 700)), 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

CHUNK = 1 << 15   # paths per Philox stream; fixes which stream each path draws
G = 1 << 12       # inverse-CDF buckets per medium; a raw word's top 12 bits pick one
STEP_PATHS = 1 << 10   # fewest path-steps a step counts as in the work guard

@dataclass
class SimResult:
    counts: dict                 # n -> {y: hits}
    paths: int
    seed: int
    n_steps: int
    c1_histogram: dict           # first switch time -> paths (None key: no switch)
    switch_counts: dict          # total switches by n_steps -> paths

    def report(self) -> dict:
        """The ``simulate.json`` payload: the fields, every key a string ("None": no switch)."""
        def enc(d):
            return {str(k): enc(v) if isinstance(v, dict) else v for k, v in d.items()}
        return enc(asdict(self))


def _inverse_cdf(dists, dtype):
    """(table, resolve) for the draws values[searchsorted(cumsum(probs), u,
    "right")], clipped, of each law c of ``dists``.  table[c * G + g], of
    ``dtype``, is the jump of every u in the bucket [g/G, (g+1)/G) of law c,
    or iinfo(dtype).min (no jump) when a threshold lies inside the bucket;
    resolve(rows, u) runs searchsorted on the u whose rows c * G are given."""
    laws = [(np.asarray(d.values), np.cumsum(d.probs)) for d in dists]
    edges = np.arange(G + 1) / G
    table = []
    for vals, cum in laws:
        k = np.searchsorted(cum, edges[:-1], side="right")
        table.append(np.where(np.searchsorted(cum, edges[1:]) > k, np.iinfo(dtype).min,
                              vals[k.clip(0, len(vals) - 1)]))

    def resolve(rows, u):
        inc = np.empty(len(u), dtype)
        for c, (vals, cum) in enumerate(laws):
            sel = rows == c * G
            inc[sel] = vals[np.searchsorted(cum, u[sel], side="right").clip(0, len(vals) - 1)]
        return inc

    return np.concatenate(table).astype(dtype), resolve


def simulate(
    model: OscillatingModel,
    x: int,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> SimResult:
    """Sample the walk with counter-based (Philox) streams, one per chunk.

    Marginals are recorded at the dyadic times plus n_steps; switching
    statistics track the first medium change and the total number of changes.
    Identical (seed, n_paths, n_steps) give byte-identical results.

    A step draws one raw 64-bit word w per path, the word from which
    ``Generator.random`` forms u = (w >> 11) 2^-53, so its bucket floor(u G)
    is w >> 52 and one lookup in the (medium, bucket) table of
    :func:`_inverse_cdf` gives the jump; u is formed only for the draws in a
    bucket that holds a threshold.  The sample stream is that of
    ``Generator.random`` and a plain inverse CDF.  Positions are 32-bit when
    no path can leave (-2^31, 2^31).

    A run of more than ``MAX_WORK`` path-steps is refused up front.  Each step
    is one vectorised draw over a chunk of paths, whose fixed overhead (7-10
    us at 100 paths or fewer) costs about as much as ``STEP_PATHS`` path-steps
    (5-6 ns each at 10^4 paths and more; FIX-ZZ on a 2-core Xeon VM), so a
    step counts as at least that many: at most 2^23 steps of few paths, about
    1.5 minutes, pass.
    """
    reach = abs(x) + n_steps * model.max_jump   # no position gets further from 0
    if reach > np.iinfo(np.int64).max:
        raise ValidationError(
            f"positions from {x} over {n_steps} steps can overflow 64-bit integers")
    if not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed {seed} is not in [0, 2**128), the Philox key range")
    work = n_steps * max(n_paths, STEP_PATHS)
    if work > MAX_WORK:
        raise ValidationError(
            f"{n_steps} steps of {n_paths} paths count as {work:.3g} path-steps (a step "
            f"at least {STEP_PATHS}), over the {MAX_WORK:.3g} limit: lower -n or --paths")
    record = sorted({2 ** k for k in range(0, int(math.log2(max(n_steps, 1))) + 1)
                     if 2 ** k <= n_steps} | {n_steps})
    dtype = np.int32 if reach < 2 ** 31 else np.int64
    table, resolve = _inverse_cdf(model.laws, dtype)
    split = np.iinfo(dtype).min   # the code of a bucket that holds a threshold
    resolves = np.any(table == split)
    ends = [m.hi for m in model.media[:-1]]   # a site above k of them is in medium k
    counts, c1_hist, switch_hist = {n: {} for n in record}, {}, {}
    for ci in range((n_paths + CHUNK - 1) // CHUNK):
        m = min(CHUNK, n_paths - ci * CHUNK)
        bits = np.random.Philox(key=seed).jumped(ci)
        pos = np.full(m, x, dtype=dtype)
        idx, row, inc = np.empty(m, np.intp), np.empty(m, np.intp), np.empty(m, dtype)
        cls, new_cls = np.empty(m, np.int8), np.empty(m, np.int8)   # medium indices
        above, changed = np.empty(m, bool), np.empty(m, bool)
        unswitched = np.ones(m, bool)
        n_switch, before = np.zeros(m, np.int32), np.zeros(m, np.int32)

        def medium(out):
            """``out`` := the medium index of each path, and ``row`` its table row"""
            np.greater(pos, ends[0], out=out.view(bool))
            for end in ends[1:]:
                np.add(out, np.greater(pos, end, out=above), out=out)
            np.copyto(row, out)
            np.multiply(row, G, out=row)

        medium(cls)
        for n in range(1, n_steps + 1):
            words = bits.random_raw(m)
            np.right_shift(words, 64 - 12, out=idx.view(np.uint64))   # floor(u G)
            idx += row
            np.take(table, idx, out=inc, mode="clip")
            if resolves:
                fix = np.flatnonzero(inc == split)
                inc[fix] = resolve(row[fix], (words[fix] >> 11) * 2.0 ** -53)
            pos += inc
            medium(new_cls)
            np.not_equal(new_cls, cls, out=changed)
            n_switch += changed
            np.greater(unswitched, changed, out=unswitched)   # and not changed
            before += unswitched
            cls, new_cls = new_cls, cls
            if n in counts:
                for yy, hh in zip(*np.unique(pos, return_counts=True)):
                    counts[n][int(yy)] = counts[n].get(int(yy), 0) + int(hh)
        first_switch = np.where(unswitched, 0, before + 1)   # 0 = never
        for t, c in zip(*np.unique(first_switch, return_counts=True)):
            key = None if t == 0 else int(t)
            c1_hist[key] = c1_hist.get(key, 0) + int(c)
        for k, c in zip(*np.unique(n_switch, return_counts=True)):
            switch_hist[int(k)] = switch_hist.get(int(k), 0) + int(c)
    return SimResult(counts=counts, paths=n_paths, seed=seed, n_steps=n_steps,
                     c1_histogram=c1_hist, switch_counts=switch_hist)


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------

def _survival_landing(dist: LatticeDist, threshold_hi: bool, n_max: int, z_range,
                      exact: bool = True) -> np.ndarray:
    """P[S_1..S_n strictly beyond the threshold, S_n = z] from S_0 = 0, as the
    (n_max + 1, len(z_range)) table of n and z (row 0 is zero).

    threshold_hi=True keeps S_k >= 1 (kill on <= 0); False keeps S_k <= -1.
    The first step lands on an atom v beyond the threshold, so the table is
    sum_v mu(v) P_v[S_1..S_{n-1} beyond it, S_{n-1} = z], with every such v
    run as one batch of first-passage rows.  An exact table holds integer
    numerators over D**n, D = ``common_denominator(dist)``.
    """
    half = n_max * max(abs(dist.min_support), abs(dist.max_support)) + 2
    medium = Medium(dist, 1, None) if threshold_hi else Medium(dist, None, -1)
    k_lo, kern = dist.dense_kernel(exact, common_denominator(dist) if exact else 1)
    atoms = [(v, kern[v - k_lo]) for v in dist.values if v in medium]
    window = Window(-half, half)
    fp = first_passage_rows(medium, [v for v, _ in atoms], n_max - 1, window, exact,
                            keep_states=True)
    cols = [j for j, z in enumerate(z_range) if window.lo <= z <= window.hi]
    table = np.zeros((n_max + 1, len(z_range)), dtype=object if exact else float)
    for i, (_, p) in enumerate(atoms):   # weights p * D: integers in exact mode
        table[1:, cols] += p * fp.states[:, i, [z_range[j] - window.lo for j in cols]]
    return table


FLOAT_IDENTITY_TOL = 1e-12   # largest float-mode identity residual that passes


def identity_suite(model: OscillatingModel, horizon: int = 40,
                   window: Optional[Window] = None,
                   tilt_ratio: Fraction = Fraction(1, 2),
                   exact: bool = True,
                   pairs: Optional[Sequence[tuple[int, int]]] = None) -> dict:
    """Exact structural identities: trajectory decomposition, tilting, duality.

    In exact mode every record holds integer numerators over D**n (D its
    ``meta['D']`` or ``StepKernels.D``), a record over one law's D moves to
    the model's D by the factor (D_model // D)**n, and each identity compares
    numerators over one denominator: a residual is exactly zero iff they are
    equal, and must be identically zero.  In float mode (D = 1) the suite
    reports the max absolute residuals.  ``passed``: every residual is 0 in
    exact mode, at most ``FLOAT_IDENTITY_TOL`` in float mode.

    The decomposition runs one DP per role: every pair's a_n in one
    :func:`marginal_sequence`, the V of every target of a medium in one
    :func:`excursion_functions`, one :func:`build_Q` DP per medium, and the
    renewal recursion on the pair rows alone (a row of T_n reads only its
    own row of R and the band block C): with tilting and duality, 9 DPs on a
    two-media model.
    """
    window = window or Window(-64, 64)
    exact = exact and model.exact
    report = {"exact": exact}

    def record(name, diff, scale):
        """max |diff| / scale, numerators diff over scale (broadcast); the float
        division is formed only where diff is nonzero, so that an exact zero
        never passes through a float"""
        nonzero = diff != 0
        resid = [abs(d) / s for d, s in zip(diff[nonzero],
                                            np.broadcast_to(scale, diff.shape)[nonzero])]
        report[f"{name}_residual"] = float(max(resid, default=0.0))
        report[f"{name}_exact_zero"] = not resid

    # --- (i) trajectory decomposition ---------------------------------------
    # a_n(x, y) = V_n(x) + sum_{k=1}^n sum_z T_k(x, z) V_{n-k}(z), z over the
    # arrival band; every term at time n is an integer over D**n, D the
    # common denominator of the three laws, which the renewal recursion keeps.
    D = common_denominator(*model.laws) if exact else 1
    pairs = list(pairs or [(0, 0), (-1, 1), (2, -2)])
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    band_lo, band_hi = arrival_band(model)
    band = list(range(band_lo, band_hi + 1))
    hist = build_Q(model, horizon, window, rows=band + xs, exact=exact)
    T = renewal_sequence(hist.R[:, [hist.rows.index(x) for x in xs]], hist.C)
    V = {}   # y -> (V_n on the window over D**n of y's medium, factor to the model's D**n)
    for k in dict.fromkeys(model.medium_index(np.array(ys))):
        targets = list(dict.fromkeys(y for y in ys if model.medium_index(y) == k))
        ex = excursion_functions(model, targets, horizon, window, exact=exact)
        up = powers(D // ex.meta["D"], horizon)[:, None] if exact else 1
        V.update((y, (ex.data["V"][:, i], up)) for i, y in enumerate(targets))
    vals = marginal_sequence(model, xs, ys, horizon, window, exact=exact).data["values"]
    diffs = []
    for i, (x, y) in enumerate(pairs):
        # V_n(z) for z in the band, then V_n(x) in the last column
        Vy = V[y][0][:, [window.index(z) for z in band + [x]]] * V[y][1]
        diffs.append([Vy[n, -1] + (T[1:n + 1, i] * Vy[:n][::-1, :-1]).sum() - vals[n, i]
                      for n in range(horizon + 1)])   # l = 0 term first
    record("trajectory_decomposition", np.array(diffs, dtype=vals.dtype), powers(D, horizon))

    # --- (ii) tilting identity ----------------------------------------------
    # Q_n(x, y) = L(t)^n e^{t(x-y)} Q_n^t(x, y) with e^t = tilt_ratio; in
    # exact mode L(t) = Ln / Ld and e^{t(x-y)} = qn / qd, and each side is
    # multiplied by the other's denominators (the tilted law has its own D)
    left = model.media[0]
    x0 = left.hi
    fp, fp_t = (first_passage_rows(replace(left, law=law), [x0], 20, window, exact=exact)
                for law in (left.law, geometric_tilt(left.law, tilt_ratio)))
    ys = range(fp.band[0], fp.band[1] + 1)
    if exact:
        ratio = Fraction(tilt_ratio)
        L = sum(p * ratio ** int(v) for v, p in zip(model.left.values, model.left.fracs))
        (Ln, Ld), q = L.as_integer_ratio(), [(ratio ** (x0 - y)).as_integer_ratio() for y in ys]
    else:   # the same products in floats, over denominators 1
        ratio = float(tilt_ratio)
        Ln, Ld, q = laplace(model.left, math.log(ratio)), 1, [(ratio ** (x0 - y), 1) for y in ys]
    qn, qd = np.array(q, dtype=object).T
    Ln, Ld, Dn, Dtn = (powers(b, 20)[1:, None] for b in (Ln, Ld, fp.D, fp_t.D))
    lhs, rhs = fp.R[1:, 0] * (Ld * Dtn * qd), fp_t.R[1:, 0] * (Ln * Dn * qn)
    record("tilting", lhs - rhs, Dn * Ld * Dtn * qd)

    # --- (iii) per-step duality ----------------------------------------------
    # P[tau_- > n, S_n = z] (stay >= 1) equals the probability that n is a
    # strict ascending ladder epoch with height z, i.e. the first crossing of
    # level z lands exactly at z at time n; both over the left law's D**n.
    n_max = min(horizon, 24)
    zs = range(1, 2 * model.left.max_support + 1)
    lhs = _survival_landing(model.left, True, n_max, zs, exact=exact)
    # one DP over the starts -z; no mass leaves this window in n_max steps
    fp = first_passage_rows(Medium(model.left, None, -1), [-z for z in zs], n_max,
                            Window(-n_max * model.max_jump - zs[-1] - 2, model.max_jump + 2),
                            exact=exact)
    rhs = fp.R[:, :, 0 - fp.band[0]]   # landing exactly on the level
    record("duality", (lhs - rhs)[1:], powers(fp.D, n_max)[1:, None])
    names = ("trajectory_decomposition", "tilting", "duality")
    report["all_exact_zero"] = (all(report[f"{name}_exact_zero"] for name in names)
                                if exact else None)
    tol = 0.0 if exact else FLOAT_IDENTITY_TOL
    report["passed"] = all(report[f"{name}_residual"] <= tol for name in names)
    return report


# ---------------------------------------------------------------------------
# Convergence checks
# ---------------------------------------------------------------------------

def _with_convergence_verdict(report: dict) -> dict:
    """``report`` with ``passed``: both scalar checks hold and, where the
    plateaus were run, both final plateau values lie within 10% of 1."""
    report["passed"] = (report["scalar_geometric_renewal_error"] < 1e-9
                        and report["scalar_tail_convolution_error"] < 0.1
                        and all(0.9 <= report.get(key, 1.0) <= 1.1
                                for key in ("sqrt_n_Tn_final", "rn_tail_final")))
    return report


def convergence_suite(model: OscillatingModel, horizon: int = 4096,
                      window: Optional[Window] = None) -> dict:
    """Operator-renewal convergence diagnostics for a recurrent-switch model.

    On a model with a centered side whose switching chain switches forever
    (``DriftCase.centered_side`` and ``markovian``), checks the
    sqrt(n)-rescaled switching-time marginals against the predicted plateau
    level and the renewal-tail sum against its ladder-constant limit; every
    model gets two synthetic scalar sanity checks of the machinery itself.
    A model :func:`regimes.classify` answers by its mirror is read off that
    mirror, as its C_y is.  The report's ``passed`` is the suite's verdict.
    """
    report = {}
    window = window or Window(-512, 512)

    # synthetic: geometric epoch law has t_n -> q (elementary renewal theorem),
    # run through the 1 x 1 band form of the recursion that T_n uses
    q = 0.3
    ns = np.arange(0, 513)
    qn = np.zeros(513)
    qn[1:] = q * (1 - q) ** (ns[1:] - 1)
    t = renewal_sequence(qn[:, None, None], qn[:, None, None])
    report["scalar_geometric_renewal_error"] = float(abs(t[512, 0, 0] - q))

    # synthetic: n^{3/2}-convolution limit  P(g) + P(G)
    a, b = 0.7, 1.3
    p_n = np.zeros(513)
    g_n = np.zeros(513)
    p_n[1:] = a * ns[1:] ** -1.5
    g_n[1:] = b * ns[1:] ** -1.5
    p_n[0], g_n[0] = 0.2, 0.1
    conv = np.convolve(p_n, g_n)[:513]
    predicted = p_n.sum() * b + a * g_n.sum()
    report["scalar_tail_convolution_error"] = float(
        abs(512 ** 1.5 * conv[512] - predicted) / predicted)

    case = model.drift_case
    if not case.markovian:
        return _with_convergence_verdict(report)
    if classify(model).mirrored:   # (Z,N): read off its (P,Z) mirror, as C_y is
        report = convergence_suite(mirror_model(model), horizon, Window(-window.hi, -window.lo))
        return {**report, "renewal_tail_parts": {"left": report["renewal_tail_parts"]["right"]}}
    if case.centered_side and horizon < 64:
        raise ValidationError(f"horizon {horizon} is below 64, the first plateau point")

    spectral = dominant_eigenpair(switching_kernel(model, window))
    nu = spectral.nu
    # renewal-tail parts sigma lambda / sqrt(2 pi) of the centered sides: their
    # sum is the limit of sqrt(n) sum_{j>n} r_j, and pi times it C_y's normaliser
    levels = centered_tail_levels(model, nu, window)
    report["renewal_tail_parts"] = {side: tail_normaliser(model, {side: lam}) / math.pi
                                    for side, lam in levels.items()}
    if case.centered_side:
        bold_c = report["bold_c"] = tail_normaliser(model, levels)
        ns = [64 << k for k in range((horizon // 64).bit_length())]   # 64, 128, ... <= horizon
        # T_n(0, 0), read at the band column of the origin
        T = switching_time_marginals(model, [0], horizon, window)[:, 0, -arrival_band(model)[0]]
        nu0 = float(nu[window.index(0)])
        report["sqrt_n_Tn_plateau"] = [(n, float(math.sqrt(n) * T[n] * bold_c / nu0)) for n in ns]

        # tail of r_n: sqrt(n) * sum_{j>n} r_j  ->  bold_c / pi
        rows = [int(x) for x in window.positions()
                if nu[window.index(int(x))] > 1e-10 and abs(int(x)) <= 4 * model.max_jump]
        survival = build_Q(model, horizon, window, rows=rows).survival
        weights = [float(nu[window.index(x)]) for x in rows]
        tails = [sum(w * float(survival[i, n]) for i, w in enumerate(weights)) for n in ns]
        report["rn_tail_plateau"] = [(n, math.sqrt(n) * s / (bold_c / math.pi))
                                     for n, s in zip(ns, tails)]
        report["sqrt_n_Tn_final"] = report["sqrt_n_Tn_plateau"][-1][1]
        report["rn_tail_final"] = report["rn_tail_plateau"][-1][1]
    return _with_convergence_verdict(report)


# ---------------------------------------------------------------------------
# Asymptotics check
# ---------------------------------------------------------------------------

def asymptotics_fit_window(horizon: int) -> tuple[int, int]:
    """The fit window [max(64, N/8), N] of :func:`asymptotics_suite`.  A
    horizon below 127, whose window holds fewer than ``MIN_FIT_POINTS``
    steps, is refused."""
    fit_window = (max(64, horizon // 8), horizon)
    if (points := horizon - fit_window[0] + 1) < MIN_FIT_POINTS:
        raise ValidationError(f"horizon {horizon} leaves {max(points, 0)} steps in the fit "
                              f"window [{fit_window[0]}, {horizon}], below the "
                              f"{MIN_FIT_POINTS} a fit needs: use -n 127 or more")
    return fit_window


def asymptotics_suite(model: OscillatingModel, horizon: int = 4096,
                      window: Optional[Window] = None) -> dict:
    """The DP's P_0[X_n = 0] against :func:`regimes.classify`'s prediction.

    Fits rate and exponent over :func:`asymptotics_fit_window`, which
    refuses a short horizon before the DP runs, discarding points the
    :func:`effective_leak` at the predicted rate could dominate.  ``passed``:
    the fitted rate is within 1e-3 of the predicted one and the exponent
    within 0.15 (predicted exponent >= 1) or 0.05 (below 1).  ``window``
    defaults to :func:`evolve.default_window`.
    """
    fit_window = asymptotics_fit_window(horizon)
    pred = classify(model)
    table = marginal_sequence(model, 0, 0, horizon, window)
    fit = fit_rate_exponent(table.data["log_values"],
                            leaks=effective_leak(table, model, rate=pred.rate),
                            fit_window=fit_window)
    exp_tol = 0.15 if pred.exponent >= 1.0 else 0.05
    return {"predicted": pred.report(), "fit": asdict(fit),
            "passed": fit.matches(pred.rate, pred.exponent, 1e-3, exp_tol)}
