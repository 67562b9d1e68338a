"""The switching subprocess: kernels Q_n, renewal operators T_n, spectra.

The embedded chain observed at medium-change times has kernel
Q(x,y) = P_x[first switch lands at y].  Its per-step decomposition {Q_n},
the renewal-operator sequence T_n, the dominant eigenpair on a weighted sup
norm and the limit operator E of n^{3/2} Q_n are all built here on a finite
window.

Aggregate kernels are obtained from killed-walk Green solves by
characteristic roots (exact within the window, no time truncation); per-step
histories come from the DP in :mod:`oscillax.evolve` and carry explicit
survival/leak accounting.  Both keep only the arrival-band columns: Q(x, .)
charges no other site.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NoConvergence, ValidationError
from .evolve import (
    StepKernels,
    Window,
    _advance,
    _band,
    _zeros,
    block_steps,
    check_size,
    check_work,
    first_passage_rows,
    passage_operator,
    powers,
    walk_plan,
)
from .ladder import SQRT_2PI, LadderVariant, centered_sides, killed_green
from .model import (
    OscillatingModel,
    argmin_laplace,
    arrival_band,
    common_denominator,
    essential_class,
    is_own_mirror,
)

# ---------------------------------------------------------------------------
# Weighted norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Weight function for the weighted-sup functional norm.

    polynomial:   psi(x) = 1 + |x|^(1+delta)
    exponential:  psi(x) = exp(rate_neg |x|) for x <= 0, exp(rate_pos x) else
    """

    kind: str = "polynomial"
    delta: float = 0.5
    rate_neg: float = 0.0
    rate_pos: float = 0.0

    def check_delta(self, name: str = "delta") -> None:
        """Refuse a non-finite delta, and a polynomial one <= 0, in one
        ValidationError naming ``name``; an exponential delta <= 0 is kept,
        its rates being checked with the weight's values."""
        if not math.isfinite(self.delta) or self.kind == "polynomial" and self.delta <= 0:
            raise ValidationError(f"{name} {self.delta!r} must be finite, and > 0 for the "
                                  "polynomial weight 1 + |x|^(1+delta) to dominate 1 + |x|")

    def values(self, window: Window) -> np.ndarray:
        self.check_delta()
        xs = window.positions().astype(float)
        if self.kind == "polynomial":
            psi = 1.0 + np.abs(xs) ** (1.0 + self.delta)
        elif self.kind == "exponential":
            with np.errstate(over="ignore"):   # overflow is reported below
                psi = np.where(xs <= 0, np.exp(self.rate_neg * np.abs(xs)),
                               np.exp(self.rate_pos * xs))
        else:
            raise ValidationError(f"unknown weight kind {self.kind!r}")
        if not np.all(np.isfinite(psi)):
            raise ValidationError(
                f"{self!r} overflows on window [{window.lo}, {window.hi}]: "
                f"{int(np.sum(~np.isfinite(psi)))} of {psi.size} values are not finite")
        if not np.all(psi >= 1.0):
            raise ValidationError("weight must be >= 1 everywhere")
        # must dominate 1 + |x| at the window ends (compact inclusion heuristic)
        for edge in (0, -1):
            if psi[edge] <= 1.0 + abs(xs[edge]):
                raise ValidationError("weight fails to dominate 1 + |x| at the edge")
        return psi


def default_weight(model: OscillatingModel, delta: Optional[float] = None,
                   kind: str = "auto") -> WeightSpec:
    """The weight of ``kind``: polynomial psi(x) = 1 + |x|^(1+delta), delta
    0.5 by default, or exponential psi(x) = exp((|lambda'| + delta)|x|) for
    x <= 0 and exp((|lambda| + delta) x) else, delta 0.1 by default.
    ``auto`` is exponential when no outer law is centered and one drifts
    away from the interface ((N,P), (P,P), (N,N)), polynomial otherwise."""
    if kind == "auto":
        case = model.drift_case
        kind = "polynomial" if case.markovian or case.centered_side else "exponential"
    if kind == "polynomial":
        return WeightSpec("polynomial", 0.5 if delta is None else delta)
    if kind != "exponential":
        raise ValidationError(f"unknown weight kind {kind!r}")
    d = 0.1 if delta is None else delta
    lam, _ = argmin_laplace(model.left)
    lamp, _ = argmin_laplace(model.right)
    return WeightSpec("exponential", d, rate_neg=abs(lamp) + d, rate_pos=abs(lam) + d)


# ---------------------------------------------------------------------------
# Aggregate kernel by resolvent solves
# ---------------------------------------------------------------------------

@dataclass
class SwitchingKernel:
    """Aggregate switching kernel on a window, kept in factored form Q = R S_B.

    Q(x, .) is nonzero only on the arrival band B = [band[0], band[1]], so the
    kernel is stored as its band columns R (width x B); S_B selects the band.
    The rows of R at the band sites form the B x B block C, and the nonzero
    spectrum of Q is the spectrum of C.
    """

    window: Window
    R: np.ndarray           # (width, B): R[i, j] = Q(window.lo + i, band[0] + j)
    band: tuple[int, int]   # columns that can be hit
    defect: np.ndarray      # 1 - row sums (escape probability + window truncation)
    model: OscillatingModel

    @property
    def band_rows(self) -> slice:
        """Window indices of the band sites: the rows of R that form C."""
        return slice(self.window.index(self.band[0]), self.window.index(self.band[1]) + 1)

    @property
    def C(self) -> np.ndarray:
        """The B x B block Q restricted to the band (a view into R)."""
        return self.R[self.band_rows]

    @property
    def markovian(self) -> bool:
        return self.model.drift_case.markovian


def switching_kernel(model: OscillatingModel, window: Window) -> SwitchingKernel:
    """Assemble the band columns R of the aggregate kernel Q(x, y), every x.

    Each medium of the model gives its rows G(x, y) = sum_{n>=1} Q_n(x, y)
    by one :func:`killed_green` solve of (I - A) G = B, where A is its
    :func:`passage_operator`'s kernel on the survival segment and B the
    one-step arrivals of its band rows: exact in n, window-truncated in space
    on an unbounded medium, with that O(1/window) error
    Richardson-extrapolated, and tiny negative artifacts clipped.  Memory is
    O(width * B); no width x width array is formed.
    """
    window.check_margin(model)
    band_lo, band_hi = arrival_band(model)
    check_size((window.width, band_hi - band_lo + 1))
    R = np.zeros((window.width, band_hi - band_lo + 1))
    for m in model.media:
        op = passage_operator(m, window, steps=1)
        (sl, sh), (bl, bh) = op.sites, op.band
        G = killed_green(m, window, op.dense(op.band_rows).T)
        R[window.index(sl): window.index(sh) + 1, bl - band_lo: bh - band_lo + 1] = G
    defect = 1.0 - R.sum(axis=1)
    return SwitchingKernel(window, R, (band_lo, band_hi), defect, model)


# ---------------------------------------------------------------------------
# Per-step history and renewal operators
# ---------------------------------------------------------------------------

def build_Q(
    model: OscillatingModel,
    horizon: int,
    window: Window,
    rows: Optional[Sequence[int]] = None,
    exact: bool = False,
) -> StepKernels:
    """Per-step switching kernels Q_n(x, .) for ``rows`` (default: the essential class).

    Rows keep the requested order.  Each medium of the model gives its
    rows by one batched :func:`first_passage_rows` DP, written at that
    medium's band columns.  A row outside the window raises ValidationError.
    An exact record holds integer numerators over D**n, D the common
    denominator of the model's laws.
    """
    window.check_margin(model)
    rows = list(dict.fromkeys(essential_class(model) if rows is None else rows))
    band = arrival_band(model)
    shape = (horizon + 1, len(rows), band[1] - band[0] + 1)
    # exact: integer numerators over D**n, D of the whole model
    D = common_denominator(*model.laws) if exact else 1
    check_size(shape, D=D, horizon=horizon)
    R = _zeros(shape, exact)
    survival, leak = (_zeros((len(rows), horizon + 1), exact) for _ in range(2))
    where = model.medium_index(np.array(rows, dtype=int))
    for k, m in enumerate(model.media):
        idx = np.flatnonzero(where == k)
        fp = first_passage_rows(m, [rows[i] for i in idx], horizon, window, exact)
        if exact:   # from the law's D**n to the model's
            up = powers(D // fp.D, horizon)
            fp.R, fp.survival, fp.leak = fp.R * up[:, None, None], fp.survival * up, fp.leak * up
        R[:, idx, fp.band[0] - band[0]: fp.band[1] - band[0] + 1] = fp.R
        survival[idx], leak[idx] = fp.survival, fp.leak
        del fp   # freed before the next medium's DP runs
    return StepKernels(rows, band, R, survival, leak, D=D)


def renewal_sequence(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Band columns of T_n = sum_{l>=1} Q^(l)_n by T_n = R_n + sum_{k<n} T_{n-k} C_k.

    ``R`` is an (N+1, rows, B) stack of per-step band columns and ``C`` the
    (N+1, B, B) block of its band rows, as in :class:`StepKernels` (index 0
    of both is ignored).  The identity T_0 is not a band operator, so T[0]
    is 0.  The recursion is homogeneous in D^n, so on the integer numerators
    of an exact history it gives those of T_n over D^n.  Quadratic in the
    horizon; the long-horizon route is :func:`switching_time_marginals`.
    """
    T = np.zeros_like(R)
    for n in range(1, len(R)):
        T[n] = R[n] + (T[n - 1:0:-1] @ C[1:n]).sum(axis=0)
    return T


def banded_power_sequences(model: OscillatingModel, horizon: int, window: Window,
                           ells: Sequence[int],
                           rows: Optional[Sequence[int]] = None) -> dict:
    """Band columns of the kernel powers Q^(ell)_n, n = 0..N, for each ell in ``ells``.

    Q_n has nonzero columns only on the arrival band B, so each power is
    returned as an (N+1, rows, B) array, under its ell, plus band info under
    key 'band' and {x: row index} under 'rows'.  ``rows`` (default: every
    window site) are the output rows, sorted, with the band rows always
    added; a row outside the window raises ValidationError.  ``ells`` must
    be integers >= 1.  Every power ell <= L = max(ells) comes from one
    backward recurrence on the first step of the walk over the whole window,
    :func:`_first_step_powers`, O(N * W * L * B) whatever the rows: it sums
    only nonnegative terms, so no entry is negative and Q^(ell)_n is exactly
    0 for n < ell.  The outputs, the recurrence's (2, W, L * B) state and its
    work are checked before anything is allocated.
    """
    asked = list(ells)
    bad = [e for e in asked if isinstance(e, bool) or not isinstance(e, (int, np.integer))
           or e < 1]
    if bad or not asked:
        raise ValidationError(f"ells must be integers >= 1, not {bad}" if bad else
                              "ells is empty: no power to compute")
    ells = sorted({int(e) for e in asked})
    L = max(ells)
    window.check_margin(model)
    band_lo, band_hi = arrival_band(model)
    B = band_hi - band_lo + 1
    rows = sorted(set(range(window.lo, window.hi + 1) if rows is None else rows)
                  | set(range(band_lo, band_hi + 1)))
    keep = np.array([window.index(x) for x in rows])   # the output rows' window indices
    check_size((len(ells), horizon + 1, len(rows), B))
    check_size((2, window.width, L * B), lower="max(ells) or the window")
    check_work(horizon, window.width * L * B, lower="the horizon, max(ells) or the window")
    out = {ell: np.empty((horizon + 1, len(rows), B)) for ell in ells}
    _first_step_powers(model, window, horizon, L,
                       slice(None) if len(rows) == window.width else keep, out)
    return {"band": (band_lo, band_hi), "rows": {x: i for i, x in enumerate(rows)}, **out}


def _first_step_powers(model: OscillatingModel, window: Window, horizon: int, L: int, keep,
                       out: dict) -> None:
    """Fill each ``out[ell]``, 1 <= ell <= L, an (N+1, rows, B) array, with
    Q^(ell)_n(x, .) for the window sites x at indices ``keep``, from the
    walk's first step:

        Q^(ell)_n(x, y) = sum_{x' in x's medium} P(x, x') Q^(ell)_{n-1}(x', y)
                          + sum_{z in another medium} P(x, z) Q^(ell-1)_{n-1}(z, y),

    Q^(0)_n being the identity at n = 0 and 0 after, so that layer 1 takes
    the crossing jumps P(x, y) at n = 1 only.  Every crossing lands on the
    arrival band, so layer ell >= 2 reads the band rows of layer ell - 1 one
    step back.  The state holds layers 1..L side by side, (W, L B), for
    every window site; a step is one batched band product with the one-step
    kernel of :func:`walk_plan`, its crossing jumps removed, plus the
    crossing jumps of the few rows that can cross.  Every term is >= 0, so
    no entry is negative, and layer ell is exactly 0 before step ell.
    Nothing is flushed: drifted laws leave subnormal entries past N = 4096
    on a 129-site window, but on states this small they slow a step by a
    few percent only.
    """
    op = walk_plan(model, window, steps=1)
    P, lo = _band(op, float, transpose=True)   # P[i, d] = P(x, x + lo + d), x = window.lo + i
    cross = op.rows >= op.band_rows.start      # a jump out of its medium, onto the band
    src, land = op.cols[cross], op.rows[cross] - op.band_rows.start
    bands = slice(op.band[0] - window.lo, op.band[1] - window.lo + 1)
    B = bands.stop - bands.start
    P[src, bands.start + land - src - lo] = 0.0
    x0, x1 = int(src.min()), int(src.max()) + 1
    X = np.zeros((x1 - x0, B))   # X[i, j] = P(window.lo + x0 + i, band[0] + j), a crossing
    X[src - x0, land] = op.vals[cross]
    span = P.shape[1] - 1
    # two states, each -lo zero rows above and span + lo below, so that row i
    # of the band product reads its span + 1 rows as one window; step n
    # writes state n % 2
    bufs = np.zeros((2, window.width + span, L * B))
    states = bufs[:, -lo:window.width - lo]
    windows = sliding_window_view(bufs, span + 1, axis=1)
    kernel = P[:, :, None]
    # per parity of n, the views a step reads and writes
    plan = [(windows[1 - k], states[k][:, :, None], states[k][x0:x1, B:],
             states[1 - k][bands, :-B],
             [(a, states[k][:, (ell - 1) * B:ell * B]) for ell, a in out.items()])
            for k in (0, 1)]
    term = np.empty_like(plan[0][2])
    states[1][x0:x1, :B] = X   # step 1: the crossings, into layer 1 only
    for a in out.values():
        a[0] = 0.0
    for n in range(1, horizon + 1):
        old, new, new_rest, old_band, layers = plan[n % 2]
        if n > 1:
            np.matmul(old, kernel, out=new)
            new_rest += np.matmul(X, old_band, out=term)
        for a, layer in layers:
            a[n] = layer[keep]


def switching_time_marginals(model: OscillatingModel, xs: Sequence[int], horizon: int,
                             window: Window) -> np.ndarray:
    """Band columns of T_n(x, .), n = 0..horizon, x in ``xs``, by DP on the full walk.

    A step is a switching time exactly when the walk changes medium, so
    T_n(x, z) is the probability that the step into time n crosses media and
    lands at z, which the band rows of :func:`walk_plan` read out.  Every
    crossing lands on the arrival band, so the result is the (N+1, rows, B)
    stack T[n, i, j] = T_n(xs[i], band[0] + j) of :func:`renewal_sequence`,
    with T[0] = 0.  Each start is a column of one DP state, run through the
    same products as alone (see :func:`_advance`) and counted by the work
    guard; this is the long-horizon route the renewal recursion is checked
    against.
    """
    window.check_margin(model)
    band_lo, band_hi = arrival_band(model)
    rows = np.size(xs)   # counted before xs is read, so that the guards come first
    check_size((horizon + 1, window.width), (horizon + 1, rows, band_hi - band_lo + 1))
    check_work(horizon, window.width * rows)
    window.index(band_lo), window.index(band_hi)   # the band lies in the window
    op = walk_plan(model, window, steps=block_steps(horizon))
    state = np.zeros((window.width, rows))
    state[[window.index(x) for x in xs], range(rows)] = 1.0
    T = np.zeros((horizon + 1, rows, band_hi - band_lo + 1))
    for ns, _, F, _ in _advance(op, list(op.band_rows), state, horizon):
        T[ns] = F.transpose(0, 2, 1)
    return T


# ---------------------------------------------------------------------------
# Spectral analysis
# ---------------------------------------------------------------------------

@dataclass
class SpectralData:
    rho_psi: float
    H: np.ndarray
    nu: np.ndarray
    residual: float
    defect: np.ndarray
    window: Window
    markovian: bool
    weight: WeightSpec

    def report(self) -> dict:
        return {
            "rho_psi": self.rho_psi,
            "residual": self.residual,
            "defect_max": float(np.max(self.defect)),
            "markovian": self.markovian,
            "weight": asdict(self.weight),
            "H": self.H.tolist(),
            "nu": self.nu.tolist(),
        }


def dominant_eigenpair(kernel: SwitchingKernel,
                       weight: Optional[WeightSpec] = None) -> SpectralData:
    """Dominant eigenpair (rho, H, nu) of Q = R S_B, exactly from the B x B block C.

    rho is the real eigenvalue of C with the largest real part: the Perron
    root, also for periodic kernels whose spectrum holds -rho.  The right
    eigenfunction is lifted off the band as H = R h_B / rho and normalized so
    sup H/psi = 1 in the weight ``psi`` (default :func:`default_weight`); the
    left eigenvector nu is C's, zero off B and summing to 1, and on a model
    that is its own mirror nu(-x) == nu(x) exactly.  ``residual`` is
    max_x |(Q H)(x) - rho H(x)| / psi(x).  Raises NoConvergence when rho <= 0
    or H is not positive; H(x) = 0 only where the row Q(x, .) is zero, as on
    far rows of a drifted medium whose return probability underflows.
    """
    window = kernel.window
    weight = weight or default_weight(kernel.model)
    psi = weight.values(window)
    R, C, band = kernel.R, kernel.C, kernel.band_rows
    vals, vecs = np.linalg.eig(C)
    k = int(np.argmax(vals.real))
    rho = float(vals[k].real)
    if not rho > 0.0:
        raise NoConvergence(f"switching kernel has no positive eigenvalue (rho = {rho:.3g})")
    h_band = vecs[:, k].real
    h_band *= np.sign(h_band.sum())   # eig fixes an eigenvector only up to sign
    H = R @ (h_band / rho)
    H /= np.max(H / psi)
    if not (np.all(H[band] > 0.0) and np.all(H >= 0.0)):
        raise NoConvergence(f"eigenfunction for rho = {rho:.17g} is not positive")
    lvals, lvecs = np.linalg.eig(C.T)
    nu_band = lvecs[:, int(np.argmin(np.abs(lvals - rho)))].real
    if is_own_mirror(kernel.model):   # then the band is symmetric, and so is nu, bit for bit
        nu_band = nu_band + nu_band[::-1]
    nu = np.zeros(window.width)
    nu[band] = nu_band / nu_band.sum()
    residual = float(np.max(np.abs(R @ H[band] - rho * H) / psi))
    return SpectralData(
        rho_psi=rho,
        H=H,
        nu=nu,
        residual=residual,
        defect=kernel.defect,
        window=window,
        markovian=kernel.markovian,
        weight=weight,
    )


# ---------------------------------------------------------------------------
# Limit operator of n^{3/2} Q_n
# ---------------------------------------------------------------------------

def limit_operator_E(model: OscillatingModel, window: Window) -> np.ndarray:
    """Pointwise limit E(x,y) of n^{3/2} Q_n(x,y) on the window, in band columns.

    Like Q_n, E charges only the arrival band, so it is returned as the
    (W, B) array E[i, j] = E(window.lo + i, band[0] + j), the layout of
    :attr:`SwitchingKernel.R`.  Blocks whose driving law is drifted vanish
    (their kernels decay geometrically, killing the polynomial term).  A
    centered side, in the left form of :func:`ladder.centered_sides`,
    contributes for a site x at distance d = theta - s x >= 1 and an arrival
    y = s (theta + k), k >= 0,
    (1/(sigma sqrt(2pi))) V_strict_asc(d) * sum_w V_weak_desc(w) mu(w + k).
    """
    band_lo, band_hi = arrival_band(model)
    xs = window.positions()
    E = np.zeros((window.width, band_hi - band_lo + 1))
    for _, law, pot, s, theta in centered_sides(model):
        rows = np.flatnonzero(theta - s * xs >= 1)
        toward = pot.V(LadderVariant.STRICT_ASC, theta - s * xs[rows])
        pmf = {int(v): float(p) for v, p in zip(law.values, law.probs)}
        ks = range(law.max_support)
        ws = range(1, law.max_support + 1)
        v_weak_desc = pot.V(LadderVariant.WEAK_DESC, np.array(ws))
        away = [sum(v * pmf.get(w + k, 0.0) for w, v in zip(ws, v_weak_desc)) for k in ks]
        cols = [s * (theta + k) - band_lo for k in ks]
        E[np.ix_(rows, cols)] = np.outer(toward, away) / (law.sigma * SQRT_2PI)
    return E


def limit_operator_E_ell(E: np.ndarray, kernel: SwitchingKernel, ell: int) -> np.ndarray:
    """E_ell = sum_{i=0}^{ell-1} Q^(i) E Q^(ell-1-i) with Q^(0) = I, in band columns.

    ``E`` is the (W, B) band-column form of :func:`limit_operator_E`.  Uses
    the factored powers Q^(i) = R C^(i-1) S_B, whose band rows are C^i, so
    no power of Q is formed.
    """
    R, C, band = kernel.R, kernel.C, kernel.band_rows
    # RC[i - 1] = R C^(i-1): the band columns of Q^(i), i >= 1
    RC = [R]
    for _ in range(ell - 2):
        RC.append(RC[-1] @ C)
    out = np.zeros_like(E)
    for i in range(ell):
        j = ell - 1 - i
        left = E if i == 0 else RC[i - 1] @ E[band]
        out += left if j == 0 else left @ RC[j - 1][band]
    return out
