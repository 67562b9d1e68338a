"""The switching subprocess: kernels Q_n, renewal operators T_n, spectra.

The embedded chain observed at medium-change times has kernel
Q(x,y) = P_x[first switch lands at y].  Its per-step decomposition {Q_n},
the renewal-operator sequence T_n, the dominant eigenpair on a weighted sup
norm, Doob transforms and exponentially tilted variants are all built here on
a finite window.

Aggregate kernels are obtained from banded resolvent solves (exact within the
window, no time truncation); per-step histories come from the DP in
:mod:`oscillax.evolve` and carry explicit survival/leak accounting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import scipy.fft

from .errors import ConventionMismatch, NoConvergence, ValidationError
from .evolve import (
    KernelTable,
    Side,
    TableKind,
    Window,
    _zeros,
    first_passage_rows,
    passage_regions,
    step,
)
from .ladder import SQRT_2PI, LadderVariant, centered_sides, killed_green
from .model import (
    ZERO_DRIFT_TOL,
    Convention,
    LatticeDist,
    OscillatingModel,
    argmin_laplace,
    arrival_band,
    essential_class,
    laplace,
    tilt,
    validate_model,
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

    def values(self, window: Window) -> np.ndarray:
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


def exponential_weight(model: OscillatingModel, delta: Optional[float] = None) -> WeightSpec:
    """psi(x) = exp((|lambda'| + delta)|x|) for x <= 0, exp((|lambda| + delta) x) else."""
    d = 0.1 if delta is None else delta
    lam, _ = argmin_laplace(model.left)
    lamp, _ = argmin_laplace(model.right)
    return WeightSpec("exponential", d, rate_neg=abs(lamp) + d, rate_pos=abs(lam) + d)


def default_weight(model: OscillatingModel, delta: Optional[float] = None) -> WeightSpec:
    """Polynomial weight for recurrent-type regimes, exponential for (N,P)/(P,P)/(N,N)."""
    if model.drift_case.value in ("(N,P)", "(P,P)", "(N,N)"):
        return exponential_weight(model, delta)
    return WeightSpec("polynomial", 0.5 if delta is None else delta)


# ---------------------------------------------------------------------------
# Aggregate kernel by resolvent solves
# ---------------------------------------------------------------------------

def passage_resolvent(
    dist: LatticeDist,
    side: Side,
    convention: Convention,
    window: Window,
) -> tuple[tuple[int, int], tuple[int, int], np.ndarray]:
    """G(x, y) = sum_{n>=1} Q_n(x, y) for every start x in the medium.

    Solves (I - A) G = B by :func:`killed_green`, where A is the walk
    restricted to the surviving segment and B the one-step arrival matrix;
    exact in n, window-truncated (and Richardson-refined) in space.  Returns
    ((seg_lo, seg_hi), (band_lo, band_hi), G).
    """
    bound, (band_lo, band_hi) = passage_regions(side, convention, dist)
    seg_lo, seg_hi = (window.lo, bound) if side is Side.FROM_NEGATIVE else (bound, window.hi)
    xs = np.arange(seg_lo, seg_hi + 1)
    B = np.zeros((xs.size, band_hi - band_lo + 1))
    for v, p in zip(dist.values, dist.probs):
        # direct arrivals x -> x + v into the band
        dest = xs + int(v)
        inside = (dest >= band_lo) & (dest <= band_hi)
        B[inside, dest[inside] - band_lo] += p
    return (seg_lo, seg_hi), (band_lo, band_hi), killed_green(dist, seg_lo, seg_hi, B)


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
        return (self.model.left.mean >= -ZERO_DRIFT_TOL
                and self.model.right.mean <= ZERO_DRIFT_TOL)


def switching_kernel(model: OscillatingModel, window: Window) -> SwitchingKernel:
    """Assemble the band columns R of the aggregate kernel Q(x, y), every x.

    Each medium's rows come from one :func:`passage_resolvent` solve, whose
    O(1/window) spatial-truncation error is Richardson-extrapolated and
    whose tiny negative artifacts are clipped.  The three-media origin row
    is the closed form mu0(y) / (1 - mu0(0)).  Memory is O(width * B); no
    width x width array is formed.
    """
    window.check_margin(model)
    band_lo, band_hi = arrival_band(model)
    R = np.zeros((window.width, band_hi - band_lo + 1))
    for dist, side in ((model.left, Side.FROM_NEGATIVE), (model.right, Side.FROM_POSITIVE)):
        (sl, sh), (bl, bh), G = passage_resolvent(dist, side, model.convention, window)
        R[window.index(sl): window.index(sh) + 1, bl - band_lo: bh - band_lo + 1] = G
    if not model.two_media:
        p0 = model.origin.pmf(0)
        i0 = window.index(0)
        for v, p in zip(model.origin.values, model.origin.probs):
            if v != 0:
                R[i0, int(v) - band_lo] = float(p) / (1.0 - p0)
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
) -> dict:
    """Per-step switching kernels Q_n(x, .) for selected rows.

    Returns {x: KernelTable(FIRST_PASSAGE)} in the order of ``rows``.  The
    rows of each medium come from one batched :func:`first_passage_rows` DP;
    for the origin row under the three-media convention the closed form
    Q_n(0, y) = mu0(0)^(n-1) mu0(y) is tabulated instead.  Mass accounting
    survival_n + sum_{k<=n} arrivals_k = 1 holds exactly per row.  A row
    outside the window raises ValidationError.
    """
    window.check_margin(model)
    if rows is None:
        rows = essential_class(model)
    rows = list(dict.fromkeys(rows))
    tables = first_passage_rows(model.left, Side.FROM_NEGATIVE, model.convention,
                                [x for x in rows if x <= model.convention.left_end],
                                horizon, window, exact)
    tables.update(first_passage_rows(model.right, Side.FROM_POSITIVE, model.convention,
                                     [x for x in rows if x >= 1], horizon, window, exact))
    if not model.two_media and 0 in rows:
        tables[0] = _origin_row(model, horizon, window, exact)
    return {x: tables[x] for x in rows}


def _origin_row(model: OscillatingModel, horizon: int, window: Window,
                exact: bool) -> KernelTable:
    """Closed-form Q_n(0, .) of the three-media origin: stay put, then jump."""
    p0 = model.origin.pmf_frac(0) if exact else model.origin.pmf(0)
    band = (model.origin.min_support, model.origin.max_support)
    bw = band[1] - band[0] + 1
    arrivals = np.empty((horizon + 1, bw), dtype=object if exact else float)
    arrivals[:] = Fraction(0) if exact else 0.0
    survival = np.empty(horizon + 1, dtype=object if exact else float)
    survival[0] = Fraction(1) if exact else 1.0
    acc = Fraction(1) if exact else 1.0
    for n in range(1, horizon + 1):
        for v in model.origin.values:
            if v != 0:
                p = model.origin.pmf_frac(int(v)) if exact else model.origin.pmf(int(v))
                arrivals[n, int(v) - band[0]] = acc * p
        acc = acc * p0
        survival[n] = acc
    return KernelTable(
        TableKind.FIRST_PASSAGE, window, horizon,
        {"arrivals": arrivals, "band": band, "survival": survival},
        leak=_zeros(horizon + 1, exact),
        meta={"x": 0, "closed_form": True, "exact": exact},
    )


def q_history_matrices(model: OscillatingModel, horizon: int, window: Window,
                       exact: bool = False) -> np.ndarray:
    """Dense (horizon+1, W, W) array of Q_n on a small window (tests/diagnostics)."""
    width = window.width
    if width > 256:
        raise ValidationError("full Q_n history is meant for small windows")
    Qn = np.zeros((horizon + 1, width, width)) if not exact else \
        np.full((horizon + 1, width, width), Fraction(0), dtype=object)
    hist = build_Q(model, horizon, window, rows=range(window.lo, window.hi + 1),
                   exact=exact)
    for x, table in hist.items():
        bl, bh = table.data["band"]
        arr = table.data["arrivals"]
        for n in range(1, horizon + 1):
            Qn[n, window.index(x), window.index(max(bl, window.lo)):
               window.index(min(bh, window.hi)) + 1] = \
                arr[n, max(bl, window.lo) - bl: (min(bh, window.hi)) - bl + 1]
    return Qn


def renewal_sequence(Qn: np.ndarray, horizon: Optional[int] = None) -> np.ndarray:
    """T_n by the renewal convolution recursion T_n = sum_k Q_k T_{n-k}, T_0 = I.

    ``Qn`` is the (N+1, W, W) per-step stack (Qn[0] ignored).  Quadratic in the
    horizon; intended for exactness tests and small diagnostics, the production
    path for long sequences is :func:`switching_time_marginals`.
    """
    N = horizon if horizon is not None else Qn.shape[0] - 1
    width = Qn.shape[1]
    T = np.zeros_like(Qn[: N + 1])
    eye = np.eye(width)
    if Qn.dtype == object:
        eye = np.full((width, width), Fraction(0), dtype=object)
        for i in range(width):
            eye[i, i] = Fraction(1)
    T[0] = eye
    for n in range(1, N + 1):
        acc = Qn[n].copy()
        for k in range(1, n):
            acc = acc + Qn[k] @ T[n - k]
        T[n] = acc
    return T


def banded_power_sequences(model: OscillatingModel, horizon: int, window: Window,
                           ells: Sequence[int], pad_factor: int = 4,
                           rows: Optional[Sequence[int]] = None) -> dict:
    """Q_n^{(ell)} exploiting the narrow arrival band of the switching kernel.

    Q_n has nonzero columns only on the arrival band B, so
    Q^{(ell)}(z) = R(z) C(z)^{ell-1} with R the (W x B) full kernel stack and
    C its band-restricted square; FFT over the time axis makes the whole family
    O(pad * N * W * B^2).  Returns {ell: (N+1, W, B) array} plus band info under
    key 'band'.  ``rows`` restricts the R stack (the output rows); the band
    rows themselves are always computed.
    """
    band_lo, band_hi = arrival_band(model)
    band = list(range(band_lo, band_hi + 1))
    if rows is None:
        rows = sorted(set(range(window.lo, window.hi + 1)))
    else:
        rows = sorted(set(rows) | set(band))
    hist = build_Q(model, horizon, window, rows=rows)
    B = len(band)
    row_index = {x: i for i, x in enumerate(rows)}
    R = np.zeros((horizon + 1, len(rows), B))
    for x, table in hist.items():
        bl, bh = table.data["band"]
        arr = table.data["arrivals"]
        for j, y in enumerate(band):
            if bl <= y <= bh:
                R[:, row_index[x], j] = arr[:, y - bl].astype(float)
    C = np.stack([R[:, row_index[y], :] for y in band], axis=1)
    M = pad_factor * horizon
    Rhat = scipy.fft.rfft(R, n=M, axis=0, workers=-1)
    Chat = scipy.fft.rfft(C, n=M, axis=0, workers=-1)
    out = {"band": (band_lo, band_hi), "rows": row_index}
    cpow = None
    for ell in range(1, max(ells) + 1):
        if ell == 1:
            prod = Rhat
        else:
            cpow = Chat if cpow is None else np.matmul(cpow, Chat)
            prod = np.matmul(Rhat, cpow)
        if ell in ells:
            # copy, so the result does not pin the pad_factor-times longer buffer
            out[ell] = scipy.fft.irfft(prod, n=M, axis=0, workers=-1)[: horizon + 1].copy()
    return out


def switching_time_marginals(model: OscillatingModel, x: int, horizon: int,
                             window: Window) -> np.ndarray:
    """T_n(x, .) for n = 0..horizon by direct DP on the full walk.

    A step is a switching time exactly when the walk changes medium, so
    T_n(x, z) is the probability that the step into time n crosses media and
    lands at z, which :func:`step` reads out.  One full-walk DP serves every
    n; this is the long-horizon route the renewal recursion is checked against.
    """
    window.check_margin(model)
    kernels = [d.dense_kernel() for d in (model.left, model.origin, model.right)]
    state = np.zeros(window.width)
    state[window.index(x)] = 1.0
    T = np.zeros((horizon + 1, window.width))
    T[0] = state  # T_0 = identity row
    for n in range(1, horizon + 1):
        state, _ = step(state, model, window, kernels, crossed=T[n])
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
    left eigenvector nu is C's, zero off B and summing to 1.  ``residual`` is
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


def doob_transform(Qn: np.ndarray, H: np.ndarray, rho_psi: float) -> np.ndarray:
    """Conjugate kernels by a positive eigenfunction: (1/rho) H^{-1} Q_n (H .).

    Accepts a single (W, W) matrix or an (N+1, W, W) stack; the n-summed
    transform of the aggregate kernel is markovian when (rho_psi, H) is the
    dominant eigenpair.
    """
    ratio = H[None, :] / H[:, None] / rho_psi
    if Qn.ndim == 2:
        return Qn * ratio
    return Qn * ratio[None, :, :]


# ---------------------------------------------------------------------------
# Tilted kernels (two-media transient machinery)
# ---------------------------------------------------------------------------

@dataclass
class TiltedKernels:
    """Per-step kernels of the per-side tilted walk with the geometric factor
    split off: Q_n(x,y) = R^n e^{t_ref (x-y)} Qtilde_n(x,y)."""

    Qn: np.ndarray           # (N+1, W, W)
    window: Window
    rate: float              # R = max of the two transform values
    r: float                 # min/max ratio, 1.0 when the transforms agree
    t_left: float
    t_right: float
    t_ref: float             # reference tilt (the side whose transform equals R)
    damped_side: Optional[str]   # 'left' | 'right' | None
    tilted_model: OscillatingModel


def tilted_kernels(
    model: OscillatingModel,
    t_left: float,
    t_right: float,
    horizon: int,
    window: Window,
) -> TiltedKernels:
    """Build the damped tilted kernel stack for a two-media model.

    Each side is tilted by its own parameter; the side with the smaller
    transform value picks up the geometric factor r^n and the cross factor
    e^{(t_other - t_ref)(x-y)} so that the original kernels factor exactly as
    R^n e^{t_ref(x-y)} Qtilde_n.  With t_left = t_right this reduces to the
    single-tilt construction.
    """
    if not model.two_media:
        raise ConventionMismatch("tilted kernels are defined for two-media models")
    La = laplace(model.left, t_left)
    Lb = laplace(model.right, t_right)
    R = max(La, Lb)
    if abs(La - Lb) <= 1e-12 * R:
        # balanced transforms (crossing or tangency branch): no damping at all
        r, t_ref, damped = 1.0, t_left, None
    elif La > Lb:
        r, t_ref, damped = Lb / La, t_left, "right"
    else:
        r, t_ref, damped = La / Lb, t_right, "left"
    left_t = tilt(model.left, t_left)
    right_t = tilt(model.right, t_right)
    tilted_model = validate_model(left_t, left_t, right_t, two_media=True)
    width = window.width
    Qn = np.zeros((horizon + 1, width, width))
    hist_left = build_Q(tilted_model, horizon, window,
                        rows=range(window.lo, 0 + 1))
    hist_right = build_Q(tilted_model, horizon, window,
                         rows=range(1, window.hi + 1))
    ns = np.arange(horizon + 1, dtype=float)
    damp = r ** ns
    for x, table in {**hist_left, **hist_right}.items():
        bl, bh = table.data["band"]
        arr = table.data["arrivals"]
        side = "left" if x <= 0 else "right"
        t_side = t_left if side == "left" else t_right
        for n in range(1, horizon + 1):
            row = arr[n]
            ys = np.arange(bl, bh + 1, dtype=float)
            factor = np.exp((t_side - t_ref) * (x - ys))
            if side == damped:
                factor = factor * damp[n]
            lo_c = max(bl, window.lo)
            hi_c = min(bh, window.hi)
            Qn[n, window.index(x), window.index(lo_c): window.index(hi_c) + 1] = (
                row[lo_c - bl: hi_c - bl + 1] * factor[lo_c - bl: hi_c - bl + 1]
            )
    return TiltedKernels(
        Qn=Qn, window=window, rate=R, r=r, t_left=t_left, t_right=t_right,
        t_ref=t_ref, damped_side=damped, tilted_model=tilted_model,
    )


# ---------------------------------------------------------------------------
# Limit operator of n^{3/2} Q_n
# ---------------------------------------------------------------------------

def limit_operator_E(model: OscillatingModel, window: Window) -> np.ndarray:
    """Pointwise limit E(x,y) of n^{3/2} Q_n(x,y) on the window.

    Blocks whose driving law is drifted vanish (their kernels decay
    geometrically, killing the polynomial term).  A centered side, in the
    left form of :func:`ladder.centered_sides`, contributes for a site x at
    distance d = theta - s x >= 1 and an arrival y = s (theta + k), k >= 0,
    (1/(sigma sqrt(2pi))) V_strict_asc(d) * sum_w V_weak_desc(w) mu(w + k).
    """
    xs = window.positions()
    blocks = []
    for _, law, pot, s, theta in centered_sides(model):
        rows = np.flatnonzero(theta - s * xs >= 1)
        toward = pot.V(LadderVariant.STRICT_ASC, theta - s * xs[rows])
        pmf = {int(v): float(p) for v, p in zip(law.values, law.probs)}
        ks = [k for k in range(law.max_support) if window.lo <= s * (theta + k) <= window.hi]
        away = [sum(pot.V(LadderVariant.WEAK_DESC, w) * pmf.get(w + k, 0.0)
                    for w in range(1, law.max_support + 1)) for k in ks]
        cols = [window.index(s * (theta + k)) for k in ks]
        blocks.append((rows, cols, np.outer(toward, away) / (law.sigma * SQRT_2PI)))
    E = np.zeros((window.width, window.width))
    for rows, cols, block in blocks:
        E[np.ix_(rows, cols)] = block
    return E


def limit_operator_E_ell(E: np.ndarray, kernel: SwitchingKernel, ell: int) -> np.ndarray:
    """E_ell = sum_{i=0}^{ell-1} Q^(i) E Q^(ell-1-i) with Q^(0) = I.

    Uses the factored powers Q^(i) = R C^(i-1) S_B, so no power of Q is formed.
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
        if j == 0:
            out += left
        else:
            out[:, band] += left @ RC[j - 1]
    return out
