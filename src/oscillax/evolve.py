"""Exact dynamic programming for the oscillating walk on a truncated window.

Everything here evolves probability vectors indexed by an integer window
[lo, hi].  Mass that steps outside the window is accumulated as *leak*, which
is a rigorous bound on the truncation error of every reported probability.
Every forward DP runs one engine, :func:`_advance`: a block of steps is one
batched matmul of a dense band of the block's kernel power over the sites
that hold mass (numpy only).  The kernel powers run a second, backward one,
the first-step recurrence ``switching._first_step_powers``.  A float DP
advances up to ``BLOCK`` steps a block, and sets every state entry below the
smallest normal double to 0 after each block, so that no product reads a
subnormal, and counts that mass as leak too.  A rational mode backs the
exact-identity tests: after n steps every mass is an integer over D**n (D =
``common_denominator`` of the laws), so the DP runs on Python-int numerators
(object arrays) with the integer weights p * D, one step a block and with no
flush, and returns them: an exact record's entry at step n means num / D**n,
its D is in ``KernelTable.meta["D"]`` or ``StepKernels.D`` (1 on a float
record), and its leak totals stay integers as leak_n = leak_{n-1} * D +
lost_n.  A float full-walk DP scales its state by powers of two, which
changes no rounding, so transient sequences stay representable far past the
underflow point of raw doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import ConventionMismatch, ValidationError, WindowTooSmall
from .model import Medium, OscillatingModel, arrival_band, common_denominator, mirror_dist

MAX_ARRAY_BYTES = 1 << 30   # largest single array any engine may allocate
MAX_WORK = 1 << 33   # most steps x sites x 64-bit words one DP may run
BLOCK = 16   # steps a float DP advances per band product
TINY = np.finfo(float).tiny   # smallest normal double; the float DP holds nothing below it


def block_steps(horizon: int, k: int = BLOCK) -> int:
    """Steps in the longest block of a float DP that runs ``horizon`` steps
    k at a time (k a power of two): min(k, 2**floor(log2 horizon))."""
    return min(k, 1 << max(horizon, 1).bit_length() - 1)


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if not (self.lo < 0 < self.hi):
            raise ValidationError(f"window [{self.lo}, {self.hi}] must straddle 0")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def index(self, pos: int) -> int:
        if not self.lo <= pos <= self.hi:
            raise ValidationError(f"position {pos} outside window [{self.lo}, {self.hi}]")
        return pos - self.lo

    def positions(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def check_margin(self, model: OscillatingModel):
        if self.width < 3 * model.max_jump:
            raise WindowTooSmall(
                f"window width {self.width} below 3x max jump {model.max_jump}"
            )


def default_window(model: OscillatingModel, horizon: int) -> Window:
    """Diffusive sizing: hi = -lo = max(64, 8 ceil(sqrt(N)) * max jump)."""
    half = max(64, 8 * math.ceil(math.sqrt(max(horizon, 1))) * model.max_jump)
    return Window(-half, half)


def check_size(*shapes, D: int = 1, horizon: int = 0,
               lower: str = "the horizon or the window") -> None:
    """Refuse a call whose largest shape would exceed MAX_ARRAY_BYTES; callers
    check before they allocate anything.  A shape is an array's, a DP's
    steps x sites (its work), or its operator's entries.  An entry takes 8
    bytes, and an exact one over D**horizon also its numerator's
    horizon * log2(D) bits.  The refusal advises to lower ``lower``, the
    inputs that size these shapes."""
    largest = max(shapes, key=math.prod)
    size = math.prod(largest) * (8 + math.ceil(horizon * math.log2(D) / 8))
    if size > MAX_ARRAY_BYTES:
        raise ValidationError(
            f"an array of shape {tuple(largest)} needs {size / 2**30:.3g} GiB, "
            f"over the {MAX_ARRAY_BYTES / 2**30:.3g} GiB limit: lower {lower}")


def check_work(horizon: int, sites: int, D: int = 1,
               lower: str = "the horizon or the window") -> None:
    """Refuse a DP of more than ``MAX_WORK`` steps x sites x words, called
    after :func:`check_size`: a word is 64 numerator bits, horizon * log2(D)
    / 64 of them an exact entry over D**horizon, 1 a float one.  The refusal
    advises to lower ``lower``, as :func:`check_size`'s does."""
    words = max(1, math.ceil(horizon * math.log2(D) / 64))
    if horizon * sites * words > MAX_WORK:
        raise ValidationError(
            f"{horizon} steps over {sites} sites at {words} words an entry are "
            f"{horizon * sites * words:.3g} word-steps, over the {MAX_WORK:.3g} "
            f"limit: lower {lower}")


@dataclass
class KernelTable:
    """Indexed family of per-step vectors/matrices plus tracked leak."""

    window: Window
    horizon: int
    data: dict
    leak: np.ndarray
    meta: dict = field(default_factory=dict)


def _zeros(shape, exact: bool):
    return np.zeros(shape, dtype=object if exact else float)


def powers(base, horizon: int) -> np.ndarray:
    """base**n for n = 0..horizon, one product at a time, as Python objects:
    with an int base D the denominators of a record over D, or the factors
    that move a record over D' to D' * D."""
    return np.cumprod(np.array([1] + [base] * horizon, dtype=object))


def _cumulate(lost: np.ndarray, D: int) -> np.ndarray:
    """leak_n = leak_{n-1} * D + lost_n along axis 0 of ``lost``, in place
    and returned: running totals of losses over D**n (D = 1 on a float run)."""
    if D == 1:
        return np.add.accumulate(lost, axis=0, out=lost)
    for n in range(1, len(lost)):
        lost[n] += lost[n - 1] * D
    return lost


@dataclass(frozen=True)
class WindowOperator:
    """One step on a run of ``width`` sites, as sparse triplets of E = [A; F].

    Column i is site ``sites[0] + i`` of the pre-step state.  Rows
    0..width-1 are A, the kernel kept on the sites; the readout rows F
    follow: ``below``, ``above`` (mass leaving the outer range), ``kept``
    (mass kept on the sites), then one row per site of ``band`` (mass landing
    there from another medium).  ``steps`` is the longest block
    :func:`_advance` takes with it.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sites: tuple[int, int]
    band: tuple[int, int]
    steps: int
    width = property(lambda self: self.sites[1] - self.sites[0] + 1)
    below = property(lambda self: self.width)
    above = property(lambda self: self.width + 1)
    kept = property(lambda self: self.width + 2)
    band_rows = property(lambda self: range(self.width + 3, self.width + 3 + max(
        0, self.band[1] - self.band[0] + 1)))

    def dense(self, rows: range) -> np.ndarray:
        """The ``rows`` of a float E as a dense (len(rows), width) array."""
        check_size((len(rows), self.width))
        m = (rows.start <= self.rows) & (self.rows < rows.stop)
        out = np.zeros((len(rows), self.width))
        np.add.at(out, (self.rows[m] - rows.start, self.cols[m]), self.vals[m])
        return out


def window_operator(media, sites, outer, band, exact: bool = False, scale: int = 1,
                    steps: int = BLOCK):
    """The :class:`WindowOperator` of ``media`` on ``sites`` = (lo, hi): each
    medium (a, b, law) steps the sites a..b (none if a > b) with ``law``
    (``exact`` and ``scale`` as in ``LatticeDist.dense_kernel``); a landing
    outside ``outer`` leaves it, and one on ``band`` outside its own medium is
    read out there.  The window geometry of every DP lives here, and so do
    its longest block, k = ``steps`` steps (see :func:`block_steps`), 1 if
    ``exact``, and the size guard of the arrays :func:`_advance` builds with
    those blocks, checked before anything is allocated: per site the bands
    of A and A^T, of the squarings up to A^k (k * span + 1 entries, span
    with the diagonal) with their padded copies and expanded bands, and a
    one-column state buffer; and per readout row k rows of a run, k * span
    + 1 entries wide but K for the kept-mass row."""
    (c, d), (e, f), (g, h) = sites, outer, band
    laws, K, k = [law for *_, law in media], d - c + 1, 1 if exact else steps
    span = max(0, *(law.max_support for law in laws)) - min(0, *(law.min_support for law in laws))
    check_size((((5 * k + 2) * span + 16) * K + k * (K + (max(h - g, -1) + 4) * (k * span + 1)),))
    parts = []   # (source, landing, probability, medium a, b) per jump
    for a, b, law in media:
        k_lo, kern = law.dense_kernel(exact, scale)
        v = np.flatnonzero(kern != 0)
        i = np.repeat(np.arange(a, b + 1), len(v))
        parts.append((i, i + np.tile(v + k_lo, b - a + 1), np.tile(kern[v], b - a + 1),
                      np.full(len(i), a), np.full(len(i), b)))
    i, j, p, a, b = (np.concatenate(x) for x in zip(*parts))
    on = (c <= j) & (j <= d)
    hits = ((j - c, on), (K, j < e), (K + 1, j > f), (K + 2, on),
            (K + 3 + j - g, (g <= j) & (j <= h) & ((j < a) | (j > b))))
    return WindowOperator(np.concatenate([np.broadcast_to(r, j.shape)[m] for r, m in hits]),
                          np.concatenate([i[m] - c for _, m in hits]),
                          np.concatenate([p[m] for _, m in hits]), (c, d), (g, h), k)


def walk_plan(model: OscillatingModel, window: Window, exact: bool = False, scale: int = 1,
              steps: int = BLOCK):
    """The :class:`WindowOperator` of the walk on the window: each medium of
    the model on its segment, mass leaving below lo or above hi, and band
    rows on the arrival band, where every crossing lands (``steps`` as in
    :func:`window_operator`)."""
    lo, hi = window.lo, window.hi
    bl, bh = arrival_band(model)
    return window_operator([(*m.segment(window), m.law) for m in model.media], (lo, hi),
                           (lo, hi), (max(bl, lo), min(bh, hi)), exact, scale, steps)


def _band(op: WindowOperator, dtype, transpose: bool = False):
    """(band, lo): the kernel A of ``op`` (or A^T) as a dense ``dtype`` band
    holding the diagonal, band[i, d] = A[i, i + lo + d], zero off the sites."""
    a = op.rows < op.width
    rows, cols = (op.cols[a], op.rows[a]) if transpose else (op.rows[a], op.cols[a])
    lo = int(min((cols - rows).min(initial=0), 0))
    band = np.zeros((op.width, max((cols - rows).max(initial=0), 0) - lo + 1), dtype)
    band[rows, cols - rows - lo] = op.vals[a]
    return band, lo


def _powers(band, lo, j: int):
    """(index, bands): row i of the band of A^(2^p), p = 0..log2(j), is
    bands[p][index[i]].  Row i of A^j reads the rows of A within (j - 1) *
    span of i, so each run of equal rows keeps its first and last (j - 1) *
    span + 1 and ``index`` sends the rest to the last of the first.  Row i
    of P @ P is band[i] times the (b, 2b - 1) view of P's band stored with b
    zeros after each row, which reads rows i + lo, .. each one place on."""
    K, b = band.shape
    new = np.concatenate(([True], np.any(band[1:] != band[:-1], axis=1)))
    at = np.arange(K)
    first = np.maximum.accumulate(np.where(new, at, 0))
    last = np.minimum.accumulate(np.where(np.append(new[1:], True), at, K)[::-1])[::-1]
    keep = np.minimum(at - first, last - at) <= (j - 1) * (b - 1)
    bands = [band[keep]]
    for p in range(j.bit_length() - 1):
        K, b = bands[-1].shape
        padded = np.zeros((K + b, 2 * b), band.dtype)
        padded[-lo << p:K - (lo << p), :b] = bands[-1]
        rows = as_strided(padded, (K, b, 2 * b - 1), (16 * b, 16 * b - 8, 8), writeable=False)
        bands.append(np.matmul(bands[-1][:, None], rows)[:, 0])
    return np.cumsum(keep) - 1, bands


def _held(empty) -> tuple[int, int]:
    """(first, last + 1) of the False entries of the 1-D bool ``empty`` as
    Python ints, (0, 0) if there is none."""
    first = int(empty.argmin())
    return (0, 0) if empty[first] else (first, len(empty) - int(empty[::-1].argmin()))


def _advance(op: WindowOperator, readouts, state, horizon: int):
    """Run ``state`` (sites first) through ``horizon`` steps of ``op``.

    The state advances in blocks of k = :func:`block_steps` (horizon,
    ``op.steps``) steps, then of the binary digits of horizon % k; an exact
    operator has ``steps`` 1.  A j-step block is one batched matmul of the
    dense band of A^j (:func:`_powers`) against windows of the zero-padded
    state, over the sites mass can reach from those that hold it, and per
    readout row one product of the state with its rows of F A^t (t < j, F
    the ``readouts`` rows of E), a dense run over the columns it reaches (a
    row with no entries reads 0 with no product).  Every array is in the
    state's dtype, so an object state of integers gets exact sums, and each
    state column runs through the same dot products whatever the others.  Yields (steps, state, F, lost) after each
    block: the slice of steps it ran, the state after them, which the caller
    may rescale in place, F[j] the readouts of step steps.start + j, applied
    to the state before that step, and the mass per state column flushed
    from a float state, or None if there was none (always on an object
    state): every float entry below the smallest normal double is set to 0
    after the block, as a multiply that reads a subnormal costs tens of
    normal ones.  The caller counts that mass as leak from step steps.stop on.
    """
    K, dtype, shape = op.width, state.dtype, state.shape
    (A, lo), k = _band(op, dtype), block_steps(horizon, op.steps)
    span = A.shape[1] - 1
    buf = np.zeros((state.size // K, K + k * span), dtype)   # per column: k * -lo zeros, K sites
    cur = buf[:, -k * lo:K - k * lo]
    cur[:] = state.reshape(K, -1).T
    r0, r1 = _held(~cur.any(axis=0))
    if k > 1:   # a one-step block reads none of these
        (index, powers), (AT, lo_t) = _powers(A, lo, k), _band(op, dtype, transpose=True)
    runs = []   # (first column, end, (F A^t)^T on the columns first..end - 1, t < k)
    for r in readouts:
        m = op.rows == r
        if not m.any():   # a row no jump reaches reads 0 at every step
            runs.append(None)
            continue
        a, b = op.cols[m].min(), op.cols[m].max()
        c0, c1 = max(a + (k - 1) * lo, 0), min(b + (k - 1) * (lo + span) + 1, K)
        G = np.zeros((k, c1 - c0), dtype)
        np.add.at(G[0], op.cols[m] - c0, op.vals[m])   # a column may repeat
        if k > 1:
            g = np.zeros(c1 - c0 + span, dtype)
            windows, AT_run = sliding_window_view(g, span + 1)[:, None], AT[c0:c1, :, None]
        for t in range(1, k):   # F A^t = F A^(t-1) A, a band product with A^T
            g[-lo_t:len(g) - span - lo_t] = G[t - 1]
            np.matmul(windows, AT_run, out=G[t, :, None, None])
        runs.append((c0, c1, G.T))
    blocks, n = {}, 0
    while n < horizon:
        j = min(k, 1 << (horizon - n).bit_length() - 1)
        if j not in blocks:   # the band of A^j and the windows each of its rows reads
            windows = sliding_window_view(buf[:, (j - k) * lo:(j - k) * lo + K + j * span],
                                          j * span + 1, axis=1)
            band = A if j == 1 else powers[j.bit_length() - 1][index]
            blocks[j] = band[:, :, None], windows[:, :, None]
        band, windows = blocks[j]
        F = np.zeros((len(readouts), len(buf), 1, j), dtype)
        for q, run in enumerate(runs):
            if run:
                c0, c1, GT = run
                np.matmul(cur[:, None, c0:c1], GT[:, :j], out=F[q])
        r0, r1 = max(r0 - j * (lo + span), 0), min(r1 - j * lo, K)   # the rest stay 0
        out = np.zeros(cur.shape, dtype)
        np.matmul(windows[:, r0:r1], band[r0:r1], out=out[:, r0:r1, None, None])
        n += j
        lost, sites = None, slice(r0, r1)
        live = out[:, sites]
        # an object state is never flushed; a float zero below TINY adds and keeps 0
        if dtype != object and live.min(initial=np.inf) < TINY:
            small = live < TINY
            lost = live.sum(axis=1, where=small).reshape(shape[1:])[()]
            np.copyto(live, 0.0, where=small)
            # the next block starts from the sites that hold mass
            h0, h1 = _held(small[0] if len(small) == 1 else small.all(axis=0))
            r0, r1 = (r0 + h0, r0 + h1) if h1 else (0, 0)
        yield (slice(n - j + 1, n + 1), out.T.reshape(shape),
               F.transpose(3, 0, 1, 2).reshape((j, len(readouts)) + shape[1:]), lost)
        cur[:, sites] = live


def marginal_sequence(
    model: OscillatingModel,
    x,
    y,
    horizon: int,
    window: Optional[Window] = None,
    exact: bool = False,
) -> KernelTable:
    """P_x[X_n = y] for n = 0..horizon with a certified leak bound.

    ``x`` and ``y`` are a start and a target, or equal-length sequences of
    them: the pairs then run as the columns of one DP state, each read out
    at its own target and scaled by its own power of two, and each array
    below, meta['x'], meta['y'] and meta['final_flush'] gain a last axis
    over the pairs.  A column runs through the same products as it does
    alone (see :func:`_advance`), so its entries equal its scalar call's.

    A float run stores the mass times 2**-shift, scaling the state up by a
    power of two (no rounding changes) after each block of steps that
    leaves it less than 1/2; data['log_values'] = log F + shift * log 2 stays
    finite far below the double range of data['values'].  The leak is the sum
    of data['leak_below'], data['leak_above'] and data['leak_underflow'], the
    mass the float state dropped below the smallest normal double (in mass
    units, from the first step that no longer sees it; 0 on an exact run).
    Two underflow terms are in no leak entry, and meta states each (both 0
    on an exact run):
    - meta['final_flush'], the last block's flush, which no step of the
      horizon sees: sum(data['final_state']) + leak[N] + final_flush = 1;
    - meta['unflushed_bound'], a bound on the product terms below 2**-1075
      that round to 0 inside a block's products, before any flush sees them:
      each loses at most 2**-1075, and a j-step block holds at most
      width * (j * (span + 3) + 1) of them (a row of the band of A**j has
      j * span + 1 nonzero entries, span the extreme jumps' distance, and
      each of the 3 readout runs, j rows, at most width).
    A run of more than ``MAX_WORK`` steps x sites x words is refused up
    front (a word is 64 numerator bits, horizon * log2(D) / 64 of them an
    exact entry, 1 a float one; sites count once per pair): 2**33, which the
    default 4096 exact steps of every shipped model fit under, and about 1.5
    minutes of exact or 20 s of float DP on a 2-core Xeon VM.
    An exact run returns integer numerators over D**n, D = meta['D'].
    """
    scalar = np.ndim(x) == 0
    xs, ys = ([x], [y]) if scalar else (list(x), list(y))
    if not 0 < len(xs) == len(ys):
        raise ValidationError(f"{len(xs)} starts against {len(ys)} targets")
    window = window or default_window(model, horizon)
    window.check_margin(model)
    # exact: integer numerators over D**n (see the module docstring)
    D = common_denominator(*model.laws) if exact else 1
    P = len(xs)
    check_size((horizon + 1, P), (window.width, P), D=D, horizon=horizon)
    check_work(horizon, window.width * P, D)
    ix, iy = [window.index(v) for v in xs], [window.index(v) for v in ys]
    op = walk_plan(model, window, exact, D, block_steps(horizon))
    state = _zeros((window.width, P), exact)
    state[ix, range(P)] = 1
    values = _zeros((horizon + 1, P), exact)
    values[0] = state[iy, range(P)]
    # leak by cause, below, above and underflow: per step while the DP runs (a
    # float run's below and above times 2**-shifts[n], its flushed mass in
    # mass units at the first step that no longer sees it), then totals
    sides = _zeros((horizon + 1, 3, P), exact)
    # float: the mass is the stored state times 2**shift, values[n] times 2**shifts[n]
    shift, shifts, flushed = np.zeros(P, dtype=int), np.zeros((horizon + 1, P), dtype=int), 0
    # readout rows: below, above, then each pair's target, which its column reads
    for ns, state, F, lost in _advance(op, [op.below, op.above, *iy], state, horizon):
        sides[ns, :2], shifts[ns] = F[:, :2], shift
        values[ns] = F[:, 2:].diagonal(axis1=1, axis2=2)
        flushed = 0 if lost is None else np.ldexp(lost, shift)
        if ns.stop <= horizon:
            sides[ns.stop, 2] = flushed
        # a float column below 1/2 is scaled up into [1/2, 1) (an empty one has e = 0)
        for c in range(P) if not exact else ():
            if (e := math.frexp((column := state[:, c]).sum())[1]) < 0:
                np.ldexp(column, -e, out=column)
                shift[c] += e
    if not exact:
        sides[:, :2] = np.ldexp(sides[:, :2], shifts[:, None])
    # leak totals: over D**n exact, in mass units float
    _cumulate(sides, D)
    leak = sides[:, 0] + sides[:, 1] + sides[:, 2]
    if exact:
        data = {"values": values, "final_state": state}
    else:
        with np.errstate(divide="ignore"):
            data = {"values": np.ldexp(values, shifts), "final_state": np.ldexp(state, shift),
                    "log_values": np.log(values) + shifts * math.log(2)}
    data.update(leak_below=sides[:, 0], leak_above=sides[:, 1], leak_underflow=sides[:, 2])
    meta = {"x": xs, "y": ys, "exact": exact, "D": D, "final_flush": [0] * P,
            "unflushed_bound": 0}
    if not exact:
        span = (max(law.max_support for law in model.laws)
                - min(law.min_support for law in model.laws))
        blocks = horizon // op.steps + bin(horizon % op.steps).count("1")   # see _advance
        terms = window.width * ((span + 3) * horizon + blocks)
        # rounded up: (terms + 1) // 2 smallest subnormals
        meta.update(final_flush=(np.zeros(P) + flushed).tolist(),
                    unflushed_bound=math.ldexp((terms + 1) // 2, -1074))
    if scalar:   # today's record of one pair: no pair axis
        data, leak = {k: v[..., 0] for k, v in data.items()}, leak[:, 0]
        meta.update({k: meta[k][0] for k in ("x", "y", "final_flush")})
    return KernelTable(window=window, horizon=horizon, data=data, leak=leak, meta=meta)


def passage_operator(medium: Medium, window: Window, exact: bool = False,
                     scale: int = 1, steps: int = BLOCK) -> WindowOperator:
    """The :class:`WindowOperator` of the medium's law killed on leaving the
    medium, read out on its arrival band; its ``sites`` are the medium's
    segment of the window.  Segment and band form one contiguous run, so a
    landing outside it has left the window (``steps`` as in
    :func:`window_operator`)."""
    (seg_lo, seg_hi), (band_lo, band_hi) = medium.segment(window), medium.band
    return window_operator([(seg_lo, seg_hi, medium.law)], (seg_lo, seg_hi),
                           (min(seg_lo, band_lo), max(seg_hi, band_hi)), (band_lo, band_hi),
                           exact, scale, steps)


@dataclass
class StepKernels:
    """Per-step first-passage kernels Q_n(x, .) of selected rows, on a band.

    Q_n(x, .) charges only the arrival band B = [band[0], band[1]], so the
    history is one (N+1, rows, B) stack R[n, i, j] = Q_n(rows[i], band[0] + j).
    survival[i, n] is the mass of row i still inside its medium after n
    steps, window leak counted as surviving, so survival_n + sum_{k<=n} R_k
    = 1, exactly in rational mode, where every entry at step n is an integer
    over D**n; leak[i, n] is the part that left the window or, in a float
    record, was flushed below the smallest normal double.
    ``states``, when kept, is the (N+1, rows, window width) history of the
    surviving mass, window-indexed and zero off the medium's segment.
    """

    rows: list[int]
    band: tuple[int, int]
    R: np.ndarray           # (N+1, rows, B)
    survival: np.ndarray    # (rows, N+1)
    leak: np.ndarray        # (rows, N+1)
    states: Optional[np.ndarray] = None   # (N+1, rows, window width)
    D: int = 1   # exact: entries at step n are integer numerators over D**n

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def C(self) -> np.ndarray:
        """The (N+1, B, B) block of the band rows, which must be among ``rows``."""
        return self.R[:, [self.rows.index(y) for y in range(self.band[0], self.band[1] + 1)]]


def first_passage_rows(
    medium: Medium,
    xs: Sequence[int],
    horizon: int,
    window: Window,
    exact: bool = False,
    keep_states: bool = False,
) -> StepKernels:
    """First-passage kernels Q_n(x, .) for every start x in ``xs``, in one DP.

    The walk with the medium's law runs on the medium's segment of the
    window and is killed on leaving the medium: mass that crosses into its
    arrival band is recorded as arrivals, mass that leaves the window is
    leak, and so is mass a float state drops below the smallest normal
    double (see :func:`_advance`).  All rows share one (segment x rows)
    state, run through the medium's :func:`passage_operator`; the DP stops
    once that state holds no mass.  A DP of more than ``MAX_WORK`` steps x
    rows x segment sites x words is refused up front (see
    :func:`check_work`).

    Returns the :class:`StepKernels` record of ``xs`` on the medium's arrival
    band; ``keep_states`` fills its ``states``.
    """
    xs = list(xs)
    (seg_lo, seg_hi), (band_lo, band_hi) = medium.segment(window), medium.band
    for x in xs:
        if x not in medium:
            raise ConventionMismatch(f"start {x} not in the medium of {medium}")
        if not seg_lo <= x <= seg_hi:
            raise ValidationError(f"start {x} outside the window segment [{seg_lo}, {seg_hi}]")
    rows, width = len(xs), seg_hi - seg_lo + 1
    band_w = max(0, band_hi - band_lo + 1)
    # exact: integer numerators over D**n (see the module docstring)
    D = common_denominator(medium.law) if exact else 1
    check_size((horizon + 1, rows, window.width if keep_states else band_w), (rows, width),
               D=D, horizon=horizon)
    check_work(horizon, rows * width, D)
    op = passage_operator(medium, window, exact, D, 1 if keep_states else block_steps(horizon))
    state = _zeros((width, rows), exact)
    for r, x in enumerate(xs):
        state[x - seg_lo, r] = 1
    arrivals = _zeros((horizon + 1, rows, band_w), exact)
    survival = _zeros((rows, horizon + 1), exact)   # the kept mass, until the end
    survival[:, 0] = 1
    leak = _zeros((rows, horizon + 1), exact)
    states = _zeros((horizon + 1, rows, window.width), exact) if keep_states else None
    seg = slice(seg_lo - window.lo, seg_hi - window.lo + 1)
    if keep_states:
        states[0, :, seg] = state.T
    # (an empty xs runs one product on zero rows and returns an empty record)
    readouts = [op.below, op.above, op.kept, *op.band_rows]
    flushed = []   # (n, mass per row) flushed from the state, lost from step n on
    for ns, state, F, lost in _advance(op, readouts, state, horizon):
        arrivals[ns] = F[:, 3:].transpose(0, 2, 1)
        leak[:, ns] = (F[:, 0] + F[:, 1]).T
        if lost is not None and ns.stop <= horizon:
            flushed.append((ns.stop, lost))
        survival[:, ns] = F[:, 2].T
        if keep_states:
            states[ns.start, :, seg] = state.T
        # an exact state holds nothing when it keeps no mass (an exact block is one step)
        if not (any(F[-1, 2]) if exact else np.any(state)):
            break
    for n, lost in flushed:
        leak[:, n] += lost
    _cumulate(leak.T, D)   # past a break nothing is lost, and the totals carry on
    survival[:, 1:] += leak[:, 1:]
    return StepKernels(xs, op.band, arrivals, survival, leak, states, D)


def excursion_functions(
    model: OscillatingModel,
    y,
    horizon: int,
    window: Window,
    exact: bool = False,
) -> KernelTable:
    """Final-excursion functions V_{n,y}(x) for all x in the window.

    V_{0,y} is the indicator of {y}; for n >= 1, V_{n,y}(x) is the probability
    that the walk started at x stays strictly inside y's medium for n steps and
    sits at y at time n (and 0 for x outside that medium).  An exact table
    holds integer numerators over D**n, D = meta['D'] of the law of y's medium.
    ``y`` may be a sequence of targets in one medium: they run as the rows of
    one reversed DP, and data['V'] is (N+1, targets, window width) and the
    leak (N+1, targets), each row equal to its target's scalar call.
    """
    window.check_margin(model)
    scalar = np.ndim(y) == 0
    ys = [y] if scalar else list(y)
    if not ys:
        raise ValidationError("no target")
    medium = model.media[model.medium_index(ys[0])]
    # V_{n,y}(x) is the mass at x of the reversed walk started at y and killed
    # on leaving the medium; mass it loses either way is reported as leak
    fp = first_passage_rows(replace(medium, law=mirror_dist(medium.law)), ys, horizon,
                            window, exact, keep_states=True)
    arrived = _cumulate(fp.R.sum(axis=2), fp.D)
    V, leak = fp.states, fp.leak.T + arrived
    if scalar:
        V, leak = V[:, 0], leak[:, 0]
    return KernelTable(window, horizon, {"V": V}, leak, meta={"y": y, "exact": exact, "D": fp.D})
