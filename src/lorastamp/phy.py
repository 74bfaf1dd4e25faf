"""LoRa chirp-spread-spectrum baseband signal model.

A chirp observed through an SDR front end mixes down to

    I(t) = (A/2) cos(Theta(t)),   Q(t) = (A/2) sin(Theta(t)),
    Theta(t) = (pi W^2 / 2^S) t^2 - pi W t + 2 pi delta t + theta,

with delta = delta_Tx - delta_Rx the relative frequency bias and
theta = theta_Tx - theta_Rx the unknown phase difference.  Traces are
stored as complex baseband: samples = I + jQ.  ``base_chirp_phase`` is
Theta for delta = theta = 0; every dechirp multiplies by its conjugate
phasor, ``dechirp_table``.  A dechirped chirp is a tone; ``spectrum`` alone
takes a spectrum on a uniform frequency grid, of a row or a block of rows,
as the FFT on the bin grid and a chirp-z elsewhere, for fbest and demod.

A frame is built from that one base chirp (Vangelista, IEEE SPL 2017):
preamble chirps are copies of it, SFD chirps its conjugate and payload
symbols its cyclic shifts, each a piece read from a whole multiple of 1/W.
``gen_frame`` reads the chirp from one table per lag class (sign and
sub-sample start) and link, ``_lag_table``, and every sample is one read
of it times its piece's phasor.  Every table in phy and fbest is built by
a ``functools.lru_cache(maxsize=TABLE_CACHE_SIZE)`` builder and returned
``read_only``.

Every module that reads numbers from a file (trace sidecars, profile logs,
scenario files) asks ``is_real``, ``is_finite_real`` and ``is_int`` what
counts as one.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_SAMPLE_RATE = 2.4e6  # Hz, the RTL-SDR convention used throughout

VALID_BANDWIDTHS = (125e3, 250e3, 500e3)

PREAMBLE_CHIRPS = 8
SFD_CHIRPS = 2.25
TABLE_CACHE_SIZE = 8  # geometries whose tables each table builder keeps
MAX_FRAME_SAMPLES = 2 ** 25  # SF12 at 2.4 Msps with a 416-symbol (255-byte) payload fits
GROUP_SAMPLES = 2 ** 13  # gen_frame's phasor group: samples its pieces' phasors are repeated over at once
_FLOAT_MAX = sys.float_info.max  # the bound of every number read from a file


class SignalError(ValueError):
    """Invalid signal parameters or degenerate input trace."""


def is_real(value) -> bool:
    """A real number of any size, NaN and the infinities among them, that is
    not a bool: JSON's true is no number, though Python reads it as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """An ``is_real`` number that a float holds finitely: False, raising
    nothing, for NaN, the infinities and an integer beyond float range."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


def is_int(value) -> bool:
    """An integer other than a bool, within float range as ``is_finite_real`` asks."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


@dataclass(frozen=True)
class PhyParams:
    """LoRa physical-layer configuration."""

    spreading_factor: int
    bandwidth_hz: float
    center_freq_hz: float = 869.75e6

    def __post_init__(self) -> None:
        if self.spreading_factor not in range(6, 13):
            raise SignalError(f"spreading factor must be in 6..12, got {self.spreading_factor}")
        if self.bandwidth_hz not in VALID_BANDWIDTHS:
            raise SignalError(f"bandwidth must be one of {VALID_BANDWIDTHS}, got {self.bandwidth_hz}")
        if not math.isfinite(self.center_freq_hz) or self.center_freq_hz <= 0:
            raise SignalError("center frequency must be positive and finite")

    @property
    def n_bins(self) -> int:
        return 2 ** self.spreading_factor

    @property
    def chirp_time(self) -> float:
        """Chirp duration 2^S / W in seconds."""
        return self.n_bins / self.bandwidth_hz

    @property
    def chirp_rate(self) -> float:
        """Frequency sweep rate W^2 / 2^S in Hz/s."""
        return self.bandwidth_hz ** 2 / self.n_bins

    @property
    def bin_width_hz(self) -> float:
        """Dechirp-FFT frequency resolution W / 2^S."""
        return self.bandwidth_hz / self.n_bins


@dataclass(frozen=True)
class TxParams:
    """Transmitter-side signal parameters."""

    fb_hz: float = 0.0          # delta_Tx
    phase_rad: float = 0.0      # theta_Tx, in [0, 2*pi)
    amplitude: float = 1.0      # A; the baseband envelope is A/2
    ramp_fraction: float = 0.0  # linear amplitude ramp over this fraction of chirp 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.phase_rad < 2 * math.pi):
            raise SignalError("phase must be in [0, 2*pi)")
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise SignalError("amplitude must be positive and finite")
        if not (0.0 <= self.ramp_fraction <= 1.0):
            raise SignalError("ramp_fraction must be in [0, 1]")
        if not math.isfinite(self.fb_hz):
            raise SignalError("transmitter frequency bias must be finite")


@dataclass(frozen=True)
class RxParams:
    """Receiver-side (SDR front end) parameters."""

    fb_hz: float = 0.0      # delta_Rx
    phase_rad: float = 0.0  # theta_Rx, in [0, 2*pi)

    def __post_init__(self) -> None:
        if not (0.0 <= self.phase_rad < 2 * math.pi):
            raise SignalError("phase must be in [0, 2*pi)")
        if not math.isfinite(self.fb_hz):
            raise SignalError("receiver frequency bias must be finite")


def mean_power(samples: np.ndarray) -> float:
    """Mean |x|^2 of 1-D complex128 ``samples``, 0.0 for none: one einsum pass, no BLAS, no copy."""
    v = samples[:, None].view(np.float64)  # rows (re, im), any stride: sums re^2 + im^2
    return float(np.einsum("ij,ij->", v, v)) / samples.size if samples.size else 0.0


@dataclass
class IQTrace:
    """Uniformly sampled complex baseband trace (I + jQ); sample k is at ``time_ns(k)``."""

    samples: np.ndarray
    sample_rate: float
    t0_ns: int = 0

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise SignalError("sample rate must be positive and finite")
        # a complex sample is finite when both of its parts are.  The energy
        # of the float64 view, one BLAS dot product with no bool array (vdot
        # warns on no overflow), is finite when every part is; only when it
        # is not (a NaN, an inf, or parts whose squares overflow) are the
        # parts checked one by one
        parts = self.samples.view(np.float64)
        if not math.isfinite(np.vdot(parts, parts)) and not np.isfinite(parts).all():
            raise SignalError("I/Q samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    def time_ns(self, k: int) -> int:
        """t0_ns + round(k 10^9 / fs) ns, halves up, for sample ``k``: exact, in Python ints."""
        num, den = float(self.sample_rate).as_integer_ratio()
        return self.t0_ns + _edge(int(k), 10 ** 9 * den, num)

    def times(self) -> np.ndarray:
        """Sample times in seconds relative to sample 0."""
        return np.arange(self.samples.size) / self.sample_rate

    def power(self) -> float:
        """Mean power per sample: ``mean_power`` of the samples."""
        return mean_power(self.samples)

    def copy(self) -> "IQTrace":
        return IQTrace(self.samples.copy(), self.sample_rate, self.t0_ns)


def base_chirp_phase(phy: PhyParams, t: np.ndarray) -> np.ndarray:
    """Base up-chirp phase pi K t^2 - pi W t (delta = 0, theta = 0) at local
    times ``t`` in seconds from the chirp start."""
    return math.pi * phy.chirp_rate * t ** 2 - math.pi * phy.bandwidth_hz * t


def read_only(table: np.ndarray) -> np.ndarray:
    """``table`` made read-only: a cached table is shared by all its callers."""
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def dechirp_table(phy: PhyParams, sample_rate: float, n: int) -> np.ndarray:
    """exp(-j Theta0(k / sample_rate)) for k = 0..n-1, Theta0 the base chirp
    phase: a chirp of FB delta times this table is a tone at delta.

    Built once per (phy, sample_rate, n) and kept, read-only, for the
    TABLE_CACHE_SIZE geometries used last.
    """
    return read_only(np.exp(-1j * base_chirp_phase(phy, np.arange(n) / sample_rate)))


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def chirp_layout(phy: PhyParams, sample_rate: float, chirps: tuple, stride: int) -> tuple:
    """``chirp_windows``'s (starts, size, first, end) in exact ints (``_edge``), kept for the last
    TABLE_CACHE_SIZE keys: chirp c starts at sample round(c fs T), its row holds
    size = round(fs T / stride) samples, both halves up, and the rows span [first, end)."""
    p, q = _unit_ratio(phy.bandwidth_hz, sample_rate)
    starts = tuple(_edge(u * phy.n_bins, p, q * d) for u, d in (float(c).as_integer_ratio() for c in chirps))
    size = _edge(phy.n_bins, p, q * stride)
    return starts, size, min(starts), max(starts) + stride * size


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def window_plan(phy: PhyParams, sample_rate: float, chirps: tuple, stride: int) -> tuple:
    """``chirp_windows``'s (grid, lagging, phasors) on ``chirp_layout``, kept for the last TABLE_CACHE_SIZE
    keys: grid row i indexes chirps[i] from the onset; lagging rows take phasors."""
    starts, size, _, _ = chirp_layout(phy, sample_rate, chirps, stride)
    exact = np.array(chirps, dtype=float) * (sample_rate * phy.n_bins / phy.bandwidth_hz)  # c fs T
    offsets, k = np.array(starts), stride * np.arange(size)
    grid = offsets[:, None] + k
    lagging = np.flatnonzero(offsets != exact)
    taus = (offsets[lagging] - exact[lagging]) / sample_rate
    phasors = np.exp(-2j * math.pi * phy.chirp_rate * taus[:, None] * (k / sample_rate))
    return tuple(map(read_only, (grid, lagging, phasors)))


def chirp_windows(trace: IQTrace, phy: PhyParams, onset: int, chirps, stride: int = 1) -> np.ndarray:
    """One row per chirp index c in ``chirps``, each on its chirp's own clock.

    Chirp c of a frame starting at sample ``onset`` begins at onset + c fs T
    (fs T = fs 2^S / W).  Its row, the caller's own, holds round(fs T / stride)
    samples, every ``stride``-th one, from onset + round(c fs T), both exact and
    halves up as ``gen_frame`` lays chirps (``chirp_layout``); tau = (round(c fs T)
    - c fs T) / fs into the chirp, a row with tau != 0 is derotated by exp(-j 2 pi
    K tau k stride / fs), K the chirp rate.  SignalError, before any array, for a
    rate below the 2 W synthesis keeps (``_check_rates``), a negative onset or
    a row outside the trace."""
    _check_rates(phy, trace.sample_rate)
    chirps = tuple(chirps)
    _, _, first, end = chirp_layout(phy, trace.sample_rate, chirps, stride)
    if onset < 0 or onset + first < 0 or onset + end > len(trace):
        raise SignalError(f"onset sample {onset} is negative or puts a window outside the trace")
    grid, lagging, phasors = window_plan(phy, trace.sample_rate, chirps, stride)
    if len(grid) == 1:  # one row: a basic slice
        row = trace.samples[None, onset + first:onset + end:stride]
        return row * phasors if lagging.size else row.copy()
    rows = trace.samples[onset + grid]
    if lagging.size:  # none at a whole number of samples per chirp, as at every 2 W decode
        rows[lagging] *= phasors
    return rows


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def chirpz_plan(n: int, fs: float, f0: float, step: float, m: int) -> tuple[np.ndarray, ...]:
    """``spectrum``'s chirp-z (pre-twiddle, kernel FFT, post-twiddle); the FFT length is the kernel's."""
    k = np.arange(max(n, m), dtype=float)
    w = np.exp(1j * (math.pi * step / fs) * k ** 2)
    nfft = _fast_len(n + m - 1)
    pre = np.exp(-2j * math.pi * f0 / fs * k[:n]) * w[:n].conj()
    kernel = np.fft.fft(np.concatenate([w[n - 1:0:-1], w[:m]]), nfft)
    return tuple(read_only(a) for a in (pre, kernel, w[:m].conj()))


def spectrum(y: np.ndarray, fs: float, f0: float, step: float, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """C(f) = sum_n y[n] exp(-j 2 pi f n / fs) at f = f0 + k*step for k = 0..m-1, along the last
    axis of ``y`` (a row or a block of rows), written to numpy's ``out`` when one is given.

    On the bin grid (f0 = 0, step m = fs, m >= n) it is np.fft.fft(y, m).  Elsewhere it is
    Bluestein's chirp-z: with nk = (n^2 + k^2 - (k - n)^2) / 2, the m points are one linear
    convolution of y[n] exp(-j pi (2 f0 n + step n^2) / fs) with the chirp exp(j pi step j^2 / fs),
    done by numpy.fft on a 2*3*5-smooth length.  All three chirp factors come from one table
    w[k] = exp(j pi step k^2 / fs), k < max(n, m): the kernel is w mirrored about lag 0, the
    pre-twiddle conj(w) times the linear f0 phasor, the post-twiddle conj(w).  It is exact for
    any m >= 1, also one point.  The twiddles and the kernel's FFT come from ``chirpz_plan``.
    """
    n = y.shape[-1]
    if f0 == 0 and step * m == fs and m >= n:
        return np.fft.fft(y, m, out=out)
    pre, kernel, post = chirpz_plan(n, fs, f0, step, m)
    conv = np.fft.ifft(np.fft.fft(y * pre, kernel.size) * kernel)
    return np.multiply(conv[..., n - 1:n - 1 + m], post, out=out)


def _check_rates(phy: PhyParams, sample_rate: float) -> None:
    if not math.isfinite(sample_rate) or sample_rate <= 0:
        raise SignalError("sample rate must be positive and finite")
    if sample_rate < 2 * phy.bandwidth_hz:
        raise SignalError(
            f"sample rate {sample_rate} below baseband Nyquist 2W = {2 * phy.bandwidth_hz}"
        )


def _unit_ratio(bandwidth_hz: float, sample_rate: float) -> tuple[int, int]:
    """(p, q) with fs / W = p / q samples per unit of 1/W, from the floats' exact ratios."""
    fs_num, fs_den = float(sample_rate).as_integer_ratio()
    w_num, w_den = float(bandwidth_hz).as_integer_ratio()
    return fs_num * w_den, fs_den * w_num


def _edge(units: int, p: int, q: int) -> int:
    """round(fs u / W), halves up, for u = ``units`` and fs / W = p / q: exact, in Python ints."""
    return (2 * units * p + q) // (2 * q)


def sample_edges(phy: PhyParams, sample_rate: float, units) -> np.ndarray:
    """round(fs u / W), halves up, for whole counts ``units`` of 1/W: the
    sample at which a frame piece u units in starts; a frame of U units has
    round(fs U / W) samples.  Exact: the rule ``_synthesize`` lays its pieces by."""
    p, q = _unit_ratio(phy.bandwidth_hz, sample_rate)
    return np.array([_edge(u, p, q) for u in np.asarray(units).tolist()])


def _frame_grid(phy: PhyParams, sample_rate: float, units: int) -> tuple[int, int]:
    """``_unit_ratio`` for a frame of ``units`` units of 1/W, once the sample
    rate is checked and the frame's round(fs units / W) samples are found to
    fit MAX_FRAME_SAMPLES: SignalError otherwise, before any array exists."""
    _check_rates(phy, sample_rate)
    p, q = _unit_ratio(phy.bandwidth_hz, sample_rate)
    total = _edge(units, p, q)
    if total > MAX_FRAME_SAMPLES:
        raise SignalError(f"a frame of {total} samples exceeds MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}")
    return p, q


def _phasors(turns: np.ndarray) -> np.ndarray:
    """exp(j 2 pi turns) in complex128 for long-double ``turns``, reduced in
    place to [-1/2, 1/2] before the cast to complex128 so that a large phase
    keeps its last bits."""
    turns -= np.rint(turns)
    out = np.multiply(turns, 2j * math.pi, dtype=np.complex128)
    return np.exp(out, out=out)


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _lag_table(n: int, bandwidth_hz: float, sample_rate: float,
               delta: float, sign: int, lag: int) -> np.ndarray:
    """exp(j (sign Theta0((i - lag / q) / fs) + 2 pi delta i / fs)) for
    0 <= i <= round(fs n / W), fs / W = p / q (``_unit_ratio``): the table
    of ``_synthesize``'s lag class (sign, lag) for a chirp of n = 2^S bins.

    The phase, (a i + b) i + c in turns, is evaluated in long double and
    reduced to one turn before the exponential (``_phasors``).  Built once
    per key and kept, read-only, for the TABLE_CACHE_SIZE keys used last:
    at most 8 x 1.26 MB at SF12, 2.4 Msps, as for ``dechirp_table``.
    """
    p, q = _unit_ratio(bandwidth_hz, sample_rate)
    ld = np.longdouble
    units_per_sample, offset = ld(bandwidth_hz) / ld(sample_rate), ld(lag) / ld(q)
    # sign u (u - n) / 2n + fb i for u = (i - offset) units_per_sample, as (a i + b) i + c
    a, beta = sign * units_per_sample ** 2 / (2 * n), -sign * units_per_sample / 2
    i = np.arange(_edge(n, p, q) + 1, dtype=ld)
    turns = a * i
    turns += beta - 2 * a * offset + ld(delta) / ld(sample_rate)
    turns *= i
    turns += (a * offset - beta) * offset
    return read_only(_phasors(turns))


def _synthesize(
    phy: PhyParams,
    tx: TxParams,
    rx: RxParams,
    sample_rate: float,
    grid: tuple[int, int],
    pieces: list[tuple[int, int, int]],
) -> IQTrace:
    """Common path: chirp pieces laid end to end, each a slice of its lag class's table.

    Piece (sign, shift, length) is the base up chirp (sign +1) or its
    conjugate, the down chirp (sign -1), read from local time shift / W
    for length / W, in whole units of 1/W; ``grid`` is ``_frame_grid``'s
    (p, q) for the pieces' total, so the rate and the length are checked.
    A piece starts at sample round(fs u / W), u the units before it
    (halves round up, ``_edge``), so a frame of U units has round(fs U / W)
    samples.  One walk over the pieces, in exact Python ints, gives each
    its length in samples, its base chirp's time 0 at sample c + e / q (c
    whole, e in [0, q)), its lag class (sign, e) and its carried chirp
    phase mod 2N, exact from Theta0(k / W) = pi k (k - N) / N.  Sample m of
    a piece is then table[m - c] times the piece's phasor, the table being
    ``_lag_table``'s for its class, asked for once per class and frame;
    pieces that start on whole samples share a class (at 2 W all do).  The
    phasor holds A/2, theta, the FB phase 2 pi delta c / fs and the
    carried phase.  The samples are one concatenation of table slices,
    multiplied in place by their pieces' phasors repeated per sample in
    groups of whole pieces of at most GROUP_SAMPLES samples (or one longer
    piece), so the output is the only frame-sized array.  A ramped head of
    round(ramp_fraction * fs * T) samples is multiplied in.  An FB whose
    chirp would alias, |delta| > (fs - W) / 2, raises SignalError first.
    """
    delta = tx.fb_hz - rx.fb_hz
    limit = (sample_rate - phy.bandwidth_hz) / 2
    if not abs(delta) <= limit:  # also NaN and an overflowing tx - rx
        raise SignalError(f"frequency bias {delta} Hz aliases at {sample_rate} samples/s: "
                          f"|FB| must be at most (fs - W) / 2 = {limit} Hz")
    p, q = grid
    n = phy.n_bins
    tables = {}  # the frame's lag classes (sign, e) -> table
    slices, lengths = [], []  # per piece: the table slice it reads, its samples
    firsts, carried = [], []  # per piece: c, and its carried chirp phase in turns (exact: mod 2N over 2N)
    groups = [(0, 0)]  # (first piece, first sample) of each multiplication group
    units = start = carry = group = 0  # carry: the chirp phase so far, in units of pi / N
    n2, p2, q2 = 2 * n, 2 * p, 2 * q
    for sign, shift, length in pieces:
        first, lag = divmod((units - shift) * p, q)
        units += length
        end = (units * p2 + q) // q2  # _edge(units, p, q)
        if end - group > GROUP_SAMPLES and start > group:
            groups.append((len(lengths), start))
            group = start
        if (sign, lag) not in tables:
            tables[sign, lag] = _lag_table(n, phy.bandwidth_hz, sample_rate, delta, sign, lag)
        slices.append(tables[sign, lag][start - first:end - first])
        lengths.append(end - start)
        fold = sign * shift * (shift - n)  # the phase of the piece's chirp at its shift
        firsts.append(first)
        carried.append((carry - fold) % n2 / n2)
        carry += sign * (shift + length) * (shift + length - n) - fold
        start = end
    groups.append((len(lengths), start))

    fb_turns = np.longdouble(delta) / np.longdouble(sample_rate)  # per sample
    gain = tx.amplitude / 2.0 * cmath.exp(1j * (tx.phase_rad - rx.phase_rad))
    phasors = gain * _phasors(np.multiply(firsts, fb_turns) + carried)
    samples = np.concatenate(slices)
    for (k0, m0), (k1, m1) in zip(groups, groups[1:]):
        samples[m0:m1] *= np.repeat(phasors[k0:k1], lengths[k0:k1])
    ramp_samples = min(round(tx.ramp_fraction * sample_rate * phy.chirp_time), start)
    if ramp_samples > 0:
        samples[:ramp_samples] *= np.arange(1, ramp_samples + 1) / ramp_samples
    return IQTrace(samples, sample_rate)


def gen_up_chirp(
    phy: PhyParams,
    tx: TxParams,
    rx: RxParams,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> IQTrace:
    """One preamble up chirp: frequency sweeps -W/2+delta to +W/2+delta."""
    n = phy.n_bins
    return _synthesize(phy, tx, rx, sample_rate, _frame_grid(phy, sample_rate, n), [(1, 0, n)])


def gen_frame(
    phy: PhyParams,
    tx: TxParams,
    rx: RxParams,
    payload_symbols: list[int] | np.ndarray = (),
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> IQTrace:
    """Full frame: 8 preamble up chirps, 2.25-down-chirp SFD, payload chirps.

    Each chirp is one or two pieces (sign, shift, length) of the base up
    chirp or of its conjugate, listed in plain Python: payload symbol k,
    the base chirp cyclically shifted by k bins, is read from local time
    k / W to its end, then from 0 for k / W (the wrap at the band edge;
    symbol 0 is one piece).  Phase is continuous across all pieces; total
    length is round(sample_rate * (10.25 + n_payload) * chirp_time)
    samples, checked against MAX_FRAME_SAMPLES from the payload's length
    alone, before any symbol is read or any piece listed.
    """
    n = phy.n_bins
    payload = np.asarray(payload_symbols)
    if payload.ndim != 1:
        raise SignalError(f"payload symbols must be a 1-D sequence, got shape {payload.shape}")
    grid = _frame_grid(phy, sample_rate, (PREAMBLE_CHIRPS + 2 + payload.size) * n + n // 4)
    pieces = [(1, 0, n)] * PREAMBLE_CHIRPS + [(-1, 0, n)] * 2 + [(-1, 0, n // 4)]
    for sym in payload.tolist():
        if not (isinstance(sym, (int, float)) and 0 <= sym < n and sym == int(sym)):
            raise SignalError(f"payload symbol {sym!r} is not a whole number in [0, {n})")
        k = int(sym)
        pieces += ((1, k, n - k), (1, 0, k)) if k else ((1, 0, n),)
    return _synthesize(phy, tx, rx, sample_rate, grid, pieces)


def add_awgn(
    trace: IQTrace,
    target_snr_db: float,
    rng_seed: int,
    signal_range: tuple[int, int] | None = None,
) -> IQTrace:
    """Add complex white Gaussian noise for a target SNR.

    The reference signal power is the ``mean_power`` of ``signal_range``
    (default: the whole trace).  ``target_snr_db = +inf`` is the no-noise
    sentinel; NaN and -inf are rejected.  Deterministic for a given seed.
    """
    if not len(trace):
        raise SignalError("cannot add noise to an empty trace")
    if target_snr_db == float("inf"):
        return trace.copy()
    if not math.isfinite(target_snr_db):
        raise SignalError(f"target SNR must be finite or +inf, got {target_snr_db}")
    seg = trace.samples[slice(*signal_range)] if signal_range else trace.samples
    if not seg.size:
        raise SignalError("empty signal range")
    noise_power = mean_power(seg) / 10.0 ** (target_snr_db / 10.0)
    rng = np.random.default_rng(rng_seed)
    sigma = math.sqrt(noise_power / 2.0)
    noise = rng.normal(0.0, sigma, len(trace)) + 1j * rng.normal(0.0, sigma, len(trace))
    return IQTrace(trace.samples + noise, trace.sample_rate, trace.t0_ns)


BELOW_NOISE_FLOOR = float("-inf")


def measure_snr(
    trace: IQTrace,
    noise_range: tuple[int, int],
    signal_range: tuple[int, int] | None = None,
) -> float:
    """SNR in dB: 10*log10((P_total - P_noise) / P_noise).

    P_noise is the ``mean_power`` of the noise-only segment, P_total that of the
    signal segment (default: the samples outside the noise, from the energies).
    Returns ``BELOW_NOISE_FLOOR`` when total power does not exceed noise.
    """
    noise = trace.samples[noise_range[0]:noise_range[1]]
    if not noise.size:
        raise SignalError("noise segment is empty")
    p_noise = mean_power(noise)
    if signal_range is None:  # the rest of the trace: its energy over its count
        n_sig = len(trace) - noise.size
        p_total = (mean_power(trace.samples) * len(trace) - p_noise * noise.size) / max(n_sig, 1)
    else:
        sig = trace.samples[signal_range[0]:signal_range[1]]
        n_sig, p_total = sig.size, mean_power(sig)
    if not n_sig:
        raise SignalError("signal segment is empty")
    if p_total <= p_noise or p_noise == 0.0:
        return BELOW_NOISE_FLOOR
    return 10.0 * math.log10((p_total - p_noise) / p_noise)
