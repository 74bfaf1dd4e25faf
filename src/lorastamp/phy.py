"""LoRa chirp-spread-spectrum baseband signal model.

A chirp observed through an SDR front end mixes down to

    I(t) = (A/2) cos(Theta(t)),   Q(t) = (A/2) sin(Theta(t)),
    Theta(t) = (pi W^2 / 2^S) t^2 - pi W t + 2 pi delta t + theta,

with delta = delta_Tx - delta_Rx the relative frequency bias and
theta = theta_Tx - theta_Rx the unknown phase difference.  Traces are
stored as complex baseband: samples = I + jQ.  ``base_chirp_phase`` is
Theta for delta = theta = 0; every dechirp multiplies by its conjugate
phasor, ``dechirp_table``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SAMPLE_RATE = 2.4e6  # Hz, the RTL-SDR convention used throughout

VALID_BANDWIDTHS = (125e3, 250e3, 500e3)

PREAMBLE_CHIRPS = 8
SFD_CHIRPS = 2.25
TABLE_CACHE_SIZE = 8  # geometries whose tables each table builder keeps


class SignalError(ValueError):
    """Invalid signal parameters or degenerate input trace."""


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


@dataclass
class IQTrace:
    """Uniformly sampled complex baseband trace (I + jQ)."""

    samples: np.ndarray
    sample_rate: float
    t0_ns: int = 0

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise SignalError("sample rate must be positive and finite")
        # a complex sample is finite when both of its parts are: check the
        # float64 view, which takes half the time of complex isfinite
        if not np.isfinite(self.samples.view(np.float64)).all():
            raise SignalError("I/Q samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        """Sample times in seconds relative to sample 0."""
        return np.arange(self.samples.size) / self.sample_rate

    def power(self) -> float:
        """Mean power per sample."""
        if not self.samples.size:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

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
def window_plan(phy: PhyParams, sample_rate: float, chirps: tuple, stride: int) -> tuple:
    """``chirp_windows``'s (grid, first, end, lagging, phasors), kept for the last TABLE_CACHE_SIZE
    keys: grid row i indexes chirps[i] from the onset within [first, end); lagging rows take phasors."""
    per_chirp = sample_rate * phy.n_bins / phy.bandwidth_hz  # fs T, exact when whole
    exact = np.array(chirps, dtype=float) * per_chirp
    offsets = np.round(exact)
    k = stride * np.arange(round(per_chirp / stride))
    grid = offsets.astype(int)[:, None] + k
    lagging = np.flatnonzero(offsets != exact)
    taus = (offsets[lagging] - exact[lagging]) / sample_rate
    phasors = np.exp(-2j * math.pi * phy.chirp_rate * taus[:, None] * (k / sample_rate))
    grid, lagging, phasors = map(read_only, (grid, lagging, phasors))
    return grid, int(offsets.min()), int(offsets.max()) + stride * k.size, lagging, phasors


def chirp_windows(trace: IQTrace, phy: PhyParams, onset: int, chirps, stride: int = 1) -> np.ndarray:
    """One row per chirp index c in ``chirps``, each on its chirp's own clock.

    Chirp c of a frame starting at sample ``onset`` begins at onset + c fs T
    (fs T = fs 2^S / W).  Its row, the caller's own, holds round(fs T / stride)
    samples, every ``stride``-th one, from onset + round(c fs T), tau =
    (round(c fs T) - c fs T) / fs into the chirp: a row with tau != 0 reads K tau
    high (K the chirp rate) and is derotated by exp(-j 2 pi K tau k stride / fs).
    SignalError for a negative onset or a row outside the trace."""
    grid, first, end, lagging, phasors = window_plan(phy, trace.sample_rate, tuple(chirps), stride)
    if onset < 0 or onset + first < 0 or onset + end > len(trace):
        raise SignalError(f"onset sample {onset} is negative or puts a window outside the trace")
    if len(grid) == 1:  # one row: a basic slice
        row = trace.samples[None, onset + first:onset + end:stride]
        return row * phasors if lagging.size else row.copy()
    rows = trace.samples[onset + grid]
    rows[lagging] *= phasors
    return rows


def _check_rates(phy: PhyParams, sample_rate: float) -> None:
    if not math.isfinite(sample_rate) or sample_rate <= 0:
        raise SignalError("sample rate must be positive and finite")
    if sample_rate < 2 * phy.bandwidth_hz:
        raise SignalError(
            f"sample rate {sample_rate} below baseband Nyquist 2W = {2 * phy.bandwidth_hz}"
        )


def _segment_phase(
    segments: list[tuple[float, float, float]],
    sample_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the continuous-phase concatenation of linear-sweep segments.

    Each segment is (f_start, rate, duration): instantaneous frequency
    f_start + rate*t over local time t in [0, duration).  Phase is carried
    across segment boundaries so the concatenation has no phase jumps.
    Sample counts come from rounding the cumulative boundary times, so the
    total count is round(sample_rate * total_duration) exactly.

    The per-segment scalars (start time, carried phase, sample count) are
    summed up in order; each is then repeated over its segment's samples,
    and every sample's phase carry + 2 pi (f_start t + (rate/2) t^2), with t
    the local time, is evaluated in one pass over the whole frame, in place.

    Returns (phase, t_global) arrays.
    """
    starts, carries, f0s, half_rates, counts = [], [], [], [], []
    carry = 0.0  # phase at segment start
    t_edge = 0.0  # segment start, continuous time
    n_edge = 0  # first sample index of the segment
    for f0, rate, dur in segments:
        n_next = round(sample_rate * (t_edge + dur))
        starts.append(t_edge)
        carries.append(carry)
        f0s.append(f0)
        half_rates.append(0.5 * rate)
        counts.append(n_next - n_edge)
        carry += 2 * np.pi * (f0 * dur + 0.5 * rate * dur ** 2)
        t_edge += dur
        n_edge = n_next

    def per_sample(values: list[float]) -> np.ndarray:
        return np.repeat(np.array(values), counts)

    t_global = np.arange(n_edge) / sample_rate
    t_local = t_global - per_sample(starts)
    phase = per_sample(f0s)
    phase *= t_local
    t_local *= t_local
    t_local *= per_sample(half_rates)
    phase += t_local
    del t_local
    phase *= 2 * np.pi
    phase += per_sample(carries)
    return phase, t_global


def _synthesize(
    phy: PhyParams,
    tx: TxParams,
    rx: RxParams,
    sample_rate: float,
    segments: list[tuple[float, float, float]],
) -> IQTrace:
    """Common path: sample segment phases, add bias/phase terms, scale.

    Works in place on the phase and on the complex output, so the frame's
    largest arrays are its phase, its times and the output itself.  The
    envelope is the scalar A/2; a ramped head of
    round(ramp_fraction * fs * T) samples is (A/2) * ramp, built first and
    then multiplied in.  The sample rate is checked before anything is
    computed from it.
    """
    _check_rates(phy, sample_rate)
    ramp_samples = round(tx.ramp_fraction * sample_rate * phy.chirp_time)
    delta = tx.fb_hz - rx.fb_hz
    if not math.isfinite(delta):
        raise SignalError("frequency bias must be finite")
    theta = tx.phase_rad - rx.phase_rad
    phase, t = _segment_phase(segments, sample_rate)
    t *= 2 * np.pi * delta
    phase += t
    del t
    phase += theta
    samples = 1j * phase
    del phase
    np.exp(samples, out=samples)
    half_amplitude = tx.amplitude / 2.0
    n = min(ramp_samples, samples.size)
    if n > 0:
        samples[:n] *= half_amplitude * (np.arange(1, n + 1) / n)
    samples[n:] *= half_amplitude
    return IQTrace(samples, sample_rate)


def gen_up_chirp(
    phy: PhyParams,
    tx: TxParams,
    rx: RxParams,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> IQTrace:
    """One preamble up chirp: frequency sweeps -W/2+delta to +W/2+delta."""
    seg = [(-phy.bandwidth_hz / 2, phy.chirp_rate, phy.chirp_time)]
    return _synthesize(phy, tx, rx, sample_rate, seg)


def _symbol_segments(phy: PhyParams, symbol: int) -> list[tuple[float, float, float]]:
    """Segments of a payload chirp: cyclic shift of the base up chirp.

    The chirp starts at -W/2 + k*W/2^S, sweeps up, and wraps to -W/2 at the
    band edge.  Phase stays continuous through the frequency wrap.
    """
    w = phy.bandwidth_hz
    if symbol == 0:
        return [(-w / 2, phy.chirp_rate, phy.chirp_time)]
    t_wrap = (phy.n_bins - symbol) / w
    return [
        (-w / 2 + symbol * phy.bin_width_hz, phy.chirp_rate, t_wrap),
        (-w / 2, phy.chirp_rate, symbol / w),
    ]


def gen_frame(
    phy: PhyParams,
    tx: TxParams,
    rx: RxParams,
    payload_symbols: list[int] | np.ndarray = (),
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> IQTrace:
    """Full frame: 8 preamble up chirps, 2.25-down-chirp SFD, payload chirps.

    Payload symbols are encoded as cyclically shifted up chirps.  Phase is
    continuous across all chirp boundaries; total length is
    round(sample_rate * (10.25 + n_payload) * chirp_time) samples.
    """
    w = phy.bandwidth_hz
    rate = phy.chirp_rate
    tc = phy.chirp_time
    segments: list[tuple[float, float, float]] = []
    for _ in range(PREAMBLE_CHIRPS):
        segments.append((-w / 2, rate, tc))
    for _ in range(2):
        segments.append((w / 2, -rate, tc))
    segments.append((w / 2, -rate, tc / 4))  # quarter down chirp
    payload = np.asarray(payload_symbols)
    if payload.ndim != 1:
        raise SignalError(f"payload symbols must be a 1-D sequence, got shape {payload.shape}")
    for sym in payload.tolist():
        if not (isinstance(sym, (int, float)) and 0 <= sym < phy.n_bins and sym == int(sym)):
            raise SignalError(f"payload symbol {sym!r} is not a whole number in [0, {phy.n_bins})")
        segments.extend(_symbol_segments(phy, int(sym)))
    return _synthesize(phy, tx, rx, sample_rate, segments)


def add_awgn(
    trace: IQTrace,
    target_snr_db: float,
    rng_seed: int,
    signal_range: tuple[int, int] | None = None,
) -> IQTrace:
    """Add complex white Gaussian noise for a target SNR.

    The reference signal power is measured over ``signal_range`` (default:
    the whole trace).  ``target_snr_db = +inf`` is the no-noise sentinel;
    NaN and -inf are rejected.  Deterministic for a given seed.
    """
    if not len(trace):
        raise SignalError("cannot add noise to an empty trace")
    if target_snr_db == float("inf"):
        return trace.copy()
    if not math.isfinite(target_snr_db):
        raise SignalError(f"target SNR must be finite or +inf, got {target_snr_db}")
    a, b = signal_range or (0, len(trace))
    seg = trace.samples[a:b]
    if not seg.size:
        raise SignalError("empty signal range")
    p_sig = float(np.mean(np.abs(seg) ** 2))
    noise_power = p_sig / 10.0 ** (target_snr_db / 10.0)
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

    Noise power comes from the noise-only segment; total power from the
    signal segment (default: everything outside the noise segment).
    Returns ``BELOW_NOISE_FLOOR`` when total power does not exceed noise.
    """
    a, b = noise_range
    noise = trace.samples[a:b]
    if not noise.size:
        raise SignalError("noise segment is empty")
    if signal_range is None:
        mask = np.ones(len(trace), dtype=bool)
        mask[a:b] = False
        sig = trace.samples[mask]
    else:
        sig = trace.samples[signal_range[0]:signal_range[1]]
    if not sig.size:
        raise SignalError("signal segment is empty")
    p_noise = float(np.mean(np.abs(noise) ** 2))
    p_total = float(np.mean(np.abs(sig) ** 2))
    if p_total <= p_noise or p_noise == 0.0:
        return BELOW_NOISE_FLOOR
    return 10.0 * math.log10((p_total - p_noise) / p_noise)
