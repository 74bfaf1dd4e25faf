"""Frequency-bias (FB) estimation from a single preamble up chirp.

Three estimators of increasing robustness and cost:

* DECHIRP_FFT -- dechirp + peak search on the W/2^S bin grid (the
  demodulator-style baseline; resolution-limited).
* LINREG -- unwrap the sample phase, subtract the known chirp quadratic,
  fit a line: slope = 2*pi*delta.  Fast, accurate only at high SNR.
* LSQ -- fit the full I/Q template in the least-squares sense over
  (delta, theta): the periodogram maximiser.  Noise-resilient.

DECHIRP_FFT and LSQ dechirp the chirp once and read its spectrum from
``phy.spectrum`` (a chirp-z on their grids); LSQ then refines its grid peaks
by Newton's method.  numpy only.

Tables that depend only on the chirp geometry (samples per chirp n, sample
rate, chirp rate, bandwidth, search grid) are built once per geometry, the
plan/execute split of FFTW (Frigo & Johnson 2005), by the builders in
``_TABLE_BUILDERS``: phy's dechirp phasor (``dechirp_table``, which ``demod``
reads too), window plan (``window_plan``: ``second_chirp``'s index grid and
derotation phasor) and chirp-z plan (``chirpz_plan``: pre- and post-twiddle,
kernel FFT), and fbest's Newton time axis.  Each builder keeps the tables of
the TABLE_CACHE_SIZE geometries used last, read-only; nothing is built at
import.  A frame pays only for the multiplies, one forward and one inverse
FFT, |C| and the Newton steps.  One geometry's tables take 0.21 MB at SF7
and 6.8 MB at SF12, both at 2.4 Msps (n = 78 643, default bounds: 1.26 MB
dechirp, 1.89 MB window plan, 3.05 MB chirp-z, 0.63 MB time axis), so at
most 8 x 6.8 = 55 MB; with ``gen_frame``'s 8 lag-class tables (``_lag_table``,
1.26 MB each at SF12, 2.4 Msps) the tables of phy and fbest take at most 65 MB.
Only the Newton steps take exponentials per frame, at a new frequency each
step, so their sums split n = B q + r (B = NEWTON_BLOCK): N/B + B a step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lorastamp.phy import (TABLE_CACHE_SIZE, IQTrace, PhyParams, base_chirp_phase, chirp_windows,
                           chirpz_plan, dechirp_table, read_only, spectrum, window_plan)

DEFAULT_DELTA_BOUNDS = (-30e3, 30e3)
LSQ_AMPLITUDE = 0.5  # envelope amplitude of the I/Q template in the LSQ residual
SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact in SI
NEWTON_TOL_HZ = 1e-9  # LSQ refinement stops on a smaller Newton step
NEWTON_MAX_STEPS = 32  # it takes 2-4 from a grid peak
NEWTON_BLOCK = 64  # a Newton step sums over n = NEWTON_BLOCK q + r


class EstimationError(ValueError):
    """FB estimation failed or produced an out-of-range result."""


@dataclass(frozen=True)
class FbEstimate:
    delta_hz: float
    estimator: str  # DECHIRP_FFT | LINREG | LSQ
    residual: float
    warning: str | None = None


@dataclass(frozen=True)
class LsqConfig:
    """Search range of the LSQ estimator."""

    delta_bounds: tuple[float, float] = DEFAULT_DELTA_BOUNDS

    def __post_init__(self) -> None:
        lo, hi = self.delta_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise EstimationError("delta bounds must be finite and ordered")


def _check_result(delta: float, phy: PhyParams) -> None:
    if abs(delta) >= phy.bandwidth_hz / 2:
        raise EstimationError(f"estimate {delta:.1f} Hz beyond half bandwidth")


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _newton_axis(n: int, fs: float) -> np.ndarray:
    """u_k = 2 pi (k - (n-1)/2) / fs for k = 0..n-1."""
    return read_only((2 * math.pi / fs) * (np.arange(n) - (n - 1) / 2))


# behind second_chirp, _dechirp, spectrum and _newton_peak, which tests replace
_TABLE_BUILDERS = (dechirp_table, window_plan, chirpz_plan, _newton_axis)


def _dechirp(chirp: IQTrace, phy: PhyParams) -> np.ndarray:
    """x[n] exp(-j Phi0(n / fs)): a chirp of FB delta becomes a tone at delta."""
    return chirp.samples * dechirp_table(phy, chirp.sample_rate, len(chirp))


def _newton_peak(y: np.ndarray, fs: float, delta: float, lo: float, hi: float) -> tuple[float, float]:
    """Local maximiser of f(d) = |C(d)|^2 in [lo, hi] by Newton's method from delta.

    With u_n = 2 pi (n - (N-1)/2) / fs (centring n leaves |C| as it is) and
    e_n = y_n exp(-j u_n d): C = sum e_n, C' = -j sum u_n e_n and
    C'' = -sum u_n^2 e_n, so f' = 2 Re(conj(C) C') and
    f'' = 2 (|C'|^2 + Re(conj(C) C'')).  Each e_n drops the unit factor
    exp(j pi d (N-1) / fs) common to all n, which f' and f'' do not see, and
    the sums over n = B q + r (B = NEWTON_BLOCK) are taken as row sums of
    column sums, so a step costs N/B + B exponentials.  Steps are clamped
    to [lo, hi]; it stops where f is not concave or the step falls below
    NEWTON_TOL_HZ.  Returns (d, |C(d)|).
    """
    n = y.size
    b = NEWTON_BLOCK
    q = np.arange(-(-n // b), dtype=float)
    r = np.arange(b, dtype=float)
    u = _newton_axis(n, fs)
    # y_n u_n^k, k = 0, 1, 2, zero-padded to whole blocks: one (3 x q) x r table
    moments = np.zeros((3, q.size * b), dtype=complex)
    moments[0, :n] = y
    np.multiply(y, u, out=moments[1, :n])
    np.multiply(moments[1, :n], u, out=moments[2, :n])
    moments = moments.reshape(3 * q.size, b)
    nxt = delta
    for _ in range(NEWTON_MAX_STEPS):
        delta = nxt
        a = -2j * math.pi * delta / fs
        c0, c1, c2 = (moments @ np.exp(a * r)).reshape(3, q.size) @ np.exp((a * b) * q)
        d1 = (c0.conjugate() * c1).imag  # f' / 2
        d2 = abs(c1) ** 2 - (c0.conjugate() * c2).real  # f'' / 2
        if d2 >= 0:
            break
        nxt = min(max(delta - d1 / d2, lo), hi)
        if abs(nxt - delta) < NEWTON_TOL_HZ:
            break
    return delta, abs(c0)


def estimate_fb_fft(chirp: IQTrace, phy: PhyParams) -> FbEstimate:
    """Dechirp + spectral peak on the native W/2^S bin grid.

    The chirp must be onset-aligned and one chirp time long.  Estimates are
    exactly quantized to multiples of W/2^S.  Two near-equal peaks (within
    1 dB) are flagged low-confidence.
    """
    if not chirp.power() > 0:
        raise EstimationError("chirp has no power")
    half = phy.n_bins // 2
    bin_hz = phy.bin_width_hz
    power = np.abs(spectrum(_dechirp(chirp, phy), chirp.sample_rate, -half * bin_hz, bin_hz, phy.n_bins)) ** 2
    order = np.argsort(power)[::-1]
    peak, second = order[0], order[1]
    warning = None
    if power[second] > 0 and 10 * math.log10(power[peak] / power[second]) < 1.0:
        warning = "low-confidence: two peaks within 1 dB"
    delta = float((peak - half) * phy.bin_width_hz)
    _check_result(delta, phy)
    residual = float(1.0 - power[peak] / np.sum(power))
    return FbEstimate(delta, "DECHIRP_FFT", residual, warning)


def estimate_fb_linreg(chirp: IQTrace, phy: PhyParams) -> FbEstimate:
    """Phase-unwrap linear regression; returns delta = slope / (2*pi).

    Flagged unreliable when the unwrap rectification rate reaches one
    correction per 4 samples (noise-dominated phase).
    """
    if not chirp.power() > 0:
        raise EstimationError("chirp has no power")
    t = chirp.times()
    raw = np.angle(chirp.samples)
    jumps = int(np.count_nonzero(np.abs(np.diff(raw)) > math.pi))
    theta = np.unwrap(raw) - base_chirp_phase(phy, t)
    slope, intercept = np.polyfit(t, theta, 1)
    residual = float(np.sum((theta - (slope * t + intercept)) ** 2))
    delta = float(slope / (2 * math.pi))
    _check_result(delta, phy)
    warning = None
    if jumps >= len(chirp) / 4:
        warning = "unreliable: unwrap rectification rate >= 1 per 4 samples"
    return FbEstimate(delta, "LINREG", residual, warning)


def estimate_fb_lsq(chirp: IQTrace, phy: PhyParams, cfg: LsqConfig) -> FbEstimate:
    """Least-squares template fit over (delta, theta).

    Minimizes sum (Q - A sin Theta)^2 + (I - A cos Theta)^2 = sum |x - A exp(j Theta)|^2,
    Theta the biased chirp phase.  The best theta has a closed form, leaving
    ||x||^2 + N*A^2 - 2*A*|C(delta)|: delta is the single-tone ML estimate
    (Rife & Boorstyn 1974).  The chirp is dechirped once; |C| is maximized on a
    grid (step <= fs/(8N)), then refined by Newton's method on |C|^2 from every
    grid peak that may hold the maximum, each within one grid step of its
    peak.  ``residual`` is the cost.

    The grid also covers a guard band of 2 fs/N beyond each bound.  If |C|
    there exceeds its maximum within the bounds, the FB most likely lies
    outside them and delta is a sidelobe: it is kept in the bounds and
    flagged "out of range" (a "boundary solution" flag takes priority).
    """
    power = chirp.power()
    if not power > 0:
        raise EstimationError("chirp has no power")
    lo, hi = cfg.delta_bounds
    fs = chirp.sample_rate
    n_steps = math.ceil((hi - lo) * 8 * len(chirp) / fs)
    step = (hi - lo) / n_steps
    guard = math.ceil(2 * fs / len(chirp) / step)  # grid points per guard band
    tone = _dechirp(chirp, phy)
    wide = np.abs(spectrum(tone, fs, lo - guard * step, step, n_steps + 1 + 2 * guard))
    mags = wide[guard:-guard]
    # |C| is band-limited: by Bernstein's inequality a grid point within step/2
    # of its maximum keeps >= 1 - pi^2/512 of it, so refine each such grid peak
    peaks = mags >= (1 - math.pi ** 2 / 512) * mags.max()
    peaks[1:] &= mags[1:] > mags[:-1]
    peaks[:-1] &= mags[:-1] >= mags[1:]
    delta, mag = max(
        (_newton_peak(tone, fs, d, max(lo, d - step), min(hi, d + step))
         for d in lo + step * np.flatnonzero(peaks)),
        key=lambda r: r[1],
    )
    delta = float(delta)
    _check_result(delta, phy)
    warning = None
    if min(delta - lo, hi - delta) < 1e-4 * (hi - lo):
        warning = "boundary solution: delta at a search bound"
    elif max(wide[:guard].max(), wide[-guard:].max()) > mag:
        warning = "out of range: |C| peaks beyond a search bound"
    residual = len(chirp) * (power + LSQ_AMPLITUDE ** 2) - 2 * LSQ_AMPLITUDE * mag
    return FbEstimate(delta, "LSQ", float(residual), warning)


def second_chirp(trace: IQTrace, phy: PhyParams, onset_sample: int) -> IQTrace:
    """The second preamble chirp, whose amplitude is stable (the first may
    ramp up), as ``phy.chirp_windows`` cuts it, with t0_ns ``trace.time_ns`` of
    its first sample: FB estimators read its sample k as chirp time k/fs."""
    [row] = chirp_windows(trace, phy, onset_sample, [1])
    return IQTrace(row, trace.sample_rate, trace.time_ns(onset_sample + row.size))


def doppler_fb(speed_mps: float, freq_hz: float) -> float:
    """Doppler-induced frequency shift (v/c) * f for |v| << c."""
    return speed_mps / SPEED_OF_LIGHT * freq_hz
