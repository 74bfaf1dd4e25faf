"""Dechirp-FFT symbol decoder.

A deliberately simple symbol-level decoder used to judge collision
outcomes.  Sampled at the bandwidth W, a LoRa chirp times the base down
chirp is a tone, and its symbol is the peak bin of a 2^S-point FFT.  The
frame's frequency bias (FB) is removed first: the preamble is
phase-continuous, so dechirped preamble chirps 2-8 form one tone, whose
FFT peak on a grid of 1/8 bin is the FB the frame is derotated by.  Not a
full receiver -- no header parsing, FEC, or CRC -- just enough to tell
whether a frame survives a collision.

Decoding keeps every r-th sample, r = sample_rate / W, with no filter
first, so white noise outside the band folds in and costs 10*log10(r) dB
of SNR.  Every caller decodes noiseless (collided) traces at r = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lorastamp.phy import (IQTrace, PhyParams, PREAMBLE_CHIRPS, SFD_CHIRPS, SignalError, chirp_windows,
                           dechirp_table, spectrum)

CAPTURE_MARGIN_DB = 6.0
HEADER_SYMBOLS = 8
FB_GRID = 8  # FB search steps per bin


@dataclass(frozen=True)
class FrameDecode:
    """Result of decoding one frame position inside a trace."""

    sync_ok: bool
    symbols: tuple[int, ...]
    sync_margins_db: tuple[float, ...]  # per sync window, worst-case first


def _margin_db(peak: float, rest: float) -> float:
    """Peak bin power over the rest of the window's spectrum, in dB."""
    if peak <= 0:
        return -math.inf
    if rest <= 1e-12 * (peak + rest):
        return math.inf
    return 10 * math.log10(peak / rest)


def decode_frame(
    trace: IQTrace, phy: PhyParams, n_payload: int, onset_sample: int = 0
) -> FrameDecode:
    """Decode a frame whose preamble starts at ``onset_sample``.

    Windows are ``phy.chirp_windows`` rows at stride r = sample_rate / W,
    which must be whole (no filtering, see the module docstring).  The FB read
    from preamble chirps 2-8, a whole number of 1/8-bin steps, is removed
    by one column phasor exp(-2 pi j step k / grid), k < 2^S, on every
    window (a later window start only adds a unit factor, which |FFT|^2
    does not see), and all windows go through one batched ``phy.spectrum``
    on the bin grid, an FFT in place, whose |.| is squared in place.  Sync is
    declared good when every preamble window and every header window (the first 8 payload chirps)
    has its peak bin power at least 6 dB above the rest of the window's
    spectrum -- a capture-effect proxy for the demodulator locking on.
    By Parseval the spectrum sums to n * E_window, so the margin reads as
    the window's effective SINR in dB.  Payload symbols are decoded by
    plain argmax regardless.
    """
    if n_payload < HEADER_SYMBOLS:
        raise SignalError("frame shorter than its header")
    r = trace.sample_rate / phy.bandwidth_hz
    if r < 1 or not math.isclose(r, round(r)):
        raise SignalError(f"sample rate must be a whole multiple of the bandwidth, got {r:g} x W")
    n = phy.n_bins
    chirps = [*range(PREAMBLE_CHIRPS), *(PREAMBLE_CHIRPS + SFD_CHIRPS + i for i in range(n_payload))]
    windows = chirp_windows(trace, phy, onset_sample, chirps, round(r))
    windows *= dechirp_table(phy, phy.bandwidth_hz, n)

    w, grid = phy.bandwidth_hz, FB_GRID * n
    fb_step = int(np.argmax(np.abs(spectrum(windows[1:PREAMBLE_CHIRPS].ravel(), w, 0.0, w / grid, grid))))
    windows *= np.exp(-2j * np.pi * fb_step / grid * np.arange(n))
    power = np.abs(spectrum(windows, w, 0.0, w / n, n, out=windows))
    np.square(power, out=power)

    sync = power[:PREAMBLE_CHIRPS + HEADER_SYMBOLS]
    peak = sync.max(axis=1)
    rest = sync.sum(axis=1) - peak
    margins = sorted(map(_margin_db, peak.tolist(), rest.tolist()))
    symbols = tuple(power[PREAMBLE_CHIRPS:].argmax(axis=1).tolist())
    return FrameDecode(margins[0] >= CAPTURE_MARGIN_DB, symbols, tuple(margins))
