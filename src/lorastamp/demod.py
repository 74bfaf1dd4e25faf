"""Dechirp-FFT symbol decoder.

A deliberately simple symbol-level decoder used to judge collision
outcomes.  Sampled at the bandwidth W, a LoRa chirp times the base down
chirp is a tone, and its symbol is the peak bin of a 2^S-point FFT.  The
frame's frequency bias (FB) is removed first: the preamble is
phase-continuous, so dechirped preamble chirps 2-8 form one tone, whose
FFT peak on a grid of 1/8 bin is the FB the frame is derotated by.  Not a
full receiver -- no header parsing, FEC, or CRC -- just enough to tell
whether a frame survives a collision.  One call decodes any number of
frames of one trace, victim and collider of a collided mix among them,
in one pass of batched numpy operations.

Decoding keeps every r-th sample, r = sample_rate / W, with no filter
first, so white noise outside the band folds in and costs 10*log10(r) dB
of SNR.  Every caller decodes noiseless (collided) traces at r = 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lorastamp.phy import (TABLE_CACHE_SIZE, IQTrace, PhyParams, PREAMBLE_CHIRPS, SFD_CHIRPS, SignalError,
                           chirp_windows, dechirp_table, spectrum)

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


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _frame_chirps(lengths: tuple[int, ...]) -> tuple:
    """The chirps ``decode_frame`` reads of frames with ``lengths`` payload symbols, frame by
    frame: its preamble and payload chirps, then its chirp 0 again up to the longest frame's count.
    Cached: building it takes 2-4 us a call, ~0.5 % of a collided SF7 cell's two-frame decode."""
    payload = [PREAMBLE_CHIRPS + SFD_CHIRPS + i for i in range(max(lengths))]
    return tuple(c for k in lengths for c in (*range(PREAMBLE_CHIRPS), *payload[:k], *(0,) * (len(payload) - k)))


def decode_frame(trace: IQTrace, phy: PhyParams, n_payload, onset_sample=0):
    """Decode the frame whose preamble starts at ``onset_sample``: one FrameDecode.

    With ``n_payload`` and ``onset_sample`` sequences of equal length, one
    entry per frame, all frames are decoded in one pass and a tuple of
    FrameDecodes comes back in their order, each the one its own call gives.
    Frame f's rows are ``phy.chirp_windows`` rows at stride r = sample_rate / W,
    which must be whole (no filtering, see the module docstring): its preamble
    and payload chirps, padded with its chirp 0 to the longest frame's count,
    so that all frames form one (frames, rows, 2^S) block from one gather.
    Each frame's FB, read from its preamble chirps 2-8 (one batched
    ``phy.spectrum`` of all frames) as a whole number of 1/8-bin steps, is
    removed by one phasor exp(-2 pi j step k / grid), k < 2^S, on every window
    of the frame (a later window start only adds a unit factor, which |FFT|^2
    does not see), and all windows go through one batched ``phy.spectrum`` on
    the bin grid, an FFT in place, whose |.| is squared in place.  Sync is
    declared good when every preamble window and every header window (the
    first 8 payload chirps) has its peak bin power at least 6 dB above the
    rest of the window's spectrum -- a capture-effect proxy for the
    demodulator locking on.  By Parseval the spectrum sums to n * E_window, so
    the margin reads as the window's effective SINR in dB.  Payload symbols
    are decoded by plain argmax regardless.  SignalError, before any array,
    for a frame shorter than its header, a rate that is no whole multiple of
    W, or an onset that puts a window outside the trace.
    """
    single = isinstance(onset_sample, (int, np.integer))
    frames = [(n_payload, onset_sample)] if single else list(zip(n_payload, onset_sample, strict=True))
    lengths = tuple(k for k, _ in frames)
    if min(lengths) < HEADER_SYMBOLS:
        raise SignalError("frame shorter than its header")
    r = trace.sample_rate / phy.bandwidth_hz
    if r < 1 or not math.isclose(r, round(r)):
        raise SignalError(f"sample rate must be a whole multiple of the bandwidth, got {r:g} x W")
    n = phy.n_bins
    windows = chirp_windows(trace, phy, [onset for _, onset in frames], _frame_chirps(lengths), round(r))
    windows *= dechirp_table(phy, phy.bandwidth_hz, n)

    w, grid = phy.bandwidth_hz, FB_GRID * n
    preambles = windows[:, 1:PREAMBLE_CHIRPS].reshape(len(frames), -1)  # a view: a frame's chirps 2-8 a row
    fb_steps = np.abs(spectrum(preambles, w, 0.0, w / grid, grid)).argmax(axis=1).tolist()
    windows *= np.exp(np.array([-2j * np.pi * step / grid for step in fb_steps])[:, None, None] * np.arange(n))
    power = np.abs(spectrum(windows, w, 0.0, w / n, n, out=windows))
    np.square(power, out=power)

    sync = power[:, :PREAMBLE_CHIRPS + HEADER_SYMBOLS]
    peak = sync.max(axis=2)
    rest = sync.sum(axis=2) - peak
    symbols = power.argmax(axis=2)  # of every row: argmax would copy a (frames, payload rows) view
    decodes = []
    for (k, _), p, q, s in zip(frames, peak.tolist(), rest.tolist(), symbols.tolist()):
        margins = sorted(map(_margin_db, p, q))
        payload = tuple(s[PREAMBLE_CHIRPS:PREAMBLE_CHIRPS + k])
        decodes.append(FrameDecode(margins[0] >= CAPTURE_MARGIN_DB, payload, tuple(margins)))
    return decodes[0] if single else tuple(decodes)
