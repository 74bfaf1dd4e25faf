import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lorastamp import demod
from lorastamp.attack import COLLISION_RECEIVED, collision_outcome_waveform, synthesize_collision
from lorastamp.phy import (PREAMBLE_CHIRPS, SFD_CHIRPS, IQTrace, PhyParams, RxParams, SignalError, TxParams,
                           dechirp_table, gen_frame)

SFS = (7, 8, 9, 10, 11, 12)


def payload(sf: int, seed: int, n: int = 12) -> list[int]:
    rng = np.random.default_rng(seed)
    return list(range(8)) + [int(v) for v in rng.integers(0, 2 ** sf, n - 8)]


def reference_decode(trace, phy, n_payload, onset_sample=0):
    """decode_frame with its windows sliced here, every r-th sample from
    the onset at W-rate offsets, and its FB derotation evaluated one
    exponential per sample, at the sample's own index from the onset."""
    n = phy.n_bins
    r = round(trace.sample_rate / phy.bandwidth_hz)
    payload_base = round((PREAMBLE_CHIRPS + SFD_CHIRPS) * n)
    offsets = np.concatenate([np.arange(PREAMBLE_CHIRPS) * n,
                              payload_base + np.arange(n_payload) * n])
    windows = trace.samples[onset_sample + r * (offsets[:, None] + np.arange(n))]
    windows = windows * dechirp_table(phy, phy.bandwidth_hz, n)
    grid = demod.FB_GRID * n
    fb_step = int(np.argmax(np.abs(np.fft.fft(windows[1:PREAMBLE_CHIRPS].ravel(), grid))))
    m = offsets[:, None] + np.arange(n)
    windows *= np.exp(-2j * np.pi * (fb_step * m % grid) / grid)
    power = np.abs(np.fft.fft(windows)) ** 2
    sync = power[:PREAMBLE_CHIRPS + demod.HEADER_SYMBOLS]
    peak = sync.max(axis=1)
    rest = sync.sum(axis=1) - peak
    margins = sorted(-math.inf if p <= 0 else math.inf if r <= 1e-12 * (p + r) else 10 * math.log10(p / r)
                     for p, r in zip(peak.tolist(), rest.tolist()))
    symbols = tuple(power[PREAMBLE_CHIRPS:].argmax(axis=1).tolist())
    return demod.FrameDecode(margins[0] >= demod.CAPTURE_MARGIN_DB, symbols, tuple(margins))


class TestCollision:
    @pytest.mark.parametrize("sf", [9, 10])
    def test_captured_collider_received(self, sf):
        # the collider's 100 Hz FB is 0.41 bin at SF9 and 0.82 at SF10; left
        # in place it fails sync (SF9) or shifts every symbol a bin (SF10)
        phy = PhyParams(sf, 125e3)
        got = collision_outcome_waveform(phy, payload(sf, 1), payload(sf, 2), -12.0, 0.2)
        assert got == COLLISION_RECEIVED

    def test_sf12_memory_bounded(self):
        phy = PhyParams(12, 125e3)
        tracemalloc.start()
        try:
            collision_outcome_waveform(phy, payload(12, 1, 8), payload(12, 2, 8), -12.0, 0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestDecodeFrame:
    @pytest.mark.parametrize("sf", SFS)
    @pytest.mark.parametrize("fb_bins", [-0.45, -0.3, 0.3, 0.45])
    def test_frequency_bias_removed(self, sf, fb_bins):
        phy = PhyParams(sf, 125e3)
        symbols = payload(sf, sf)
        tx = TxParams(fb_hz=fb_bins * phy.bin_width_hz, phase_rad=1.0)
        fr = gen_frame(phy, tx, RxParams(), symbols, 2 * phy.bandwidth_hz)
        dec = demod.decode_frame(fr, phy, len(symbols))
        assert dec.sync_ok, dec.sync_margins_db[0]
        assert dec.symbols == tuple(symbols)

    @pytest.mark.parametrize("sf", SFS)
    def test_column_phasor_matches_per_sample_derotation(self, sf):
        # one phasor for every window differs from per-sample derotation by a
        # unit factor per window, which |FFT|^2 does not see: clean and
        # collided frames decode to the same sync and symbols, and the
        # margins differ only in their last bits
        phy = PhyParams(sf, 125e3)
        fs = 2 * phy.bandwidth_hz
        victim = gen_frame(phy, TxParams(), RxParams(), payload(sf, 1), fs)
        for fb_bins, scr_db, rtm in [(-0.45, 6.0, 0.2), (0.3, -3.0, 0.05), (0.05, 0.0, 0.5)]:
            tx = TxParams(fb_hz=fb_bins * phy.bin_width_hz, phase_rad=1.0)
            collider = gen_frame(phy, tx, RxParams(), payload(sf, 2), fs)
            offset = round(rtm * len(victim))
            for trace, onset in [(collider, 0),
                                 (synthesize_collision(victim, collider, scr_db, rtm), offset)]:
                got = demod.decode_frame(trace, phy, 12, onset_sample=onset)
                want = reference_decode(trace, phy, 12, onset_sample=onset)
                assert (got.sync_ok, got.symbols) == (want.sync_ok, want.symbols)
                assert got.sync_margins_db == pytest.approx(want.sync_margins_db, rel=0, abs=1e-9)

    def test_onset_inside_trace(self):
        phy = PhyParams(8, 125e3)
        symbols = payload(8, 3)
        fr = gen_frame(phy, TxParams(fb_hz=200.0), RxParams(), symbols, 2 * phy.bandwidth_hz)
        lead = np.zeros(777, dtype=complex)
        fr.samples = np.concatenate([lead, fr.samples, lead])
        dec = demod.decode_frame(fr, phy, len(symbols), onset_sample=777)
        assert dec.sync_ok and dec.symbols == tuple(symbols)

    def test_silent_and_pure_windows_take_the_infinite_branches(self):
        # a silent window has no peak (-inf dB), a lone tone no rest (+inf dB):
        # the margins' one division warns of neither
        phy = PhyParams(7, 125e3)
        n, fs = phy.n_bins, 2 * phy.bandwidth_hz
        silent = np.zeros(len(gen_frame(phy, TxParams(), RxParams(), [0] * 8, fs)), complex)
        assert demod.decode_frame(IQTrace(silent, fs), phy, 8).sync_margins_db == (-math.inf,) * 16
        # the base up chirp at W in every decoded window: each dechirps to one bin
        tone = silent.copy()
        for c in [*range(PREAMBLE_CHIRPS), *(PREAMBLE_CHIRPS + SFD_CHIRPS + i for i in range(8))]:
            start = round(2 * c * n)
            tone[start:start + 2 * n:2] = np.conj(dechirp_table(phy, phy.bandwidth_hz, n))
        margins = demod.decode_frame(IQTrace(tone, fs), phy, 8).sync_margins_db
        assert margins[-1] == math.inf and margins[0] > 100

    def test_symbol_transform_in_place(self):
        # the batched symbol transform writes into the windows decode_frame
        # owns: windows plus their float64 power peak near 1.5 windows, and a
        # second windows-sized complex array would lift the peak to 2.5
        phy = PhyParams(9, 125e3)
        symbols = payload(9, 9, 64)
        fr = gen_frame(phy, TxParams(fb_hz=100.0), RxParams(), symbols, 2 * phy.bandwidth_hz)
        windows_bytes = (PREAMBLE_CHIRPS + len(symbols)) * phy.n_bins * 16  # complex128
        demod.decode_frame(fr, phy, len(symbols))  # the cached tables are built outside the bound
        tracemalloc.start()
        try:
            dec = demod.decode_frame(fr, phy, len(symbols))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.symbols == tuple(symbols)
        assert peak < 2 * windows_bytes

    def test_fractional_decimation_rejected(self):
        phy = PhyParams(7, 125e3)
        fr = gen_frame(phy, TxParams(), RxParams(), [0] * 8, 2.4e6)
        with pytest.raises(SignalError):
            demod.decode_frame(fr, phy, 8)

    def test_frame_beyond_trace_rejected(self):
        phy = PhyParams(7, 125e3)
        fr = gen_frame(phy, TxParams(), RxParams(), [0] * 8, 2 * phy.bandwidth_hz)
        with pytest.raises(SignalError):
            demod.decode_frame(fr, phy, 9)
        with pytest.raises(SignalError):
            demod.decode_frame(fr, phy, 8, onset_sample=1)

    def test_imports_numpy_only(self):
        code = ("import sys, lorastamp.demod; "
                "print(sorted(m for m in ('scipy', 'lorastamp.fbest') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(demod.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
