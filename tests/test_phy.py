import hashlib
import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorastamp.fbest import LsqConfig, estimate_fb_lsq, second_chirp
from lorastamp.phy import (
    _fast_len,
    _lag_table,
    _unit_ratio,
    BELOW_NOISE_FLOOR,
    MAX_FRAME_SAMPLES,
    PREAMBLE_CHIRPS,
    TABLE_CACHE_SIZE,
    IQTrace,
    PhyParams,
    RxParams,
    SignalError,
    TxParams,
    add_awgn,
    base_chirp_phase,
    chirp_layout,
    chirp_windows,
    dechirp_table,
    gen_frame,
    gen_up_chirp,
    mean_power,
    measure_snr,
    sample_edges,
    spectrum,
)

PHY7 = PhyParams(spreading_factor=7, bandwidth_hz=125e3)
FS = 2.4e6


def reference_segments(phy, payload):
    """The frame as linear sweeps (f0, rate, length in units of 1/W): preamble
    up chirps, SFD down chirps, and each symbol k a sweep from -W/2 + k W/2^S
    to the band edge followed, for k > 0, by the wrapped sweep from -W/2."""
    w, rate, n = phy.bandwidth_hz, phy.chirp_rate, phy.n_bins
    segments = [(-w / 2, rate, n)] * PREAMBLE_CHIRPS + [(w / 2, -rate, n)] * 2 + [(w / 2, -rate, n // 4)]
    for sym in payload:
        segments.append((-w / 2 + sym * phy.bin_width_hz, rate, n - sym))
        if sym:
            segments.append((-w / 2, rate, sym))
    return segments


def reference_edges(sample_rate, segments):
    """The sample each segment of (f0, rate, seconds) ends at, from its end
    time summed in float64."""
    edges, t_edge = [], 0.0
    for _, _, dur in segments:
        t_edge += dur
        edges.append(round(sample_rate * t_edge))
    return edges


def reference_synthesize(tx, rx, sample_rate, segments, ramp_samples=0):
    """Frame synthesis one segment at a time in float64, one exponential per
    sample, then concatenated: the straightforward form, and the former
    synthesis bit for bit."""
    phases, t_all = [], []
    carry, t_edge, n_edge = 0.0, 0.0, 0
    for (f0, rate, dur), n_next in zip(segments, reference_edges(sample_rate, segments)):
        t_global = np.arange(n_edge, n_next) / sample_rate
        t_local = t_global - t_edge
        phases.append(carry + 2 * np.pi * (f0 * t_local + 0.5 * rate * t_local ** 2))
        t_all.append(t_global)
        carry += 2 * np.pi * (f0 * dur + 0.5 * rate * dur ** 2)
        t_edge += dur
        n_edge = n_next
    t = np.concatenate(t_all)
    delta = tx.fb_hz - rx.fb_hz
    full_phase = np.concatenate(phases) + 2 * np.pi * delta * t + (tx.phase_rad - rx.phase_rad)
    return _envelope(tx, t.size, ramp_samples) * np.exp(1j * full_phase)


def _envelope(tx, size, ramp_samples):
    envelope = np.full(size, tx.amplitude / 2.0)
    if ramp_samples > 0:
        n = min(ramp_samples, size)
        envelope[:n] *= np.arange(1, n + 1) / n
    return envelope


def reference_seconds(phy, segments):
    return [(f0, rate, units / phy.bandwidth_hz) for f0, rate, units in segments]


def reference_frame(phy, tx, rx, segments, sample_rate):
    ramp = round(tx.ramp_fraction * sample_rate * phy.chirp_time)
    seconds = reference_seconds(phy, segments)
    return reference_synthesize(tx, rx, sample_rate, seconds, ramp)


LD_PI = np.longdouble("3.14159265358979323846264338327950288")


def true_frame(phy, tx, rx, segments, sample_rate):
    """The paper's Theta(t) over the segments in long double: segment edges at
    whole units of 1/W, phase carried across them, reduced mod 2 pi before
    the cast to float64 and the exponential."""
    ld, w = np.longdouble, np.longdouble(phy.bandwidth_hz)
    delta = ld(tx.fb_hz) - ld(rx.fb_hz)
    phases = []
    carry, units, n_edge = ld(0), 0, 0
    for f0, rate, length in segments:
        n_next = round(Fraction(sample_rate) * (units + length) / Fraction(phy.bandwidth_hz))
        t = np.arange(n_edge, n_next).astype(ld) / ld(sample_rate)
        local, dur = t - ld(units) / w, ld(length) / w
        phases.append(carry + 2 * LD_PI * (ld(f0) * local + ld(rate) / 2 * local ** 2 + delta * t))
        carry += 2 * LD_PI * (ld(f0) * dur + ld(rate) / 2 * dur ** 2)
        units, n_edge = units + length, n_next
    phase = np.concatenate(phases) + (ld(tx.phase_rad) - ld(rx.phase_rad))
    phase -= 2 * LD_PI * np.rint(phase / (2 * LD_PI))
    ramp = round(tx.ramp_fraction * sample_rate * phy.chirp_time)
    return _envelope(tx, phase.size, ramp) * np.exp(1j * phase.astype(np.float64))


class TestParams:
    def test_chirp_time_sf7(self):
        assert PHY7.chirp_time == pytest.approx(1.024e-3)

    def test_bin_width(self):
        assert PHY7.bin_width_hz == pytest.approx(976.5625)

    @pytest.mark.parametrize("sf", [5, 13, 0])
    def test_bad_sf_rejected(self, sf):
        with pytest.raises(SignalError):
            PhyParams(spreading_factor=sf, bandwidth_hz=125e3)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(SignalError):
            PhyParams(spreading_factor=7, bandwidth_hz=100e3)

    def test_phase_range_enforced(self):
        with pytest.raises(SignalError):
            TxParams(phase_rad=7.0)
        with pytest.raises(SignalError):
            RxParams(phase_rad=-0.1)

    def test_amplitude_positive(self):
        with pytest.raises(SignalError):
            TxParams(amplitude=0.0)


class TestChirps:
    def test_up_chirp_duration(self):
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        assert len(ch) == round(FS * PHY7.chirp_time) == 2458

    def test_nyquist_enforced(self):
        with pytest.raises(SignalError):
            gen_up_chirp(PHY7, TxParams(), RxParams(), 200e3)

    def test_aliasing_fb_rejected(self):
        # (fs - W) / 2 is the largest |FB| whose chirp, W wide, stays inside
        # [-fs/2, fs/2]; the FB is the transmitter's minus the receiver's
        limit = (FS - PHY7.bandwidth_hz) / 2
        for tx, rx in [(limit, 0.0), (-limit, 0.0), (0.0, limit)]:
            gen_up_chirp(PHY7, TxParams(fb_hz=tx), RxParams(fb_hz=rx), FS)
        past = math.nextafter(limit, math.inf)
        for tx, rx in [(past, 0.0), (-past, 0.0), (1.0, -limit), (1e308, -1e308)]:
            with pytest.raises(SignalError, match="aliases"):
                gen_frame(PHY7, TxParams(fb_hz=tx), RxParams(fb_hz=rx), [1, 2], FS)

    def test_symmetry_axis_no_bias(self):
        # with delta = 0 instantaneous frequency crosses zero at the midpoint
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        freq = np.diff(np.unwrap(np.angle(ch.samples))) * FS / (2 * math.pi)
        t_star = np.argmin(np.abs(freq)) / FS
        assert t_star == pytest.approx(2 ** 6 / 125e3, abs=2 / FS)

    def test_symmetry_axis_right_shift_for_negative_bias(self):
        delta = -20e3
        ch = gen_up_chirp(PHY7, TxParams(fb_hz=delta), RxParams(), FS)
        freq = np.diff(np.unwrap(np.angle(ch.samples))) * FS / (2 * math.pi)
        t_star = np.argmin(np.abs(freq)) / FS
        expected = 2 ** 6 / 125e3 - delta * 2 ** 7 / 125e3 ** 2
        assert expected > 2 ** 6 / 125e3  # right shift
        assert t_star == pytest.approx(expected, abs=2 / FS)

    def test_magnitude_phase_invariant(self):
        mags = []
        for theta in np.arange(0, 2 * math.pi, math.pi / 3):
            ch = gen_up_chirp(PHY7, TxParams(phase_rad=float(theta)), RxParams(), FS)
            mags.append(np.abs(ch.samples))
        for m in mags[1:]:
            assert np.allclose(m, mags[0], atol=1e-12)
        assert np.allclose(mags[0], 0.5, atol=1e-12)

    def test_base_phase_dechirps_up_chirp(self):
        # the base phase is the generator's, so an up chirp at delta = 0,
        # theta = 0 dechirps to its constant envelope 0.5
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        tone = ch.samples * np.exp(-1j * base_chirp_phase(PHY7, ch.times()))
        assert np.allclose(tone, 0.5, atol=1e-9)

    @pytest.mark.parametrize("sample_rate, n", [(125e3, 128), (FS, 2458)])
    def test_dechirp_table_is_the_conjugate_base_phasor(self, sample_rate, n):
        # the one table demod (2^S samples at W) and fbest (a chirp at the
        # trace's rate) read, kept read-only per geometry
        table = dechirp_table(PHY7, sample_rate, n)
        assert np.array_equal(table, np.exp(-1j * base_chirp_phase(PHY7, np.arange(n) / sample_rate)))
        assert not table.flags.writeable
        assert dechirp_table(PHY7, sample_rate, n) is table

    def test_first_chirp_ramp(self):
        ch = gen_up_chirp(PHY7, TxParams(ramp_fraction=0.25), RxParams(), FS)
        env = np.abs(ch.samples)
        n_ramp = round(0.25 * len(ch))
        assert env[0] < 0.01
        assert np.all(np.diff(env[:n_ramp]) > -1e-12)
        assert np.allclose(env[n_ramp:], 0.5, atol=1e-9)


class TestTrace:
    @pytest.mark.parametrize("rate", [0.0, -2.4e6, math.nan, math.inf, -math.inf])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(SignalError):
            IQTrace(np.zeros(4, dtype=complex), rate)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.nan),
                                     complex(math.inf, 1), complex(1, -math.inf)])
    def test_non_finite_part_rejected(self, bad):
        samples = np.ones(6, dtype=complex)
        samples[2] = bad
        with pytest.raises(SignalError):
            IQTrace(samples, FS)
        with pytest.raises(SignalError):
            IQTrace(samples[::2], FS)  # strided input too

    def test_finite_samples_whose_energy_overflows_accepted(self):
        # 1e200 squares past float range: the parts are then checked one by
        # one, and no RuntimeWarning is raised on the way
        samples = np.full(6, complex(1e200, -1e200))
        assert np.array_equal(IQTrace(samples, FS).samples, samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_part_beside_huge_ones_rejected(self, bad):
        samples = np.full(6, complex(1e200, 1e200))
        samples[4] = complex(1.0, bad)
        with pytest.raises(SignalError):
            IQTrace(samples, FS)

    def test_strided_and_real_input_accepted(self):
        base = np.arange(8, dtype=complex) * (1 + 2j)
        tr = IQTrace(base[::2], FS)
        assert np.array_equal(tr.samples, base[::2])
        assert np.array_equal(IQTrace([1.0, 2.0], FS).samples, [1 + 0j, 2 + 0j])
        assert len(IQTrace(np.zeros(0, dtype=complex), FS)) == 0

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_synthesis_rejects_bad_rate_first(self, rate):
        # the ramp length round(ramp * fs * T) must not be reached with a bad fs
        tx = TxParams(ramp_fraction=0.1)
        with pytest.raises(SignalError, match="sample rate"):
            gen_up_chirp(PHY7, tx, RxParams(), rate)
        with pytest.raises(SignalError, match="sample rate"):
            gen_frame(PHY7, tx, RxParams(), [1, 2], rate)


class TestChirpWindows:
    @pytest.mark.parametrize("fs", [2.4e6, 1e6])
    @pytest.mark.parametrize("sf", range(7, 13))
    def test_every_preamble_chirp_on_its_own_clock(self, sf, fs):
        # chirp c's row starts round(c fs T) - c fs T samples after the chirp,
        # its own lag, not c times chirp 1's: derotated by it, every chirp
        # reads true, from its own slice and from one gather of all seven
        phy = PhyParams(sf, 125e3)
        pad = 301
        fr = gen_frame(phy, TxParams(fb_hz=-20e3), RxParams(), [], fs)
        tr = IQTrace(np.concatenate([np.zeros(pad, complex), fr.samples]), fs)
        rows = chirp_windows(tr, phy, pad, range(1, PREAMBLE_CHIRPS))
        for c in range(1, PREAMBLE_CHIRPS):
            [row] = chirp_windows(tr, phy, pad, [c])
            assert np.array_equal(row, rows[c - 1])
            est = estimate_fb_lsq(IQTrace(row, fs), phy, LsqConfig())
            assert est.delta_hz == pytest.approx(-20e3, abs=0.05), c

    def test_rows_are_the_callers_own(self):
        # at 1 Msps fs T is whole, so no row is derotated into a new array
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], 1e6)
        before = fr.samples.copy()
        for chirps in ([1], [0, 1]):
            chirp_windows(fr, PHY7, 0, chirps)[:] = 0
        assert np.array_equal(fr.samples, before)

    @pytest.mark.parametrize("onset, chirps", [(-1, [1]), (0, [-1]), (0, [10]), (1, [0, 10])])
    def test_window_outside_trace_rejected(self, onset, chirps):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], FS)  # chirps 0-9 fit
        chirp_windows(fr, PHY7, 0, range(10))
        with pytest.raises(SignalError, match="onset sample"):
            chirp_windows(fr, PHY7, onset, chirps)

    @pytest.mark.parametrize("fs, stride", [(2.4e6, 1), (2.4e6, 3), (250e3, 2)])
    def test_several_frames_in_one_gather(self, fs, stride):
        # frame f reads the f-th share of the chirps from its own onset, lagging
        # rows derotated as in its own call: a (frames, chirps, samples) block
        fr = gen_frame(PHY7, TxParams(fb_hz=-3e3), RxParams(), [9, 100], fs)
        tr = IQTrace(np.concatenate([np.zeros(777, complex), fr.samples, fr.samples]), fs)
        frames = [(777, (0, 1, 2, 10.25)), (777 + len(fr) - 5, (3, 10.25, 11.25, 0)), (0, (4, 5, 6, 7))]
        block = chirp_windows(tr, PHY7, [o for o, _ in frames], [c for _, cs in frames for c in cs], stride)
        assert block.shape == (3, 4, chirp_layout(PHY7, fs, (0,), stride)[1])
        for rows, (onset, chirps) in zip(block, frames):
            assert rows.tobytes() == chirp_windows(tr, PHY7, onset, chirps, stride).tobytes()

    @pytest.mark.parametrize("onsets, n_chirps", [([0, 0], 3), ([], 0), ([0, 1, 2], 4)])
    def test_chirps_that_do_not_share_out_rejected(self, onsets, n_chirps):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], FS)
        with pytest.raises(SignalError, match="do not share out"):
            chirp_windows(fr, PHY7, onsets, range(n_chirps))

    @pytest.mark.parametrize("onsets", [[0, -1], [1, 0], [0, 1]])
    def test_each_frame_checked(self, onsets):
        # at 2 W chirps 0 and 9.25 end where the frame does: they fit at onset 0
        # and no later, and any frame past the trace is refused
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], 2 * PHY7.bandwidth_hz)
        chirp_windows(fr, PHY7, [0, 0], [0, 9.25, 0, 9.25])
        with pytest.raises(SignalError, match=f"onset sample {max(onsets, key=abs)} "):
            chirp_windows(fr, PHY7, onsets, [0, 9.25, 0, 9.25])


    # a frame's chirp indices: preamble, SFD (its quarter chirp at 10) and payload
    FRAME_CHIRPS = (*range(PREAMBLE_CHIRPS), 8, 9, 10, *(10.25 + i for i in range(3)))

    @pytest.mark.parametrize("fs", [250e3, 1e6, 2.048e6, 2.4e6, 2400000.1])
    @pytest.mark.parametrize("sf", [7, 10])
    def test_reader_starts_where_writer_lays(self, sf, fs):
        # chirp c of a frame starts at sample_edges(c 2^S units), the edge
        # gen_frame lays it at, and the row that starts on a whole sample
        # holds that slice of the frame byte for byte
        phy = PhyParams(sf, 125e3)
        n = phy.n_bins
        fr = gen_frame(phy, TxParams(fb_hz=-9e3, phase_rad=0.7), RxParams(), [5, 0, 77], fs)
        tr = IQTrace(np.concatenate([fr.samples, np.zeros(2 * n)]), fs)
        starts, size, first, end = chirp_layout(phy, fs, self.FRAME_CHIRPS, 1)
        assert list(starts) == sample_edges(phy, fs, [round(c * n) for c in self.FRAME_CHIRPS]).tolist()
        assert (size, first, end) == (sample_edges(phy, fs, [n])[0], 0, starts[-1] + size)
        rows = chirp_windows(tr, phy, 0, self.FRAME_CHIRPS)
        whole = [i for i, c in enumerate(self.FRAME_CHIRPS)
                 if (Fraction(fs) * Fraction(c) * n / Fraction(125e3)).denominator == 1]
        assert 0 in whole
        for i in whole:
            [row] = chirp_windows(tr, phy, 0, [self.FRAME_CHIRPS[i]])
            own = tr.samples[starts[i]:starts[i] + size]
            assert row.tobytes() == rows[i].tobytes() == own.tobytes()

    @pytest.mark.parametrize("rate", [1e-300, 1e3, 249999.99])
    def test_rate_below_two_w_rejected(self, rate):
        # the 2 W floor synthesis keeps, named with the rate, before any array:
        # at 1e-300 Hz a row would hold round(fs T) = 0 samples
        tr = IQTrace(np.zeros(4096), rate)
        floor = f"sample rate {rate} below baseband Nyquist 2W = 250000.0"
        tracemalloc.start()
        try:
            with pytest.raises(SignalError, match=re.escape(floor)):
                chirp_windows(tr, PHY7, 0, range(PREAMBLE_CHIRPS))
            with pytest.raises(SignalError, match=re.escape(floor)):
                second_chirp(tr, PHY7, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("rate", [1e9, 1e300])
    def test_rejected_layout_builds_no_array(self, rate):
        # a sidecar rate far above the trace's own puts chirp 1 10^6 (1e9 Hz)
        # or 10^297 (1e300 Hz) samples on: rejected from the exact layout
        # before any row, index grid or phasor is built
        tr = IQTrace(gen_frame(PHY7, TxParams(), RxParams(), [], FS).samples, rate)
        tracemalloc.start()
        try:
            with pytest.raises(SignalError, match="outside the trace"):
                second_chirp(tr, PHY7, 0)
            with pytest.raises(SignalError, match="outside the trace"):
                chirp_windows(tr, PHY7, 0, range(PREAMBLE_CHIRPS), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFastLen:
    def test_smallest_smooth_length(self):
        smooth = sorted(2 ** a * 3 ** b * 5 ** c
                        for a in range(13) for b in range(8) for c in range(6))
        for n in range(1, 4097):
            assert _fast_len(n) == next(m for m in smooth if m >= n), n


def complex_rows(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSpectrum:
    @pytest.mark.parametrize(
        "n, m, f0, step",
        [(2458, 493, -30e3, 121.95), (2458, 128, -62.5e3, 976.5625), (100, 700, 0.0, 17.0),
         (2458, 1, 1234.5, 0.0), (300, 300, 5e3, -40.0), (100, 2400, 0.0, 1000.0), (300, 100, 0.0, 24e3)],
        ids=["lsq-grid", "bin-grid", "m>n", "one-point", "m=n", "fft", "fft-step-m<n"],
    )
    def test_matches_direct_dft(self, n, m, f0, step):
        y = complex_rows(n, n + m)
        freqs = f0 + step * np.arange(m)
        direct = np.exp(-2j * math.pi * np.outer(freqs, np.arange(n) / FS)) @ y
        got = spectrum(y, FS, f0, step, m)
        assert got.shape == (m,)
        assert np.max(np.abs(got - direct)) <= 1e-9 * np.max(np.abs(direct))

    # (n, m, f0, step) at FS: the LSQ grid of an SF7 chirp, and a bin grid
    # (f0 = 0, step m = FS, m >= n), numpy's FFT
    @pytest.mark.parametrize("grid", [(2458, 527, -30e3, 121.95), (2458, 3000, 0.0, 800.0)],
                             ids=["chirp-z", "fft"])
    def test_block_equals_its_rows(self, grid):
        n, m, f0, step = grid
        y = complex_rows((7, n), 3)
        block = spectrum(y, FS, f0, step, m)
        assert block.shape == (7, m)
        for row, got in zip(y, block):
            assert spectrum(row, FS, f0, step, m).tobytes() == got.tobytes()

    @pytest.mark.parametrize("shape, fs, m", [((128,), 125e3, 128), ((896,), 125e3, 1024),
                                              ((20, 512), 125e3, 512), ((3, 2458), FS, 3000)])
    def test_bin_grid_is_numpy_fft(self, shape, fs, m):
        # decode_frame's symbol transform (m = n) and its zero-padded 1/8-bin
        # FB search (m > n), bit for bit
        y = complex_rows(shape, m)
        assert spectrum(y, fs, 0.0, fs / m, m).tobytes() == np.fft.fft(y, m).tobytes()

    @pytest.mark.parametrize("into", ["new", "input"])
    @pytest.mark.parametrize("grid", [(3000, 3000, -30e3, 24.4), (3000, 3000, 0.0, 800.0)], ids=["chirp-z", "fft"])
    def test_out_written_and_returned(self, grid, into):
        # out may be the input itself, as decode_frame transforms the windows it owns
        n, m, f0, step = grid
        y = complex_rows((2, n), 5)
        want = spectrum(y, FS, f0, step, m)
        out = y if into == "input" else np.zeros((2, m), dtype=complex)
        assert spectrum(y, FS, f0, step, m, out=out) is out
        assert out.tobytes() == want.tobytes()


def reference_time_ns(t0_ns, k, fs):
    """t0_ns + round(k 10^9 / fs), halves up, in exact rationals."""
    return t0_ns + math.floor(Fraction(k * 10 ** 9) / Fraction(fs) + Fraction(1, 2))


class TestSampleClock:
    def test_matches_exact_reference(self):
        rng = np.random.default_rng(27)
        rates = [1e-300, 1e300, 2.048e6, 2.4e6, 2400000.1, 250e3, *rng.uniform(2.5e5, 1e7, 16).tolist()]
        for fs in rates:
            for k in [0, 1, 16, 80, 2 ** 25, *rng.integers(0, 2 ** 40, 8).tolist()]:
                t0_ns = int(rng.integers(-2 ** 62, 2 ** 62)) * 3
                assert IQTrace(np.zeros(1), fs, t0_ns).time_ns(k) == reference_time_ns(t0_ns, k, fs)

    def test_half_nanosecond_rounds_up(self):
        # at 2.048 Msps every 32nd sample from 16 falls on a half nanosecond,
        # sample 16 at 7812.5 ns, which round(16 / fs * 1e9) took to 7812
        tr = IQTrace(np.zeros(1), 2.048e6, 10)
        halves = [k for k in range(4096) if (Fraction(k * 10 ** 9) / Fraction(2.048e6)).denominator == 2]
        assert halves == list(range(16, 4096, 32))
        for k in halves:
            assert tr.time_ns(k) == 10 + (k * 10 ** 9 * 2 // 2_048_000 + 1) // 2
        assert tr.time_ns(16) == 10 + 7813

    @pytest.mark.parametrize("fs", [2.4e6, 250e3])
    def test_equals_float_formula_where_no_half(self, fs):
        # at 2.4 Msps a sample falls 0, 1/3 or 2/3 past a whole nanosecond,
        # at 2 W on one: the float formula rounds no half there
        rng = np.random.default_rng(int(fs))
        tr = IQTrace(np.zeros(1), fs, 1_700_000_000_000_000_123)
        for k in [*range(2000), *rng.integers(0, MAX_FRAME_SAMPLES, 2000).tolist()]:
            assert tr.time_ns(k) == tr.t0_ns + round(k / fs * 1e9)

    def test_extreme_rates_stay_exact(self):
        assert IQTrace(np.zeros(1), 1e300).time_ns(10 ** 6) == 0
        slow = IQTrace(np.zeros(1), 1e-300, 5).time_ns(1)
        assert slow == 5 + round(Fraction(10 ** 9) / Fraction(1e-300)) and slow > 10 ** 308


class TestFrame:
    def test_empty_payload_duration(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], FS)
        assert len(fr) == round(FS * 10.25 * PHY7.chirp_time)

    @given(n=st.integers(0, 6))
    @settings(max_examples=10, deadline=None)
    def test_frame_length_arithmetic(self, n):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [0] * n, FS)
        assert len(fr) == round(FS * (10.25 + n) * PHY7.chirp_time)

    def test_symbol_zero_matches_preamble_chirp(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [0], FS)
        n = round(FS * PHY7.chirp_time)
        start = round(FS * 10.25 * PHY7.chirp_time)
        first = fr.samples[:n]
        payload = fr.samples[start:start + n]
        assert np.allclose(np.abs(payload), np.abs(first), atol=1e-12)
        # same frequency trajectory (phase offsets aside)
        f1 = np.diff(np.unwrap(np.angle(first)))
        f2 = np.diff(np.unwrap(np.angle(payload)))
        # boundary rounding can shift the payload chirp by a sub-sample
        # offset, so trajectories agree to one frequency step
        step = 2 * math.pi * PHY7.chirp_rate / FS ** 2
        assert np.allclose(f1, f2, atol=2 * step)

    def test_longest_frame_bounded_before_allocation(self):
        # SF12 at 2.4 Msps: a 255-byte payload (416 symbols) fits, one more
        # symbol is refused before any array is built
        phy = PhyParams(12, 125e3)
        assert round(FS * (10.25 + 416) * phy.chirp_time) <= MAX_FRAME_SAMPLES
        tracemalloc.start()
        try:
            with pytest.raises(SignalError, match="MAX_FRAME_SAMPLES"):
                gen_frame(phy, TxParams(), RxParams(), [0] * 417, FS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_oversized_payload_refused_before_reading_symbols(self):
        # the length, (10.25 + L) N units of 1/W, is known from L alone: a
        # million symbols at SF7 and 2 W are refused before any piece exists
        payload = [0] * 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(SignalError, match="MAX_FRAME_SAMPLES"):
                gen_frame(PHY7, TxParams(), RxParams(), payload, 2 * PHY7.bandwidth_hz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_symbol_out_of_range(self):
        bad = [[128], [-1], [2 ** 70], [3.7], [math.nan], [math.inf], ["3"], [[1, 2], [3, 4]], np.zeros((2, 1), int)]
        for payload in bad:
            with pytest.raises(SignalError):
                gen_frame(PHY7, TxParams(), RxParams(), payload, FS)

    def test_whole_float_symbols_accepted(self):
        ints = gen_frame(PHY7, TxParams(), RxParams(), [3, 127], FS)
        floats = gen_frame(PHY7, TxParams(), RxParams(), np.array([3.0, 127.0]), FS)
        assert np.array_equal(ints.samples, floats.samples)

    def test_phase_continuous_across_boundaries(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [5, 100], FS)
        phase = np.unwrap(np.angle(fr.samples))
        # a phase discontinuity would show as a step of order pi; the
        # in-band sweep advances at most ~0.16 rad/sample away from chirp
        # boundaries and ~2x that straddling a frequency-wrap sample
        assert np.max(np.abs(np.diff(phase))) < 0.5

    def test_symbol_dechirp_peaks_at_bin_k(self):
        from lorastamp import demod

        symbols = list(range(0, 128, 11))
        sr = 2 * 125e3
        fr = gen_frame(PHY7, TxParams(), RxParams(), symbols, sr)
        assert demod.decode_frame(fr, PHY7, len(symbols)).symbols == tuple(symbols)


PLAIN = (TxParams(), RxParams())
BIASED = (TxParams(fb_hz=-1234.5, phase_rad=2.0, amplitude=0.7, ramp_fraction=0.3),
          RxParams(fb_hz=10.0, phase_rad=0.5))
SYNTHESIS_CASES = [
    *[pytest.param(sf, 125e3, fs, link, [0, 2 ** sf - 1, 2 ** (sf - 1) + 3], id=f"sf{sf}-{fs:g}-{name}")
      for sf in range(6, 13) for fs in (250e3, 2.4e6)
      for name, link in (("plain", PLAIN), ("biased", BIASED))],
    pytest.param(8, 250e3, FS, BIASED, [0, 255, 17], id="bw250k"),
    pytest.param(8, 500e3, FS, BIASED, [0, 255, 17], id="bw500k"),
    # fs / W = 2400000.1 / 125000 is a fraction too wide for int64 edge arithmetic
    pytest.param(7, 125e3, 2400000.1, BIASED, [0, 127, 67], id="odd-rate"),
    pytest.param(7, 125e3, FS, (TxParams(fb_hz=300.0, ramp_fraction=1.0), RxParams()), [],
                 id="full-ramp-no-payload"),
]


class TestOnePassSynthesis:
    """Frames built from evaluated chirp pieces against the former per-sample
    synthesis and the paper's Theta(t)."""

    @pytest.mark.parametrize("sf, bandwidth, sample_rate, link, payload", SYNTHESIS_CASES)
    def test_bit_identical_to_reference(self, sf, bandwidth, sample_rate, link, payload):
        # what stays of the per-sample synthesis bit for bit: every piece of
        # the frame and of one up chirp starts and ends on its sample
        phy = PhyParams(sf, bandwidth)
        tx, rx = link
        for segments, made in (
            (reference_segments(phy, payload), gen_frame(phy, tx, rx, payload, sample_rate)),
            (reference_segments(phy, [0])[:1], gen_up_chirp(phy, tx, rx, sample_rate)),
        ):
            units = np.cumsum([length for *_, length in segments])
            edges = reference_edges(sample_rate, reference_seconds(phy, segments))
            assert sample_edges(phy, sample_rate, units).tolist() == edges
            assert len(made) == edges[-1]

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="the truth needs an extended long double")
    @pytest.mark.parametrize("sf, bandwidth, sample_rate, link, payload", SYNTHESIS_CASES)
    def test_closer_to_theta_than_reference(self, sf, bandwidth, sample_rate, link, payload):
        # per-sample float64 phases lose the last bits of a large Theta; the
        # pieces must lose no more, on the whole frame and on one up chirp
        phy = PhyParams(sf, bandwidth)
        tx, rx = link
        for segments, made in (
            (reference_segments(phy, payload), gen_frame(phy, tx, rx, payload, sample_rate)),
            (reference_segments(phy, [0])[:1], gen_up_chirp(phy, tx, rx, sample_rate)),
        ):
            truth = true_frame(phy, tx, rx, segments, sample_rate)
            reference = reference_frame(phy, tx, rx, segments, sample_rate)
            assert made.samples.shape == reference.shape == truth.shape
            assert np.max(np.abs(made.samples - truth)) <= np.max(np.abs(reference - truth))

    # SHA-256 of gen_frame's bytes, from the synthesis before its piece
    # bookkeeping moved to Python ints: the collision cells' frames (the
    # victim and collider payloads of the benchmark's pair 1000 at 2 W), a
    # ramped and biased SF7 frame at 2.4 Msps and the odd-rate case
    PINNED_FRAMES = [
        pytest.param(7, 250e3, PLAIN, [61, 27, 1, 110, 120, 122, 51, 99, 65, 114, 103, 17],
                     "e66f0bf482200072eff3c6b190983d8af000ffa9f870b1fef68932447fbbfd19", id="sf7-victim"),
        pytest.param(7, 250e3, (TxParams(fb_hz=100.0, phase_rad=1.0), RxParams()),
                     [13, 74, 53, 110, 26, 55, 64, 92, 12, 20, 39, 80],
                     "0406e7e7eb5525b3344456f611c30aa82687d2d8374f917bf23d05f7c08d091c", id="sf7-collider"),
        pytest.param(9, 250e3, PLAIN, [247, 458, 507, 506, 255, 431, 22, 307, 130, 104, 300, 206],
                     "59d5965186cdddaa99aed7b1290162840b8440c963985ff3802b6526e8c02f14", id="sf9-victim"),
        pytest.param(9, 250e3, (TxParams(fb_hz=100.0, phase_rad=1.0), RxParams()),
                     [450, 0, 322, 263, 193, 42, 445, 128, 318, 280, 222, 242],
                     "3d8c03d08e054e2bdc97a37f4d22b13191fbbecba2df2ed77d7e12f37b90c911", id="sf9-collider"),
        pytest.param(7, FS, BIASED, [0, 127, 67],
                     "a495d84c2566ddafb858262cdd1eca95ff333513989a3e19d6f230c88da52fa1", id="sf7-ramp"),
        pytest.param(7, 2400000.1, BIASED, [0, 127, 67],
                     "33aa5de1a3498c2bfb2f066e4ee0fb421215ba980f7396782a923c043c8c0dc3", id="odd-rate"),
    ]

    @pytest.mark.parametrize("sf, sample_rate, link, payload, sha256", PINNED_FRAMES)
    def test_frame_bytes_pinned(self, sf, sample_rate, link, payload, sha256):
        # from no kept lag tables, then from the tables the first frame left
        _lag_table.cache_clear()
        for plan in ("cold", "warm"):
            frame = gen_frame(PhyParams(sf, 125e3), *link, payload, sample_rate)
            assert hashlib.sha256(frame.samples.tobytes()).hexdigest() == sha256, plan

    def test_large_frame_allocates_no_frame_sized_temporary(self):
        # SF10 at 2.4 Msps with 64 symbols: 1.46 M samples, a 23 MB output.
        # fs / W = 96 / 5, so at most 10 lag classes (two signs, five lags),
        # each a table row of one chirp; beside the output and the tables the
        # peak holds less than one 2^16-sample group
        phy = PhyParams(10, 125e3)
        payload = list(range(0, 1024, 16))
        tracemalloc.start()
        try:
            fr = gen_frame(phy, *BIASED, payload, FS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = (2 * len(payload) + 11 + 10 * (round(FS * phy.chirp_time) + 1)) * 16
        assert fr.samples.nbytes == pytest.approx(23.36e6, rel=1e-3)
        assert peak < fr.samples.nbytes + tables + 2 ** 16 * 16

    def test_sf12_memory_bounded(self):
        # 12 symbols at SF12 and 2.4 Msps: 1.75 M samples, a 28 MB output
        phy = PhyParams(12, 125e3)
        tracemalloc.start()
        try:
            fr = gen_frame(phy, TxParams(ramp_fraction=0.5), RxParams(), list(range(12)), FS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fr.samples.nbytes == pytest.approx(28e6, rel=1e-3)
        assert peak < 96e6

    def test_frame_at_2048_msps_allocates_no_frame_sized_temporary(self):
        # SF10 at 2.048 Msps (fs / W = 2048 / 125) with 64 symbols: 1.25 M
        # samples, a 20 MB output, and 76 lag classes, as many table rows of
        # one chirp; beside the output and those rows the peak holds less
        # than one 2^16-sample group, as at 2.4 Msps
        phy = PhyParams(10, 125e3)
        payload = list(range(0, 1024, 16))
        _lag_table.cache_clear()
        tracemalloc.start()
        try:
            fr = gen_frame(phy, *BIASED, payload, 2.048e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_pieces, n_classes = lag_classes(phy, 2.048e6, payload)
        assert n_classes == 76
        tables = (n_pieces + n_classes * (round(2.048e6 * phy.chirp_time) + 1)) * 16
        assert fr.samples.nbytes == pytest.approx(19.93e6, rel=1e-3)
        assert peak < fr.samples.nbytes + tables + 2 ** 16 * 16


def lag_classes(phy, sample_rate, payload):
    """(pieces, lag classes) of a frame, its pieces (sign, shift, length) in
    units of 1/W listed as ``gen_frame`` lists them: a class is a sign and
    the sub-sample start of a piece's base chirp, in exact rationals."""
    n = phy.n_bins
    pieces = [(1, 0, n)] * PREAMBLE_CHIRPS + [(-1, 0, n)] * 2 + [(-1, 0, n // 4)]
    for k in payload:
        pieces += [(1, k, n - k), (1, 0, k)] if k else [(1, 0, n)]
    ratio = Fraction(sample_rate) / Fraction(phy.bandwidth_hz)
    classes, units = set(), 0
    for sign, shift, length in pieces:
        classes.add((sign, (units - shift) * ratio % 1))
        units += length
    return len(pieces), len(classes)


PLAN_RATES = [250e3, 1e6, 2.048e6, 2.4e6, 2400000.1]


class TestLagTablePlan:
    """gen_frame's lag-class tables come from ``phy._lag_table``, kept for
    the TABLE_CACHE_SIZE classes used last; a frame built from kept tables
    is the frame built from none."""

    PAYLOAD = (5, 0, 77, 127)

    @classmethod
    def frame_bytes(cls, sf, sample_rate, fb_hz):
        tx = TxParams(fb_hz=fb_hz, phase_rad=0.7, ramp_fraction=0.2)
        frame = gen_frame(PhyParams(sf, 125e3), tx, RxParams(phase_rad=0.2), list(cls.PAYLOAD), sample_rate)
        return frame.samples.tobytes()

    @pytest.mark.parametrize("sf", [7, 9])
    @pytest.mark.parametrize("fs", PLAN_RATES)
    def test_cold_and_warm_frames_identical(self, sf, fs):
        _lag_table.cache_clear()
        cold = self.frame_bytes(sf, fs, -1234.5)
        n_classes = lag_classes(PhyParams(sf, 125e3), fs, self.PAYLOAD)[1]
        assert _lag_table.cache_info()[:2] == (0, n_classes)  # (hits, misses): one build per class
        assert self.frame_bytes(sf, fs, -1234.5) == cold
        if n_classes <= TABLE_CACHE_SIZE:  # the warm frame read the tables the cold one left
            assert _lag_table.cache_info()[:2] == (n_classes, n_classes)

    def test_interleaved_links_equal_each_alone(self):
        links = [(sf, fs, fb) for sf in (7, 8) for fs in (250e3, 2.048e6, 2.4e6) for fb in (0.0, 100.0, -20e3)]
        alone = {}
        for link in links:
            _lag_table.cache_clear()
            alone[link] = self.frame_bytes(*link)
        _lag_table.cache_clear()
        for link in links + links[::-1] + links[::3]:
            assert self.frame_bytes(*link) == alone[link], link

    @pytest.mark.parametrize("fs", [250e3, 2.4e6])
    def test_signed_zero_fb_shares_tables(self, fs):
        # an FB of +0.0 and one of -0.0 are one key: either's tables make the
        # other's frame
        n_classes = lag_classes(PhyParams(7, 125e3), fs, self.PAYLOAD)[1]
        assert n_classes <= TABLE_CACHE_SIZE
        frames = []
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            _lag_table.cache_clear()
            frames += [self.frame_bytes(7, fs, first), self.frame_bytes(7, fs, second)]
            assert _lag_table.cache_info()[:2] == (n_classes, n_classes)
        assert frames == [frames[0]] * 4

    def test_plan_keeps_table_cache_size_rows(self):
        # one frame at 2400000.1 Hz has more classes than the cache keeps,
        # and so do ten links at 2 W together
        phy = PhyParams(7, 125e3)
        payload = list(range(0, 128, 5))
        assert lag_classes(phy, 2400000.1, payload)[1] > TABLE_CACHE_SIZE
        _lag_table.cache_clear()
        gen_frame(phy, TxParams(), RxParams(), payload, 2400000.1)
        assert _lag_table.cache_info().currsize == TABLE_CACHE_SIZE
        for fb in range(10):
            self.frame_bytes(7, 250e3, float(fb))
            assert _lag_table.cache_info().currsize == TABLE_CACHE_SIZE
        # the last links' tables are kept, two classes (up and down chirps)
        # each, and an earlier link's are not
        misses = _lag_table.cache_info().misses
        for fb in (6.0, 7.0, 8.0, 9.0):
            self.frame_bytes(7, 250e3, fb)
        assert _lag_table.cache_info().misses == misses
        self.frame_bytes(7, 250e3, 5.0)
        assert _lag_table.cache_info().misses == misses + 2

    def test_frame_of_more_classes_than_kept_builds_each_once(self):
        # SF10 at 2.048 Msps with 64 symbols: 76 lag classes, each asked for
        # once by the frame although the cache keeps 8
        phy = PhyParams(10, 125e3)
        payload = list(range(0, 1024, 16))
        n_classes = lag_classes(phy, 2.048e6, payload)[1]
        assert n_classes == 76 > TABLE_CACHE_SIZE
        _lag_table.cache_clear()
        gen_frame(phy, *BIASED, payload, 2.048e6)
        assert _lag_table.cache_info().misses == n_classes

    def test_threads_share_the_plan(self):
        # four threads on six links, more classes than the cache keeps, the
        # interpreter switching every 10 us: every frame is its link's alone,
        # and the cache keeps its bound
        links = [(7, fs, fb) for fs in (250e3, 1e6) for fb in (0.0, 5.0, 9.0)]
        alone = {}
        for link in links:
            _lag_table.cache_clear()
            alone[link] = self.frame_bytes(*link)
        wrong, errors = [], []

        def work(k):
            try:
                for j in range(20):
                    link = links[(k + j) % len(links)]
                    if self.frame_bytes(*link) != alone[link]:
                        wrong.append(link)
            except Exception as exc:  # reported below, with the thread's failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (errors, wrong) == ([], [])
        assert _lag_table.cache_info().currsize <= TABLE_CACHE_SIZE

    def test_rows_read_only(self):
        for fs in PLAN_RATES:
            for sign in (-1, 1):
                table = _lag_table(2 ** 7, 125e3, fs, 50.0, sign, 0)
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 0

    @pytest.mark.parametrize("fs", [250e3, 2.048e6, 2400000.1])
    @pytest.mark.parametrize("offset", [0, 0.3])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_table_is_the_lag_class_chirp(self, fs, offset, sign):
        # exp(j (sign Theta0((i - e / q) / fs) + 2 pi delta i / fs)) for
        # i <= round(fs T), fs / W = p / q, the chirp a piece of class
        # (sign, e) reads when its base chirp starts e / q past a sample
        phy = PhyParams(7, 125e3)
        _, q = _unit_ratio(phy.bandwidth_hz, fs)
        lag = int(q * offset)
        table = _lag_table(phy.n_bins, phy.bandwidth_hz, fs, -321.5, sign, lag)
        i = np.arange(round(fs * phy.chirp_time) + 1)
        phase = sign * base_chirp_phase(phy, (i - lag / q) / fs) - 2 * math.pi * 321.5 * i / fs
        assert table.shape == i.shape
        np.testing.assert_allclose(table, np.exp(1j * phase), rtol=0, atol=1e-9)


class TestNoise:
    def test_infinite_snr_is_identity(self):
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        out = add_awgn(ch, math.inf, rng_seed=0)
        assert np.array_equal(out.samples, ch.samples)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_bad_snr_rejected(self, snr_db):
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        with pytest.raises(SignalError, match="target SNR"):
            add_awgn(ch, snr_db, rng_seed=0)

    def test_same_seed_same_noise(self):
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        a = add_awgn(ch, -5.0, rng_seed=42)
        b = add_awgn(ch, -5.0, rng_seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_target_snr_reached_low_snr(self):
        # below 0 dB a power-difference measurement carries estimation
        # noise of order P_noise/sqrt(n), so the band is necessarily loose
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        pad = 20_000
        sig = np.concatenate([np.zeros(pad, complex), np.tile(ch.samples, 4)])
        noisy = add_awgn(IQTrace(sig, FS), -10.0, rng_seed=7, signal_range=(pad, sig.size))
        snr = measure_snr(noisy, (0, pad), (pad, sig.size))
        assert -11.0 < snr < -9.0

    def test_target_snr_reached_zero_db(self):
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        pad = 20_000
        sig = np.concatenate([np.zeros(pad, complex), ch.samples])
        noisy = add_awgn(IQTrace(sig, FS), 0.0, rng_seed=3, signal_range=(pad, sig.size))
        snr = measure_snr(noisy, (0, pad), (pad, sig.size))
        assert -0.3 < snr < 0.3

    def test_mean_snr_calibration(self):
        # noise power calibration: the mean over 100 seeds sits on target
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        p_sig = ch.power()
        ratios = []
        for seed in range(100):
            noisy = add_awgn(ch, 0.0, rng_seed=seed)
            p_noise = float(np.mean(np.abs(noisy.samples - ch.samples) ** 2))
            ratios.append(p_sig / p_noise)
        mean_db = 10 * math.log10(float(np.mean(ratios)))
        assert abs(mean_db) < 0.05


def fsum_power(x):
    """Mean |x|^2 by an exactly rounded sum of re^2 + im^2."""
    return math.fsum((x.real ** 2 + x.imag ** 2).tolist()) / x.size


class TestMeanPower:
    @pytest.mark.parametrize("sf", [7, 9, 12])
    @pytest.mark.parametrize("two_w", [False, True])
    def test_matches_exact_sum_on_frames(self, sf, two_w):
        phy = PhyParams(spreading_factor=sf, bandwidth_hz=125e3)
        fs = 2 * phy.bandwidth_hz if two_w else FS
        frame = gen_frame(phy, TxParams(fb_hz=1234.5, phase_rad=1.0, amplitude=0.7), RxParams(), [], fs)
        x = add_awgn(frame, 3.0, rng_seed=sf).samples  # |x|^2 varies from sample to sample
        assert mean_power(x) == pytest.approx(fsum_power(x), rel=1e-12)

    def test_empty_is_zero(self):
        assert mean_power(np.zeros(0, dtype=complex)) == 0.0
        assert IQTrace(np.zeros(0, dtype=complex), FS).power() == 0.0

    @pytest.mark.parametrize("step", [3, -2])
    def test_strided_input(self, step):
        x = add_awgn(gen_frame(PHY7, TxParams(), RxParams(), [5], FS), 0.0, rng_seed=2).samples[::step]
        assert not x.flags.c_contiguous
        assert mean_power(x) == pytest.approx(fsum_power(x), rel=1e-12)

    def test_trace_power_is_the_routine(self):
        tr = add_awgn(gen_frame(PHY7, TxParams(), RxParams(), [1, 2], FS), 5.0, rng_seed=4)
        assert tr.power() == mean_power(tr.samples)
        assert isinstance(tr.power(), float)


class TestMeasureSnr:
    @staticmethod
    def complement_snr(trace, noise_range):
        """The default signal segment as an explicit complement: mask, then mean |x|^2."""
        a, b = noise_range
        mask = np.ones(len(trace), dtype=bool)
        mask[a:b] = False
        p_noise = float(np.mean(np.abs(trace.samples[a:b]) ** 2))
        p_total = float(np.mean(np.abs(trace.samples[mask]) ** 2))
        return 10.0 * math.log10((p_total - p_noise) / p_noise)

    @pytest.mark.parametrize("noise_range", [(0, 3000), (-500, None), (1000, 2500), (-4000, -1000)])
    @pytest.mark.parametrize("snr_db", [-5.0, 10.0, 30.0])
    def test_default_segment_matches_complement(self, noise_range, snr_db):
        frame = gen_frame(PHY7, TxParams(fb_hz=-3000.0), RxParams(), [7], FS)
        pad = np.zeros(3000, dtype=complex)
        x = IQTrace(np.concatenate([pad, frame.samples, pad]), FS)
        noisy = add_awgn(x, snr_db, rng_seed=11, signal_range=(3000, 3000 + len(frame)))
        expected = self.complement_snr(noisy, noise_range)
        assert measure_snr(noisy, noise_range) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("noise_range", [(0, 100), (0, None), (-100, None), (None, None), (-500, 200)])
    def test_noise_covering_the_trace_leaves_no_signal(self, noise_range):
        tr = IQTrace(np.ones(100, complex), FS)
        with pytest.raises(SignalError, match="signal segment is empty"):
            measure_snr(tr, noise_range)

    def test_ten_to_one(self):
        rng = np.random.default_rng(0)
        n = 50_000
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2)
        sig = noise.copy()
        sig[n // 2:] *= math.sqrt(10)  # total power 10x noise power there
        tr = IQTrace(np.concatenate([noise, sig[n // 2:]]), FS)
        snr = measure_snr(tr, (0, n), (n, tr.samples.size))
        assert snr == pytest.approx(10 * math.log10(9), abs=0.2)

    def test_pure_noise_sentinel(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        tr = IQTrace(noise, FS)
        assert measure_snr(tr, (0, 2000), (2000, 4000)) == BELOW_NOISE_FLOOR

    def test_zero_db_construction(self):
        ch = gen_up_chirp(PHY7, TxParams(), RxParams(), FS)
        rng = np.random.default_rng(5)
        scale = math.sqrt(ch.power() / 2)
        noise = scale * (rng.normal(size=6000) + 1j * rng.normal(size=6000))
        tr = IQTrace(np.concatenate([noise[:3000], ch.samples + noise[3000:3000 + len(ch)]]), FS)
        assert measure_snr(tr, (0, 3000)) == pytest.approx(0.0, abs=0.2)

    def test_empty_noise_segment(self):
        tr = IQTrace(np.ones(100, complex), FS)
        with pytest.raises(SignalError):
            measure_snr(tr, (50, 50))
