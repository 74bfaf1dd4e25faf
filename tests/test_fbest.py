import math
import warnings

import numpy as np
import pytest

from lorastamp import fbest
from lorastamp.fbest import (
    NEWTON_MAX_STEPS,
    NEWTON_TOL_HZ,
    TABLE_CACHE_SIZE,
    EstimationError,
    LsqConfig,
    doppler_fb,
    estimate_fb_fft,
    estimate_fb_linreg,
    estimate_fb_lsq,
    second_chirp,
)
from lorastamp.phy import (
    IQTrace,
    PhyParams,
    RxParams,
    SignalError,
    TxParams,
    _fast_len,
    add_awgn,
    base_chirp_phase,
    gen_frame,
    gen_up_chirp,
)

PHY7 = PhyParams(spreading_factor=7, bandwidth_hz=125e3)
FS = 2.4e6


def chirp(delta=0.0, theta=0.0, phy=PHY7, fs=FS):
    return gen_up_chirp(phy, TxParams(fb_hz=delta, phase_rad=theta), RxParams(), fs)


def lsq_cost(x, delta, theta=None):
    """sum |x - A exp(j Theta)|^2 at A = 0.5; theta=None takes the best theta."""
    t = np.arange(x.size) / FS
    phase = math.pi * PHY7.chirp_rate * t ** 2 - math.pi * PHY7.bandwidth_hz * t
    template = 0.5 * np.exp(1j * (phase + 2 * math.pi * delta * t))
    if theta is None:
        theta = np.angle(np.vdot(template, x))
    return float(np.sum(np.abs(x - template * np.exp(1j * theta)) ** 2))


class TestFft:
    def test_resolution_sf7(self):
        assert PHY7.bin_width_hz == pytest.approx(976.5625)

    def test_zero_bias_bin_zero(self):
        est = estimate_fb_fft(chirp(0.0), PHY7)
        assert est.delta_hz == 0.0
        assert est.estimator == "DECHIRP_FFT"

    def test_2khz_quantizes_to_nearest_bin(self):
        est = estimate_fb_fft(chirp(2000.0), PHY7)
        assert est.delta_hz == pytest.approx(1953.125)

    def test_always_on_bin_grid(self):
        for delta in (433.0, -7700.0, 12345.0):
            est = estimate_fb_fft(chirp(delta, theta=1.0), PHY7)
            q = est.delta_hz / PHY7.bin_width_hz
            assert abs(q - round(q)) < 1e-9
            assert abs(est.delta_hz - delta) <= PHY7.bin_width_hz / 2

    def test_half_bin_offset_flags_low_confidence(self):
        est = estimate_fb_fft(chirp(PHY7.bin_width_hz / 2), PHY7)
        assert est.warning is not None


class TestLinreg:
    def test_noiseless_minus_20khz(self):
        est = estimate_fb_linreg(chirp(-20e3, 0.7), PHY7)
        assert est.delta_hz == pytest.approx(-20e3, abs=1.0)

    def test_zero_everything(self):
        est = estimate_fb_linreg(chirp(0.0, 0.0), PHY7)
        assert abs(est.delta_hz) < 1e-6
        assert est.residual < 1e-12

    def test_noise_sets_unreliable_flag(self):
        noisy = add_awgn(chirp(1000.0), -10.0, rng_seed=0)
        est = estimate_fb_linreg(noisy, PHY7)
        assert est.warning is not None


@pytest.mark.parametrize(
    "estimate",
    [estimate_fb_fft, estimate_fb_linreg, lambda ch, phy: estimate_fb_lsq(ch, phy, LsqConfig())],
    ids=["fft", "linreg", "lsq"],
)
def test_silent_chirp_rejected(estimate):
    # each returned an FB for all-zero samples: 61523.4 Hz with a NaN
    # residual, 15.26 Hz and -30000 Hz
    with pytest.raises(EstimationError, match="no power"):
        estimate(IQTrace(np.zeros(2458, complex), FS), PHY7)


class TestLsq:
    def test_noiseless_recovery(self):
        est = estimate_fb_lsq(chirp(-20e3, 0.7), PHY7, LsqConfig())
        assert est.delta_hz == pytest.approx(-20e3, abs=1.0)

    def test_deterministic_per_seed(self):
        noisy = add_awgn(chirp(5e3, 1.1), 0.0, rng_seed=4)
        a = estimate_fb_lsq(noisy, PHY7, LsqConfig())
        b = estimate_fb_lsq(noisy, PHY7, LsqConfig())
        assert a == b

    def test_objective_minimum_at_truth(self):
        delta, theta = -7.5e3, 0.9
        x = chirp(delta, theta).samples
        assert lsq_cost(x, delta, theta) <= lsq_cost(x, delta + 500.0, theta)

    def test_global_optimum_at_minus24db(self):
        # no delta on a grid twice as dense as the estimator's own fits better
        lo, hi = LsqConfig().delta_bounds
        grid = np.arange(lo, hi, FS / (16 * 2458))
        for seed in range(1000, 1020):
            rng = np.random.default_rng(seed)
            delta, theta = rng.uniform(-25e3, 25e3), rng.uniform(0, 2 * math.pi)
            x = add_awgn(chirp(delta, theta), -24.0, rng_seed=seed).samples
            est = estimate_fb_lsq(IQTrace(x, FS), PHY7, LsqConfig())
            assert est.residual == pytest.approx(lsq_cost(x, est.delta_hz), rel=1e-9)
            assert min(lsq_cost(x, d) for d in grid) >= est.residual * (1 - 1e-9), seed

    def test_bad_bounds(self):
        with pytest.raises(EstimationError):
            LsqConfig(delta_bounds=(1.0, 1.0))

    def test_phase_invariance_of_delta(self):
        # fixed noise realization, theta swept: delta estimate stays put
        rng = np.random.default_rng(2)
        noise = 0.05 * (rng.normal(size=2458) + 1j * rng.normal(size=2458))
        deltas = []
        for theta in np.arange(0, 2 * math.pi, math.pi / 2):
            ch = chirp(3e3, float(theta))
            tr = IQTrace(ch.samples + noise, FS)
            deltas.append(estimate_fb_lsq(tr, PHY7, LsqConfig()).delta_hz)
        assert max(deltas) - min(deltas) <= 5.0


def direct_mag(x, delta):
    """|C(delta)|: the dechirped chirp's DFT magnitude at delta, by a direct sum."""
    t = np.arange(x.size) / FS
    phase = math.pi * PHY7.chirp_rate * t ** 2 - math.pi * PHY7.bandwidth_hz * t
    return abs(np.sum(x * np.exp(-1j * (phase + 2 * math.pi * delta * t))))


def oracle_delta(x, center):
    """argmax |C| within fs/N of center: a grid of step fs/(1000 N), then
    golden-section search between the best grid point's neighbours."""
    h = FS / (1000 * x.size)
    grid = center + h * np.arange(-1000, 1001)
    g = grid[int(np.argmax([direct_mag(x, d) for d in grid]))]
    a, b = g - h, g + h
    r = (math.sqrt(5) - 1) / 2
    while b - a > 1e-7:
        c, d = b - r * (b - a), a + r * (b - a)
        if direct_mag(x, c) >= direct_mag(x, d):
            b = d
        else:
            a = c
    return (a + b) / 2


class TestLsqNewton:
    @pytest.mark.parametrize("snr_db, seed", [(0.0, 0), (0.0, 1), (-24.0, 0), (-24.0, 48)])
    def test_matches_dense_direct_sum(self, snr_db, seed):
        # at -24 dB seed 48 has two grid peaks near the maximum, at -5.5 and
        # +19.1 kHz; the refinement must keep the one at the truth
        rng = np.random.default_rng(seed)
        delta, theta = rng.uniform(-25e3, 25e3), rng.uniform(0, 2 * math.pi)
        x = add_awgn(chirp(delta, theta), snr_db, rng_seed=seed).samples
        est = estimate_fb_lsq(IQTrace(x, FS), PHY7, LsqConfig())
        assert est.delta_hz == pytest.approx(oracle_delta(x, delta), abs=1e-3)
        assert est.residual == pytest.approx(lsq_cost(x, est.delta_hz), rel=1e-9)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_boundary_solution_flagged(self, sign):
        # the tone lies 400 Hz outside the bounds, inside its main lobe
        # (half-width fs/N = 976 Hz): |C| rises all the way to the bound
        est = estimate_fb_lsq(chirp(sign * 5.4e3), PHY7, LsqConfig((-5e3, 5e3)))
        assert est.delta_hz == sign * 5e3
        assert est.warning == "boundary solution: delta at a search bound"

    def test_tone_beyond_main_lobe_lands_on_sidelobe(self):
        # an 8 kHz tone is 3.07 bins beyond a 5 kHz bound, near a null of its
        # main lobe: the ML point in the bounds is a sidelobe inside them
        est = estimate_fb_lsq(chirp(8e3), PHY7, LsqConfig((-5e3, 5e3)))
        assert est.warning == "out of range: |C| peaks beyond a search bound"
        assert 4e3 < est.delta_hz < 5e3

    @pytest.mark.parametrize("delta", [-6e3, 7e3, 12e3, -20e3, 40e3])
    def test_out_of_range_tone_flagged(self, delta):
        # the guard band reaches 2 fs/N = 1953 Hz beyond each bound: the
        # sidelobes there outgrow the in-bounds maximum of a farther tone too
        est = estimate_fb_lsq(chirp(delta), PHY7, LsqConfig((-5e3, 5e3)))
        assert est.warning == "out of range: |C| peaks beyond a search bound"
        assert -5e3 <= est.delta_hz <= 5e3

    @pytest.mark.parametrize("delta", [-29.9e3, -15e3, 0.0, 22e3, 29.9e3])
    @pytest.mark.parametrize("snr_db", [math.inf, -12.0])
    def test_in_range_tone_not_flagged(self, delta, snr_db):
        noisy = add_awgn(chirp(delta, theta=1.0), snr_db, rng_seed=7)
        est = estimate_fb_lsq(noisy, PHY7, LsqConfig())
        assert est.warning is None
        assert est.delta_hz == pytest.approx(delta, abs=300)


def reference_dechirp(chirp, phy):
    """x[n] exp(-j Phi0(t_n)) by one direct exponential per sample."""
    return chirp.samples * np.exp(-1j * base_chirp_phase(phy, chirp.times()))


def reference_spectrum(y, fs, f0, step, m):
    """Bluestein's chirp-z with every twiddle and the kernel by direct exponentials."""
    n = y.size
    a = math.pi * step / fs
    idx = np.arange(n, dtype=float)
    lags = np.arange(1 - n, m, dtype=float)
    nfft = _fast_len(n + m - 1)
    pre = y * np.exp(-1j * (2 * math.pi * f0 / fs * idx + a * idx ** 2))
    conv = np.fft.ifft(np.fft.fft(pre, nfft) * np.fft.fft(np.exp(1j * a * lags ** 2), nfft))
    return conv[n - 1:n - 1 + m] * np.exp(-1j * a * lags[n - 1:] ** 2)


def reference_newton_peak(y, fs, delta, lo, hi):
    """Newton's method on |C|^2 with each step's sums over a direct exponential."""
    u = 2 * math.pi / fs * (np.arange(y.size) - (y.size - 1) / 2)
    u2 = u * u
    nxt = delta
    for _ in range(NEWTON_MAX_STEPS):
        delta = nxt
        ye = y * np.exp(-1j * u * delta)
        c0, c1, c2 = ye.sum(), ye @ u, ye @ u2
        d1 = (c0.conjugate() * c1).imag
        d2 = abs(c1) ** 2 - (c0.conjugate() * c2).real
        if d2 >= 0:
            break
        nxt = min(max(delta - d1 / d2, lo), hi)
        if abs(nxt - delta) < NEWTON_TOL_HZ:
            break
    return delta, abs(c0)


def table_counts():
    return [(b.cache_info().hits, b.cache_info().misses) for b in fbest._TABLE_BUILDERS]


def reference_lsq(chirp, phy, cfg):
    """estimate_fb_lsq with the direct-exponential dechirp, chirp-z and Newton.

    No table builder may be called on the way, or the reference would read
    the stored tables it is meant to check.
    """
    before = table_counts()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbest, "_dechirp", reference_dechirp)
        mp.setattr(fbest, "spectrum", reference_spectrum)
        mp.setattr(fbest, "_newton_peak", reference_newton_peak)
        est = estimate_fb_lsq(chirp, phy, cfg)
    assert table_counts() == before
    return est


class TestLsqMatchesDirectExp:
    @pytest.mark.parametrize("sf", [7, 9])
    @pytest.mark.parametrize("snr_db", [0.0, -12.0, -24.0])
    def test_random_chirps(self, sf, snr_db):
        phy = PhyParams(spreading_factor=sf, bandwidth_hz=125e3)
        for seed in range(4):
            rng = np.random.default_rng(100 * sf + seed)
            delta, theta = rng.uniform(-25e3, 25e3), rng.uniform(0, 2 * math.pi)
            ch = add_awgn(chirp(delta, theta, phy=phy), snr_db, rng_seed=seed)
            want = reference_lsq(ch, phy, LsqConfig())
            got = estimate_fb_lsq(ch, phy, LsqConfig())
            assert abs(got.delta_hz - want.delta_hz) <= 1e-9, (seed, got, want)
            assert got.warning == want.warning
            assert got.residual == pytest.approx(want.residual, rel=1e-12)

    @pytest.mark.parametrize("delta", [5.4e3, -5.4e3, 8e3, -20e3])
    def test_flagged_chirps(self, delta):
        ch = chirp(delta, 0.4)
        cfg = LsqConfig((-5e3, 5e3))
        want, got = reference_lsq(ch, PHY7, cfg), estimate_fb_lsq(ch, PHY7, cfg)
        assert got.warning == want.warning is not None
        assert abs(got.delta_hz - want.delta_hz) <= 1e-9


def clear_tables():
    for builder in fbest._TABLE_BUILDERS:
        builder.cache_clear()


def builder_args(n):
    """Arguments of one geometry with n samples, per table builder."""
    return {
        fbest.dechirp_table: (PHY7, FS, n),
        # chirp 1 of rows of n samples, a quarter sample after a whole one
        fbest.window_plan: (PHY7, (n + 0.25) * PHY7.bin_width_hz, (1,), 1),
        fbest.chirpz_plan: (n, FS, -30e3, 120.0, 40),
        fbest._newton_axis: (n, FS),
    }


class TestGeometryTables:
    PHY9 = PhyParams(spreading_factor=9, bandwidth_hz=125e3)

    def estimates(self, ch, phy, cfg):
        return estimate_fb_lsq(ch, phy, cfg), estimate_fb_fft(ch, phy)

    def test_cold_and_warm_bit_equal(self):
        ch = add_awgn(chirp(-7.3e3, 0.4), 0.0, rng_seed=5)
        clear_tables()
        cold = self.estimates(ch, PHY7, LsqConfig())
        assert table_counts() != [(0, 0)] * len(fbest._TABLE_BUILDERS)
        warm = self.estimates(ch, PHY7, LsqConfig())
        assert warm == cold

    def test_interleaved_geometries_match_alone(self):
        cases = [
            (add_awgn(chirp(d, 1.3, phy=phy), -6.0, rng_seed=i).samples, phy, cfg)
            for i, (d, phy) in enumerate([(3.1e3, PHY7), (-4.2e3, self.PHY9)])
            for cfg in (LsqConfig(), LsqConfig((-5e3, 5e3)))
        ]
        alone = []
        for x, phy, cfg in cases:
            clear_tables()
            alone.append(self.estimates(IQTrace(x, FS), phy, cfg))
        clear_tables()
        for _ in range(2):
            for (x, phy, cfg), want in zip(cases, alone):
                assert self.estimates(IQTrace(x, FS), phy, cfg) == want

    def test_tables_read_only(self):
        for builder, args in builder_args(300).items():
            tables = builder(*args)
            for table in tables if isinstance(tables, tuple) else (tables,):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 0

    def test_bounded(self):
        assert set(builder_args(1)) == set(fbest._TABLE_BUILDERS)
        for n in range(100, 100 + TABLE_CACHE_SIZE + 3):
            for builder, args in builder_args(n).items():
                builder(*args)
        for builder in fbest._TABLE_BUILDERS:
            assert builder.cache_info().currsize == TABLE_CACHE_SIZE


class TestLsqEfficiency:
    @pytest.mark.parametrize("snr_db", [0.0, -6.0, -12.0])
    def test_rms_error_at_cramer_rao_bound(self, snr_db):
        # single-tone bound (Rife & Boorstyn 1974):
        # var >= 6 fs^2 / ((2 pi)^2 SNR N (N^2 - 1)), SNR = A^2 / sigma^2 per sample
        n = 2458
        crb = 6 * FS ** 2 / ((2 * math.pi) ** 2 * 10 ** (snr_db / 10) * n * (n ** 2 - 1))
        errs = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            delta, theta = rng.uniform(-25e3, 25e3), rng.uniform(0, 2 * math.pi)
            x = add_awgn(chirp(delta, theta), snr_db, rng_seed=seed)
            errs.append(estimate_fb_lsq(x, PHY7, LsqConfig()).delta_hz - delta)
        ratio = math.sqrt(np.mean(np.square(errs)) / crb)
        assert 0.9 <= ratio <= 1.1, ratio


class TestConsistencyGrid:
    # noiseless estimator agreement over a delta x theta grid
    DELTAS = np.linspace(-25e3, 25e3, 10)
    THETAS = np.arange(0, 2 * math.pi, math.pi / 4)

    def test_fft_and_linreg_grid(self):
        for d in self.DELTAS:
            for th in self.THETAS:
                ch = chirp(float(d), float(th))
                assert abs(estimate_fb_fft(ch, PHY7).delta_hz - d) <= PHY7.bin_width_hz / 2
                assert abs(estimate_fb_linreg(ch, PHY7).delta_hz - d) <= 1.0

    def test_lsq_grid(self):
        for d in self.DELTAS[::3]:
            for th in self.THETAS[::2]:
                ch = chirp(float(d), float(th))
                est = estimate_fb_lsq(ch, PHY7, LsqConfig())
                assert abs(est.delta_hz - d) <= 1.0

    @pytest.mark.parametrize("bw", [125e3, 250e3, 500e3])
    def test_bandwidth_validity(self, bw):
        phy = PhyParams(spreading_factor=7, bandwidth_hz=bw)
        ch = chirp(-10e3, 1.0, phy=phy, fs=max(FS, 2 * bw))
        assert abs(estimate_fb_linreg(ch, phy).delta_hz + 10e3) <= 1.0
        assert abs(estimate_fb_fft(ch, phy).delta_hz + 10e3) <= phy.bin_width_hz / 2


class TestSecondChirp:
    def test_slices_second_chirp(self):
        fr = gen_frame(PHY7, TxParams(fb_hz=-20e3), RxParams(), [], FS)
        pad = 500
        tr = IQTrace(np.concatenate([np.zeros(pad, complex), fr.samples]), FS)
        ch2 = second_chirp(tr, PHY7, pad)
        assert len(ch2) == 2458
        est = estimate_fb_linreg(ch2, PHY7)
        # the slice starts on a whole sample, 0.4 samples after the chirp
        # boundary at fs T = 2457.6; second_chirp derotates it onto the
        # chirp's own clock, so the FB reads true to 0.05 Hz
        # (test_fb_true_at_exact_onset)
        assert est.delta_hz == pytest.approx(-20e3, abs=30.0)

    @pytest.mark.parametrize("fs", [2.4e6, 1e6])
    @pytest.mark.parametrize("sf", range(7, 13))
    def test_fb_true_at_exact_onset(self, sf, fs):
        # at 2.4 Msps fs T is fractional for every S: reading the slice's
        # first sample as chirp time 0 put LSQ and LINREG off by
        # K (n - fs T) / fs, +20.37 Hz at SF7 down to -0.32 Hz at SF12
        phy = PhyParams(spreading_factor=sf, bandwidth_hz=125e3)
        fr = gen_frame(phy, TxParams(fb_hz=-20e3), RxParams(), [], fs)
        ch2 = second_chirp(fr, phy, 0)
        assert estimate_fb_lsq(ch2, phy, LsqConfig()).delta_hz == pytest.approx(-20e3, abs=0.05)
        assert estimate_fb_linreg(ch2, phy).delta_hz == pytest.approx(-20e3, abs=0.05)

    def test_too_short_rejected(self):
        tr = IQTrace(np.ones(3000, complex), FS)
        with pytest.raises(SignalError):
            second_chirp(tr, PHY7, 1000)

    def test_negative_onset_rejected(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], FS)
        with pytest.raises(SignalError):
            second_chirp(fr, PHY7, -3000)
        with pytest.raises(SignalError):
            second_chirp(fr, PHY7, -1)


class TestDoppler:
    def test_zero_speed(self):
        assert doppler_fb(0.0, 869.75e6) == 0.0

    def test_70_kmh(self):
        fb = doppler_fb(70 / 3.6, 869.75e6)
        assert 50.0 <= fb <= 60.0
        assert fb == pytest.approx(56.4, abs=0.5)

    def test_sign_linearity(self):
        assert doppler_fb(-10.0, 869.75e6) == -doppler_fb(10.0, 869.75e6)
