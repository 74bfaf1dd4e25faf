import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lorastamp import onset
from lorastamp.onset import (
    AIC_COARSE_STRIDE,
    AIC_MIN_SEGMENT,
    AIC_REFINE_LEFT,
    AIC_REFINE_RIGHT,
    ENV_CHUNK_LEN,
    NoOnsetError,
    _ar2_sigma2,
    detect_aic,
    detect_env,
    rmsd_roundtrip,
)
from lorastamp.phy import (
    IQTrace,
    PhyParams,
    RxParams,
    TxParams,
    add_awgn,
    gen_frame,
)

PHY7 = PhyParams(spreading_factor=7, bandwidth_hz=125e3)
FS = 2.4e6
CHIRP_N = 2458


def padded_frame(pad, payload=(), snr_db=math.inf, seed=0, n_chirps=None):
    frame = gen_frame(PHY7, TxParams(), RxParams(), list(payload), FS)
    samples = frame.samples
    if n_chirps is not None:
        samples = samples[: n_chirps * CHIRP_N]
    full = IQTrace(np.concatenate([np.zeros(pad, complex), samples]), FS)
    if math.isfinite(snr_db):
        full = add_awgn(full, snr_db, rng_seed=seed, signal_range=(pad, len(full)))
    return full


def yule_walker_sigma2(seg):
    """AR(2) prediction error variance of seg, Yule-Walker solved directly."""
    mu = seg.mean()
    r0, r1, r2 = (np.mean(seg[: seg.size - k] * seg[k:]) - mu ** 2 for k in range(3))
    a1, a2 = np.linalg.solve([[r0, r1], [r1, r0]], [r1, r2])
    return r0 - a1 * r1 - a2 * r2


class TestEnv:
    def test_step_at_chunk_boundary(self):
        tr = padded_frame(1000, n_chirps=2)
        res = detect_env(tr)
        assert res.detector == "ENV"
        assert abs(res.onset_sample - 1000) <= 200

    def test_noisy_onset_within_one_chunk(self):
        errs = []
        for seed in range(20):
            tr = padded_frame(1400, n_chirps=3, snr_db=10.0, seed=seed)
            errs.append(abs(detect_env(tr).onset_sample - 1400))
        assert max(errs) <= 200

    def test_all_zero_raises(self):
        with pytest.raises(NoOnsetError):
            detect_env(IQTrace(np.zeros(5000, complex), FS))

    def test_too_short_raises(self):
        with pytest.raises(NoOnsetError):
            detect_env(IQTrace(np.ones(100, complex), FS))


class TestAic:
    def test_high_snr_bias_within_4_samples(self):
        for seed in range(10):
            tr = padded_frame(1000, n_chirps=2, snr_db=15.0, seed=seed)
            res = detect_aic(tr)
            assert 996 <= res.onset_sample <= 1004

    def test_degenerate_trace_raises(self):
        with pytest.raises(NoOnsetError):
            detect_aic(IQTrace(np.ones(4000, complex), FS))

    def test_short_trace_raises(self):
        with pytest.raises(NoOnsetError):
            detect_aic(IQTrace(np.ones(100, complex), FS))

    def test_phase_independence(self):
        # fixed noise realization, swept carrier phase: AIC stays put
        rng = np.random.default_rng(11)
        noise = 0.158 * (rng.normal(size=5916) + 1j * rng.normal(size=5916))
        onsets = []
        for theta in np.arange(0, 2 * math.pi, math.pi / 4):
            frame = gen_frame(PHY7, TxParams(phase_rad=float(theta)), RxParams(), [], FS)
            sig = np.concatenate([np.zeros(1000, complex), frame.samples[: 2 * CHIRP_N]])
            tr = IQTrace(sig + noise, FS)
            onsets.append(detect_aic(tr).onset_sample)
        assert max(onsets) - min(onsets) <= 8

    def test_ar2_sigma2_matches_direct_yule_walker(self):
        x = np.abs(padded_frame(1000, n_chirps=2, snr_db=5.0, seed=1).samples)
        starts = np.array([0, 0, 0, 300, 1000, 2500])
        stops = np.array([256, 1000, x.size, x.size, 3000, x.size])
        segs = [x[a:b] for a, b in zip(starts, stops)]
        sums = np.array([[s.sum(), s @ s, s[:-1] @ s[1:], s[:-2] @ s[2:]] for s in segs])
        got = _ar2_sigma2(stops - starts, sums.T.copy())
        for seg, sigma2 in zip(segs, got):
            assert sigma2 == pytest.approx(yule_walker_sigma2(seg), rel=1e-8)

    def test_phase_stable_where_matched_filter_drifts(self):
        # a real-part matched filter against two ideal preamble chirps peaks
        # at whichever chirp boundary the carrier phase and a 200 Hz residual
        # FB happen to align, chirps away from the onset; AIC reads the
        # phase-free magnitude and stays on it
        pad = 1200
        template = np.real(gen_frame(PHY7, TxParams(), RxParams(), [], FS).samples[: 2 * CHIRP_N])
        mf_errs, aic_errs = [], []
        for theta in np.arange(0, 2 * math.pi, math.pi / 4):
            tx = TxParams(fb_hz=200.0, phase_rad=float(theta))
            frame = gen_frame(PHY7, tx, RxParams(), [], FS)
            sig = np.concatenate([np.zeros(pad, complex), frame.samples])
            tr = add_awgn(IQTrace(sig, FS), 10.0, rng_seed=7, signal_range=(pad, sig.size))
            mf_errs.append(int(np.argmax(np.correlate(tr.samples.real, template, mode="valid"))) - pad)
            aic_errs.append(detect_aic(tr).onset_sample - pad)
        assert max(abs(e) for e in aic_errs) <= 2
        assert max(abs(e) for e in mf_errs) > 1000


def direct_aic(x, c):
    """AIC of splitting x at c, each segment's AR(2) fit by direct Yule-Walker."""
    return (c * math.log(yule_walker_sigma2(x[:c]))
            + (x.size - c) * math.log(yule_walker_sigma2(x[c:])))


def oracle_aic(x):
    """The AIC picker with every candidate split evaluated on its own segments."""
    n = x.size
    coarse = range(AIC_MIN_SEGMENT, n - AIC_MIN_SEGMENT + 1, AIC_COARSE_STRIDE)
    k0 = min(coarse, key=lambda c: direct_aic(x, c))
    fine = np.arange(max(AIC_MIN_SEGMENT, k0 - AIC_REFINE_LEFT),
                     min(n - AIC_MIN_SEGMENT, k0 + AIC_REFINE_RIGHT) + 1)
    aic = np.array([direct_aic(x, int(c)) for c in fine])
    best = int(np.argmin(aic))
    return int(fine[best]), float(np.median(aic) - aic[best])


class TestAicOracle:
    @pytest.mark.parametrize("n, step", [
        (512, 256), (3001, 1234), (4159, 256), (4159, 4159 - 256), (2037, 2037 - 256),
        (6000, 3000), (4097, 700),
        # the last coarse split is exactly n - 256, and the fine window reaches it
        (4352, 4352 - 256), (4352, 4352 - 300),
        # two coarse splits; the fine window spans both segment floors, 256 and n - 256
        (577, 300), (577, 260)])
    def test_matches_direct_yule_walker(self, n, step):
        rng = np.random.default_rng(n + step)
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        s[step:] *= 3.0
        res = detect_aic(IQTrace(s, FS))
        onset_sample, score = oracle_aic(np.abs(s))
        assert res.onset_sample == onset_sample
        assert res.score == pytest.approx(score, rel=1e-9)

    def test_coarse_minimum_late_of_a_narrow_notch(self):
        # past the onset the left AR(2) segment absorbs the step and the AIC
        # curve stays flat, so its minimum is a narrow notch at the onset that
        # the 64-sample grid misses: here the coarse minimum lies 166 samples
        # late, beyond a 128-sample reach, and the fine pass must reach back
        pad = 474
        tr = padded_frame(pad, snr_db=20.0, seed=2, n_chirps=2)
        x = np.abs(tr.samples)
        n = x.size
        full = min(range(AIC_MIN_SEGMENT, n - AIC_MIN_SEGMENT + 1), key=lambda c: direct_aic(x, c))
        k0 = min(range(AIC_MIN_SEGMENT, n - AIC_MIN_SEGMENT + 1, AIC_COARSE_STRIDE),
                 key=lambda c: direct_aic(x, c))
        assert full == pad
        assert k0 - full > 128
        assert detect_aic(tr).onset_sample == full

    def test_memory_beyond_envelope_bounded(self):
        # the envelope is 8 n bytes; every other array is O(n / 64)
        n = 2_000_000
        rng = np.random.default_rng(5)
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        s[n // 3:] *= 3.0
        tr = IQTrace(s, FS)
        tracemalloc.start()
        try:
            res = detect_aic(tr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.onset_sample - n // 3) <= 16
        assert peak < 2 * 8 * n


def pinned_frames():
    """Two full frames per SF 7-10, random FB, phase, payload and lead, each
    at 20, 0, -10 and -20 dB: (sf, lead, the four traces)."""
    rng = np.random.default_rng(2024)
    for sf in (7, 8, 9, 10):
        phy = PhyParams(spreading_factor=sf, bandwidth_hz=125e3)
        for _ in range(2):
            tx = TxParams(fb_hz=float(rng.uniform(-20e3, 20e3)),
                          phase_rad=float(rng.uniform(0, 2 * math.pi)))
            frame = gen_frame(phy, tx, RxParams(), rng.integers(0, phy.n_bins, 4).tolist(), FS)
            lead = int(rng.integers(300, 3000))
            clean = IQTrace(np.concatenate([np.zeros(lead, complex), frame.samples]), FS)
            yield sf, lead, [add_awgn(clean, snr_db, rng_seed=int(rng.integers(1 << 31)),
                                      signal_range=(lead, len(clean)))
                             for snr_db in (20.0, 0.0, -10.0, -20.0)]


# detect_aic's onsets on pinned_frames() at 20, 0, -10 and -20 dB, as the
# two-pass picker found them before its sums were regrouped; at -20 dB and
# on the SF10 frame with a 364-sample lead it misses, and that stays pinned too
PINNED_ONSETS = [
    (7, 2771, (2771, 2771, 2740, 21304)), (7, 1889, (1889, 1890, 1775, 20208)),
    (8, 2032, (2032, 2029, 1175, 15641)), (8, 2662, (2662, 2670, 2651, 15451)),
    (9, 2413, (2413, 2410, 2409, 141654)), (9, 1563, (1563, 1571, 140676, 7198)),
    (10, 2493, (2493, 2496, 2457, 265564)), (10, 364, (787, 368, 265417, 254596)),
]


def test_full_frame_onsets_pinned():
    # any change to how the AIC sums are formed must leave every onset put
    got = [(sf, lead, tuple(detect_aic(tr).onset_sample for tr in traces))
           for sf, lead, traces in pinned_frames()]
    assert got == PINNED_ONSETS


class TestTranslationEquivariance:
    @pytest.mark.parametrize("shift", [200, 600])
    def test_all_detectors_shift(self, shift):
        base_pad = 1200
        frame = gen_frame(PHY7, TxParams(), RxParams(), [5], FS)
        rng = np.random.default_rng(3)
        sigma = 0.05
        results = {}
        for pad in (base_pad, base_pad + shift):
            sig = np.concatenate([np.zeros(pad, complex), frame.samples])
            noise = sigma * (rng.normal(size=sig.size) + 1j * rng.normal(size=sig.size))
            tr = IQTrace(sig + noise, FS)
            results[pad] = (detect_env(tr).onset_sample, detect_aic(tr).onset_sample)
        a, b = results[base_pad], results[base_pad + shift]
        tolerances = (200, 16)
        for x, y, tol in zip(a, b, tolerances):
            assert abs((y - x) - shift) <= tol


def test_detector_accuracy_ordering():
    # at moderate SNR the sample-resolution AIC beats the chunk-resolution ENV
    sq = {"ENV": [], "AIC": []}
    pad_rng = np.random.default_rng(99)
    for seed in range(12):
        # random pad so quantized detectors see uniform boundary phases
        pad = int(pad_rng.integers(1200, 1800))
        tr = padded_frame(pad, payload=[9], snr_db=10.0, seed=seed)
        sq["ENV"].append((detect_env(tr).onset_sample - pad) ** 2)
        sq["AIC"].append((detect_aic(tr).onset_sample - pad) ** 2)
    rmsd = {k: math.sqrt(np.mean(v)) for k, v in sq.items()}
    assert rmsd["AIC"] < rmsd["ENV"]


@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
@pytest.mark.parametrize("pad", [1137, 1523])
@pytest.mark.parametrize("fb_hz", [-20e3, 0.0, 15e3])
@pytest.mark.parametrize("sf", [7, 8, 9, 10])
def test_full_frame_onset_across_sf_and_fb(sf, fb_hz, pad, snr_db):
    # a whole frame (preamble and SFD) after a pad that is no multiple of
    # ENV's chunk or AIC's coarse stride, at the FBs a gateway sees
    phy = PhyParams(spreading_factor=sf, bandwidth_hz=125e3)
    frame = gen_frame(phy, TxParams(fb_hz=fb_hz), RxParams(), [], FS)
    tr = IQTrace(np.concatenate([np.zeros(pad, complex), frame.samples]), FS)
    if math.isfinite(snr_db):
        tr = add_awgn(tr, snr_db, rng_seed=sf, signal_range=(pad, len(tr)))
    tr.t0_ns = 5_000_000
    for res, tolerance in ((detect_aic(tr), 4), (detect_env(tr), ENV_CHUNK_LEN)):
        assert abs(res.onset_sample - pad) <= tolerance
        assert res.onset_time_ns == 5_000_000 + round(res.onset_sample / FS * 1e9)


def test_imports_no_scipy_signal():
    code = ("import sys, lorastamp.onset; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'signal']))")
    env = {**os.environ, "PYTHONPATH": str(Path(onset.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestRmsdRoundtrip:
    def test_all_zero(self):
        assert rmsd_roundtrip([0.0, 0.0, 0.0]) == 0.0

    def test_half_identity(self):
        d = [2.0, -2.0, 2.0, -2.0]
        assert rmsd_roundtrip(d) == pytest.approx(1.0)

    def test_monte_carlo_recovers_sigma(self):
        # each round trip stacks 4 iid N(0, sigma^2) onset errors
        sigma = 0.33e-6
        rng = np.random.default_rng(8)
        deltas = rng.normal(0, sigma, (10_000, 4)).sum(axis=1)
        assert rmsd_roundtrip(deltas) == pytest.approx(sigma, rel=0.05)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            rmsd_roundtrip([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rmsd_roundtrip([1.0, math.nan])
