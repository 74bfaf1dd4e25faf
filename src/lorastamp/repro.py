"""Plot-ready CSV datasets for the figure-style experiment suites.

Each builder in ``BUILDERS`` takes exactly (output dir, seed=0), writes one
CSV with a canonical row order and returns its path.  Sweep sizes are fixed
inside the builders, so a dataset is a pure function of the seed and reruns
are byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from lorastamp import attack, defense, fbest, onset
from lorastamp.phy import IQTrace, PhyParams, RxParams, TxParams, add_awgn, gen_frame, gen_up_chirp

DEFAULT_PHY = PhyParams(spreading_factor=7, bandwidth_hz=125e3)


def _write(path: Path, header: str, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def build_fig4(out_dir: Path, seed: int = 0) -> Path:
    """Collision outcome over the (RTM, SCR) plane from the empirical map."""
    outcome_map = attack.OutcomeMap()
    rows = []
    for rtm in np.arange(0.0, 1.01, 0.05):
        for scr in np.arange(-12.0, 12.01, 1.0):
            tag = outcome_map.classify(round(float(rtm), 2), float(scr))
            rows.append(f"{rtm:.2f},{scr:.1f},{tag}")
    return _write(out_dir / "fig4_outcome_map.csv", "rtm,scr_db,outcome", rows)


def build_fig5(out_dir: Path, seed: int = 0) -> Path:
    """Core vulnerable area vs gateway-eavesdropper distance per collider power."""
    model = attack.PathLossModel()
    rows = []
    for p_c in (2.0, 5.0, 8.0):
        for d_ge in range(100, 1001, 100):
            scenario = attack.CollisionScenario(
                eavesdropper=(float(d_ge), 0.0, 0.0), p_collider_dbm=p_c
            )
            area = attack.vulnerable_area(
                scenario, model, (-300.0, d_ge + 300.0, -300.0, 300.0), 5.0
            )
            rows.append(f"{p_c:.0f},{d_ge},{area.core_area_m2:.1f}")
    return _write(out_dir / "fig5_vulnerable_area.csv", "p_c_dbm,d_ge_m,core_area_m2", rows)


def _aic_error_us(snr_db: float, seed: int, pad: int) -> float:
    phy = DEFAULT_PHY
    chirps = gen_frame(phy, TxParams(), RxParams(), [], 2.4e6)
    two = chirps.samples[:2 * round(2.4e6 * phy.chirp_time)]
    samples = np.concatenate([np.zeros(pad, dtype=np.complex128), two])
    trace = add_awgn(
        IQTrace(samples, 2.4e6), snr_db, rng_seed=seed, signal_range=(pad, len(samples))
    )
    res = onset.detect_aic(trace)
    return (res.onset_sample - pad) / 2.4e6 * 1e6


def build_fig12(out_dir: Path, seed: int = 0) -> Path:
    """AIC onset RMSD vs SNR on synthetic two-chirp traces at 2.4 Msps."""
    pad = 1200
    n_seeds = 30
    rows = []
    for snr in (10.0, 0.0, -10.0, -20.0):
        errs = [_aic_error_us(snr, seed * 100_000 + i, pad) for i in range(n_seeds)]
        rmsd = math.sqrt(float(np.mean(np.square(errs))))
        rows.append(f"{snr:.0f},{rmsd:.3f},{n_seeds}")
    return _write(out_dir / "fig12_aic_rmsd.csv", "snr_db,rmsd_us,n_seeds", rows)


def _fb_error_hz(method: str, snr_db: float, seed: int) -> float:
    phy = DEFAULT_PHY
    rng = np.random.default_rng(seed)
    delta = float(rng.uniform(-25e3, 25e3))
    theta = float(rng.uniform(0, 2 * math.pi))
    chirp = gen_up_chirp(phy, TxParams(fb_hz=delta, phase_rad=theta), RxParams(), 2.4e6)
    noisy = add_awgn(chirp, snr_db, rng_seed=seed)
    if method == "linreg":
        est = fbest.estimate_fb_linreg(noisy, phy)
    else:
        est = fbest.estimate_fb_lsq(noisy, phy, fbest.LsqConfig())
    return est.delta_hz - delta


def _fb_percentiles(method: str, snrs, seed: int):
    n_chirps = 20
    rows = []
    for snr in snrs:
        base = seed * 100_000 + (1 if method == "lsq" else 2) * 10_000 + int(snr) * 100
        errs = [_fb_error_hz(method, snr, base + i * 7) for i in range(n_chirps)]
        p20, p80 = np.percentile(errs, [20, 80])
        rows.append(f"{snr:.0f},{p20:.1f},{p80:.1f},{method}")
    return rows


def build_fig13a(out_dir: Path, seed: int = 0) -> Path:
    """Linear-regression FB error percentiles vs SNR (degrades below ~20 dB)."""
    rows = _fb_percentiles("linreg", (40.0, 20.0, 0.0), seed)
    return _write(out_dir / "fig13a_linreg_error.csv", "snr_db,p20_hz,p80_hz,estimator", rows)


def build_fig13b(out_dir: Path, seed: int = 0) -> Path:
    """Least-squares FB error percentiles vs SNR (stays tight down to -18 dB)."""
    rows = _fb_percentiles("lsq", (0.0, -6.0, -12.0, -18.0, -24.0), seed)
    return _write(out_dir / "fig13b_lsq_error.csv", "snr_db,p20_hz,p80_hz,estimator", rows)


def synth_fb_series(seed: int, n: int, interval_s: float) -> np.ndarray:
    """Synthetic long-run FB series: indoor diurnal temperature trend through
    the ~800 Hz/C crystal sensitivity, measurement noise, and rare transients."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * interval_s
    temp = 0.3 * np.sin(2 * math.pi * t / 86400.0)
    fb = -20e3 + 800.0 * temp + rng.normal(0.0, 50.0, n)
    spikes = rng.random(n) < 0.02
    fb[spikes] += rng.uniform(300.0, 700.0, int(np.count_nonzero(spikes))) * rng.choice(
        [-1.0, 1.0], int(np.count_nonzero(spikes))
    )
    return fb


def build_fig17(out_dir: Path, seed: int = 0) -> Path:
    """False-alarm rate of the FB-history check vs frame interval."""
    rows = []
    for interval in (60, 600, 1800):
        n = max(200, int(3 * 86400 / interval))
        fb = synth_fb_series(seed + interval, n, float(interval))
        profile = defense.DeviceProfile(device_id="sim")
        defense.seed_fb_history(profile, 7, 125e3, [(0, fb[0])])
        alarms = 0
        for i in range(1, n):
            obs = defense.FrameObservation(
                device_id="sim",
                rx_time_ns=int(i * interval * 1e9),
                fb=fbest.FbEstimate(float(fb[i]), "LSQ", 0.0),
                sf=7,
                bw_hz=125e3,
                frame_counter=i,
            )
            if defense.check_fb(profile, obs) is defense.Verdict.REPLAY_SUSPECTED:
                alarms += 1
        rows.append(f"{interval},{alarms / (n - 1):.5f},{n - 1}")
    return _write(out_dir / "fig17_false_alarms.csv", "interval_s,false_alarm_rate,n_frames", rows)


BUILDERS = {
    "fig4": build_fig4,
    "fig5": build_fig5,
    "fig12": build_fig12,
    "fig13a": build_fig13a,
    "fig13b": build_fig13b,
    "fig17": build_fig17,
}
