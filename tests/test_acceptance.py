"""End-to-end acceptance suite.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (written to
the real stdout so it survives pytest capture) and asserts the same
condition, so the printed verdict and the test outcome always agree.
"""

import functools
import itertools
import math
import sys
import time

import numpy as np
import pytest

from lorastamp import attack, defense, fbest, onset, repro, stamping
from lorastamp.phy import (
    IQTrace,
    PhyParams,
    RxParams,
    TxParams,
    add_awgn,
    gen_frame,
    gen_up_chirp,
)

PHY7 = PhyParams(spreading_factor=7, bandwidth_hz=125e3)
FS = 2.4e6


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _chirp(delta: float, theta: float) -> IQTrace:
    return gen_up_chirp(PHY7, TxParams(fb_hz=delta, phase_rad=theta), RxParams(), FS)


def _fb_errors(method: str, snr_db: float, n: int = 20, base_seed: int = 1000):
    """Estimation errors over n chirps with random (delta, theta)."""
    errs = []
    for i in range(n):
        seed = base_seed + i
        rng = np.random.default_rng(seed)
        delta = float(rng.uniform(-25e3, 25e3))
        theta = float(rng.uniform(0, 2 * math.pi))
        noisy = add_awgn(_chirp(delta, theta), snr_db, rng_seed=seed)
        if method == "lsq":
            est = fbest.estimate_fb_lsq(noisy, PHY7, fbest.LsqConfig())
        else:
            est = fbest.estimate_fb_linreg(noisy, PHY7)
        errs.append(est.delta_hz - delta)
    return np.array(errs)


@functools.lru_cache(maxsize=None)
def _lsq_band_minus18():
    t0 = time.monotonic()
    errs = _fb_errors("lsq", -18.0)
    elapsed = time.monotonic() - t0
    p20, p80 = np.percentile(errs, [20, 80])
    return p20, p80, elapsed


def test_acceptance_01_lsq_accuracy_at_minus18db():
    p20, p80, elapsed = _lsq_band_minus18()
    ok = max(abs(p20), abs(p80)) <= 120.0 and elapsed <= 300.0
    report(
        1,
        ok,
        f"LSQ 20/80 band at -18 dB = [{p20:.1f}, {p80:.1f}] Hz "
        f"(limit +/-120), runtime {elapsed:.1f} s (limit 300)",
    )


def test_acceptance_02_estimator_contrast():
    lin40 = _fb_errors("linreg", 40.0)
    lin0 = _fb_errors("linreg", 0.0)
    p20_40, p80_40 = np.percentile(lin40, [20, 80])
    p20_0, p80_0 = np.percentile(lin0, [20, 80])
    p20_l, p80_l, _ = _lsq_band_minus18()
    ok = (
        max(abs(p20_40), abs(p80_40)) <= 150.0
        and max(abs(p20_0), abs(p80_0)) > 1000.0
        and max(abs(p20_l), abs(p80_l)) <= 120.0
    )
    report(
        2,
        ok,
        f"LINREG band 40 dB [{p20_40:.1f}, {p80_40:.1f}] Hz (limit +/-150), "
        f"0 dB [{p20_0:.0f}, {p80_0:.0f}] Hz (must exceed +/-1000); "
        f"LSQ -18 dB [{p20_l:.1f}, {p80_l:.1f}] Hz (limit +/-120)",
    )


def test_acceptance_03_fft_bin_quantization():
    bin_hz = PHY7.bin_width_hz
    rng = np.random.default_rng(5)
    on_grid = True
    for _ in range(10):
        delta = float(rng.uniform(-25e3, 25e3))
        est = fbest.estimate_fb_fft(_chirp(delta, float(rng.uniform(0, 2 * math.pi))), PHY7)
        q = est.delta_hz / bin_hz
        on_grid &= abs(q - round(q)) < 1e-9 and abs(est.delta_hz - delta) <= bin_hz / 2
    ok = on_grid and abs(bin_hz - 976.5625) < 1e-9
    report(3, ok, f"DECHIRP_FFT quantized to {bin_hz:.4f} Hz bins (expect 976.5625)")


def _aic_errors_samples(snr_db: float, n_seeds: int = 100, pad: int = 1200):
    frame = gen_frame(PHY7, TxParams(), RxParams(), [], FS)
    two = frame.samples[: 2 * round(FS * PHY7.chirp_time)]
    sig = np.concatenate([np.zeros(pad, complex), two])
    errs = []
    for seed in range(n_seeds):
        tr = add_awgn(IQTrace(sig, FS), snr_db, rng_seed=seed, signal_range=(pad, sig.size))
        errs.append(onset.detect_aic(tr).onset_sample - pad)
    return np.array(errs, dtype=float)


def test_acceptance_04a_aic_bias_high_snr():
    errs = _aic_errors_samples(15.0)
    bias = float(np.mean(errs))
    ok = abs(bias) <= 4.0
    report(4, ok, f"4a: AIC bias at 15 dB over 100 seeds = {bias:.2f} samples (limit 4)")


def test_acceptance_04b_aic_rmsd_minus20db():
    errs = _aic_errors_samples(-20.0)
    rmsd_us = math.sqrt(float(np.mean(errs ** 2))) / FS * 1e6
    ok = rmsd_us <= 5.0
    report(4, ok, f"4b: AIC RMSD at -20 dB over 100 seeds = {rmsd_us:.2f} us (limit 5)")


def test_acceptance_05_roundtrip_identity():
    sigma = 0.33e-6
    rng = np.random.default_rng(8)
    deltas = rng.normal(0, sigma, (10_000, 4)).sum(axis=1)
    est = onset.rmsd_roundtrip(deltas)
    rel = abs(est - sigma) / sigma
    ok = rel < 0.05
    report(5, ok, f"half-RMSD identity recovers sigma within {rel * 100:.2f}% (limit 5%)")


def test_acceptance_06_collision_outcome_map():
    expected_rows = (
        (7, 10, 5, 28, 141),
        (7, 20, 5, 38, 156),
        (7, 30, 6, 41, 165),
        (7, 40, 6, 54, 178),
        (7, 30, 6, 41, 165),
        (8, 30, 10, 82, 208),
        (9, 30, 22, 156, 274),
    )
    cells_ok = attack.WINDOW_ROWS == expected_rows  # 7 rows x 3 windows = 21 cells
    rng = np.random.default_rng(42)
    header = list(range(8))
    victim = header + [int(v) for v in rng.integers(0, 128, 27)]
    collider = header + [int(v) for v in rng.integers(0, 128, 27)]
    stealthy = attack.collision_outcome_waveform(PHY7, victim, collider, 0.0, 0.2)
    late = attack.collision_outcome_waveform(PHY7, victim, collider, 0.0, 0.5)
    m = attack.OutcomeMap()
    grid_ok = all(
        attack.collision_outcome_waveform(PHY7, victim, collider, scr, rtm)
        == m.classify(rtm, scr)
        for scr in (-10.0, -3.0, 0.0, 3.0, 10.0)
        for rtm in (0.1, 0.2, 0.3, 0.45, 0.5)
    )
    ok = (
        cells_ok
        and stealthy == attack.STEALTHY
        and late == attack.VICTIM_RECEIVED
        and grid_ok
    )
    report(
        6,
        ok,
        f"21 window cells exact={cells_ok}; waveform RTM0.2/SCR0={stealthy}, "
        f"RTM0.5={late}; 5x5 grid matches map={grid_ok}",
    )


def test_acceptance_07_vulnerable_area_properties():
    model = attack.PathLossModel()
    # (a) core == ring AND disk, re-derived per cell from scr_at
    sc = attack.CollisionScenario()
    area = attack.vulnerable_area(sc, model, (-100.0, 500.0, -150.0, 150.0), 5.0)
    consistent = True
    for (x, y), cls in zip(itertools.product(area.xs, area.ys), area.classes.ravel()):
        pos = (float(x), float(y), sc.victim[2])
        probe = attack.CollisionScenario(
            victim=pos, p_victim_dbm=sc.p_victim_dbm, p_collider_dbm=sc.p_collider_dbm
        )
        ring = (
            attack.STEALTHY_SCR_MIN_DB
            <= attack.scr_at(sc.gateway, probe, model)
            <= attack.STEALTHY_SCR_MAX_DB
        )
        disk = (
            probe.p_victim_dbm - attack.path_loss(model, pos, sc.eavesdropper)
        ) - (
            probe.p_collider_dbm - attack.path_loss(model, sc.collider, sc.eavesdropper)
        ) >= attack.EAVESDROP_SCR_MIN_DB
        want = "core" if (ring and disk) else ("disk" if disk else ("ring" if ring else "none"))
        if want != cls:
            consistent = False
            break
    # (b, c) area vs d_ge is non-decreasing then saturating per collider power
    areas = {}
    for p_c in (2.0, 5.0, 8.0):
        vals = []
        for d_ge in range(100, 1001, 100):
            scen = attack.CollisionScenario(
                eavesdropper=(float(d_ge), 0.0, 0.0), p_collider_dbm=p_c
            )
            vals.append(
                attack.vulnerable_area(
                    scen, model, (-300.0, d_ge + 300.0, -300.0, 300.0), 5.0
                ).core_area_m2
            )
        areas[p_c] = vals
    monotone = all(
        b >= a - 1e-9 for vals in areas.values() for a, b in zip(vals, vals[1:])
    )
    saturating = all(
        abs(vals[-1] - vals[-2]) <= 0.01 * max(vals[-1], 1.0) for vals in areas.values()
    )
    pc2_largest = areas[2.0][-1] >= areas[5.0][-1] and areas[2.0][-1] >= areas[8.0][-1]
    # (d) halving the cell size changes the area < 2%
    a5 = attack.vulnerable_area(sc, model, (-300.0, 700.0, -300.0, 300.0), 5.0)
    a25 = attack.vulnerable_area(sc, model, (-300.0, 700.0, -300.0, 300.0), 2.5)
    grid_stable = abs(a25.core_area_m2 - a5.core_area_m2) / a5.core_area_m2 < 0.02
    ok = consistent and monotone and saturating and pc2_largest and grid_stable
    report(
        7,
        ok,
        f"core==ring&disk {consistent}; monotone {monotone}; saturating {saturating}; "
        f"P_c=2 largest {pc2_largest} ({areas[2.0][-1]:.0f} m2); grid-halving "
        f"delta {abs(a25.core_area_m2 - a5.core_area_m2) / a5.core_area_m2 * 100:.2f}%",
    )


def _replay_alarm_count(replayer_fb: float, n_runs: int = 100, snr_db: float = -6.0) -> int:
    device_fb = -20e3
    clean = gen_frame(PHY7, TxParams(fb_hz=device_fb), RxParams(), [], FS)
    # supervised baseline: one clean estimate seeds the 20-entry history
    base_chirp = fbest.second_chirp(clean, PHY7, 0)
    baseline = fbest.estimate_fb_lsq(base_chirp, PHY7, fbest.LsqConfig()).delta_hz
    alarms = 0
    for seed in range(n_runs):
        replayed = attack.replay(clean, 0.5, replayer_fb, rng_seed=seed)
        noisy = add_awgn(replayed, snr_db, rng_seed=seed)
        est = fbest.estimate_fb_lsq(fbest.second_chirp(noisy, PHY7, 0), PHY7, fbest.LsqConfig())
        profile = defense.DeviceProfile("dev-1")
        defense.seed_fb_history(profile, 7, 125e3, [(i, baseline) for i in range(20)])
        obs = defense.FrameObservation("dev-1", 0, est, 7, 125e3, 1)
        if defense.check_fb(profile, obs) is defense.Verdict.REPLAY_SUSPECTED:
            alarms += 1
    return alarms


def test_acceptance_08_replay_detection_end_to_end():
    hits = _replay_alarm_count(-600.0)
    misses = _replay_alarm_count(-30.0)
    ok = hits >= 99 and misses <= 5
    report(
        8,
        ok,
        f"gen->replay->lsq->check_fb at SNR -6 dB: -600 Hz alarms {hits}/100 "
        f"(need >=99), zero-FB -30 Hz alarms {misses}/100 (need <=5)",
    )


def test_acceptance_09_pih():
    seed = bytes(range(32))
    tol = 0.010

    def fresh():
        return defense.DeviceProfile(
            "dev-1", pih=defense.PihState(seed, 10.0, 250.0, tol)
        )

    # attacker adding 150 ms: flagged on the very first delayed frame
    p = fresh()
    t0 = 0.0
    defense.pih_verify(p, defense.FrameObservation("dev-1", 0, fbest.FbEstimate(0, "LSQ", 0), 7, 125e3, 0))
    t1 = t0 + defense.pih_next_interval(seed, 0, 10.0, 250.0) + 0.150
    v = defense.pih_verify(
        p, defense.FrameObservation("dev-1", round(t1 * 1e9), fbest.FbEstimate(0, "LSQ", 0), 7, 125e3, 1)
    )
    attacker_flagged = v is defense.Verdict.DELAY_SUSPECTED

    # honest device: uniform drift <= 40 ppm over intervals <= 250 s, 1e4 frames
    p = fresh()
    rng = np.random.default_rng(0)
    t = 0.0
    false_alarms = 0
    defense.pih_verify(p, defense.FrameObservation("dev-1", 0, fbest.FbEstimate(0, "LSQ", 0), 7, 125e3, 0))
    for i in range(1, 10_000):
        interval = defense.pih_next_interval(seed, i - 1, 10.0, 250.0)
        drift = float(rng.uniform(-40e-6, 40e-6))
        t += interval * (1 + drift)
        v = defense.pih_verify(
            p,
            defense.FrameObservation(
                "dev-1", round(t * 1e9), fbest.FbEstimate(0, "LSQ", 0), 7, 125e3, i
            ),
        )
        if v is not defense.Verdict.ACCEPT:
            false_alarms += 1

    # one lost frame recovered through the cumulative-interval check
    p = fresh()
    defense.pih_verify(p, defense.FrameObservation("dev-1", 0, fbest.FbEstimate(0, "LSQ", 0), 7, 125e3, 0))
    t2 = defense.pih_next_interval(seed, 0, 10.0, 250.0) + defense.pih_next_interval(
        seed, 1, 10.0, 250.0
    )
    v = defense.pih_verify(
        p, defense.FrameObservation("dev-1", round(t2 * 1e9), fbest.FbEstimate(0, "LSQ", 0), 7, 125e3, 2)
    )
    recovered = v is defense.Verdict.GAP_RECOVERED

    ok = attacker_flagged and false_alarms == 0 and recovered
    report(
        9,
        ok,
        f"150 ms delay flagged immediately={attacker_flagged}; honest false alarms "
        f"{false_alarms}/9999 (need 0); lost-frame recovery={recovered}",
    )


def test_acceptance_10_temperature_fb():
    slope, intercept, sigma_hz = 800.0, -25e3, 80.0
    rng = np.random.default_rng(12)
    temps = rng.uniform(10.0, 40.0, 200)
    fbs = slope * temps + intercept + rng.normal(0, sigma_hz, temps.size)
    model = defense.fit_temp_model(list(zip(temps, fbs)))
    rmse_ok = model.rmse_c < 0.5

    profile = defense.DeviceProfile("dev-1", temp_model=model)

    def verdicts(shift_hz, threshold):
        out = []
        for k in range(500):
            t = float(rng.uniform(10.0, 40.0))
            fb = slope * t + intercept + float(rng.normal(0, sigma_hz)) + shift_hz
            obs = defense.FrameObservation(
                "dev-1", 0, fbest.FbEstimate(fb, "LSQ", 0.0), 7, 125e3, k, temp_reading_c=t
            )
            out.append(defense.check_temp_consistency(profile, obs, threshold))
        return out

    roc_ok = False
    best = None
    for threshold in np.arange(0.30, 0.70, 0.05):
        honest = verdicts(0.0, float(threshold))
        replays = verdicts(600.0, float(threshold))
        fpr = sum(v is defense.Verdict.TEMP_MISMATCH for v in honest) / len(honest)
        tpr = sum(v is defense.Verdict.TEMP_MISMATCH for v in replays) / len(replays)
        if tpr == 1.0 and fpr <= 0.01:
            roc_ok = True
            best = (float(threshold), tpr, fpr)
            break
    ok = rmse_ok and roc_ok
    report(
        10,
        ok,
        f"fit RMSE {model.rmse_c:.3f} C (limit 0.5); ROC point {best} "
        f"achieves TPR=100% at FPR<=1% against 600 Hz replays",
    )


def test_acceptance_11_overhead_arithmetic():
    so = stamping.sync_overhead(40.0, 10.0)
    mw = stamping.max_waiting(40.0, 10.0)
    dop = fbest.doppler_fb(70 / 3.6, 869.75e6)
    ok = so == 14 and abs(mw - 250.0) < 1e-9 and 50.0 <= dop <= 60.0
    report(
        11,
        ok,
        f"sync_overhead(40 ppm, 10 ms)={so} (expect 14); max_waiting={mw:.1f} s "
        f"(expect 250); doppler_fb(70 km/h, 869.75 MHz)={dop:.1f} Hz (expect 50-60)",
    )


def test_acceptance_12_repro_determinism(tmp_path):
    mismatches = []
    for name, builder in sorted(repro.BUILDERS.items()):
        outputs = [builder(tmp_path / f"{name}_{run}", seed=0).read_bytes() for run in (0, 1)]
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    ok = not mismatches
    report(
        12,
        ok,
        "all repro datasets byte-identical across runs"
        if ok
        else f"non-deterministic datasets: {mismatches}",
    )
