"""Seeded inputs and their truth for the lorastamp benchmark.

Everything the checks compare against is computed here from the scenario
itself, not from the program: record timestamps from the capture start and
the leading noise length, FB from the device and replay-chain biases, PIH
arrival times from the README's SHA-256 formula evaluated with ``hashlib``,
collision outcomes from the paper's measured outcome map, and the chirp
phase from the paper's closed form Theta(t).

Run as a script it writes one workload's traces, profile log and manifest:

    python3 bench/scenario.py --workload gateway --seed 1 --size full --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FS = 2.4e6
BW = 125e3
EPOCH_NS = 1_700_000_000 * 10 ** 9

# gateway scenario
GATEWAY_SF = 7
GATEWAY_PAYLOAD = 16
GATEWAY_SNR_DB = (10.0, 20.0)
DEVICE_FB_HZ = 24e3
DRIFT_HZ = 60.0
HISTORY_LEN = 1000
HISTORY_SIGMA_HZ = 40.0
NAIVE_FB_HZ = (1.5e3, 3e3)
CRAFTY_FB_HZ = 30.0
REPLAY_DELAY_S = (0.1, 0.5)
CLOCK_PPM = 20.0
PIH_MIN_S, PIH_MAX_S, PIH_TOL_S = 10.0, 60.0, 0.010
RECORDS_PER_FRAME = 3
MAX_ELAPSED_MS = 250_000
GATEWAY_SIZES = {"full": (16, 7), "tiny": (2, 4)}  # (devices, frames per device)

# timestamp scenario
TIMESTAMP_SFS = (7, 8, 9, 10)
TIMESTAMP_PAYLOAD = 16
TIMESTAMP_SNR_DB = (0.0, 10.0)
# frames per SF (SF7..SF10): the median operation is an SF7 frame and p90
# an SF9 frame, each well inside the steady part of its SF's times.  AIC
# time is bimodal per read (about 1 SF7 read in 5 takes 1.4x the others,
# and half the SF10 reads 1.4x), so a percentile that falls at a mode's
# edge jumps between modes from run to run: p90 on SF10 read 73 or 106 ms.
TIMESTAMP_SIZES = {"full": (26, 1, 4, 1), "tiny": (1, 1, 1, 1)}
# a round reads every frame this often, so that a round has >= 100
# operations and its p90 has >= 10 above it
TIMESTAMP_PASSES = {"full": 4, "tiny": 1}
LEAD_SAMPLES = {"gateway": (2000, 8000), "timestamp": (4000, 12000)}

# collision grid: fixed payload pairs, so the SF9 cells that fail today fail
# on every run whatever the seed; the seed only sets the visiting order.
# Two thirds of the cells are SF7, so the median operation is an SF7 cell
# and p90 an SF9 cell, not the gap between them.
COLLISION_SFS = (7, 9)
COLLISION_RTM = (0.05, 0.1, 0.2, 0.3, 0.35)
COLLISION_SCR_DB = (-12, -9, -3, 0, 3, 9, 12)
COLLISION_PAYLOAD = 12
COLLISION_PAIR_SEEDS = {"full": {7: (1000, 1001, 1002, 1003), 9: (1000, 1001)},
                        "tiny": {7: (1000,), 9: (1000,)}}
TINY_RTM, TINY_SCR_DB = (0.05, 0.3), (-12, 0, 12)

# tolerances of the checks
GATEWAY_ONSET_TOL_NS = 5_000
TIMESTAMP_ONSET_TOL_NS = 40_000
FB_TOL_HZ = 250.0


def pih_interval(seed: bytes, index: int, lo: float = PIH_MIN_S, hi: float = PIH_MAX_S) -> float:
    """Scheduled interval of slot ``index``: the README's counter-mode SHA-256 formula."""
    u = int.from_bytes(hashlib.sha256(seed + index.to_bytes(8, "big")).digest()[:8], "big")
    return lo + (hi - lo) * (u + 1) / 2 ** 64


def paper_outcome(rtm: float, scr_db: float) -> str:
    """Outcome of an early collision (RTM < 0.4) in the paper's measured map."""
    if scr_db < -6:
        return "CollisionReceived"
    if scr_db > 6:
        return "VictimReceived"
    return "Stealthy"


def known_fault(sf: int, scr_db: float) -> bool:
    """Cells that come out Stealthy today: the fixed 100 Hz collider FB is 0.41
    of a bin at SF9, so a captured collider fails its sync windows."""
    return sf >= 9 and scr_db < -6


def theta(t: np.ndarray, sf: int, fb_hz: float, phase: float) -> np.ndarray:
    """The paper's chirp phase pi W^2 t^2 / 2^S - pi W t + 2 pi delta t + theta."""
    return math.pi * BW ** 2 * t ** 2 / 2 ** sf - math.pi * BW * t + 2 * math.pi * fb_hz * t + phase


def check_synthesizer(n_chirps: int = 3) -> None:
    """Compare the first preamble chirps of ``gen_frame`` with Theta(t).

    Chirp k starts at t = kT and carries the bias phase 2 pi delta kT on top
    of Theta at local time.  Two samples next to each chirp boundary are
    skipped: the frequency wraps there, and which chirp a boundary sample
    belongs to depends on rounding.
    """
    from lorastamp.phy import PhyParams, RxParams, TxParams, gen_frame

    for sf, fb, ph in ((7, -13_250.5, 2.5), (9, 7_031.25, 0.75)):
        frame = gen_frame(PhyParams(sf, BW), TxParams(fb_hz=fb, phase_rad=ph), RxParams(), (), FS)
        chirp_t = 2 ** sf / BW
        for k in range(n_chirps):
            n = np.arange(math.ceil(k * chirp_t * FS) + 2, math.floor((k + 1) * chirp_t * FS) - 2)
            t = n / FS
            want = 0.5 * np.exp(1j * (theta(t - k * chirp_t, sf, fb, ph) + 2 * math.pi * fb * k * chirp_t))
            err = float(np.max(np.abs(frame.samples[n] - want)))
            if err > 1e-6:
                raise SystemExit(f"gen_frame SF{sf} chirp {k} departs from Theta(t) by {err:.3g}")


def _noisy_trace(frame, lead: int, snr_db: float, noise_seed: int, t0_ns: int):
    from lorastamp.phy import IQTrace, add_awgn

    x = np.concatenate([np.zeros(lead, complex), frame.samples])
    trace = add_awgn(IQTrace(x, FS), snr_db, noise_seed, signal_range=(lead, x.size))
    trace.t0_ns = t0_ns
    return trace


def _records(rng) -> list[int]:
    return sorted(int(e) for e in rng.integers(0, MAX_ELAPSED_MS, RECORDS_PER_FRAME))


def _replay_slots(rng, n_dev: int, n_frames: int) -> list[dict[int, str]]:
    """Per device, slot -> replay kind.  One frame in three is a replay, split
    evenly between naive and crafty, and no two replays of a device are
    adjacent, so every genuine frame after a replay recovers the gap."""
    total = round(n_dev * n_frames / 3)
    counts = [total // n_dev + (d < total % n_dev) for d in range(n_dev)]
    kinds = ["naive"] * (total // 2) + ["crafty"] * (total - total // 2)
    rng.shuffle(kinds)
    out = []
    for c in counts:
        while True:
            slots = sorted(int(s) for s in rng.choice(n_frames, c, replace=False))
            if all(b - a > 1 for a, b in zip(slots, slots[1:])):
                break
        out.append({s: kinds.pop() for s in slots})
    return out


def make_gateway(seed: int, size: str, out: Path) -> dict:
    from lorastamp import attack, defense, iqfile
    from lorastamp.phy import PhyParams, RxParams, TxParams, gen_frame

    rng = np.random.default_rng([seed, 1])
    n_dev, n_frames = GATEWAY_SIZES[size]
    phy = PhyParams(GATEWAY_SF, BW)
    store = defense.ProfileStore(out / "profiles.jsonl")
    replays = _replay_slots(rng, n_dev, n_frames)
    frames = []
    for d in range(n_dev):
        dev = f"dev-{d:02d}"
        fb0 = float(rng.uniform(-DEVICE_FB_HZ, DEVICE_FB_HZ))
        drift = float(rng.uniform(-DRIFT_HZ, DRIFT_HZ))
        ppm = float(rng.uniform(-CLOCK_PPM, CLOCK_PPM)) * 1e-6
        pih_seed = rng.bytes(32)
        c0 = int(rng.integers(100, 10_000))
        # transmit times of slots c0-1 .. c0+n_frames-1, in ns from EPOCH_NS
        tx = [float(rng.uniform(0, PIH_MAX_S)) * 1e9]
        for c in range(c0 - 1, c0 + n_frames - 1):
            tx.append(tx[-1] + pih_interval(pih_seed, c) * (1 + ppm) * 1e9)
        history = [
            (EPOCH_NS - (HISTORY_LEN - i) * 30 * 10 ** 9, fb0 + float(rng.normal(0, HISTORY_SIGMA_HZ)))
            for i in range(HISTORY_LEN)
        ]
        profile = defense.DeviceProfile(
            dev,
            pih=defense.PihState(
                pih_seed, PIH_MIN_S, PIH_MAX_S, PIH_TOL_S,
                last_counter=c0 - 1, last_rx_time_ns=EPOCH_NS + round(tx[0]),
            ),
        )
        defense.seed_fb_history(profile, GATEWAY_SF, BW, history)
        store.save(profile)
        after_replay = False
        for k in range(n_frames):
            kind = replays[d].get(k, "genuine")
            fb = fb0 + drift * k / n_frames
            arrival = tx[k + 1]
            replay_fb = 0.0
            if kind == "naive":
                replay_fb = float(rng.choice((-1, 1)) * rng.uniform(*NAIVE_FB_HZ))
            elif kind == "crafty":
                replay_fb = float(rng.uniform(-CRAFTY_FB_HZ, CRAFTY_FB_HZ))
            frame = gen_frame(
                phy, TxParams(fb_hz=fb, phase_rad=float(rng.uniform(0, 2 * math.pi))),
                RxParams(), rng.integers(0, phy.n_bins, GATEWAY_PAYLOAD), FS,
            )
            if kind != "genuine":
                delay = float(rng.uniform(*REPLAY_DELAY_S))
                frame = attack.replay(frame, delay, replay_fb, rng_seed=int(rng.integers(1 << 31)))
                arrival += delay * 1e9
            lead = int(rng.integers(*LEAD_SAMPLES["gateway"]))
            t0_ns = EPOCH_NS + round(arrival - lead * 1e9 / FS)
            trace = _noisy_trace(frame, lead, float(rng.uniform(*GATEWAY_SNR_DB)),
                                 int(rng.integers(1 << 31)), t0_ns)
            name = f"g{d:02d}_{k}.cf32"
            iqfile.write_cf32(out / name, trace)
            frames.append({
                "file": name, "device_id": dev, "counter": c0 + k, "kind": kind,
                "sf": GATEWAY_SF, "n_samples": len(trace), "t0_ns": t0_ns, "lead": lead,
                "fb_hz": fb + replay_fb, "elapsed_ms": _records(rng),
                "verdicts": _expected_verdicts(kind, after_replay),
            })
            after_replay = kind != "genuine"
    frames.sort(key=lambda f: f["t0_ns"] + f["lead"] * 1e9 / FS)
    return {"workload": "gateway", "seed": seed, "size": size, "frames": frames}


def _expected_verdicts(kind: str, after_replay: bool) -> list[str]:
    """(FB check, PIH check) the scenario calls for.

    A naive replay's chain bias (>= 1.5 kHz) is far outside the 500 Hz FB
    threshold and a crafty one (<= 30 Hz) well inside; every replay arrives
    >= 100 ms late against a 10 ms PIH tolerance; a genuine frame after a
    replayed slot closes a one-slot gap.
    """
    if kind == "naive":
        return ["ReplaySuspected", "DelaySuspected"]
    if kind == "crafty":
        return ["Accept", "DelaySuspected"]
    return ["Accept", "GapRecovered" if after_replay else "Accept"]


def make_timestamp(seed: int, size: str, out: Path) -> dict:
    from lorastamp import iqfile
    from lorastamp.phy import PhyParams, RxParams, TxParams, gen_frame

    rng = np.random.default_rng([seed, 2])
    frames = []
    for sf, n_frames in zip(TIMESTAMP_SFS, TIMESTAMP_SIZES[size]):
        phy = PhyParams(sf, BW)
        for k in range(n_frames):
            frame = gen_frame(
                phy,
                TxParams(fb_hz=float(rng.uniform(-DEVICE_FB_HZ, DEVICE_FB_HZ)),
                         phase_rad=float(rng.uniform(0, 2 * math.pi))),
                RxParams(), rng.integers(0, phy.n_bins, TIMESTAMP_PAYLOAD), FS,
            )
            lead = int(rng.integers(*LEAD_SAMPLES["timestamp"]))
            t0_ns = EPOCH_NS + int(rng.integers(0, 3600 * 10 ** 9))
            trace = _noisy_trace(frame, lead, float(rng.uniform(*TIMESTAMP_SNR_DB)),
                                 int(rng.integers(1 << 31)), t0_ns)
            name = f"t{sf}_{k}.cf32"
            iqfile.write_cf32(out / name, trace)
            frames.append({"file": name, "device_id": f"node-{sf}-{k}", "sf": sf,
                           "n_samples": len(trace), "t0_ns": t0_ns, "lead": lead,
                           "elapsed_ms": _records(rng)})
    rng.shuffle(frames)
    return {"workload": "timestamp", "seed": seed, "size": size, "frames": frames}


def collision_cells(seed: int, size: str) -> list[dict]:
    """Grid cells in a seeded visiting order, each with its paper outcome."""
    rtms, scrs = (COLLISION_RTM, COLLISION_SCR_DB) if size == "full" else (TINY_RTM, TINY_SCR_DB)
    cells = []
    for sf in COLLISION_SFS:
        for pair_seed in COLLISION_PAIR_SEEDS[size][sf]:
            prng = np.random.default_rng([pair_seed, sf])
            victim, collider = (prng.integers(0, 2 ** sf, COLLISION_PAYLOAD).tolist() for _ in range(2))
            for rtm in rtms:
                for scr in scrs:
                    cells.append({"sf": sf, "victim": victim, "collider": collider,
                                  "rtm": rtm, "scr_db": scr, "expect": paper_outcome(rtm, scr)})
    np.random.default_rng([seed, 3]).shuffle(cells)
    return cells


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("gateway", "timestamp"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    check_synthesizer()
    args.out.mkdir(parents=True, exist_ok=True)
    make = make_gateway if args.workload == "gateway" else make_timestamp
    manifest = make(args.seed, args.size, args.out)
    (args.out / "manifest.json").write_text(json.dumps(manifest))


if __name__ == "__main__":
    main()
