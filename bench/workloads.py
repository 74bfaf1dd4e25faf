"""The three workloads and the closed loop that runs them.

A workload has ``items`` (its operations' inputs, with their truth),
``reset`` (restores the program state a round starts from), ``run`` (one
operation: calls into the program only) and ``check`` (compares one
output with the truth; returns why it failed, or None).  Each workload
imports only the layers it calls, so that the peak RSS of its process
holds what that workload uses and no more.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import scenario

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
sys.path.insert(0, str(SRC))
WORKLOADS = ("gateway", "timestamp", "collision")
KNOWN_FAULT = "known fault"
VERDICTS = ("Accept", "GapRecovered", "ReplaySuspected", "DelaySuspected")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def stamp_error_ns(frame: dict, stamped_ns: list[int]) -> float:
    """Largest |stamp - truth|; truth = capture start + lead / fs - elapsed."""
    if len(stamped_ns) != len(frame["elapsed_ms"]):
        return float("inf")
    onset_offset = frame["lead"] * 1e9 / scenario.FS
    return max(
        abs(ts - frame["t0_ns"] + e * 10 ** 6 - onset_offset)
        for ts, e in zip(stamped_ns, frame["elapsed_ms"])
    )


class Workload:
    name = ""

    def reset(self) -> None:
        pass

    def per_round(self) -> dict:
        return {}


class _TraceWorkload(Workload):
    """Frames written as .cf32 traces by scenario.py in a child process."""

    def __init__(self, seed: int, size: str, work: Path):
        from lorastamp import stamping

        self.work = work
        subprocess.run(
            [sys.executable, str(HERE / "scenario.py"), "--workload", self.name,
             "--seed", str(seed), "--size", size, "--out", str(work)],
            env=child_env(), check=True, timeout=170,
        )
        self.items = json.loads((work / "manifest.json").read_text())["frames"]
        for f in self.items:
            f["records"] = [stamping.DataRecord(f["device_id"], e) for e in f["elapsed_ms"]]


class Gateway(_TraceWorkload):
    """read_cf32 -> detect_aic -> stamp -> second_chirp -> LSQ -> check_fb
    -> pih_verify -> ProfileStore.save, per frame."""

    name = "gateway"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        from lorastamp import fbest
        from lorastamp.phy import PhyParams

        self.phy = PhyParams(scenario.GATEWAY_SF, scenario.BW)
        self.lsq = fbest.LsqConfig()
        self.pristine = (work / "profiles.jsonl").read_bytes()
        self.log = work / "store.jsonl"

    def reset(self) -> None:
        from lorastamp import defense

        self.log.write_bytes(self.pristine)
        self.store = defense.ProfileStore(self.log)
        self.profiles = self.store.load_all()
        self.verdicts = dict.fromkeys(VERDICTS, 0)

    def run(self, f: dict):
        from lorastamp import defense, fbest, iqfile, onset, stamping

        trace, _ = iqfile.read_cf32(self.work / f["file"])
        found = onset.detect_aic(trace)
        stamped = stamping.stamp(found, f["records"])
        chirp = fbest.second_chirp(trace, self.phy, found.onset_sample)
        est = fbest.estimate_fb_lsq(chirp, self.phy, self.lsq)
        profile = self.profiles[f["device_id"]]
        obs = defense.FrameObservation(
            f["device_id"], found.onset_time_ns, est, self.phy.spreading_factor,
            self.phy.bandwidth_hz, f["counter"],
        )
        verdicts = [defense.check_fb(profile, obs).value, defense.pih_verify(profile, obs).value]
        self.store.save(profile)
        return [s.timestamp_ns for s in stamped], est.delta_hz, verdicts

    def check(self, f: dict, out) -> str | None:
        stamped, fb, verdicts = out
        for v in verdicts:
            self.verdicts[v] = self.verdicts.get(v, 0) + 1
        err = stamp_error_ns(f, stamped)
        if err > scenario.GATEWAY_ONSET_TOL_NS:
            return f"timestamp off by {err / 1e3:.2f} us"
        if abs(fb - f["fb_hz"]) > scenario.FB_TOL_HZ:
            return f"FB {fb:.1f} Hz, truth {f['fb_hz']:.1f} Hz"
        if verdicts != f["verdicts"]:
            return f"{f['kind']} frame: verdicts {verdicts}, expected {f['verdicts']}"
        return None

    def per_round(self) -> dict:
        appended = (self.log.stat().st_size - len(self.pristine)) / 1e6
        return {"defense.store_mb_appended": appended,
                **{f"defense.verdict.{v}.count": n for v, n in self.verdicts.items()}}


class Timestamp(_TraceWorkload):
    """read_cf32 -> detect_aic -> stamp, per frame, SF7 to SF10."""

    name = "timestamp"

    def __init__(self, seed, size, work):
        super().__init__(seed, size, work)
        self.items *= scenario.TIMESTAMP_PASSES[size]
        self.rng = np.random.default_rng([seed, 4])

    def reset(self) -> None:
        # a new order each round: AIC time on a trace depends on where its
        # arrays land, which repeats while the order of reads repeats
        self.rng.shuffle(self.items)

    def run(self, f: dict):
        from lorastamp import iqfile, onset, stamping

        trace, _ = iqfile.read_cf32(self.work / f["file"])
        return [s.timestamp_ns for s in stamping.stamp(onset.detect_aic(trace), f["records"])]

    def check(self, f: dict, out) -> str | None:
        err = stamp_error_ns(f, out)
        return f"timestamp off by {err / 1e3:.2f} us" if err > scenario.TIMESTAMP_ONSET_TOL_NS else None


class Collision(Workload):
    """collision_outcome_waveform per (SF, payload pair, RTM, SCR) cell."""

    name = "collision"

    def __init__(self, seed: int, size: str, work: Path):
        from lorastamp.phy import PhyParams

        scenario.check_synthesizer()
        self.items = scenario.collision_cells(seed, size)
        self.phys = {sf: PhyParams(sf, scenario.BW) for sf in scenario.COLLISION_SFS}

    def run(self, c: dict) -> str:
        from lorastamp import attack

        return attack.collision_outcome_waveform(
            self.phys[c["sf"]], c["victim"], c["collider"], c["scr_db"], c["rtm"]
        )

    def check(self, c: dict, out: str) -> str | None:
        if out == c["expect"]:
            return None
        if scenario.known_fault(c["sf"], c["scr_db"]) and out == "Stealthy":
            return KNOWN_FAULT
        return (f"SF{c['sf']} RTM {c['rtm']} SCR {c['scr_db']} dB: {out}, "
                f"paper map says {c['expect']}")


CLASSES = {"gateway": Gateway, "timestamp": Timestamp, "collision": Collision}


class Pass:
    """Outcome of running whole rounds of one workload."""

    def __init__(self):
        self.lat_ns = {False: [], True: []}
        self.rounds: list[list[int]] = []  # op ns of each untraced round
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.op_meta: dict[int, dict] = {}
        self.per_round: dict = {}


def run_rounds(wl, seconds: float, tracer=None, alternate: bool = False, calib=None) -> Pass:
    """Whole rounds while one more still ends within ``seconds``, judged by
    the last round's length; at least one round.  With ``alternate``,
    untraced and traced rounds take turns, at least one of each.  With
    ``calib`` (a calib.Calibration), the machine's speed is sampled between
    operations, outside their timing."""
    res = Pass()
    start = time.perf_counter()
    rounds = 0
    while True:
        t_start = time.perf_counter()
        traced = tracer is not None and (not alternate or rounds % 2 == 1)
        if traced:
            tracer.install()
        wl.reset()
        outs, lat = [], []
        for item in wl.items:
            op_id = res.attempted + len(outs)
            res.op_meta[op_id] = item
            if calib is not None:
                calib.due()
            t0 = time.perf_counter_ns()
            try:
                with tracer.operation(op_id) if traced else nullcontext():
                    out = wl.run(item)
            except Exception as exc:  # an operation that raises is a failed operation
                out = exc
                traceback.print_exc(file=sys.stderr)
            lat.append(time.perf_counter_ns() - t0)
            outs.append(out)
        res.lat_ns[traced] += lat
        if traced:
            tracer.uninstall()
        else:
            res.rounds.append(lat)
        for item, out in zip(wl.items, outs):
            why = f"raised {out!r}" if isinstance(out, Exception) else wl.check(item, out)
            res.attempted += 1
            if why is not None:
                res.failed += 1
                if why != KNOWN_FAULT:
                    res.errors.append(why)
        res.per_round = wl.per_round()
        rounds += 1
        now = time.perf_counter()
        if now + (now - t_start) - start > seconds and (not alternate or rounds >= 2):
            return res
