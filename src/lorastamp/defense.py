"""Defense stack: FB-database replay detection, temperature-FB
consistency checks, and Pseudorandom Interval Hopping (PIH).

PIH stream specification (bit-exact, so independent device and gateway
implementations interoperate): interval i is derived from the 256-bit
shared seed by counter-mode SHA-256,

    u = first 8 bytes of SHA-256(seed || uint64_be(i)), read big-endian
    interval_i = min + (max - min) * (u + 1) / 2**64   seconds,

uniform on (min_interval, max_interval].
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from lorastamp.fbest import FbEstimate

DEFAULT_FB_THRESHOLD_HZ = 500.0
DEFAULT_HISTORY_WINDOW = 20
MIN_TEMP_SLOPE_HZ_PER_C = 1.0
FCNT_MODULUS = 2 ** 16  # LoRaWAN sends the low 16 bits of the frame counter


class DefenseError(ValueError):
    """Invalid defense configuration or input."""


class PihResyncError(RuntimeError):
    """Frame-counter gap too large to verify; schedule resync required."""


def _finite(value) -> bool:
    """A finite real number other than a bool: a profile log is JSON, which
    carries NaN and Infinity, and its true would read as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _count(value) -> bool:
    """An integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Verdict(enum.Enum):
    ACCEPT = "Accept"
    UNPROFILED = "Unprofiled"
    REPLAY_SUSPECTED = "ReplaySuspected"
    TEMP_MISMATCH = "TempMismatch"
    DELAY_SUSPECTED = "DelaySuspected"
    GAP_RECOVERED = "GapRecovered"


@dataclass(frozen=True)
class TempModel:
    """Linear FB(T) model: fb = slope * T + intercept."""

    slope_hz_per_c: float
    intercept_hz: float
    rmse_c: float

    def __post_init__(self) -> None:
        if not all(map(_finite, (self.slope_hz_per_c, self.intercept_hz, self.rmse_c))):
            raise DefenseError("temperature model fields must be finite numbers")
        if abs(self.slope_hz_per_c) < MIN_TEMP_SLOPE_HZ_PER_C:
            raise DefenseError("temperature slope degenerate (< 1 Hz/C)")


@dataclass
class PihState:
    """Shared-seed interval schedule and the per-device verifier state."""

    seed: bytes
    min_interval_s: float
    max_interval_s: float
    deviation_tol_s: float
    max_counter_gap: int = 5
    last_counter: int | None = None
    last_rx_time_ns: int | None = None

    def __post_init__(self) -> None:
        if len(self.seed) != 32:
            raise DefenseError("PIH seed must be 256 bits")
        if not all(map(_finite, (self.min_interval_s, self.max_interval_s, self.deviation_tol_s))):
            raise DefenseError("PIH intervals and tolerance must be finite numbers")
        if not 0 <= self.min_interval_s < self.max_interval_s:
            raise DefenseError("need 0 <= min_interval < max_interval")
        if self.deviation_tol_s <= 0:
            raise DefenseError("deviation tolerance must be positive")
        if not (_count(self.max_counter_gap) and self.max_counter_gap >= 0):
            raise DefenseError("max counter gap must be a non-negative integer")
        if not all(v is None or _count(v) for v in (self.last_counter, self.last_rx_time_ns)):
            raise DefenseError("last counter and rx time must be integers or unset")


@dataclass
class DeviceProfile:
    """Per-end-device defense state kept by the gateway."""

    device_id: str
    fb_threshold_hz: float = DEFAULT_FB_THRESHOLD_HZ
    history_window: int = DEFAULT_HISTORY_WINDOW
    # (S, W) -> time-ordered list of the last history_window (rx_time_ns, delta_hz)
    fb_history: dict = field(default_factory=dict)
    temp_model: TempModel | None = None
    pih: PihState | None = None

    def __post_init__(self) -> None:
        if not (_finite(self.fb_threshold_hz) and self.fb_threshold_hz > 0):
            raise DefenseError("fb_threshold must be positive and finite")
        if not (_count(self.history_window) and self.history_window >= 1):
            raise DefenseError("history window must be a positive integer")

    def history_for(self, sf: int, bw_hz: float) -> list:
        return self.fb_history.setdefault((sf, float(bw_hz)), [])


@dataclass(frozen=True)
class FrameObservation:
    """One received uplink frame as seen by the gateway."""

    device_id: str
    rx_time_ns: int
    fb: FbEstimate
    sf: int
    bw_hz: float
    frame_counter: int
    temp_reading_c: float | None = None


def _median(values: list[float]) -> float:
    """The median of a non-empty list, bit for bit as np.median takes it (the
    mean of the middle pair for an even count), by a sort: on the <= 20
    floats of an FB history that is ~20x cheaper than np.median."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def check_fb(profile: DeviceProfile, obs: FrameObservation) -> Verdict:
    """Compare the observed FB against the device's recent history.

    The history center is the median of the last ``history_window``
    accepted estimates for this (S, W) configuration; FB histories are
    kept per configuration since the bias re-profiles on a bandwidth
    change.  An accepted estimate is appended and the history cut back to
    ``history_window`` entries; an unprofiled configuration gets no entry.
    Alarmed observations never update the history, so replayed FBs cannot
    poison the profile; a non-finite FB is such an alarm.
    """
    hist = profile.fb_history.get((obs.sf, float(obs.bw_hz)))
    if not hist:
        return Verdict.UNPROFILED
    center = _median([d for _, d in hist[-profile.history_window:]])
    # written so that a NaN deviation alarms too
    if not abs(obs.fb.delta_hz - center) <= profile.fb_threshold_hz:
        return Verdict.REPLAY_SUSPECTED
    hist.append((obs.rx_time_ns, obs.fb.delta_hz))
    del hist[:-profile.history_window]
    return Verdict.ACCEPT


def _finite_entries(entries) -> list:
    """(rx_time_ns, delta_hz) pairs as (int, float); DefenseError on a
    non-finite FB, which would make every later median NaN."""
    out = [(int(t), float(d)) for t, d in entries]
    if not all(math.isfinite(d) for _, d in out):
        raise DefenseError("FB history entries must be finite")
    return out


def seed_fb_history(profile: DeviceProfile, sf: int, bw_hz: float, entries) -> None:
    """Install trusted (rx_time_ns, delta_hz) pairs, e.g. from supervised
    profiling; only the latest ``history_window`` are kept."""
    entries = _finite_entries(entries)
    hist = profile.history_for(sf, bw_hz)
    hist.extend(entries)
    hist.sort(key=lambda e: e[0])
    del hist[:-profile.history_window]


def fit_temp_model(pairs) -> TempModel:
    """OLS line FB = slope * T + intercept over (temperature C, fb Hz) pairs.

    The fit RMSE is reported in degrees Celsius through the inverse
    mapping (residual spread divided by |slope|).
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 30:
        raise DefenseError("need at least 30 (temperature, fb) pairs")
    temps, fbs = arr[:, 0], arr[:, 1]
    if float(np.ptp(temps)) < 2.0:
        raise DefenseError("temperature span must be at least 2 C")
    slope, intercept = np.polyfit(temps, fbs, 1)
    resid = fbs - (slope * temps + intercept)
    rmse_hz = float(np.sqrt(np.mean(resid ** 2)))
    if abs(slope) < MIN_TEMP_SLOPE_HZ_PER_C:  # before the division below
        raise DefenseError("temperature slope degenerate (< 1 Hz/C)")
    return TempModel(float(slope), float(intercept), rmse_hz / abs(slope))


def check_temp_consistency(
    profile: DeviceProfile, obs: FrameObservation, temp_threshold_c: float
) -> Verdict:
    """Compare the FB-implied temperature with the reported reading; a
    NaN FB or reading alarms.  ``TempModel`` guarantees a usable slope."""
    if profile.temp_model is None:
        raise DefenseError("device has no temperature model")
    if obs.temp_reading_c is None:
        raise DefenseError("observation carries no temperature reading")
    m = profile.temp_model
    t_hat = (obs.fb.delta_hz - m.intercept_hz) / m.slope_hz_per_c
    if not abs(t_hat - obs.temp_reading_c) <= temp_threshold_c:
        return Verdict.TEMP_MISMATCH
    return Verdict.ACCEPT


def pih_next_interval(
    seed: bytes, index: int, min_interval_s: float, max_interval_s: float
) -> float:
    """Scheduled inter-frame interval for slot ``index`` (see module docstring)."""
    if index < 0:
        raise DefenseError("interval index must be non-negative")
    digest = hashlib.sha256(seed + index.to_bytes(8, "big")).digest()
    u = int.from_bytes(digest[:8], "big")
    return min_interval_s + (max_interval_s - min_interval_s) * (u + 1) / 2 ** 64


def pih_max_interval(deviation_tol_s: float, drift_rate_ppm: float) -> int:
    """Largest schedulable interval keeping worst-case drift within tolerance.

    Whole seconds of tol / r; e.g. 10 ms at 40 ppm allows 250 s.
    """
    if deviation_tol_s <= 0 or drift_rate_ppm <= 0:
        raise DefenseError("tolerance and drift rate must be positive")
    return math.floor(deviation_tol_s / (drift_rate_ppm * 1e-6))


def pih_verify(profile: DeviceProfile, obs: FrameObservation) -> Verdict:
    """Check a frame's arrival against the agreed pseudorandom schedule.

    Uses inter-frame intervals only, so it is independent of any absolute
    clock offset between device and gateway.  Lost frames are absorbed by
    summing the skipped scheduled intervals; gaps beyond
    ``max_counter_gap`` cannot be verified and require a resync.

    Counters are compared modulo 2^16, as sent on air: a counter up to
    half the modulus ahead of the last accepted one is a later frame, any
    other is an old one.  ``last_counter`` keeps the extended count across
    the wrap and indexes the schedule.
    """
    pih = profile.pih
    if pih is None:
        raise DefenseError("device has no PIH configuration")
    if pih.last_counter is None or pih.last_rx_time_ns is None:
        pih.last_counter = obs.frame_counter
        pih.last_rx_time_ns = obs.rx_time_ns
        return Verdict.ACCEPT
    step = (obs.frame_counter - pih.last_counter) % FCNT_MODULUS
    if step == 0 or step > FCNT_MODULUS // 2:
        return Verdict.DELAY_SUSPECTED
    gap = step - 1
    if gap > pih.max_counter_gap:
        raise PihResyncError(f"counter gap of {gap} frames exceeds the replay window")
    counter = pih.last_counter + step
    expected = sum(
        pih_next_interval(pih.seed, i, pih.min_interval_s, pih.max_interval_s)
        for i in range(pih.last_counter, counter)
    )
    measured = (obs.rx_time_ns - pih.last_rx_time_ns) / 1e9
    if abs(measured - expected) > pih.deviation_tol_s:
        return Verdict.DELAY_SUSPECTED
    pih.last_counter = counter
    pih.last_rx_time_ns = obs.rx_time_ns
    return Verdict.ACCEPT if gap == 0 else Verdict.GAP_RECOVERED


# --- profile persistence: append-only line-delimited JSON + compaction ---


def _profile_to_dict(profile: DeviceProfile) -> dict:
    doc = {
        "device_id": profile.device_id,
        "fb_threshold_hz": profile.fb_threshold_hz,
        "history_window": profile.history_window,
        "fb_history": [
            {"sf": sf, "bw_hz": bw, "entries": entries}
            for (sf, bw), entries in sorted(profile.fb_history.items())
        ],
    }
    if profile.temp_model is not None:
        doc["temp_model"] = asdict(profile.temp_model)
    if profile.pih is not None:
        doc["pih"] = asdict(profile.pih)
        doc["pih"]["seed_hex"] = doc["pih"].pop("seed").hex()
    return doc


def _profile_from_dict(doc: dict) -> DeviceProfile:
    profile = DeviceProfile(
        device_id=doc["device_id"],
        fb_threshold_hz=doc.get("fb_threshold_hz", DEFAULT_FB_THRESHOLD_HZ),
        history_window=doc.get("history_window", DEFAULT_HISTORY_WINDOW),
    )
    for block in doc.get("fb_history", []):
        profile.fb_history[(block["sf"], float(block["bw_hz"]))] = _finite_entries(
            block["entries"]
        )[-profile.history_window:]
    if "temp_model" in doc:
        profile.temp_model = TempModel(**doc["temp_model"])
    if "pih" in doc:
        p = dict(doc["pih"])
        p["seed"] = bytes.fromhex(p.pop("seed_hex"))
        profile.pih = PihState(**p)
    return profile


def _end_torn_tail(f: BinaryIO) -> None:
    """Make the log end in a newline before an append.

    A last line without its newline was left by a torn write: it is
    completed when it parses (only the newline was lost) and dropped when
    it does not, so the next snapshot starts on a line of its own.
    """
    size = f.seek(0, os.SEEK_END)
    if size == 0:
        return
    f.seek(size - 1)
    if f.read(1) == b"\n":
        return
    f.seek(0)
    log = f.read()
    start = log.rfind(b"\n") + 1
    try:
        json.loads(log[start:])
    except ValueError:
        f.truncate(start)
    else:
        f.write(b"\n")


class ProfileStore:
    """Single-writer profile store on an append-only JSON-lines log.

    Every ``save`` appends a full profile snapshot, first ending a line torn
    by an earlier write; ``load_all`` replays the log (last snapshot per
    device wins), skipping an unparsable last line left by a torn write;
    ``compact`` rewrites the log with one line per device.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def save(self, profile: DeviceProfile) -> None:
        line = json.dumps(_profile_to_dict(profile), sort_keys=True)
        with self.path.open("a+b") as f:
            _end_torn_tail(f)
            f.write((line + "\n").encode())

    def load_all(self) -> dict[str, DeviceProfile]:
        profiles: dict[str, DeviceProfile] = {}
        if not self.path.exists():
            return profiles
        lines = [line for line in self.path.read_text().splitlines() if line.strip()]
        for i, line in enumerate(lines):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break
                raise
            profiles[doc["device_id"]] = _profile_from_dict(doc)
        return profiles

    def compact(self) -> None:
        profiles = self.load_all()
        lines = [
            json.dumps(_profile_to_dict(p), sort_keys=True)
            for _, p in sorted(profiles.items())
        ]
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
        tmp.replace(self.path)


def verdict_event(device_id: str, rx_time_ns: int, verdict: Verdict, detail: str = "") -> str:
    """One verdict as a line-delimited JSON event."""
    return json.dumps(
        {
            "device_id": device_id,
            "rx_time_ns": rx_time_ns,
            "verdict": verdict.value,
            "detail": detail,
        },
        sort_keys=True,
    )
