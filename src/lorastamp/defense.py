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
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from lorastamp.fbest import FbEstimate
from lorastamp.phy import is_finite_real, is_int

DEFAULT_FB_THRESHOLD_HZ = 500.0
DEFAULT_HISTORY_WINDOW = 20
MIN_TEMP_SLOPE_HZ_PER_C = 1.0
FCNT_MODULUS = 2 ** 16  # LoRaWAN sends the low 16 bits of the frame counter


class DefenseError(ValueError):
    """Invalid defense configuration or input."""


class PihResyncError(RuntimeError):
    """Frame-counter gap too large to verify; schedule resync required."""


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
        if not all(map(is_finite_real, (self.slope_hz_per_c, self.intercept_hz, self.rmse_c))):
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
        if not all(map(is_finite_real, (self.min_interval_s, self.max_interval_s, self.deviation_tol_s))):
            raise DefenseError("PIH intervals and tolerance must be finite numbers")
        if not 0 <= self.min_interval_s < self.max_interval_s:
            raise DefenseError("need 0 <= min_interval < max_interval")
        if self.deviation_tol_s <= 0:
            raise DefenseError("deviation tolerance must be positive")
        if not (is_int(self.max_counter_gap) and self.max_counter_gap >= 0):
            raise DefenseError("max counter gap must be a non-negative integer")
        if not all(v is None or is_int(v) for v in (self.last_counter, self.last_rx_time_ns)):
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
        if not isinstance(self.device_id, str):
            raise DefenseError("device id must be a string")
        if not (is_finite_real(self.fb_threshold_hz) and self.fb_threshold_hz > 0):
            raise DefenseError("fb_threshold must be positive and finite")
        if not (is_int(self.history_window) and self.history_window >= 1):
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


def _history_block(sf, bw_hz, entries) -> tuple:
    """An FB history's (S, W) key and (rx_time_ns, delta_hz) pairs as ints and floats; DefenseError
    on another type or a non-finite number (a NaN FB poisons every later median, a "7" key is never read)."""
    entries = list(entries)
    if not (is_int(sf) and is_finite_real(bw_hz) and all(isinstance(e, (list, tuple)) and len(e) == 2
                                                         and is_int(e[0]) and is_finite_real(e[1])
                                                         for e in entries)):
        raise DefenseError("FB history needs an integer sf, a finite bw_hz and [int, finite] entries")
    return (int(sf), float(bw_hz)), [(int(t), float(d)) for t, d in entries]


def seed_fb_history(profile: DeviceProfile, sf: int, bw_hz: float, entries) -> None:
    """Install trusted (rx_time_ns, delta_hz) pairs, e.g. from supervised
    profiling; only the latest ``history_window`` are kept."""
    key, entries = _history_block(sf, bw_hz, entries)
    hist = profile.history_for(*key)
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


def _profile_from_dict(device_id, fb_threshold_hz=DEFAULT_FB_THRESHOLD_HZ,
                       history_window=DEFAULT_HISTORY_WINDOW, fb_history=(),
                       temp_model=None, pih=None) -> DeviceProfile:
    """The profile a snapshot's fields (``_profile_to_dict``) give, called as
    ``_profile_from_dict(**snapshot)``: a missing ``device_id`` or an unknown
    field, at any level, is a TypeError."""
    profile = DeviceProfile(device_id, fb_threshold_hz, history_window)
    for block in fb_history:
        key, entries = _history_block(**block)
        profile.fb_history[key] = entries[-profile.history_window:]
    if temp_model is not None:
        profile.temp_model = TempModel(**temp_model)
    if pih is not None:
        profile.pih = _pih_from_dict(**pih)
    return profile


def _pih_from_dict(seed_hex, **fields) -> PihState:
    """A snapshot's PIH state: its fields with the seed as hex."""
    return PihState(bytes.fromhex(seed_hex), **fields)


_COUNTERS = ("last_counter", "last_rx_time_ns")


def _log_state(profile: DeviceProfile) -> tuple:
    """What replaying a log gives back of ``profile``, as copies: the fields a
    delta record cannot carry (FB history keys among them), the last
    ``history_window`` entries of each FB history and the PIH counters."""
    pih = None if profile.pih is None else dict(vars(profile.pih))
    counters = None if pih is None else tuple(pih.pop(k) for k in _COUNTERS)
    fixed = {**vars(profile), "fb_history": set(profile.fb_history), "pih": pih}
    window = profile.history_window
    return fixed, {k: v[-window:] for k, v in profile.fb_history.items()}, counters


def _appended(logged: list, now: list, window: int) -> list | None:
    """The fewest entries that, appended to ``logged`` and cut back to
    ``window``, give ``now``; None when no entries do."""
    for kept in range(len(now), -1, -1):
        # the last logged entry, if any, sits just before the appended ones
        if kept and not (logged and now[kept - 1] == logged[-1]):
            continue
        added = now[kept:]
        if (logged + added)[-window:] == now:
            return added
    return None


def _delta(logged: tuple, state: tuple) -> dict | None:
    """The body of a delta record taking the logged state to ``state`` (both
    from ``_log_state``), or None when only a full snapshot can."""
    fixed, histories, counters = state
    logged_fixed, logged_histories, logged_counters = logged
    if fixed != logged_fixed:
        return None
    delta = {}
    for (sf, bw), now in sorted(histories.items()):
        added = _appended(logged_histories[sf, bw], now, fixed["history_window"])
        if added is None:
            return None
        if added:
            delta.setdefault("fb_history", []).append({"sf": sf, "bw_hz": bw, "entries": added})
    if counters != logged_counters:
        delta["pih"] = dict(zip(_COUNTERS, counters))
    return delta


def _apply_delta(profile: DeviceProfile, fb_history=(), pih=None) -> None:
    """Replay a delta record's body onto the profile its log has built so far,
    called as ``_apply_delta(profile, **body)``; its fields are checked as a
    snapshot's are."""
    for block in fb_history:
        key, entries = _history_block(**block)
        hist = profile.fb_history.get(key)
        if hist is None:
            raise DefenseError(f"delta record for {profile.device_id!r} extends an FB history "
                               "its snapshot lacks")
        hist.extend(entries)
        del hist[:-profile.history_window]
    if pih is not None:
        if profile.pih is None:
            raise DefenseError(f"delta record for {profile.device_id!r} moves PIH counters "
                               "its snapshot lacks")
        if set(pih) != set(_COUNTERS):
            raise DefenseError(f"a delta record's pih holds {' and '.join(_COUNTERS)}, nothing else")
        profile.pih = replace(profile.pih, **pih)


def _end_torn_tail(fd: int, size: int) -> bool:
    """Make the log open at ``fd`` (for appending), ``size`` bytes long, end
    in a newline before an append; True when it already did (or was empty).

    A last line without its newline was left by a torn write: it is
    completed when it parses (only the newline was lost) and dropped when
    it does not, so the next record starts on a line of its own.
    """
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return True
    log = os.pread(fd, size, 0)
    start = log.rfind(b"\n") + 1
    try:
        json.loads(log[start:])
    except ValueError:
        os.ftruncate(fd, start)
    else:
        _append(fd, b"\n")
    return False


def _append(fd: int, data: bytes) -> None:
    """Write all of ``data`` at the end of the log open at ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class ProfileStore:
    """Single-writer profile store on an append-only JSON-lines log.

    A line is either a full snapshot of a profile (``_profile_to_dict``) or
    a delta record, ``{"delta": {...}, "device_id": ...}``, whose body may
    hold ``fb_history``, the FB entries appended since the device's last
    record as blocks of ``{"sf", "bw_hz", "entries"}``, and ``pih``, the
    ``last_counter`` and ``last_rx_time_ns`` that moved.  ``save`` appends
    a delta when the store knows what the log holds of the device and
    nothing else changed, so its size does not grow with
    ``history_window``; otherwise a snapshot.  The store knows what it
    last loaded or saved, and forgets it all when the log is not as it
    left it: a line torn by an earlier write (ended first), or another
    length.

    ``load_all`` replays the log: a snapshot replaces a device, a delta
    extends it, and an unparsable last line left by a torn write is
    skipped.  Any other line raises DefenseError naming the file and the
    line when it does not parse (chained from its JSONDecodeError) or is
    no record ``save`` could write: a value that is not an object, a field
    missing, unknown, of the wrong type or out of range (numbers as
    ``phy.is_finite_real`` and ``phy.is_int`` take them), a bad
    ``seed_hex``, a delta for a device with no snapshot before it.
    ``compact`` rewrites the log with one snapshot per device.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._logged: dict[str, tuple] = {}  # device_id -> _log_state of what the log holds
        self._size: int | None = None  # the log's length after this store's last read or write

    def save(self, profile: DeviceProfile) -> None:
        state = _log_state(profile)
        # unbuffered: a save is a 1-byte read and one write of one line
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if not _end_torn_tail(fd, size) or size != self._size:
                self._logged.clear()
            logged = self._logged.get(profile.device_id)
            delta = None if logged is None else _delta(logged, state)
            doc = (_profile_to_dict(profile) if delta is None
                   else {"delta": delta, "device_id": profile.device_id})
            _append(fd, (json.dumps(doc, sort_keys=True) + "\n").encode())
            self._size = os.fstat(fd).st_size
        finally:
            os.close(fd)
        self._logged[profile.device_id] = state

    def load_all(self) -> dict[str, DeviceProfile]:
        profiles: dict[str, DeviceProfile] = {}
        log = self.path.read_bytes() if self.path.exists() else b""
        lines = [(n, line) for n, line in enumerate(log.splitlines(), 1) if line.strip()]
        for i, (n, line) in enumerate(lines):
            try:
                doc = json.loads(line)
            except ValueError as exc:  # UnicodeDecodeError too
                if i == len(lines) - 1:
                    break  # a torn last line: the write it ends was cut short
                raise DefenseError(f"{self.path} line {n}: {exc}") from exc
            try:
                if not isinstance(doc, dict):
                    raise DefenseError(f"a record is a JSON object, not {type(doc).__name__}")
                if "delta" not in doc:
                    profile = _profile_from_dict(**doc)
                    profiles[profile.device_id] = profile
                elif doc["device_id"] in profiles:
                    _apply_delta(profiles[doc["device_id"]], **doc["delta"])
                else:
                    raise DefenseError(f"delta record for {doc['device_id']!r} before any snapshot of it")
            except (KeyError, TypeError, ValueError) as exc:  # DefenseError among them
                why = f"no {exc} field" if isinstance(exc, KeyError) else exc
                raise DefenseError(f"{self.path} line {n}: {why}") from exc
        self._logged = {d: _log_state(p) for d, p in profiles.items()}
        self._size = len(log)
        return profiles

    def compact(self) -> None:
        profiles = self.load_all()
        log = "".join(
            json.dumps(_profile_to_dict(p), sort_keys=True) + "\n"
            for _, p in sorted(profiles.items())
        ).encode()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(log)
        tmp.replace(self.path)
        self._size = len(log)


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
