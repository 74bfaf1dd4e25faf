"""Sync-free data timestamping and the sync-overhead calculator.

The gateway stamps uplink data with its own wall clock: the timestamp of
a record is the frame's preamble onset time minus the device-reported
elapsed time since the data was acquired.  All arithmetic is integer
nanoseconds, so stamping never accumulates floating-point drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from lorastamp.onset import OnsetResult
from lorastamp.phy import is_int

# elapsed times travel as unsigned 32-bit milliseconds in the record format
MAX_ELAPSED_MS = 2 ** 32 - 1


class StampError(ValueError):
    """Invalid record or overhead parameters."""


@dataclass(frozen=True)
class DataRecord:
    """Device-reported sensed datum with its waiting-time correction."""

    device_id: str
    elapsed_ms: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        # a float or a bool would break the integer-ns stamps
        if not (is_int(self.elapsed_ms) and 0 <= self.elapsed_ms <= MAX_ELAPSED_MS):
            raise StampError("elapsed time must be an integer in the 32-bit millisecond field")


@dataclass(frozen=True)
class Timestamped:
    record: DataRecord
    timestamp_ns: int


def stamp(
    onset: OnsetResult,
    records,
    max_elapsed_ms: int = MAX_ELAPSED_MS,
) -> list[Timestamped]:
    """Timestamp records against the frame's preamble onset.

    timestamp = onset_time_ns - elapsed_ms * 10^6, exactly in integers.
    Records whose elapsed time exceeds ``max_elapsed_ms`` (the
    device-drift waiting bound) are rejected.
    """
    out = []
    for rec in records:
        if rec.elapsed_ms > max_elapsed_ms:
            raise StampError(
                f"record elapsed {rec.elapsed_ms} ms exceeds the waiting bound"
            )
        out.append(Timestamped(rec, onset.onset_time_ns - rec.elapsed_ms * 10 ** 6))
    return out


def sync_overhead(drift_rate_ppm: float, accuracy_target_ms: float) -> int:
    """Synchronization sessions per hour a sync-based design would need.

    The clock stays within the accuracy target for target/rate seconds,
    so sessions/hour = floor(3600 / (target/rate)); 40 ppm at 10 ms
    needs 14.  A perfect clock (rate -> 0) needs none.
    """
    if drift_rate_ppm < 0 or accuracy_target_ms <= 0:
        raise StampError("drift rate must be >= 0 and target > 0")
    if drift_rate_ppm == 0:
        return 0
    budget_s = (accuracy_target_ms / 1e3) / (drift_rate_ppm * 1e-6)
    return math.floor(3600 / budget_s)


def max_waiting(drift_rate_ppm: float, drift_bound_ms: float) -> float:
    """Longest device-side waiting time keeping clock drift within bound.

    bound/rate seconds: 10 ms at 40 ppm allows 250 s (about 4.1 min).
    """
    if drift_rate_ppm <= 0 or drift_bound_ms < 0:
        raise StampError("drift rate must be positive and bound >= 0")
    return (drift_bound_ms / 1e3) / (drift_rate_ppm * 1e-6)
