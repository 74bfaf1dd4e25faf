"""I/Q trace files: interleaved little-endian float32 (.cf32) + JSON sidecar.

The sidecar carries ``{"sample_rate_hz": ..., "center_freq_hz": ..., "t0_ns": ...}``,
``sample_rate_hz`` a JSON number and ``t0_ns`` a JSON integer (default
0), and is mandatory: a bare .cf32 without its sidecar is rejected, and
so is a sidecar whose .cf32 is missing or cannot be read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from lorastamp.phy import IQTrace

SIDECAR_SUFFIX = ".json"


class SidecarError(IOError):
    """A .cf32 file or its sidecar is missing, unreadable or malformed."""


def sidecar_path(cf32_path: str | Path) -> Path:
    return Path(str(cf32_path) + SIDECAR_SUFFIX)


def write_cf32(path: str | Path, trace: IQTrace, center_freq_hz: float = 0.0) -> None:
    """Write interleaved I0,Q0,I1,Q1,... as little-endian float32 plus sidecar."""
    path = Path(path)
    interleaved = np.empty(2 * len(trace), dtype="<f4")
    interleaved[0::2] = trace.samples.real
    interleaved[1::2] = trace.samples.imag
    path.write_bytes(interleaved.tobytes())
    meta = {
        "sample_rate_hz": trace.sample_rate,
        "center_freq_hz": center_freq_hz,
        "t0_ns": trace.t0_ns,
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def read_cf32(path: str | Path) -> tuple[IQTrace, dict]:
    """Read a .cf32 file and its sidecar.

    Raises SidecarError when either one is missing, cannot be read (a
    directory, say) or is malformed.
    """
    path = Path(path)
    sc = sidecar_path(path)
    try:
        meta = json.loads(sc.read_text())
        rate = meta["sample_rate_hz"]
        # a bool or a numeric string is no JSON number, though float() reads both
        sample_rate = float(rate) if type(rate) in (int, float) else np.nan
        t0_ns = meta.get("t0_ns", 0)
    except OSError as exc:
        raise SidecarError(f"cannot read sidecar {sc}: {exc.strerror or exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SidecarError(f"malformed sidecar {sc}: {exc}") from exc
    if not (np.isfinite(sample_rate) and sample_rate > 0):
        raise SidecarError(f"malformed sidecar {sc}: sample_rate_hz must be a positive finite number")
    if type(t0_ns) is not int:  # a float drops nanoseconds above 2^53; a bool is no count
        raise SidecarError(f"malformed sidecar {sc}: t0_ns must be a JSON integer")
    try:
        raw = np.fromfile(path, dtype="<f4")
    except OSError as exc:
        raise SidecarError(f"cannot read trace {path}: {exc.strerror or exc}") from exc
    if raw.size % 2:
        raise SidecarError(f"{path}: odd number of float32 values, not interleaved I/Q")
    samples = raw.view("<c8").astype(np.complex128)
    return IQTrace(samples, sample_rate, t0_ns), meta
