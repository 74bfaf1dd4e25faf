"""I/Q trace files: interleaved little-endian float32 (.cf32) + JSON sidecar.

The sidecar carries ``{"sample_rate_hz": ..., "center_freq_hz": ..., "t0_ns": ...}``,
``sample_rate_hz`` a positive finite number, ``center_freq_hz`` a finite
number (optional) and ``t0_ns`` an integer (default 0), each as
``phy.is_finite_real`` and ``phy.is_int`` read numbers from a file.  The
sidecar is mandatory: a bare .cf32 without its sidecar is rejected, and
so is a sidecar whose .cf32 is missing or cannot be read.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from lorastamp.phy import MAX_FRAME_SAMPLES, IQTrace, is_finite_real, is_int

SIDECAR_SUFFIX = ".json"
CF32 = np.dtype("<c8")  # one I/Q pair: little-endian float32 I, then Q


class SidecarError(IOError):
    """A .cf32 file or its sidecar is missing, unreadable or malformed."""


def sidecar_path(cf32_path: str | Path) -> Path:
    return Path(str(cf32_path) + SIDECAR_SUFFIX)


def write_cf32(path: str | Path, trace: IQTrace, center_freq_hz: float = 0.0) -> None:
    """Write interleaved I0,Q0,I1,Q1,... as little-endian float32 plus sidecar."""
    path = Path(path)
    trace.samples.astype(CF32).tofile(path)
    meta = {
        "sample_rate_hz": trace.sample_rate,
        "center_freq_hz": center_freq_hz,
        "t0_ns": trace.t0_ns,
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def read_cf32(path: str | Path) -> tuple[IQTrace, dict]:
    """Read a .cf32 file and its sidecar.

    The sidecar is parsed from its bytes; the trace is read straight into
    the upper half of its complex128 samples' own bytes (no intermediate
    bytes object or complex64 copy) and widened there: 16 bytes per sample
    in all.  Raises SidecarError when either file is
    missing, cannot be read (a directory, say) or is malformed, when the
    trace is not a whole number of 8-byte I/Q pairs or reads short, and,
    before any array exists, when it holds more than MAX_FRAME_SAMPLES
    samples.  A sidecar is malformed when a field is not the number the
    module docstring names: a bool, a string, null, NaN, an infinity or an
    integer beyond float range among them, and a float ``t0_ns``, which
    drops nanoseconds above 2^53.
    """
    path = Path(path)
    sc = sidecar_path(path)
    try:
        meta = json.loads(sc.read_bytes())
        rate = meta["sample_rate_hz"]
        t0_ns = meta.get("t0_ns", 0)
        center_freq = meta.get("center_freq_hz", 0.0)
    except OSError as exc:
        raise SidecarError(f"cannot read sidecar {sc}: {exc.strerror or exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # UnicodeDecodeError too
        raise SidecarError(f"malformed sidecar {sc}: {exc}") from exc
    if not (is_finite_real(rate) and rate > 0):
        raise SidecarError(f"malformed sidecar {sc}: sample_rate_hz must be a positive finite number")
    if not is_int(t0_ns):
        raise SidecarError(f"malformed sidecar {sc}: t0_ns must be a JSON integer")
    if not is_finite_real(center_freq):
        raise SidecarError(f"malformed sidecar {sc}: center_freq_hz must be a finite number")
    try:
        with open(path, "rb", buffering=0) as f:
            size = os.fstat(f.fileno()).st_size
            if size % 4:
                raise SidecarError(f"{path}: {size} bytes end in a partial float32")
            if size % 8:
                raise SidecarError(f"{path}: odd number of float32 values, not interleaved I/Q")
            if size // CF32.itemsize > MAX_FRAME_SAMPLES:
                raise SidecarError(f"{path}: {size // CF32.itemsize} samples exceed "
                                   f"MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}")
            samples = np.empty(size // CF32.itemsize, dtype=np.complex128)
            pairs = samples.view(CF32)[len(samples):]  # the upper half of the samples' bytes
            buf = memoryview(pairs).cast("B")
            got = 0  # one read returns at most ~2 GiB on Linux, so read until full or EOF
            while got < size and (n := f.readinto(buf[got:])):
                got += n
    except SidecarError:
        raise
    except OSError as exc:
        raise SidecarError(f"cannot read trace {path}: {exc.strerror or exc}") from exc
    if got != size:
        raise SidecarError(f"{path}: read {got} of {size} bytes")
    # widened front to back in place: sample i's 16 bytes end at or before pair
    # i + 1, so no pair is overwritten before it is read, as long as numpy
    # casts this 1-D overlap forward with no temporary.  numpy does that but
    # does not document it; test_samples_are_the_files_pairs_widened fails
    # if a numpy release stops doing it
    samples[:] = pairs
    return IQTrace(samples, float(rate), t0_ns), meta
