import json
import struct

import numpy as np
import pytest

from lorastamp.iqfile import SidecarError, read_cf32, sidecar_path, write_cf32
from lorastamp.phy import IQTrace


def make_trace():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=64) + 1j * rng.normal(size=64)
    return IQTrace(samples, 2.4e6, t0_ns=123_456_789)


def test_roundtrip(tmp_path):
    tr = make_trace()
    p = tmp_path / "t.cf32"
    write_cf32(p, tr, center_freq_hz=869.75e6)
    back, meta = read_cf32(p)
    assert back.sample_rate == tr.sample_rate
    assert back.t0_ns == tr.t0_ns
    assert meta["center_freq_hz"] == 869.75e6
    assert np.allclose(back.samples, tr.samples, atol=1e-6)  # float32 quantization


def test_interleaving_little_endian(tmp_path):
    tr = IQTrace(np.array([1.0 + 2.0j, 3.0 - 4.0j]), 1e6)
    p = tmp_path / "t.cf32"
    write_cf32(p, tr)
    raw = p.read_bytes()
    assert struct.unpack("<4f", raw) == (1.0, 2.0, 3.0, -4.0)


def test_missing_sidecar_rejected(tmp_path):
    tr = make_trace()
    p = tmp_path / "t.cf32"
    write_cf32(p, tr)
    sidecar_path(p).unlink()
    with pytest.raises(SidecarError):
        read_cf32(p)
    sidecar_path(p).mkdir()
    with pytest.raises(SidecarError, match="cannot read sidecar"):
        read_cf32(p)


def test_missing_or_unreadable_trace_rejected(tmp_path):
    p = tmp_path / "t.cf32"
    write_cf32(p, make_trace())
    p.unlink()
    with pytest.raises(SidecarError, match="cannot read trace"):
        read_cf32(p)
    p.mkdir()
    with pytest.raises(SidecarError, match="cannot read trace"):
        read_cf32(p)


def test_malformed_sidecar_rejected(tmp_path):
    tr = make_trace()
    p = tmp_path / "t.cf32"
    write_cf32(p, tr)
    sidecar_path(p).write_text("{not json")
    with pytest.raises(SidecarError):
        read_cf32(p)
    sidecar_path(p).write_text(json.dumps({"center_freq_hz": 0}))
    with pytest.raises(SidecarError):
        read_cf32(p)
    # true and "2.4e6" are no JSON numbers, though float() reads them as 1 and 2.4e6
    for rate in ("0", "-2.4e6", "NaN", "Infinity", "true", '"2.4e6"'):
        sidecar_path(p).write_text(f'{{"sample_rate_hz": {rate}}}')
        with pytest.raises(SidecarError):
            read_cf32(p)
    sidecar_path(p).write_text('{"sample_rate_hz": 1e6, "t0_ns": Infinity}')
    with pytest.raises(SidecarError):
        read_cf32(p)


def test_odd_float_count_rejected(tmp_path):
    p = tmp_path / "t.cf32"
    p.write_bytes(b"\x00" * 12)  # 3 float32 values
    sidecar_path(p).write_text(
        json.dumps({"sample_rate_hz": 1e6, "center_freq_hz": 0, "t0_ns": 0})
    )
    with pytest.raises(SidecarError):
        read_cf32(p)


@pytest.mark.parametrize("t0", ["1700000000000000123.0", '"12"', "true", "null", "[1]"],
                         ids=["float", "string", "bool", "null", "list"])
def test_non_integer_t0_rejected(tmp_path, t0):
    # 1700000000000000123.0 is 1700000000000000000.0 in float64: int() read it 123 ns early
    p = tmp_path / "t.cf32"
    write_cf32(p, make_trace())
    sidecar_path(p).write_text(f'{{"sample_rate_hz": 1e6, "t0_ns": {t0}}}')
    with pytest.raises(SidecarError, match="t0_ns must be a JSON integer"):
        read_cf32(p)


def test_t0_above_2_53_roundtrips_exactly(tmp_path):
    p = tmp_path / "t.cf32"
    tr = make_trace()
    tr.t0_ns = 1_700_000_000_000_000_123  # above 2^53, not a float64
    write_cf32(p, tr)
    assert read_cf32(p)[0].t0_ns == 1_700_000_000_000_000_123
