import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from lorastamp.iqfile import SidecarError, read_cf32, sidecar_path, write_cf32
from lorastamp.phy import MAX_FRAME_SAMPLES, IQTrace


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


def test_partial_float_rejected(tmp_path):
    # np.fromfile read 18 bytes as 2 samples and dropped the last 2 bytes
    p = tmp_path / "t.cf32"
    p.write_bytes(b"\x00" * 18)
    sidecar_path(p).write_text(json.dumps({"sample_rate_hz": 1e6, "t0_ns": 0}))
    with pytest.raises(SidecarError, match="partial float32"):
        read_cf32(p)


def test_undecodable_sidecar_rejected(tmp_path):
    p = tmp_path / "t.cf32"
    write_cf32(p, make_trace())
    sidecar_path(p).write_bytes(b'{"sample_rate_hz": 1e6, "\xff\xfe": 0}')
    with pytest.raises(SidecarError, match="malformed sidecar"):
        read_cf32(p)


def test_short_read_rejected(tmp_path, monkeypatch):
    # a trace that shrinks between its size and its read
    p = tmp_path / "t.cf32"
    write_cf32(p, make_trace())
    size = p.stat().st_size
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        real_fstat(fd)[:6] + (size + 8,) + real_fstat(fd)[7:]))
    with pytest.raises(SidecarError, match=f"read {size} of {size + 8} bytes"):
        read_cf32(p)


def test_empty_trace_reads_as_no_samples(tmp_path):
    p = tmp_path / "t.cf32"
    p.write_bytes(b"")
    sidecar_path(p).write_text(json.dumps({"sample_rate_hz": 1e6}))
    tr, _ = read_cf32(p)
    assert len(tr) == 0 and tr.samples.dtype == np.complex128


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1001, 65537])
def test_samples_are_the_files_pairs_widened(tmp_path, n):
    # every finite float32 pattern, signed zeros and subnormals among them,
    # comes back as the complex128 numpy widens it to; read_cf32 widens in
    # place, so this also guards numpy's forward cast of the overlap, over
    # several of its 8192-element cast buffers at n = 65537
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2 ** 32, 2 * n, dtype=np.uint64).astype(np.uint32)
    words[(words >> 23 & 0xFF) == 0xFF] &= 0x807FFFFF  # no inf or NaN: clear the exponent
    words[:4] = [0x80000000, 0x00000000, 0x00000001, 0x807FFFFF][:2 * n]
    p = tmp_path / "t.cf32"
    words.astype("<u4").tofile(p)
    sidecar_path(p).write_text(json.dumps({"sample_rate_hz": 1e6}))
    tr, _ = read_cf32(p)
    want = np.fromfile(p, dtype="<c8").astype(np.complex128)
    assert tr.samples.tobytes() == want.tobytes()


def test_oversized_trace_refused_before_any_array(tmp_path):
    # a sparse file one sample past MAX_FRAME_SAMPLES, its size all the reader sees
    p = tmp_path / "big.cf32"
    p.touch()
    os.truncate(p, (MAX_FRAME_SAMPLES + 1) * 8)
    sidecar_path(p).write_text(json.dumps({"sample_rate_hz": 1e6}))
    tracemalloc.start()
    try:
        with pytest.raises(SidecarError, match=f"{MAX_FRAME_SAMPLES + 1} samples exceed MAX_FRAME_SAMPLES"):
            read_cf32(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_read_peak_is_the_samples(tmp_path):
    # the trace is read into the upper half of its complex128 samples and
    # widened there: 16 bytes a sample, where a complex64 copy beside the
    # samples would take 24
    n = 1_000_000
    p = tmp_path / "t.cf32"
    np.zeros(n, dtype="<c8").tofile(p)
    sidecar_path(p).write_text(json.dumps({"sample_rate_hz": 1e6}))
    tracemalloc.start()
    try:
        tr, _ = read_cf32(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == n
    assert peak <= 16 * n + (64 << 10)
