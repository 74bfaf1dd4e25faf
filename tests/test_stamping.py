import math

import pytest

from lorastamp.defense import pih_max_interval
from lorastamp.onset import OnsetResult
from lorastamp.stamping import (
    MAX_ELAPSED_MS,
    DataRecord,
    StampError,
    max_waiting,
    stamp,
    sync_overhead,
)

ONSET = OnsetResult(onset_sample=1000, onset_time_ns=1_700_000_000_123_456_789, detector="AIC", score=1.0)


class TestStamp:
    def test_integer_arithmetic(self):
        rec = DataRecord("dev-1", elapsed_ms=1234)
        [out] = stamp(ONSET, [rec])
        assert out.timestamp_ns == ONSET.onset_time_ns - 1234 * 10 ** 6
        assert isinstance(out.timestamp_ns, int)

    def test_zero_elapsed_is_onset(self):
        [out] = stamp(ONSET, [DataRecord("dev-1", 0)])
        assert out.timestamp_ns == ONSET.onset_time_ns

    def test_order_preserved(self):
        recs = [DataRecord("dev-1", ms) for ms in (5, 1, 9)]
        outs = stamp(ONSET, recs)
        assert [o.record.elapsed_ms for o in outs] == [5, 1, 9]

    def test_waiting_bound_rejection(self):
        rec = DataRecord("dev-1", 250_001)
        with pytest.raises(StampError):
            stamp(ONSET, [rec], max_elapsed_ms=250_000)

    def test_field_width_enforced(self):
        # 1.5 stamped 998500000.0, a float, and True read as 1 ms
        for bad in (MAX_ELAPSED_MS + 1, -1, 1.5, 1.0, True, "5"):
            with pytest.raises(StampError):
                DataRecord("dev-1", bad)

    def test_no_float_roundoff_at_large_times(self):
        big = OnsetResult(0, 2 ** 62 + 3, "AIC", 1.0)
        [out] = stamp(big, [DataRecord("dev-1", 1)])
        assert out.timestamp_ns == 2 ** 62 + 3 - 10 ** 6


class TestSyncOverhead:
    def test_reference_point(self):
        assert sync_overhead(40.0, 10.0) == 14

    def test_tcxo(self):
        # 2 ppm at 10 ms: budget 5000 s -> 0 sessions/hour
        assert sync_overhead(2.0, 10.0) == 0

    def test_looser_target_fewer_sessions(self):
        assert sync_overhead(40.0, 100.0) == 1

    def test_perfect_clock(self):
        assert sync_overhead(0.0, 10.0) == 0

    def test_invalid(self):
        with pytest.raises(StampError):
            sync_overhead(-1.0, 10.0)
        with pytest.raises(StampError):
            sync_overhead(40.0, 0.0)


class TestMaxWaiting:
    def test_reference_point(self):
        assert max_waiting(40.0, 10.0) == pytest.approx(250.0)

    def test_scales_inversely_with_drift(self):
        assert max_waiting(10.0, 10.0) == pytest.approx(1000.0)

    def test_zero_bound(self):
        assert max_waiting(40.0, 0.0) == 0.0

    def test_invalid_rate(self):
        with pytest.raises(StampError):
            max_waiting(0.0, 10.0)

    def test_agrees_with_pih_interval_cap(self):
        # the waiting bound and the PIH interval cap are the same budget
        assert math.floor(max_waiting(40.0, 10.0)) == pih_max_interval(10e-3, 40.0)
        assert math.floor(max_waiting(10.0, 18.0)) == pih_max_interval(18e-3, 10.0)
