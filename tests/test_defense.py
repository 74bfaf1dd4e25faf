import json
import math

import numpy as np
import pytest
from scipy import stats

from lorastamp.defense import (
    DefenseError,
    DeviceProfile,
    FrameObservation,
    PihResyncError,
    PihState,
    ProfileStore,
    TempModel,
    Verdict,
    _median,
    check_fb,
    check_temp_consistency,
    fit_temp_model,
    pih_max_interval,
    pih_next_interval,
    pih_verify,
    seed_fb_history,
    verdict_event,
)
from lorastamp.fbest import FbEstimate

SEED = bytes(range(32))


def obs(delta_hz, rx_time_ns=0, counter=0, temp_c=None, sf=7, bw=125e3):
    fb = FbEstimate(delta_hz, "LSQ", 0.0)
    return FrameObservation("dev-1", rx_time_ns, fb, sf, bw, counter, temp_c)


def profiled(center=-20e3, n=20, **kwargs):
    p = DeviceProfile("dev-1", **kwargs)
    seed_fb_history(p, 7, 125e3, [(i, center + (-1) ** i * 50) for i in range(n)])
    return p


class TestCheckFb:
    def test_unprofiled(self):
        p = DeviceProfile("dev-1")
        assert check_fb(p, obs(-20e3)) is Verdict.UNPROFILED

    def test_accept_within_threshold(self):
        p = profiled()
        assert check_fb(p, obs(-20e3 + 400)) is Verdict.ACCEPT

    def test_alarm_beyond_threshold(self):
        p = profiled()
        assert check_fb(p, obs(-20e3 + 600)) is Verdict.REPLAY_SUSPECTED

    def test_tcxo_threshold(self):
        p = profiled(fb_threshold_hz=250.0)
        assert check_fb(p, obs(-20e3 + 300)) is Verdict.REPLAY_SUSPECTED

    def test_alarm_never_updates_history(self):
        p = profiled()
        before = list(p.history_for(7, 125e3))
        for _ in range(50):
            assert check_fb(p, obs(-20e3 + 5000)) is Verdict.REPLAY_SUSPECTED
        assert p.history_for(7, 125e3) == before

    def test_accept_appends_history(self):
        p = profiled()
        n0 = len(p.history_for(7, 125e3))
        check_fb(p, obs(-20e3, rx_time_ns=99))
        hist = p.history_for(7, 125e3)
        assert hist[-1] == (99, -20e3)
        assert len(hist) == min(n0 + 1, p.history_window)

    def test_seeded_history_trimmed_to_window(self):
        p = profiled(n=1000)
        hist = p.history_for(7, 125e3)
        assert len(hist) == p.history_window
        assert [t for t, _ in hist] == list(range(1000 - p.history_window, 1000))

    def test_unprofiled_check_leaves_history_unchanged(self):
        p = profiled()
        before = {k: list(v) for k, v in p.fb_history.items()}
        assert check_fb(p, obs(-20e3, sf=9)) is Verdict.UNPROFILED
        assert p.fb_history == before

    def test_median_uses_last_window_only(self):
        # old drifted entries beyond the window must not drag the center
        p = DeviceProfile("dev-1", history_window=20)
        old = [(i, -30e3) for i in range(10)]
        new = [(100 + i, -20e3) for i in range(20)]
        seed_fb_history(p, 7, 125e3, old + new)
        assert check_fb(p, obs(-20e3 + 100)) is Verdict.ACCEPT

    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20])
    def test_median_bit_identical_to_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            values = (-20e3 + 50 * rng.standard_normal(n)).tolist()
            assert _median(values) == float(np.median(values))
            # magnitudes far apart, where the middle pair's sum rounds
            values = (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6, n)).tolist()
            assert _median(values) == float(np.median(values))
        # ties and a history window that holds only two distinct values
        assert _median([1.0, 3.0] * (n // 2) + [3.0] * (n % 2)) == float(
            np.median([1.0, 3.0] * (n // 2) + [3.0] * (n % 2)))

    def test_histories_separate_per_config(self):
        p = profiled()
        assert check_fb(p, obs(-20e3, sf=9)) is Verdict.UNPROFILED

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fb_alarms_and_is_not_kept(self, bad):
        # a NaN entry would make every later median NaN and accept any replay
        p = profiled(center=100.0)
        before = list(p.history_for(7, 125e3))
        assert check_fb(p, obs(bad)) is Verdict.REPLAY_SUSPECTED
        assert p.history_for(7, 125e3) == before
        assert check_fb(p, obs(5e3)) is Verdict.REPLAY_SUSPECTED
        assert check_fb(p, obs(20e3)) is Verdict.REPLAY_SUSPECTED
        assert check_fb(p, obs(100.0)) is Verdict.ACCEPT

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_seed_rejects_non_finite_fb(self, bad):
        p = DeviceProfile("dev-1")
        with pytest.raises(DefenseError):
            seed_fb_history(p, 7, 125e3, [(0, 100.0), (1, bad), (2, 100.0)])
        assert p.fb_history.get((7, 125e3)) in (None, [])


class TestTempModel:
    def make_pairs(self, slope=800.0, intercept=-25e3, noise=0.0, n=40, seed=0):
        rng = np.random.default_rng(seed)
        temps = np.linspace(10, 40, n)
        fbs = slope * temps + intercept + rng.normal(0, noise, n)
        return list(zip(temps, fbs))

    def test_exact_line_zero_rmse(self):
        m = fit_temp_model(self.make_pairs())
        assert m.slope_hz_per_c == pytest.approx(800.0)
        assert m.intercept_hz == pytest.approx(-25e3)
        assert m.rmse_c == pytest.approx(0.0, abs=1e-9)

    def test_rmse_reported_in_celsius(self):
        m = fit_temp_model(self.make_pairs(noise=80.0))
        assert m.rmse_c == pytest.approx(80.0 / 800.0, rel=0.3)

    def test_too_few_pairs(self):
        with pytest.raises(DefenseError):
            fit_temp_model(self.make_pairs(n=20))

    def test_narrow_span(self):
        pairs = [(20.0 + 0.01 * i, 800.0 * 20 + i) for i in range(40)]
        with pytest.raises(DefenseError):
            fit_temp_model(pairs)

    def test_degenerate_slope(self):
        pairs = [(10.0 + i, -20e3) for i in range(40)]
        with pytest.raises(DefenseError):
            fit_temp_model(pairs)

    def test_consistency_check(self):
        p = DeviceProfile("dev-1", temp_model=TempModel(800.0, -25e3, 0.1))
        # fb implies T = (delta + 25e3) / 800
        good = obs(800.0 * 25 - 25e3, temp_c=25.0)
        assert check_temp_consistency(p, good, 0.5) is Verdict.ACCEPT
        # 600 Hz offset implies a 0.75 C mismatch: alarms at 0.5 C
        shifted = obs(800.0 * 25 - 25e3 + 600, temp_c=25.0)
        assert check_temp_consistency(p, shifted, 0.5) is Verdict.TEMP_MISMATCH
        assert check_temp_consistency(p, shifted, 1.0) is Verdict.ACCEPT

    @pytest.mark.parametrize("delta_hz, temp_c", [(math.nan, 25.0), (0.0, math.nan)])
    def test_consistency_nan_alarms(self, delta_hz, temp_c):
        p = DeviceProfile("dev-1", temp_model=TempModel(800.0, -25e3, 0.1))
        assert check_temp_consistency(p, obs(delta_hz, temp_c=temp_c), 0.5) is Verdict.TEMP_MISMATCH

    def test_consistency_requires_model_and_reading(self):
        with pytest.raises(DefenseError):
            check_temp_consistency(DeviceProfile("dev-1"), obs(0.0, temp_c=20.0), 0.5)
        p = DeviceProfile("dev-1", temp_model=TempModel(800.0, 0.0, 0.1))
        with pytest.raises(DefenseError):
            check_temp_consistency(p, obs(0.0), 0.5)


class TestPihStream:
    def test_deterministic(self):
        a = pih_next_interval(SEED, 5, 10.0, 250.0)
        b = pih_next_interval(SEED, 5, 10.0, 250.0)
        assert a == b

    def test_bit_exact_construction(self):
        import hashlib

        i = 7
        u = int.from_bytes(
            hashlib.sha256(SEED + i.to_bytes(8, "big")).digest()[:8], "big"
        )
        expect = 10.0 + 240.0 * (u + 1) / 2 ** 64
        assert pih_next_interval(SEED, i, 10.0, 250.0) == expect

    def test_bounds_half_open(self):
        vals = [pih_next_interval(SEED, i, 10.0, 250.0) for i in range(2000)]
        assert all(10.0 < v <= 250.0 for v in vals)

    def test_uniformity_chi_squared(self):
        n = 100_000
        vals = np.array([pih_next_interval(SEED, i, 0.0, 1.0) for i in range(n)])
        counts, _ = np.histogram(vals, bins=50, range=(0.0, 1.0))
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01

    def test_seed_sensitivity(self):
        other = bytes(32)
        a = [pih_next_interval(SEED, i, 0.0, 1.0) for i in range(10)]
        b = [pih_next_interval(other, i, 0.0, 1.0) for i in range(10)]
        assert a != b

    def test_negative_index(self):
        with pytest.raises(DefenseError):
            pih_next_interval(SEED, -1, 0.0, 1.0)


class TestPihMaxInterval:
    def test_paper_point(self):
        assert pih_max_interval(10e-3, 40.0) == 250

    def test_tight_clock(self):
        assert pih_max_interval(18e-3, 10.0) == 1800

    def test_floor(self):
        assert pih_max_interval(9.9e-3, 40.0) == 247

    def test_invalid(self):
        with pytest.raises(DefenseError):
            pih_max_interval(0.0, 40.0)
        with pytest.raises(DefenseError):
            pih_max_interval(1.0, 0.0)


class TestPihVerify:
    def make_profile(self, tol=0.010):
        pih = PihState(SEED, 10.0, 250.0, tol)
        return DeviceProfile("dev-1", pih=pih)

    @staticmethod
    def arrival_times(n, jitter_s=0.0):
        t = 0.0
        times = [0.0]
        for i in range(n):
            t += pih_next_interval(SEED, i, 10.0, 250.0) + jitter_s
            times.append(t)
        return times

    def test_on_schedule_accept(self):
        p = self.make_profile()
        for counter, t in enumerate(self.arrival_times(10)):
            o = obs(0.0, rx_time_ns=round(t * 1e9), counter=counter)
            assert pih_verify(p, o) is Verdict.ACCEPT

    def test_first_frame_initializes(self):
        p = self.make_profile()
        o = obs(0.0, rx_time_ns=123, counter=40)
        assert pih_verify(p, o) is Verdict.ACCEPT
        assert p.pih.last_counter == 40

    def test_delay_beyond_tolerance(self):
        p = self.make_profile()
        times = self.arrival_times(2)
        pih_verify(p, obs(0.0, rx_time_ns=round(times[0] * 1e9), counter=0))
        late = round((times[1] + 0.020) * 1e9)
        assert pih_verify(p, obs(0.0, rx_time_ns=late, counter=1)) is Verdict.DELAY_SUSPECTED

    def test_lost_frames_gap_recovered(self):
        p = self.make_profile()
        times = self.arrival_times(4)
        pih_verify(p, obs(0.0, rx_time_ns=round(times[0] * 1e9), counter=0))
        # frames 1..2 lost; arrival matches the sum of intervals 0..2
        o = obs(0.0, rx_time_ns=round(times[3] * 1e9), counter=3)
        assert pih_verify(p, o) is Verdict.GAP_RECOVERED

    def test_counter_regression(self):
        p = self.make_profile()
        pih_verify(p, obs(0.0, rx_time_ns=0, counter=5))
        assert pih_verify(p, obs(0.0, rx_time_ns=10, counter=5)) is Verdict.DELAY_SUSPECTED
        assert pih_verify(p, obs(0.0, rx_time_ns=20, counter=3)) is Verdict.DELAY_SUSPECTED

    def test_counter_wraps_at_16_bits(self):
        # on air the counter runs 65534, 65535, 0, 1, 2; the schedule runs on
        p = self.make_profile()
        t = 0.0
        for i, counter in enumerate((65534, 65535, 0, 1, 2)):
            if i:
                t += pih_next_interval(SEED, 65533 + i, 10.0, 250.0)
            o = obs(0.0, rx_time_ns=round(t * 1e9), counter=counter)
            assert pih_verify(p, o) is Verdict.ACCEPT, counter
        assert p.pih.last_counter == 65538
        late_old = obs(0.0, rx_time_ns=round(t * 1e9) + 10, counter=65535)
        assert pih_verify(p, late_old) is Verdict.DELAY_SUSPECTED

    def test_excessive_gap_needs_resync(self):
        p = self.make_profile()
        pih_verify(p, obs(0.0, rx_time_ns=0, counter=0))
        with pytest.raises(PihResyncError):
            pih_verify(p, obs(0.0, rx_time_ns=10 ** 12, counter=7))

    def test_alarm_keeps_state(self):
        p = self.make_profile()
        times = self.arrival_times(2)
        pih_verify(p, obs(0.0, rx_time_ns=round(times[0] * 1e9), counter=0))
        late = round((times[1] + 1.0) * 1e9)
        pih_verify(p, obs(0.0, rx_time_ns=late, counter=1))
        assert p.pih.last_counter == 0  # alarmed frame does not advance state

    def test_missing_pih_config(self):
        with pytest.raises(DefenseError):
            pih_verify(DeviceProfile("dev-1"), obs(0.0))


class TestProfileStore:
    def full_profile(self):
        p = profiled()
        p.temp_model = TempModel(800.0, -25e3, 0.1)
        p.pih = PihState(SEED, 10.0, 250.0, 0.010, last_counter=4, last_rx_time_ns=900)
        return p

    def test_roundtrip(self, tmp_path):
        store = ProfileStore(tmp_path / "profiles.jsonl")
        p = self.full_profile()
        store.save(p)
        assert store.load_all()["dev-1"] == p

    # one snapshot as the log has always written it, keys sorted at every level
    LOG_LINE = (
        '{"device_id": "dev-7", "fb_history": [{"bw_hz": 125000.0, "entries": '
        '[[1000, -20125.5], [2000, -20130.25]], "sf": 7}, {"bw_hz": 125000.0, '
        '"entries": [[3000, 512.0]], "sf": 9}], "fb_threshold_hz": 450.0, '
        '"history_window": 3, "pih": {"deviation_tol_s": 0.01, "last_counter": 4, '
        '"last_rx_time_ns": 900, "max_counter_gap": 5, "max_interval_s": 250.0, '
        '"min_interval_s": 10.0, "seed_hex": '
        '"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"}, '
        '"temp_model": {"intercept_hz": -25000.0, "rmse_c": 0.125, "slope_hz_per_c": 800.0}}\n'
    )

    # profile-log fields that, loaded as they were, switched a check off or
    # broke the load: NaN deviation tolerance accepted any delay, a NaN
    # temperature model accepted any FB, a NaN FB threshold alarmed on every
    # frame and an infinite one on none, a float history window raised a
    # bare TypeError and true read as a window of 1
    @pytest.mark.parametrize("path, bad", [
        ("pih.deviation_tol_s", math.nan),
        ("pih.deviation_tol_s", math.inf),
        ("pih.max_interval_s", math.inf),
        ("pih.max_counter_gap", 2.5),
        ("pih.max_counter_gap", True),
        ("pih.max_counter_gap", -1),
        ("pih.last_counter", 4.0),
        ("pih.last_rx_time_ns", math.nan),
        ("temp_model.slope_hz_per_c", math.nan),
        ("temp_model.slope_hz_per_c", 0.5),
        ("temp_model.slope_hz_per_c", -0.5),
        ("temp_model.slope_hz_per_c", True),
        ("temp_model.intercept_hz", math.inf),
        ("temp_model.rmse_c", math.inf),
        ("fb_threshold_hz", math.nan),
        ("fb_threshold_hz", math.inf),
        ("fb_threshold_hz", "500"),
        ("history_window", 2.5),
        ("history_window", True),
        ("history_window", "20"),
    ])
    def test_loaded_bad_field_rejected(self, tmp_path, path, bad):
        doc = json.loads(self.LOG_LINE)
        *parents, name = path.split(".")
        node = doc
        for key in parents:
            node = node[key]
        node[name] = bad
        log = tmp_path / "profiles.jsonl"
        log.write_text(json.dumps(doc) + "\n")  # json writes NaN and Infinity
        with pytest.raises(DefenseError):
            ProfileStore(log).load_all()

    def test_boundary_fields_roundtrip(self, tmp_path):
        # integer-valued numbers and the smallest legal values still load
        pih = PihState(SEED, 10, 250, 0.01, max_counter_gap=0)
        p = DeviceProfile("dev-1", 250, 1, temp_model=TempModel(-1.0, 0, 0), pih=pih)
        store = ProfileStore(tmp_path / "profiles.jsonl")
        store.save(p)
        assert store.load_all()["dev-1"] == p

    def test_log_format_pinned(self, tmp_path):
        old = tmp_path / "old.jsonl"
        old.write_text(self.LOG_LINE)
        p = ProfileStore(old).load_all()["dev-7"]
        assert p.temp_model == TempModel(800.0, -25000.0, 0.125)
        assert p.pih == PihState(SEED, 10.0, 250.0, 0.01, 5, 4, 900)
        assert p.fb_history == {(7, 125e3): [(1000, -20125.5), (2000, -20130.25)],
                                (9, 125e3): [(3000, 512.0)]}
        new = tmp_path / "new.jsonl"
        ProfileStore(new).save(p)
        assert new.read_bytes() == self.LOG_LINE.encode()

    def test_loaded_long_history_trimmed(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        entries = [[i, -20e3 + i] for i in range(1000)]
        doc = {"device_id": "dev-1", "history_window": 20,
               "fb_history": [{"sf": 7, "bw_hz": 125e3, "entries": entries}]}
        path.write_text(json.dumps(doc) + "\n")
        hist = ProfileStore(path).load_all()["dev-1"].fb_history[(7, 125e3)]
        assert hist == [(i, -20e3 + i) for i in range(980, 1000)]

    def test_loaded_non_finite_fb_rejected(self, tmp_path):
        # json.dumps writes NaN and json.loads reads it back
        path = tmp_path / "profiles.jsonl"
        doc = {"device_id": "dev-1",
               "fb_history": [{"sf": 7, "bw_hz": 125e3, "entries": [[0, 100.0], [1, math.nan]]}]}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DefenseError):
            ProfileStore(path).load_all()

    def test_last_snapshot_wins_and_compacts(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        p = self.full_profile()
        store.save(p)
        p.pih.last_counter = 9
        store.save(p)
        q = DeviceProfile("dev-2")
        store.save(q)
        assert len(path.read_text().splitlines()) == 3
        assert store.load_all()["dev-1"].pih.last_counter == 9
        store.compact()
        assert len(path.read_text().splitlines()) == 2
        assert store.load_all() == {"dev-1": p, "dev-2": q}

    def test_torn_last_line_skipped_inner_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        p = self.full_profile()
        store.save(p)
        path.write_text(path.read_text() + '{"device_id": "dev-2", "fb_hi')
        assert store.load_all() == {"dev-1": p}
        path.write_text(path.read_text() + "\n")
        store.save(p)
        with pytest.raises(json.JSONDecodeError):
            store.load_all()

    @pytest.mark.parametrize(
        "cut, kept", [(0.5, False), (1.0, True)], ids=["fragment", "lost-newline"]
    )
    def test_save_after_torn_write_ends_torn_line(self, tmp_path, cut, kept):
        # the dev-2 snapshot is torn mid-line, or loses only its newline:
        # later saves must not glue onto it, and keep it when whole
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        p = self.full_profile()
        store.save(p)
        head = path.read_text()
        q = profiled()
        q.device_id = "dev-2"
        store.save(q)
        line = path.read_text()[len(head):-1]
        path.write_text(head + line[: round(cut * len(line))])
        r = DeviceProfile("dev-3")
        expected = {"dev-1": p, "dev-3": r, **({"dev-2": q} if kept else {})}
        store.save(r)
        assert store.load_all() == expected
        p.pih.last_counter = 9
        store.save(p)
        assert store.load_all() == expected

    def test_load_missing(self, tmp_path):
        store = ProfileStore(tmp_path / "nope.jsonl")
        assert store.load_all() == {}


def test_verdict_event_json_line():
    line = verdict_event("dev-1", 12345, Verdict.REPLAY_SUSPECTED, "fb off by 600 Hz")
    doc = json.loads(line)
    assert doc == {
        "detail": "fb off by 600 Hz",
        "device_id": "dev-1",
        "rx_time_ns": 12345,
        "verdict": "ReplaySuspected",
    }
    assert "\n" not in line
