import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from lorastamp import attack, demod
from lorastamp.attack import (
    BAD_FRAME,
    BOTH_RECEIVED,
    COLLISION_RECEIVED,
    STEALTHY,
    VICTIM_RECEIVED,
    AttackError,
    CollisionScenario,
    CollisionWindows,
    OutcomeMap,
    PathLossModel,
    classify_by_timing,
    collision_outcome_waveform,
    load_scenario,
    lookup_windows,
    path_loss,
    replay,
    save_scenario,
    scr_at,
    synthesize_collision,
    vulnerable_area,
    write_cell_map,
)
from lorastamp.fbest import LsqConfig, estimate_fb_lsq, second_chirp
from lorastamp.phy import MAX_FRAME_SAMPLES, IQTrace, PhyParams, RxParams, SignalError, TxParams, gen_frame

PHY7 = PhyParams(spreading_factor=7, bandwidth_hz=125e3)


class TestWindows:
    @pytest.mark.parametrize(
        "s,p,w1,w2,w3",
        [
            (7, 10, 5, 28, 141),
            (7, 20, 5, 38, 156),
            (7, 30, 6, 41, 165),
            (7, 40, 6, 54, 178),
            (8, 30, 10, 82, 208),
            (9, 30, 22, 156, 274),
        ],
    )
    def test_measured_rows(self, s, p, w1, w2, w3):
        w = lookup_windows(s, p)
        assert (w.w1_ms, w.w2_ms, w.w3_ms) == (w1, w2, w3)

    def test_unmeasured_raises(self):
        for s, p in [(10, 30), (7, 50), (8, 31), (9, 29)]:
            with pytest.raises(AttackError):
                lookup_windows(s, p)

    def test_interpolation_midpoint(self):
        w = lookup_windows(7, 25)
        assert w.w1_ms == pytest.approx(5.5)
        assert w.w2_ms == pytest.approx(39.5)
        assert w.w3_ms == pytest.approx(160.5)

    def test_invalid_window_order(self):
        with pytest.raises(AttackError):
            CollisionWindows(10, 5, 20)

    def test_classify_by_timing_boundaries(self):
        w = lookup_windows(7, 30)
        assert classify_by_timing(0.0, w) == COLLISION_RECEIVED
        assert classify_by_timing(6.0, w) == COLLISION_RECEIVED
        assert classify_by_timing(6.1, w) == STEALTHY
        assert classify_by_timing(41.0, w) == STEALTHY
        assert classify_by_timing(41.1, w) == BAD_FRAME
        assert classify_by_timing(165.0, w) == BAD_FRAME
        assert classify_by_timing(165.1, w) == BOTH_RECEIVED
        assert classify_by_timing(math.inf, w) == BOTH_RECEIVED
        for lag in (-1.0, math.nan):
            with pytest.raises(AttackError):
                classify_by_timing(lag, w)


class TestPathLoss:
    MODEL = PathLossModel()

    def test_reference_distance(self):
        assert path_loss(self.MODEL, (0, 0, 0), (1000, 0, 0)) == pytest.approx(120.0)

    def test_decade_slope(self):
        l1 = path_loss(self.MODEL, (0, 0, 0), (100, 0, 0))
        l2 = path_loss(self.MODEL, (0, 0, 0), (1000, 0, 0))
        assert l2 - l1 == pytest.approx(10 * 2.75)

    def test_uses_3d_distance(self):
        flat = path_loss(self.MODEL, (0, 0, 0), (300, 400, 0))
        tall = path_loss(self.MODEL, (0, 0, 0), (300, 0, 400))
        assert flat == pytest.approx(tall)
        assert flat == pytest.approx(path_loss(self.MODEL, (0, 0, 0), (500, 0, 0)))

    def test_coincident_raises(self):
        with pytest.raises(AttackError):
            path_loss(self.MODEL, (1, 2, 3), (1, 2, 3))

    def test_array_matches_scalar_calls(self):
        victims = np.random.default_rng(0).uniform(-1000, 1000, (200, 3))
        losses = path_loss(self.MODEL, victims, (400.0, 0.0, 0.0))
        single = [path_loss(self.MODEL, v, (400.0, 0.0, 0.0)) for v in victims]
        assert losses.shape == (200,)
        assert losses.tolist() == single  # bit for bit
        assert all(type(x) is float for x in single)

    def test_array_with_coincident_position_raises(self):
        with pytest.raises(AttackError):
            path_loss(self.MODEL, [(0, 0, 0), (1, 2, 3)], (1, 2, 3))

    def test_unknown_model_raises(self):
        with pytest.raises(AttackError):
            PathLossModel(model="FREE_SPACE")

    @pytest.mark.parametrize("field", ["exponent", "reference_loss_db", "reference_distance_m"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_raises(self, field, bad):
        with pytest.raises(AttackError, match="path-loss parameters out of range"):
            PathLossModel(**{field: bad})


class TestScenario:
    def test_json_roundtrip(self, tmp_path):
        sc = CollisionScenario(victim=(123.0, -45.0, 1.5), rtm=0.35, replayer_fb_hz=250.0)
        model = PathLossModel(exponent=3.0)
        p = tmp_path / "scenario.json"
        save_scenario(p, sc, model)
        sc2, model2 = load_scenario(p)
        assert sc2 == sc
        assert model2 == model
        # stored as plain sorted JSON
        doc = json.loads(p.read_text())
        assert set(doc) == {"path_loss", "scenario"}

    def test_rtm_range_enforced(self):
        with pytest.raises(AttackError):
            CollisionScenario(rtm=1.5)

    @pytest.mark.parametrize("field", ["p_victim_dbm", "p_collider_dbm", "replay_delay_s",
                                       "replayer_fb_hz"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_raises(self, field, bad):
        with pytest.raises(AttackError, match=f"{field} must be finite"):
            CollisionScenario(**{field: bad})

    def test_overflowing_scr_raises(self):
        sc = CollisionScenario(p_victim_dbm=1e308, p_collider_dbm=-1e308)
        with pytest.raises(AttackError, match="overflows"):
            scr_at(sc.gateway, sc, PathLossModel())

    def test_overflowing_distance_raises(self):
        # squares past 1e308 used to overflow inside np.linalg.norm with a
        # RuntimeWarning on stderr before the error
        sc = CollisionScenario(gateway=(1e200, 0.0, 0.0))
        with pytest.raises(AttackError, match="overflowing distance"):
            scr_at(sc.gateway, sc, PathLossModel())
        with pytest.raises(AttackError, match="overflowing distance"):
            path_loss(PathLossModel(), (0.0, 0.0, 0.0), [(1.0, 0.0, 0.0), (0.0, -1e300, 0.0)])

    def test_scr_antisymmetry_with_swapped_roles(self):
        model = PathLossModel()
        sc = CollisionScenario(p_victim_dbm=10.0, p_collider_dbm=10.0)
        swapped = CollisionScenario(
            victim=sc.collider, collider=sc.victim, p_victim_dbm=10.0, p_collider_dbm=10.0
        )
        rx = (120.0, 80.0, 10.0)
        assert scr_at(rx, sc, model) == pytest.approx(-scr_at(rx, swapped, model))

    def test_scr_power_linearity(self):
        model = PathLossModel()
        base = CollisionScenario()
        boosted = CollisionScenario(p_victim_dbm=base.p_victim_dbm + 7)
        rx = (300.0, 10.0, 2.0)
        assert scr_at(rx, boosted, model) == pytest.approx(scr_at(rx, base, model) + 7)


class TestVulnerableArea:
    MODEL = PathLossModel()
    SCENARIO = CollisionScenario()
    BOUNDS = (-300.0, 700.0, -300.0, 300.0)

    def test_core_is_ring_and_disk(self):
        area = vulnerable_area(self.SCENARIO, self.MODEL, self.BOUNDS, 5.0)
        n_core = int(np.count_nonzero(area.classes == "core"))
        assert area.core_area_m2 == pytest.approx(n_core * 25.0)
        assert n_core > 0

    def test_distant_collider_kills_ring(self):
        # a vanishing collider power leaves no cell inside the stealthy band
        sc = CollisionScenario(p_collider_dbm=-500.0)
        area = vulnerable_area(sc, self.MODEL, self.BOUNDS, 5.0)
        assert area.core_area_m2 == 0.0
        assert not np.any(area.classes == "ring")

    def test_resolution_convergence(self):
        a5 = vulnerable_area(self.SCENARIO, self.MODEL, self.BOUNDS, 5.0)
        a25 = vulnerable_area(self.SCENARIO, self.MODEL, self.BOUNDS, 2.5)
        assert a5.core_area_m2 > 0
        assert abs(a25.core_area_m2 - a5.core_area_m2) / a5.core_area_m2 < 0.02

    def test_sensitivity_prunes_disk(self):
        generous = vulnerable_area(self.SCENARIO, self.MODEL, self.BOUNDS, 5.0)
        pruned = vulnerable_area(
            self.SCENARIO, self.MODEL, self.BOUNDS, 5.0, sensitivity_dbm=-60.0
        )
        assert pruned.core_area_m2 <= generous.core_area_m2

    @pytest.mark.parametrize("receiver", ["eavesdropper", "gateway"])
    def test_cell_on_receiver_raises(self, receiver):
        # the grid's one cell is centred on the receiver: its path loss is
        # undefined, as for two coincident positions
        x, y, alt = getattr(self.SCENARIO, receiver)
        sc = CollisionScenario(victim=(200.0, 0.0, alt))
        with pytest.raises(AttackError, match="coincident"):
            vulnerable_area(sc, self.MODEL, (x - 2.5, x + 2.5, y - 2.5, y + 2.5), 5.0)

    def test_bad_resolution(self):
        # 1e-300 ended in a ValueError from np.arange; 0.001 asks for 6e11
        # cells, which MAX_GRID_CELLS rejects before anything is allocated
        for resolution in (10.0, 0.0, math.nan, 1e-300, 0.001):
            with pytest.raises(AttackError, match="resolution"):
                vulnerable_area(self.SCENARIO, self.MODEL, self.BOUNDS, resolution)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_bounds(self, bad, index):
        bounds = list(self.BOUNDS)
        bounds[index] = bad
        with pytest.raises(AttackError, match="bounds"):
            vulnerable_area(self.SCENARIO, self.MODEL, tuple(bounds), 5.0)

    def test_cell_map_csv(self, tmp_path):
        area = vulnerable_area(self.SCENARIO, self.MODEL, (-10, 10, -10, 10), 5.0)
        p = tmp_path / "cells.csv"
        write_cell_map(p, area)
        lines = p.read_text().splitlines()
        assert lines[0] == "x,y,class"
        cells = zip(itertools.product(area.xs, area.ys), area.classes.ravel())
        assert lines[1:] == [f"{x:.3f},{y:.3f},{c}" for (x, y), c in cells]

    @pytest.mark.parametrize("bounds,resolution,sensitivity,classes,digest", [
        ((-300.0, 700.0, -300.0, 300.0), 5.0, None, {"core", "ring", "disk", "none"},
         "279a6e34cc754e7329184c0c0aae4e4b54b71222a8b1f1b23d163dddff69e617"),
        # a span that is no whole number of cells
        ((-10.3, 10.0, -7.0, 7.4), 2.5, None, {"disk"},
         "acf457f91b96486f9da78c53148d33e56d4f9f70b3b0137ae9045175abe2c58a"),
        ((-300.0, 700.0, -300.0, 300.0), 5.0, -90.0, {"core", "ring", "disk", "none"},
         "efdfc18e1ae1763071597c639df1b27ae703e394b6c23ecaf90acb4e2faed7bc"),
    ])
    def test_cell_map_bytes_pinned(self, tmp_path, bounds, resolution, sensitivity, classes, digest):
        area = vulnerable_area(self.SCENARIO, self.MODEL, bounds, resolution, sensitivity_dbm=sensitivity)
        p = tmp_path / "cells.csv"
        write_cell_map(p, area)
        lines = p.read_text().splitlines()
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == classes
        assert lines[1].startswith("-")  # the first cell has negative coordinates
        assert hashlib.sha256(p.read_bytes()).hexdigest() == digest

    def test_sweep_memory_bounded(self, tmp_path):
        # bytes per cell at a 100 000-cell grid: the sweep's peak, what the
        # returned grid holds (its class map) and the CSV writer's peak above that
        bounds = (-100.0, 300.0, -125.0, 125.0)
        vulnerable_area(self.SCENARIO, self.MODEL, bounds, 1.0)  # warm: lazy imports and caches
        tracemalloc.start()
        try:
            area = vulnerable_area(self.SCENARIO, self.MODEL, bounds, 1.0)
            held, sweep_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_cell_map(tmp_path / "cells.csv", area)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = area.classes.size
        assert cells == 100_000
        assert sweep_peak / cells < 120
        assert held / cells < 16
        assert (write_peak - held) / cells < 4


class TestSynthesizeCollision:
    def make(self, payload):
        return gen_frame(PHY7, TxParams(), RxParams(), payload, 2 * PHY7.bandwidth_hz)

    def test_power_ratio(self):
        v = self.make([1, 2, 3])
        c = self.make([4, 5, 6])
        mixed = synthesize_collision(v, c, scr_db=10.0, rtm=0.0)
        # mixed - victim leaves the scaled collision
        resid = mixed.samples[: len(v)] - v.samples
        p_v = np.mean(np.abs(v.samples) ** 2)
        p_c = np.mean(np.abs(resid) ** 2)
        assert 10 * math.log10(p_v / p_c) == pytest.approx(10.0, abs=0.01)

    def test_rtm_offset_and_tail(self):
        v = self.make([1])
        c = self.make([2])
        mixed = synthesize_collision(v, c, scr_db=0.0, rtm=0.5)
        offset = round(0.5 * len(v))
        assert len(mixed) == offset + len(c)
        assert np.allclose(mixed.samples[:offset], v.samples[:offset])

    def test_infinite_scr_is_victim(self):
        v = self.make([1])
        c = self.make([2])
        mixed = synthesize_collision(v, c, scr_db=math.inf, rtm=0.2)
        assert np.array_equal(mixed.samples, v.samples)

    @pytest.mark.parametrize("rtm", [0.0, 0.2, 0.99, 1.0, 1.3], ids=["aligned", "overlap", "short-overlap",
                                                                    "back-to-back", "gap"])
    def test_mix_is_the_zero_filled_sum(self, rtm):
        # the former mix: a zero-filled buffer, the victim added, then the
        # scaled collision; equal up to the sign of a zero
        v, c = self.make([1, 2, 3]), self.make([4, 5, 6, 7])
        mixed = synthesize_collision(v, c, -3.0, rtm)
        gain = math.sqrt(v.power() / c.power() * 10 ** 0.3)
        offset = round(rtm * len(v))
        want = np.zeros(max(len(v), offset + len(c)), dtype=complex)
        want[:len(v)] += v.samples
        want[offset:offset + len(c)] += gain * c.samples
        assert np.array_equal(mixed.samples, want)

    def test_collision_ending_inside_the_victim_is_the_zero_filled_sum(self):
        # a 10.25-chirp collision 0.1 into a 13.25-chirp victim: the victim's
        # tail past the collision is copied, not added to
        v, c = self.make([1, 2, 3]), self.make([])
        mixed = synthesize_collision(v, c, 3.0, 0.1)
        gain = math.sqrt(v.power() / c.power() * 10 ** -0.3)
        offset = round(0.1 * len(v))
        assert offset + len(c) < len(v)
        want = np.zeros(len(v), dtype=complex)
        want += v.samples
        want[offset:offset + len(c)] += gain * c.samples
        assert np.array_equal(mixed.samples, want)

    def test_rate_mismatch(self):
        v = self.make([1])
        c = IQTrace(v.samples, 2 * v.sample_rate)
        with pytest.raises(Exception):
            synthesize_collision(v, c, 0.0, 0.0)

    @pytest.mark.parametrize("rtm", [math.inf, math.nan, -math.inf, -0.1])
    def test_bad_rtm_is_attack_error(self, rtm):
        v, c = self.make([1]), self.make([2])
        with pytest.raises(AttackError, match="rtm"):
            synthesize_collision(v, c, 0.0, rtm)

    @pytest.mark.parametrize("scr_db", [math.nan, -math.inf])
    def test_bad_scr_is_attack_error(self, scr_db):
        v, c = self.make([1]), self.make([2])
        with pytest.raises(AttackError, match="scr_db"):
            synthesize_collision(v, c, scr_db, 0.1)

    @pytest.mark.parametrize("scr_db, victim_gain", [(-4000.0, 1.0), (-3079.0, 1e3), (-3070.0, 1.0)],
                             ids=["pow-overflows", "product-inf", "energy-inf"])
    def test_scr_past_float_range_is_attack_error(self, scr_db, victim_gain):
        # 10 ** 400 raised a bare OverflowError; a power ratio of 1e6 times
        # 10 ** 307.9 goes inf with no error; at -3070 dB the gain is finite
        # but the mix's energy, summed by any later power, is not
        v, c = self.make([1]), self.make([2])
        with pytest.raises(AttackError, match="scr_db"):
            synthesize_collision(IQTrace(victim_gain * v.samples, v.sample_rate), c, scr_db, 0.1)

    def test_scr_near_float_range_stays_finite(self):
        v, c = self.make([1]), self.make([2])
        mixed = synthesize_collision(v, c, -3000.0, 0.1)
        assert np.isfinite(mixed.power())

    @pytest.mark.parametrize("rtm", [1e12, 1e308])
    def test_oversized_mix_refused_before_any_array(self, rtm):
        # 1e12 frames in asks for petabytes; 1e308 * len(victim) overflows to inf
        v, c = self.make([1]), self.make([2])
        with pytest.raises(SignalError, match="MAX_FRAME_SAMPLES"):
            synthesize_collision(v, c, 0.0, rtm)

    def test_mix_one_sample_past_the_bound_refused(self):
        v, c = self.make([1]), self.make([2])
        rtm = (MAX_FRAME_SAMPLES + 1 - len(c)) / len(v)
        assert round(rtm * len(v)) + len(c) == MAX_FRAME_SAMPLES + 1
        with pytest.raises(SignalError, match="MAX_FRAME_SAMPLES"):
            synthesize_collision(v, c, 0.0, rtm)


class TestCollisionOutcomeWaveform:
    @pytest.mark.parametrize("rtm", [0.0, 0.2, 0.5, 0.99])
    def test_no_collider_on_air_at_infinite_scr(self, rtm):
        # +inf dB mixes the victim alone: there is no collider to decode at its
        # onset (which used to raise past the victim-only mix for rtm > 0)
        header = list(range(8))
        got = collision_outcome_waveform(PHY7, header + [5, 17, 99, 3], header + [64, 1, 2, 120], math.inf, rtm)
        assert got == VICTIM_RECEIVED == OutcomeMap().classify(rtm, math.inf)

    @pytest.mark.parametrize("scr_db, frames", [(math.inf, 1), (3.0, 2), (-12.0, 2)])
    def test_collider_synthesized_only_when_on_air(self, monkeypatch, scr_db, frames):
        calls = []

        def counting_gen_frame(*args):
            calls.append(args)
            return gen_frame(*args)

        monkeypatch.setattr(attack, "gen_frame", counting_gen_frame)
        header = list(range(8))
        collision_outcome_waveform(PHY7, header + [5, 17, 99, 3], header + [64, 1, 2, 120], scr_db, 0.2)
        assert len(calls) == frames

    @pytest.mark.parametrize("rtm", [-0.1, math.inf, math.nan])
    def test_bad_rtm_refused_with_no_collider(self, rtm):
        header = list(range(8))
        with pytest.raises(AttackError, match="rtm"):
            collision_outcome_waveform(PHY7, header + [5], header + [64], math.inf, rtm)

    # SHA-256 of repr([(sync_ok, symbols, sync_margins_db)] of the victim's and
    # the collider's decode) on SF7 cells of the benchmark's pair 1000, from
    # the decoder and mix before the in-place FFT and the unfilled mix
    VICTIM = [61, 27, 1, 110, 120, 122, 51, 99, 65, 114, 103, 17]
    COLLIDER = [13, 74, 53, 110, 26, 55, 64, 92, 12, 20, 39, 80]
    PINNED_DECODES = [
        (0.05, -3.0, "d2eabdaac63379ea977b7c6c9489f91379fa5184740cb807125803e45e7e9aa4"),
        (0.05, 3.0, "e5359fabf7584d8c192f3c540588903eb688662b6e2675cd218ea24721483143"),
        (0.2, -3.0, "d079d6ea250df7f2cc80a2fc0cf86856071091425803fb0b43afb8f15493928e"),
        (0.2, 3.0, "6f28fb7d1a5d3235e2a4ebfc39786928f733463255b4426b5f986744e72ace60"),
        (0.35, -3.0, "81042095eb18deb8e9df1398b34f977680992d92fe6b66d170a14b8349874b2a"),
        (0.35, 3.0, "4fdb84c34663a54d632311cb659ce422dc82ae13001a917325393f6434c5bea8"),
    ]

    @pytest.mark.parametrize("rtm, scr_db, sha256", PINNED_DECODES)
    def test_collided_decodes_pinned(self, rtm, scr_db, sha256):
        fs = 2 * PHY7.bandwidth_hz
        v = gen_frame(PHY7, TxParams(), RxParams(), self.VICTIM, fs)
        c = gen_frame(PHY7, TxParams(fb_hz=100.0, phase_rad=1.0), RxParams(), self.COLLIDER, fs)
        mixed = synthesize_collision(v, c, scr_db, rtm)
        decodes = [demod.decode_frame(mixed, PHY7, 12, onset) for onset in (0, round(rtm * len(v)))]
        text = repr([(d.sync_ok, d.symbols, d.sync_margins_db) for d in decodes])
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestReplay:
    def test_zero_params_identity_magnitude(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [3], 2 * PHY7.bandwidth_hz)
        rep = replay(fr, delay_s=0.0, replayer_fb_hz=0.0, replayer_phase_rad=0.0)
        assert np.allclose(rep.samples, fr.samples)

    def test_delay_shifts_t0(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [3], 2 * PHY7.bandwidth_hz)
        rep = replay(fr, delay_s=1.5, replayer_fb_hz=0.0, rng_seed=0)
        assert rep.t0_ns == fr.t0_ns + 1_500_000_000

    def test_phase_deterministic_per_seed(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [3], 2 * PHY7.bandwidth_hz)
        a = replay(fr, 0.0, 100.0, rng_seed=7)
        b = replay(fr, 0.0, 100.0, rng_seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_replay_shifts_apparent_fb(self):
        # a -600 Hz replay chain offset shows up in the FB estimate
        fs = 2.4e6
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], fs)
        rep = replay(fr, 0.1, replayer_fb_hz=-600.0, replayer_phase_rad=0.3)
        ch2 = second_chirp(rep, PHY7, 0)
        est = estimate_fb_lsq(ch2, PHY7, LsqConfig())
        # sub-sample chirp-boundary offset biases the estimate by up to
        # chirp_rate / (2 fs) ~ 25 Hz
        assert est.delta_hz == pytest.approx(-600.0, abs=30.0)

    def test_negative_delay_rejected(self):
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], 2 * PHY7.bandwidth_hz)
        with pytest.raises(AttackError):
            replay(fr, -1.0, 0.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, 1e300])
    def test_non_finite_delay_rejected(self, delay):
        # 1e300 s is finite, but not as a count of nanoseconds (1e309 overflows)
        fr = gen_frame(PHY7, TxParams(), RxParams(), [], 2 * PHY7.bandwidth_hz)
        with pytest.raises(AttackError, match="replay delay must be non-negative and finite"):
            replay(fr, delay, 0.0)


class TestOutcomeMap:
    def test_regions(self):
        m = OutcomeMap()
        assert m.classify(0.2, -10.0) == COLLISION_RECEIVED
        assert m.classify(0.2, 10.0) == VICTIM_RECEIVED
        assert m.classify(0.2, 0.0) == STEALTHY
        assert m.classify(0.45, 3.0) == VICTIM_RECEIVED
        assert m.classify(0.45, -3.0) == BAD_FRAME
        assert m.classify(1.0, 0.0) == BOTH_RECEIVED
        with pytest.raises(AttackError):
            m.classify(-0.1, 0.0)

    def test_waveform_grid_matches_map(self):
        rng = np.random.default_rng(42)
        header = list(range(8))
        payload = header + [int(v) for v in rng.integers(0, 128, 27)]
        collider_payload = header + [int(v) for v in rng.integers(0, 128, 27)]
        m = OutcomeMap()
        for scr in (-10.0, -3.0, 0.0, 3.0, 10.0):
            for rtm in (0.1, 0.2, 0.3, 0.45, 0.5):
                got = collision_outcome_waveform(PHY7, payload, collider_payload, scr, rtm)
                assert got == m.classify(rtm, scr), (scr, rtm, got)
