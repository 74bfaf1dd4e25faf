"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Each workload, run at its tiny size, passes its checks; deliberately
corrupted outputs (an onset shifted by 50 us, a flipped verdict, a wrong
collision outcome) are reported as failed; and the benchmark's own truth
(the paper's outcome map, the README's PIH formula) agrees with the
program where the two should agree today.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import ready
import scenario
from calib import NP_REF_NS, PY_REF_NS, Calibration
from layers import PER_LAYER
from workloads import CLASSES, HERE, WORK, Pass, run_rounds

from lorastamp import attack, defense, onset  # on sys.path once workloads is imported

SEED = 7
SHIFT_NS = 50_000


class Tiny(unittest.TestCase):
    def setUp(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run_tiny(self, workload: str):
        wl = CLASSES[workload](SEED, "tiny", self.work)
        if workload == "collision":
            ready.startup("collision", self.work)
        return run_rounds(wl, 0)

    def test_gateway_passes(self):
        res = self.run_tiny("gateway")
        self.assertEqual((res.errors, res.failed, res.attempted), ([], 0, 8))

    def test_timestamp_passes(self):
        res = self.run_tiny("timestamp")
        self.assertEqual((res.errors, res.failed, res.attempted), ([], 0, 4))

    def test_collision_fails_only_known_cells(self):
        res = self.run_tiny("collision")
        known = sum(scenario.known_fault(sf, scr) for sf in scenario.COLLISION_SFS
                    for _ in scenario.TINY_RTM for scr in scenario.TINY_SCR_DB)
        self.assertEqual((res.errors, res.failed, res.attempted), ([], known, 12))

    def test_shifted_onset_is_failed(self):
        detect = onset.detect_aic
        samples = round(SHIFT_NS * 1e-9 * scenario.FS)

        def shifted(trace, *args, **kwargs):
            found = detect(trace, *args, **kwargs)
            return dataclasses.replace(found, onset_sample=found.onset_sample + samples,
                                       onset_time_ns=found.onset_time_ns + SHIFT_NS)

        with mock.patch.object(onset, "detect_aic", shifted):
            res = self.run_tiny("timestamp")
        self.assertEqual(res.failed, res.attempted)
        self.assertTrue(all(why.startswith("timestamp off") for why in res.errors))

    def test_flipped_verdict_is_failed(self):
        check = defense.check_fb

        def flipped(profile, obs):
            verdict = check(profile, obs)
            if verdict is defense.Verdict.ACCEPT:
                return defense.Verdict.REPLAY_SUSPECTED
            return defense.Verdict.ACCEPT

        with mock.patch.object(defense, "check_fb", flipped):
            res = self.run_tiny("gateway")
        self.assertEqual(res.failed, res.attempted)
        self.assertTrue(all("verdicts" in why for why in res.errors))

    def test_wrong_outcome_is_failed(self):
        with mock.patch.object(attack, "collision_outcome_waveform",
                               lambda *args, **kwargs: attack.BAD_FRAME):
            res = self.run_tiny("collision")
        self.assertEqual(res.failed, res.attempted)
        self.assertEqual(len(res.errors), res.attempted)


class Truth(unittest.TestCase):
    def test_paper_map_is_the_programs_outcome_map(self):
        for rtm in scenario.COLLISION_RTM:
            for scr in scenario.COLLISION_SCR_DB:
                self.assertEqual(scenario.paper_outcome(rtm, scr),
                                 attack.OutcomeMap().classify(rtm, scr))

    def test_pih_formula_is_the_programs_schedule(self):
        seed = bytes(range(32))
        for i in (0, 1, 2 ** 40):
            self.assertEqual(scenario.pih_interval(seed, i),
                             defense.pih_next_interval(seed, i, scenario.PIH_MIN_S, scenario.PIH_MAX_S))

    def test_synthesizer_matches_theta(self):
        scenario.check_synthesizer()


class Speed(unittest.TestCase):
    def test_reference_speed_reads_as_wall_time(self):
        calib = Calibration()
        calib.py_ns, calib.np_ns = [PY_REF_NS] * 3, [NP_REF_NS] * 3
        self.assertEqual(calib.slowdown(), 1)

    def test_slowdown_is_the_kernels_median(self):
        calib = Calibration()
        calib.py_ns = [PY_REF_NS * f for f in (1, 2, 2, 2, 9)]
        calib.np_ns = [NP_REF_NS * f for f in (0.5, 2, 2, 2, 2)]
        self.assertEqual(calib.slowdown(), 2)

    def test_kernels_run(self):
        calib = Calibration()
        calib.sample(3)
        self.assertTrue(0.01 < calib.slowdown() < 100)


class Config(unittest.TestCase):
    def test_benchmark_json_names_what_the_runs_print(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], PER_LAYER)
        res = Pass()
        res.rounds.append([1, 2, 3])
        printed = [(k, u) for k, (_, u) in run.end_to_end(res, [10], 2.0, 2.0).items()]
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], printed)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(CLASSES))


if __name__ == "__main__":
    unittest.main()
