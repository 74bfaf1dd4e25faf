"""Numbers read from files: one table of outside values, fed to every
numeric field of a trace sidecar, a profile log and a scenario file.

``phy.is_real``, ``phy.is_finite_real`` and ``phy.is_int`` decide what a
number read from a file is; each format must turn every value of the
table into its own error, and the CLI into one ``error:`` line with exit
code 2 (a file that cannot be read) or 1 (a scenario value out of range).
"""

import json
import math
import sys
from dataclasses import asdict

import numpy as np
import pytest

from lorastamp import cli
from lorastamp.attack import AttackError, CollisionScenario, PathLossModel, ScenarioFileError, load_scenario
from lorastamp.defense import DefenseError, ProfileStore
from lorastamp.iqfile import SidecarError, read_cf32, sidecar_path, write_cf32
from lorastamp.phy import IQTrace, is_finite_real, is_int, is_real

# JSON values that a file may hold where a number goes, none of them a usable one
OUTSIDE = {
    "true": True,
    "string": "2.4e6",
    "null": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "400-digits": 10 ** 399,
}
WRONG_TYPE = {"true", "string", "null"}  # the rest are numbers out of range

SIDECAR = {"center_freq_hz": 869.75e6, "sample_rate_hz": 1e6, "t0_ns": 123}
SNAPSHOT = {
    "device_id": "dev-7",
    "fb_history": [{"bw_hz": 125000.0, "entries": [[1000, -20125.5]], "sf": 7}],
    "fb_threshold_hz": 450.0,
    "history_window": 3,
    "pih": {"deviation_tol_s": 0.01, "last_counter": 4, "last_rx_time_ns": 900,
            "max_counter_gap": 5, "max_interval_s": 250.0, "min_interval_s": 10.0,
            "seed_hex": bytes(range(32)).hex()},
    "temp_model": {"intercept_hz": -25000.0, "rmse_c": 0.125, "slope_hz_per_c": 800.0},
}
DELTA = {"delta": {"fb_history": [{"bw_hz": 125000.0, "entries": [[4000, -20120.0]], "sf": 7}],
                   "pih": {"last_counter": 5, "last_rx_time_ns": 1900}},
         "device_id": "dev-7"}
SCENARIO = json.loads(json.dumps({"path_loss": asdict(PathLossModel()),
                                  "scenario": asdict(CollisionScenario())}))


def numeric_paths(doc, prefix=()) -> list[tuple]:
    """The key path of every number in a JSON document."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in numeric_paths(v, (*prefix, k))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in numeric_paths(v, (*prefix, i))]
    return [prefix] if type(doc) in (int, float) else []


def with_value(doc, path: tuple, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def field_id(path: tuple) -> str:
    return ".".join(map(str, path))


SIDECAR_FIELDS = numeric_paths(SIDECAR)
SNAPSHOT_FIELDS = numeric_paths(SNAPSHOT)
DELTA_FIELDS = numeric_paths(DELTA)
SCENARIO_FIELDS = numeric_paths(SCENARIO)
# unset PIH counters are written as null
NULLABLE = {("pih", "last_counter"), ("pih", "last_rx_time_ns"),
            ("delta", "pih", "last_counter"), ("delta", "pih", "last_rx_time_ns")}

outside = pytest.mark.parametrize("kind", OUTSIDE)


def log_cases(fields) -> list:
    """Every (field, outside value) pair of a profile-log record but a null counter."""
    return [pytest.param(path, kind, id=f"{field_id(path)}-{kind}")
            for path in fields for kind in OUTSIDE if not (kind == "null" and path in NULLABLE)]


def test_every_numeric_field_is_fed():
    assert (len(SIDECAR_FIELDS), len(SNAPSHOT_FIELDS), len(DELTA_FIELDS),
            len(SCENARIO_FIELDS)) == (3, 15, 6, 20)


class TestPredicates:
    @outside
    def test_outside_values_are_no_file_numbers(self, kind):
        value = OUTSIDE[kind]
        assert not is_finite_real(value)
        assert not is_int(value)
        assert is_real(value) == (kind not in WRONG_TYPE)

    @pytest.mark.parametrize("value", [0, -3, 2.5, -1e308, 2 ** 1023, int(sys.float_info.max),
                                       np.float64(1.5), np.int64(7)], ids=repr)
    def test_finite_numbers(self, value):
        assert is_real(value) and is_finite_real(value)
        assert is_int(value) == (not isinstance(value, (float, np.floating)))

    def test_float_range_edge(self):
        # the largest float is an integer; one more is beyond float range
        edge = int(sys.float_info.max)
        assert is_int(edge) and is_int(-edge)
        assert not is_int(edge + 1) and not is_finite_real(-edge - 1)

    @pytest.mark.parametrize("value", [[1], {"x": 1}, b"1", 1j], ids=repr)
    def test_other_types(self, value):
        assert not (is_real(value) or is_finite_real(value) or is_int(value))


class TestSidecar:
    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "t.cf32"
        write_cf32(path, IQTrace(np.ones(16, dtype=complex), 1e6))
        return path

    def test_base_sidecar_reads(self, trace):
        sidecar_path(trace).write_text(json.dumps(SIDECAR))
        assert read_cf32(trace)[0].t0_ns == 123

    @outside
    @pytest.mark.parametrize("path", SIDECAR_FIELDS, ids=field_id)
    def test_rejected(self, trace, path, kind):
        sidecar_path(trace).write_text(json.dumps(with_value(SIDECAR, path, OUTSIDE[kind])))
        with pytest.raises(SidecarError, match=f"malformed sidecar .*: {path[0]} must be"):
            read_cf32(trace)

    @outside
    @pytest.mark.parametrize("path", SIDECAR_FIELDS, ids=field_id)
    def test_cli_exit_2(self, trace, capsys, path, kind):
        sidecar_path(trace).write_text(json.dumps(with_value(SIDECAR, path, OUTSIDE[kind])))
        assert cli.main(["onset", str(trace)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: malformed sidecar {sidecar_path(trace)}: ")


class TestProfileLog:
    def load(self, tmp_path, *records):
        log = tmp_path / "profiles.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        return ProfileStore(log).load_all()

    def test_base_log_loads(self, tmp_path):
        p = self.load(tmp_path, SNAPSHOT, DELTA)["dev-7"]
        assert p.pih.last_counter == 5
        assert p.fb_history[(7, 125e3)] == [(1000, -20125.5), (4000, -20120.0)]

    @pytest.mark.parametrize("path", sorted(NULLABLE), ids=field_id)
    def test_null_counter_is_unset(self, tmp_path, path):
        records = ([with_value(SNAPSHOT, path, None)] if path[0] == "pih"
                   else [SNAPSHOT, with_value(DELTA, path, None)])
        assert getattr(self.load(tmp_path, *records)["dev-7"].pih, path[-1]) is None

    @pytest.mark.parametrize("path, kind", log_cases(SNAPSHOT_FIELDS))
    def test_snapshot_field_rejected(self, tmp_path, path, kind):
        with pytest.raises(DefenseError, match="line 1: "):
            self.load(tmp_path, with_value(SNAPSHOT, path, OUTSIDE[kind]), DELTA)

    @pytest.mark.parametrize("path, kind", log_cases(DELTA_FIELDS))
    def test_delta_field_rejected(self, tmp_path, path, kind):
        with pytest.raises(DefenseError, match="line 2: "):
            self.load(tmp_path, SNAPSHOT, with_value(DELTA, path, OUTSIDE[kind]))


class TestScenarioFile:
    def write(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def test_base_scenario_loads(self, tmp_path):
        assert load_scenario(self.write(tmp_path, SCENARIO)) == (CollisionScenario(), PathLossModel())

    @outside
    @pytest.mark.parametrize("path", SCENARIO_FIELDS, ids=field_id)
    def test_rejected(self, tmp_path, path, kind):
        error = ScenarioFileError if kind in WRONG_TYPE else AttackError
        with pytest.raises(error):
            load_scenario(self.write(tmp_path, with_value(SCENARIO, path, OUTSIDE[kind])))

    @pytest.mark.parametrize("model", [5, 2.75, True, None, ["LOG_DISTANCE"]], ids=repr)
    def test_model_not_a_string(self, tmp_path, capsys, model):
        # a model of the wrong type is a malformed file (exit 2), not an unknown model (exit 1)
        with pytest.raises(TypeError, match="path-loss model must be a string"):
            PathLossModel(model=model)
        scenario = self.write(tmp_path, with_value(SCENARIO, ("path_loss", "model"), model))
        with pytest.raises(ScenarioFileError):
            load_scenario(scenario)
        assert cli.main(["attack", "--scenario", str(scenario)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: scenario file {scenario}: path-loss model must be a string")

    @outside
    @pytest.mark.parametrize("path", SCENARIO_FIELDS, ids=field_id)
    def test_cli_exit_code(self, tmp_path, capsys, path, kind):
        scenario = self.write(tmp_path, with_value(SCENARIO, path, OUTSIDE[kind]))
        assert cli.main(["attack", "--scenario", str(scenario)]) == (2 if kind in WRONG_TYPE else 1)
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: scenario file {scenario}: " if kind in WRONG_TYPE
                               else "error: ")
