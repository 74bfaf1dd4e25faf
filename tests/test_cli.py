import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lorastamp import cli
from lorastamp.attack import CollisionScenario, OutcomeMap, PathLossModel, replay, save_scenario
from lorastamp.iqfile import read_cf32, sidecar_path
from lorastamp.phy import MAX_FRAME_SAMPLES, PhyParams, RxParams, TxParams, gen_frame


def strict_json(line: str):
    """Parse one JSON document, refusing NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(line, parse_constant=refuse)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    for line in captured.out.splitlines():  # stdout holds strict JSON lines only
        strict_json(line)
    return code, captured.out, captured.err


def gen_args(out, **overrides):
    opts = {
        "--sf": "7",
        "--fb": "-20000",
        "--snr": "20",
        "--seed": "3",
        "--payload": "1,2,3",
        "--out": str(out),
    }
    opts.update({k: str(v) for k, v in overrides.items()})
    argv = ["gen"]
    for k, v in opts.items():
        argv += [k, v]
    return argv


class TestGen:
    def test_writes_trace_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        code, stdout, _ = run(capsys, *gen_args(out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["file"] == str(out)
        assert out.exists()
        assert sidecar_path(out).exists()

    def test_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.cf32", tmp_path / "b.cf32"
        run(capsys, *gen_args(a))
        run(capsys, *gen_args(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_noise(self, tmp_path, capsys):
        a, b = tmp_path / "a.cf32", tmp_path / "b.cf32"
        run(capsys, *gen_args(a))
        run(capsys, *gen_args(b, **{"--seed": 4}))
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_bad_snr_exits_1(self, tmp_path, capsys, snr):
        out = tmp_path / "t.cf32"
        argv = gen_args(out)
        i = argv.index("--snr")
        argv[i:i + 2] = [f"--snr={snr}"]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert "error: target SNR" in stderr and "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("fb", ["3e6", "1e308"])
    def test_aliasing_fb_exits_1(self, tmp_path, capsys, fb):
        # past (fs - W) / 2 the frame would alias at the trace's sample rate
        out = tmp_path / "t.cf32"
        code, stdout, stderr = run(capsys, *gen_args(out, **{"--fb": fb}))
        assert code == 1
        assert stdout == ""
        assert stderr.count("error:") == 1 and "aliases" in stderr and "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("pad", ["-5", "-1"])
    def test_negative_noise_pad_usage_error(self, tmp_path, capsys, pad):
        out = tmp_path / "t.cf32"
        with pytest.raises(SystemExit) as exc:
            cli.main(gen_args(out, **{"--noise-pad": pad}))
        assert exc.value.code == 2
        assert "--noise-pad" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_bad_sample_rate_exits_1(self, tmp_path, capsys, rate):
        out = tmp_path / "t.cf32"
        code, stdout, stderr = run(capsys, *gen_args(out, **{"--samplerate": rate}))
        assert (code, stdout) == (1, "")
        assert stderr == "error: sample rate must be positive and finite\n"
        assert not out.exists()

    def test_oversized_frame_exits_1(self, tmp_path, capsys):
        # 3.4 G samples at 1e10 samples/s: refused before any array exists
        out = tmp_path / "x.cf32"
        code, stdout, stderr = run(capsys, "gen", "--sf", "12", "--samplerate", "1e10", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: a frame of ") and stderr.count("\n") == 1
        assert "MAX_FRAME_SAMPLES" in stderr and "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("just_past", [False, True])
    def test_oversized_noise_pad_exits_1(self, tmp_path, capsys, just_past):
        # frame plus pad is checked before the pad's zeros exist
        frame = gen_frame(PhyParams(7, 125e3), TxParams(), RxParams(), [], 250e3)
        pad = MAX_FRAME_SAMPLES - len(frame) + 1 if just_past else 2 ** 58
        out = tmp_path / "x.cf32"
        code, stdout, stderr = run(capsys, "gen", "--sf", "7", "--samplerate", "250e3",
                                   "--noise-pad", str(pad), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"error: a noise pad of {pad} samples") and stderr.count("\n") == 1
        assert "MAX_FRAME_SAMPLES" in stderr and "Traceback" not in stderr
        assert not out.exists()

    def test_sf_13_rejected_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(gen_args(tmp_path / "t.cf32", **{"--sf": 13}))
        assert exc.value.code == 2

    @pytest.mark.parametrize("payload", ["3.7", "1,x"])
    def test_non_integer_payload_usage_error(self, tmp_path, capsys, payload):
        with pytest.raises(SystemExit) as exc:
            cli.main(gen_args(tmp_path / "t.cf32", **{"--payload": payload}))
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestEstimate:
    def test_fft_on_generated_trace(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--snr": "inf"}))
        code, stdout, _ = run(capsys, "estimate", "--method", "fft", str(out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["estimator"] == "DECHIRP_FFT"
        # -20 kHz quantized to the 976.5625 Hz bin grid
        assert abs(doc["delta_hz"] + 20e3) <= 976.5625 / 2

    def test_onset_detector_chain(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--snr": "15", "--noise-pad": "1000"}))
        code, stdout, _ = run(
            capsys, "estimate", "--method", "linreg", "--onset", "aic", str(out)
        )
        assert code == 0
        doc = json.loads(stdout)
        assert abs(doc["delta_hz"] + 20e3) <= 200.0

    def test_lsq_true_at_exact_onset(self, tmp_path, capsys):
        # a noiseless frame read from its exact onset: the slice of the
        # second chirp starts 0.4 samples into it at 2.4 Msps, which read
        # -19979.63 Hz before second_chirp put the slice on the chirp's clock
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--snr": "inf", "--noise-pad": "1000"}))
        code, stdout, _ = run(capsys, "estimate", "--method", "lsq", "--onset-sample", "1000", str(out))
        assert code == 0
        assert json.loads(stdout)["delta_hz"] == pytest.approx(-20e3, abs=0.05)

    @pytest.mark.parametrize("detector", ["env", "aic"])
    def test_onset_option_reads_from_detected_onset(self, tmp_path, capsys, detector):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--noise-pad": "1000"}))
        code, stdout, _ = run(capsys, "onset", "--detector", detector, str(out))
        assert code == 0
        start = json.loads(stdout)["onset_sample"]
        code, detected, _ = run(capsys, "estimate", "--onset", detector, str(out))
        assert code == 0
        _, given, _ = run(capsys, "estimate", "--onset-sample", str(start), str(out))
        assert detected == given

    def test_missing_sidecar_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        sidecar_path(out).unlink()
        code, _, err = run(capsys, "estimate", str(out))
        assert code == 2
        assert "error" in err
        sidecar_path(out).write_text('{"sample_rate_hz": 0}')
        assert run(capsys, "estimate", str(out))[0] == 2

    @pytest.mark.parametrize("command", ["onset", "estimate"])
    @pytest.mark.parametrize("damage", ["missing", "directory"])
    def test_unreadable_trace_exit_2(self, tmp_path, capsys, command, damage):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        out.unlink()
        if damage == "directory":
            out.mkdir()
        code, stdout, err = run(capsys, command, str(out))
        assert code == 2
        assert stdout == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: cannot read trace {out}: ")

    def test_partial_float_trace_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        out.write_bytes(b"\x00" * 18)  # two I/Q pairs and half a float32
        code, stdout, err = run(capsys, "onset", str(out))
        assert (code, stdout) == (2, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: {out}: 18 bytes end in a partial float32")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["onset", "estimate"])
    def test_oversized_trace_exit_2(self, tmp_path, capsys, command):
        # a trace file too long to be a frame cannot be read: exit 2, as any
        # trace that cannot be read, before any array exists
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        os.truncate(out, (MAX_FRAME_SAMPLES + 1) * 8)  # sparse
        code, stdout, err = run(capsys, command, str(out))
        assert (code, stdout) == (2, "")
        [line] = err.splitlines()
        assert line == f"error: {out}: {MAX_FRAME_SAMPLES + 1} samples exceed MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}"

    def test_infinite_t0_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        sidecar_path(out).write_text('{"sample_rate_hz": 2.4e6, "t0_ns": Infinity}')
        code, _, err = run(capsys, "estimate", str(out))
        assert code == 2
        assert "malformed sidecar" in err

    @pytest.mark.parametrize("method", ["fft", "linreg", "lsq"])
    def test_silent_chirp_exit_1(self, tmp_path, capsys, method):
        # the second chirp from sample 0 lies wholly in the noiseless pad
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--snr": "inf", "--noise-pad": "6000"}))
        code, stdout, err = run(capsys, "estimate", "--method", method, "--onset-sample", "0", str(out))
        assert (code, stdout, err) == (1, "", "error: chirp has no power\n")

    def test_negative_onset_exit_1(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        code, stdout, err = run(capsys, "estimate", "--onset-sample", "-3000", str(out))
        assert code == 1
        assert stdout == ""
        assert "onset sample" in err


ESTIMATE_KEYS = {"delta_hz", "estimator", "file", "residual", "warning"}
ONSET_KEYS = {"detector", "file", "onset_sample", "onset_time_ns", "score"}


@pytest.mark.parametrize("argv, keys", [
    *((["estimate", "--method", m, "--onset", "aic"], ESTIMATE_KEYS) for m in ("fft", "linreg", "lsq")),
    *((["onset", "--detector", d], ONSET_KEYS) for d in ("env", "aic")),
])
def test_stdout_key_sets(tmp_path, capsys, argv, keys):
    # one JSON line per file, with the same keys for every estimator and detector
    files = [str(tmp_path / f"t{i}.cf32") for i in range(2)]
    for i, f in enumerate(files):
        run(capsys, *gen_args(f, **{"--seed": str(i), "--noise-pad": "1400"}))
    code, stdout, _ = run(capsys, *argv, *files)
    assert code == 0
    docs = [json.loads(line) for line in stdout.splitlines()]
    assert [doc["file"] for doc in docs] == files
    assert all(set(doc) == keys for doc in docs)


@pytest.mark.parametrize("argv", [
    ["gen", "--sf", "7", "--snr", "10"],
    ["repro", "fig12"],
    ["repro", "fig13a"],
    ["attack", "--scenario", "{dir}/s.json", "--emit-replay", "{dir}/r.cf32", "--emit-replay-input", "{dir}/t.cf32"],
], ids=["gen", "repro-fig12", "repro-fig13a", "attack-emit-replay"])
def test_negative_seed_usage_error(tmp_path, capsys, argv):
    # numpy's generators take no negative seed: refused by the parser, exit 2
    argv = [arg.format(dir=tmp_path) for arg in argv] + ["--seed", "-1"]
    if argv[0] != "attack":
        argv += ["--out", str(tmp_path / ("t.cf32" if argv[0] == "gen" else "out"))]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --seed: expected a non-negative integer, got '-1'" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, joined", [
    ("--fb", "-3e4", None),
    ("--fb", "-1.5E+4", None),
    ("--snr", "-1e1", None),
    ("--snr", "-inf", None),
    ("--lag-ms", "-2e1", None),
    ("--lag-ms", "-Infinity", None),
    ("--bounds", "-5e1 5e1 -4.5e1 4.5E1", "-50 50 -45 45"),
])
def test_negative_number_as_its_own_word(tmp_path, capsys, option, value, joined):
    # "--fb -3e4" is "--fb=-3e4": every negative number, in exponent form and
    # -inf too, is read as a value; --bounds takes four words, so its plain
    # decimal form stands in for "="
    written = tmp_path / ("t.cf32" if option in ("--fb", "--snr") else "cells.csv")
    if option in ("--fb", "--snr"):
        base = gen_args(written)
        i = base.index(option)
        del base[i:i + 2]
    else:
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, CollisionScenario(), PathLossModel())
        base = ["attack", "--scenario", str(scenario), "--area-out", str(written), "--resolution", "5"]

    def outcome(words):
        written.unlink(missing_ok=True)
        code, stdout, _ = run(capsys, *base, *words)
        return code, stdout, written.read_bytes() if written.exists() else None

    spaced = outcome([option, *value.split()])
    assert spaced[0] != 2  # no usage error
    assert spaced == outcome([option, *joined.split()] if joined else [f"{option}={value}"])


# sidecar rates read_cf32 accepts as positive and finite, far from the
# trace's own: chirp 1 then starts 1e-303, 1e6, 1e9 or 1e297 samples on, and
# sample k at k 1e309 ns at 1e-300 Hz
EXTREME_RATES = [1e-300, 1e9, 1e12, 1e300]
RATE_ARGVS = [("onset", "--detector", "aic"), ("onset", "--detector", "env"),
              *(("estimate", "--onset", onset) for onset in ("none", "aic", "env"))]

# runs each argv through cli.main in one child process whose address space
# is capped at 1 GiB: a layout built before it is checked against the trace
# (8 GB at 1e12 Hz) then fails with a MemoryError instead of taking the
# machine's memory
CAPPED_CLI = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from lorastamp import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException:  # reported as no exit code, with its traceback on stderr
            code = None
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def extreme_rate_runs(tmp_path_factory):
    """{(rate, argv): (exit code, stdout, stderr)} of every RATE_ARGVS command
    on a noisy SF7 trace whose sidecar names each of EXTREME_RATES."""
    tmp = tmp_path_factory.mktemp("rates")
    base = tmp / "base.cf32"
    cli.main(gen_args(base, **{"--noise-pad": "1200"}))
    cases, argvs = [], []
    for i, rate in enumerate(EXTREME_RATES):
        trace = tmp / f"r{i}.cf32"
        trace.write_bytes(base.read_bytes())
        sidecar_path(trace).write_text(json.dumps({"sample_rate_hz": rate, "t0_ns": 7}))
        for argv in RATE_ARGVS:
            cases.append((rate, argv))
            argvs.append([*argv, str(trace)])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", CAPPED_CLI, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True)
    return dict(zip(cases, map(tuple, json.loads(out.stdout))))


@pytest.mark.parametrize("argv", RATE_ARGVS, ids=" ".join)
@pytest.mark.parametrize("rate", EXTREME_RATES, ids=repr)
def test_extreme_sidecar_rate_one_error_line(extreme_rate_runs, rate, argv):
    # exit 0 with strict JSON, or exit 1 with one error line: never a
    # traceback (a ValueError at 1e300 Hz, an OverflowError at 1e-300 Hz)
    code, stdout, stderr = extreme_rate_runs[rate, argv]
    assert code in (0, 1), stderr
    if code:
        assert stdout == ""
        [line] = stderr.splitlines()
        assert line.startswith("error: ")
    else:
        assert stderr == ""
        [doc] = map(strict_json, stdout.splitlines())
        assert set(doc) == (ONSET_KEYS if argv[0] == "onset" else ESTIMATE_KEYS)
        if argv[0] == "onset":
            want = 7 + (2 * doc["onset_sample"] * 10 ** 9 / Fraction(rate) + 1) // 2
            assert doc["onset_time_ns"] == want


@pytest.mark.parametrize("onset", ["none", "aic", "env"])
def test_rate_below_two_w_named(extreme_rate_runs, onset):
    # at 1e-300 Hz chirp 1 holds round(fs T) = 0 samples: the one error line
    # names the rate and the 2 W floor, not a chirp with no power
    code, stdout, stderr = extreme_rate_runs[1e-300, ("estimate", "--onset", onset)]
    assert (code, stdout, stderr) == (1, "", "error: sample rate 1e-300 below baseband Nyquist 2W = 250000.0\n")


class TestOnset:
    def test_onset_json(self, tmp_path, capsys):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--snr": "15", "--noise-pad": "1400"}))
        code, stdout, _ = run(capsys, "onset", "--detector", "aic", str(out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["detector"] == "AIC"
        assert abs(doc["onset_sample"] - 1400) <= 8

    @pytest.mark.parametrize("detector, tolerance", [("env", 8)])
    def test_other_detectors(self, tmp_path, capsys, detector, tolerance):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out, **{"--fb": "0", "--snr": "15", "--noise-pad": "1400"}))
        code, stdout, _ = run(capsys, "onset", "--detector", detector, str(out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["detector"] == detector.upper()
        assert abs(doc["onset_sample"] - 1400) <= tolerance
        assert doc["onset_time_ns"] == round(doc["onset_sample"] / 2.4e6 * 1e9)

    def test_env_score_after_silent_chunk_is_null(self, tmp_path, capsys):
        # ENV's ratio over an all-zero chunk is infinite, which JSON cannot hold
        out = tmp_path / "z.cf32"
        run(capsys, "gen", "--sf", "7", "--noise-pad", "1200", "--out", str(out))
        code, stdout, _ = run(capsys, "onset", "--detector", "env", str(out))
        assert code == 0
        doc = strict_json(stdout)
        assert (doc["onset_sample"], doc["score"]) == (1200, None)

    def test_sf_option_usage_error(self, tmp_path, capsys):
        # no detector reads the chirp geometry, so onset takes no --sf or --bw
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        with pytest.raises(SystemExit) as exc:
            cli.main(["onset", "--sf", "7", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --sf" in captured.err

    @pytest.mark.parametrize("argv", [("onset", "--detector", "corr"), ("estimate", "--onset", "corr")])
    def test_unknown_detector_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "t.cf32"
        run(capsys, *gen_args(out))
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: lorastamp")
        assert "invalid choice: 'corr'" in captured.err and "Traceback" not in captured.err


class TestAttack:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        p = tmp_path / "scenario.json"
        save_scenario(p, CollisionScenario(), PathLossModel())
        return p

    def test_lag_classification(self, scenario_file, capsys):
        code, stdout, _ = run(
            capsys,
            "attack",
            "--scenario", str(scenario_file),
            "--sf", "7",
            "--payload-bytes", "30",
            "--lag-ms", "20",
        )
        assert code == 0
        assert json.loads(stdout)["outcome"] == "Stealthy"

    @pytest.mark.parametrize("rtm, outcome", [(0.2, "Stealthy"), (0.5, "BadFrame"), (1.0, "BothReceived")])
    def test_outcome_map_without_lag(self, tmp_path, capsys, rtm, outcome):
        path = tmp_path / "scenario.json"
        save_scenario(path, CollisionScenario(rtm=rtm), PathLossModel())
        code, stdout, _ = run(capsys, "attack", "--scenario", str(path))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["outcome"] == outcome == OutcomeMap().classify(rtm, doc["scr_gateway_db"])

    def test_emit_replay(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        save_scenario(path, CollisionScenario(replay_delay_s=0.15, replayer_fb_hz=600.0),
                      PathLossModel())
        src, out = tmp_path / "t.cf32", tmp_path / "r.cf32"
        run(capsys, *gen_args(src))
        code, stdout, _ = run(capsys, "attack", "--scenario", str(path), "--seed", "5",
                              "--emit-replay", str(out), "--emit-replay-input", str(src))
        assert code == 0
        assert json.loads(stdout)["replay_file"] == str(out)
        trace, _ = read_cf32(src)
        replayed, meta = read_cf32(out)
        assert meta["t0_ns"] == trace.t0_ns + 150_000_000
        assert replayed.sample_rate == trace.sample_rate
        want = replay(trace, 0.15, 600.0, rng_seed=5).samples.astype(np.complex64)
        assert np.array_equal(replayed.samples, want)

    def test_area_sweep(self, scenario_file, tmp_path, capsys):
        area_csv = tmp_path / "cells.csv"
        code, stdout, _ = run(
            capsys,
            "attack",
            "--scenario", str(scenario_file),
            "--area-out", str(area_csv),
            "--bounds", "-50", "50", "-50", "50",
            "--resolution", "5",
        )
        assert code == 0
        assert json.loads(stdout)["core_area_m2"] >= 0
        assert area_csv.read_text().startswith("x,y,class")

    @pytest.mark.parametrize("content", [None, '{"scenario": ', '{"scenario": {"foo": 1}}'],
                             ids=["missing-file", "bad-json", "unknown-key"])
    def test_bad_scenario_file_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "scenario.json"
        if content is not None:
            path.write_text(content)
        code, stdout, err = run(capsys, "attack", "--scenario", str(path), "--lag-ms", "20")
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: scenario file {path}: ")
        assert err.count("\n") == 1

    def test_out_of_range_scenario_exit_1(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"scenario": {"rtm": 5}}')
        code, stdout, err = run(capsys, "attack", "--scenario", str(path), "--lag-ms", "20")
        assert (code, stdout, err) == (1, "", "error: rtm must be in [0, 1]\n")

    @pytest.mark.parametrize("section, field", [
        *(("scenario", f) for f in ("p_victim_dbm", "p_collider_dbm", "replay_delay_s",
                                    "replayer_fb_hz")),
        *(("path_loss", f) for f in ("exponent", "reference_loss_db", "reference_distance_m")),
    ])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_scenario_exit_1(self, tmp_path, capsys, section, field, bad):
        # a NaN power used to print a Stealthy outcome with NaN SCRs and exit 0
        path = tmp_path / "scenario.json"
        path.write_text(f'{{"{section}": {{"{field}": {bad}}}}}')
        code, stdout, err = run(capsys, "attack", "--scenario", str(path))
        assert (code, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ")

    def test_overflowing_scr_exit_1(self, tmp_path, capsys):
        # finite powers whose difference overflows would print an infinite SCR
        path = tmp_path / "scenario.json"
        path.write_text('{"scenario": {"p_victim_dbm": 1e308, "p_collider_dbm": -1e308}}')
        code, stdout, err = run(capsys, "attack", "--scenario", str(path))
        assert (code, stdout, err) == (1, "", "error: signal-to-collision ratio overflows\n")

    def test_overflowing_distance_exit_1(self, tmp_path, capsys):
        # numpy's overflow warning used to print before the error line
        path = tmp_path / "scenario.json"
        save_scenario(path, CollisionScenario(gateway=(1e200, 0.0, 0.0)), PathLossModel())
        code, stdout, err = run(capsys, "attack", "--scenario", str(path))
        assert (code, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: coincident positions or an overflowing distance")

    @pytest.mark.parametrize("resolution", ["1e-300", "0.001"])
    def test_oversized_grid_exit_1(self, scenario_file, tmp_path, capsys, resolution):
        # 1e-300 ended in a ValueError traceback; 0.001 asks for 6e11 cells
        area_csv = tmp_path / "a.csv"
        code, stdout, err = run(capsys, "attack", "--scenario", str(scenario_file),
                                "--area-out", str(area_csv), "--resolution", resolution)
        assert (code, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: grid of more than")
        assert not area_csv.exists()

    @pytest.mark.parametrize("delay", ["NaN", "1e300"])
    def test_unrepresentable_replay_delay_exit_1(self, tmp_path, capsys, delay):
        # these ended in a ValueError or OverflowError traceback
        path, src, out = tmp_path / "scenario.json", tmp_path / "t.cf32", tmp_path / "r.cf32"
        path.write_text(f'{{"scenario": {{"replay_delay_s": {delay}}}}}')
        run(capsys, *gen_args(src))
        code, stdout, err = run(capsys, "attack", "--scenario", str(path),
                                "--emit-replay", str(out), "--emit-replay-input", str(src))
        assert (code, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: replay")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("--area-out", "a.csv", "--resolution", "nan"),
         ("--area-out", "a.csv", "--bounds", "0", "nan", "0", "10"),
         ("--lag-ms", "nan")],
        ids=["nan-resolution", "nan-bound", "nan-lag"],
    )
    def test_non_finite_input_exit_1(self, scenario_file, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a == "a.csv" else a for a in argv]
        code, stdout, err = run(capsys, "attack", "--scenario", str(scenario_file), *argv)
        assert (code, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: ")

    def test_emit_replay_without_input_exit_2(self, scenario_file, tmp_path, capsys):
        argv = ["attack", "--scenario", str(scenario_file), "--emit-replay", str(tmp_path / "r")]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert "--emit-replay-input" in err


class TestRepro:
    def test_fig4_deterministic(self, tmp_path, capsys):
        from pathlib import Path

        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        code, stdout, _ = run(capsys, "repro", "fig4", "--out", str(d1))
        assert code == 0
        f1 = Path(json.loads(stdout)["file"])
        code, stdout, _ = run(capsys, "repro", "fig4", "--out", str(d2))
        assert code == 0
        f2 = Path(json.loads(stdout)["file"])
        assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("command", ["gen", "area-out", "emit-replay", "repro"])
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    # an output in a missing directory, or repro's output directory on a file
    src, missing = tmp_path / "t.cf32", tmp_path / "nodir" / "f"
    scenario = tmp_path / "scenario.json"
    save_scenario(scenario, CollisionScenario(), PathLossModel())
    run(capsys, *gen_args(src))
    argv = {
        "gen": gen_args(missing),
        "area-out": ["attack", "--scenario", str(scenario), "--area-out", str(missing)],
        "emit-replay": ["attack", "--scenario", str(scenario), "--emit-replay", str(missing),
                        "--emit-replay-input", str(src)],
        "repro": ["repro", "fig4", "--out", str(src)],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "Traceback" not in err


def test_package_imports_no_scipy():
    # the cli imports every lorastamp module but stamping; scipy is a
    # test-only dependency
    code = ("import sys, lorastamp.cli, lorastamp.stamping; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
