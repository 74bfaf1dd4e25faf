"""Command-line surface: generate traces, estimate FB, run the attack
model, detect onsets, and emit the figure-style CSV datasets.

Machine-readable output goes to stdout only, one strict JSON line per
result (no NaN or Infinity; ``onset`` prints a non-finite score, such as
ENV's ratio after an all-zero chunk, as null); logs go to stderr.  Every
command is deterministic given its arguments and seed.  Exit codes:
0 success, 1 domain error (bad signal or attack input, failed estimate,
no onset found), 2 usage error or a file that cannot be read or written
(missing/malformed trace, sidecar or scenario file, missing output
directory).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lorastamp import attack, fbest, iqfile, onset, repro
from lorastamp.phy import (
    DEFAULT_SAMPLE_RATE,
    MAX_FRAME_SAMPLES,
    IQTrace,
    PhyParams,
    RxParams,
    SignalError,
    TxParams,
    add_awgn,
    gen_frame,
)

_ONSET_DETECTORS = {"env": onset.detect_env, "aic": onset.detect_aic}
_FB_ESTIMATORS = {
    "fft": fbest.estimate_fb_fft,
    "linreg": fbest.estimate_fb_linreg,
    "lsq": lambda chirp, phy: fbest.estimate_fb_lsq(chirp, phy, fbest.LsqConfig()),
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(doc: dict) -> None:
    """One strict JSON line on stdout, keys sorted: NaN and infinities raise."""
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


def _symbol_list(text: str) -> list[int]:
    """Comma-separated integers; argparse turns a ValueError into a usage error."""
    return [int(s) for s in text.split(",") if s]


def _count(text: str) -> int:
    """A non-negative integer; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def cmd_gen(args) -> int:
    phy = PhyParams(spreading_factor=args.sf, bandwidth_hz=args.bw)
    tx = TxParams(fb_hz=args.fb, ramp_fraction=args.ramp)
    frame = gen_frame(phy, tx, RxParams(), args.payload, args.samplerate)
    if args.noise_pad + len(frame) > MAX_FRAME_SAMPLES:
        raise SignalError(f"a noise pad of {args.noise_pad} samples and a frame of {len(frame)} "
                          f"exceed MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}")
    samples = np.concatenate([np.zeros(args.noise_pad, dtype=np.complex128), frame.samples])
    trace = IQTrace(samples, frame.sample_rate)
    if args.snr != math.inf:
        trace = add_awgn(trace, args.snr, args.seed, (args.noise_pad, len(trace)))
    iqfile.write_cf32(args.out, trace, center_freq_hz=phy.center_freq_hz)
    _log(f"wrote {args.out} ({len(trace)} samples)")
    _emit({"file": str(args.out), "n_samples": len(trace)})
    return 0


def cmd_estimate(args) -> int:
    phy = PhyParams(spreading_factor=args.sf, bandwidth_hz=args.bw)
    for path in args.files:
        trace = iqfile.read_cf32(path)[0]
        if args.onset == "none":
            start = args.onset_sample
        else:
            start = _ONSET_DETECTORS[args.onset](trace).onset_sample
        est = _FB_ESTIMATORS[args.method](fbest.second_chirp(trace, phy, start), phy)
        _emit({"file": str(path), **asdict(est)})
    return 0


def cmd_onset(args) -> int:
    for path in args.files:
        result = _ONSET_DETECTORS[args.detector](iqfile.read_cf32(path)[0])
        score = result.score if math.isfinite(result.score) else None
        _emit({"file": str(path), **asdict(result), "score": score})
    return 0


def cmd_attack(args) -> int:
    if args.emit_replay and not args.emit_replay_input:
        _log("error: --emit-replay needs --emit-replay-input")
        return 2
    scenario, model = attack.load_scenario(args.scenario)
    if args.area_out:
        x0, x1, y0, y1 = args.bounds
        area = attack.vulnerable_area(scenario, model, (x0, x1, y0, y1), args.resolution)
        attack.write_cell_map(args.area_out, area)
        _emit({"core_area_m2": area.core_area_m2})
        return 0
    report = {
        "scr_gateway_db": attack.scr_at(scenario.gateway, scenario, model),
        "scr_eavesdropper_db": attack.scr_at(scenario.eavesdropper, scenario, model),
    }
    if args.lag_ms is not None:
        windows = attack.lookup_windows(args.sf, args.payload_bytes)
        report["outcome"] = attack.classify_by_timing(args.lag_ms, windows)
    else:
        report["outcome"] = attack.OutcomeMap().classify(scenario.rtm, report["scr_gateway_db"])
    if args.emit_replay:
        trace = iqfile.read_cf32(args.emit_replay_input)[0]
        replayed = attack.replay(
            trace, scenario.replay_delay_s, scenario.replayer_fb_hz, rng_seed=args.seed
        )
        iqfile.write_cf32(args.emit_replay, replayed)
        report["replay_file"] = str(args.emit_replay)
    _emit(report)
    return 0


def cmd_repro(args) -> int:
    builder = repro.BUILDERS[args.figure]
    path = builder(Path(args.out), seed=args.seed)
    _emit({"figure": args.figure, "file": str(path)})
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative number as a value.  argparse
    takes a word that starts with "-" for an option unless it looks like a
    negative number, and by itself counts words like -30000 and -0.5 as such
    but not -3e4 or -inf.  Subcommand parsers are made of the same class."""

    NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self.NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lorastamp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="synthesize a frame trace (.cf32 + sidecar)")
    g.add_argument("--sf", type=int, choices=range(6, 13), required=True)
    g.add_argument("--bw", type=float, default=125e3)
    g.add_argument("--fb", type=float, default=0.0, help="transmitter FB in Hz")
    g.add_argument("--snr", type=float, default=math.inf, help="target SNR in dB")
    g.add_argument("--seed", type=_count, default=0)
    g.add_argument("--payload", type=_symbol_list, default="", help="comma-separated symbols")
    g.add_argument("--samplerate", type=float, default=DEFAULT_SAMPLE_RATE)
    g.add_argument("--ramp", type=float, default=0.0)
    g.add_argument("--noise-pad", type=_count, default=0, help="noise-only samples before the frame")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    e = sub.add_parser("estimate", help="estimate FB from trace files")
    e.add_argument("--method", choices=tuple(_FB_ESTIMATORS), default="lsq")
    e.add_argument("--sf", type=int, choices=range(6, 13), default=7)
    e.add_argument("--bw", type=float, default=125e3)
    e.add_argument("--onset", choices=("none", *_ONSET_DETECTORS), default="none")
    e.add_argument("--onset-sample", type=int, default=0)
    e.add_argument("files", nargs="+")
    e.set_defaults(fn=cmd_estimate)

    o = sub.add_parser("onset", help="detect preamble onsets")
    o.add_argument("--detector", choices=tuple(_ONSET_DETECTORS), default="aic")
    o.add_argument("files", nargs="+")
    o.set_defaults(fn=cmd_onset)

    a = sub.add_parser("attack", help="evaluate an attack scenario")
    a.add_argument("--scenario", required=True)
    a.add_argument("--sf", type=int, default=7)
    a.add_argument("--payload-bytes", type=int, default=30)
    a.add_argument("--lag-ms", type=float, default=None)
    a.add_argument("--area-out", default=None, help="write the cell map CSV here")
    a.add_argument("--bounds", type=float, nargs=4, default=(-300.0, 700.0, -300.0, 300.0))
    a.add_argument("--resolution", type=float, default=5.0)
    a.add_argument("--emit-replay", default=None, help="write the replayed trace here")
    a.add_argument("--emit-replay-input", default=None)
    a.add_argument("--seed", type=_count, default=0)
    a.set_defaults(fn=cmd_attack)

    r = sub.add_parser("repro", help="emit a figure-style CSV dataset")
    r.add_argument("figure", choices=sorted(repro.BUILDERS))
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--seed", type=_count, default=0)
    r.set_defaults(fn=cmd_repro)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:  # SidecarError and ScenarioFileError among them
        _log(f"error: {exc}")
        return 2
    except (SignalError, attack.AttackError, fbest.EstimationError, onset.NoOnsetError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
