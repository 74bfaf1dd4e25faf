"""Per-layer metrics from a traced run (``run.py --trace 1``).

The named workload runs whole rounds for --seconds, untraced and traced in
turn; the traced rounds give the spans, and the two kinds of rounds give
the tracing overhead.  Call counts and self-time shares describe the named
workload.  A function it never calls (``demod.decode_frame`` under
``gateway``, say) is timed on one traced round of a tiny instance of the
workload that does call it, so every per-layer metric is a measurement.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import ready
import scenario
from tracer import LAYERS, OP, Tracer, shim_cost_ns, self_times
from workloads import CLASSES, VERDICTS, WORK, WORKLOADS, Pass, pct, run_rounds

MS, US = 1e6, 1e3  # ns per unit
AIC_SFS = scenario.TIMESTAMP_SFS

PER_LAYER: list[tuple[str, str]] = [
    ("fbest.estimate_fb_lsq.ms_p50", "ms"),
    ("fbest.estimate_fb_lsq.ms_p90", "ms"),
    ("fbest.second_chirp.ms_p50", "ms"),
    ("onset.detect_aic.ms_p50", "ms"),
    *[(f"onset.detect_aic.sf{sf}.ms_p50", "ms") for sf in AIC_SFS],
    ("onset.detect_aic.msamples_per_s", "Msample/s"),
    ("iqfile.read_cf32.ms_p50", "ms"),
    ("stamping.stamp.us_p50", "us"),
    ("defense.check_fb.us_p50", "us"),
    ("defense.pih_verify.us_p50", "us"),
    ("defense.ProfileStore.save.ms_p50", "ms"),
    ("defense.store_mb_appended", "MB"),
    ("defense.ProfileStore.load_all.ms", "ms"),
    ("phy.gen_frame.ms_p50", "ms"),
    ("attack.synthesize_collision.ms_p50", "ms"),
    *[(f"demod.decode_frame.sf{sf}.ms_p50", "ms") for sf in scenario.COLLISION_SFS],
    *[(f"demod.first_decode.sf{sf}.ms", "ms") for sf in scenario.COLLISION_SFS],
    ("demod.bank_mb", "MB"),
    *[(f"{layer}.calls_per_op", "calls/op") for layer in LAYERS],
    *[(f"{layer}.self_pct", "%") for layer in LAYERS],
    ("trace.unattributed_pct", "%"),
    ("trace.op_ms_total", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.shim_us_per_call", "us"),
    *[(f"defense.verdict.{v}.count", "count") for v in VERDICTS],
]


def bank_mb() -> float:
    """Size of the symbol banks the collision sweep builds, computed from
    their shapes (2^S rows of one chirp at 2 W samples/s, complex128)."""
    return sum(2 ** sf * 2 ** (sf + 1) * 16 for sf in scenario.COLLISION_SFS) / 1e6


def function_metrics(spans: list[tuple], res: Pass, first: dict) -> dict:
    """Timings of single functions; None where the pass never called one."""
    durs = defaultdict(list)  # name -> [(ns, op)]
    for name, start, end, _, op in spans:
        durs[name].append((end - start, op))

    def q(name: str, p: float, unit: float, sf: int | None = None):
        xs = [ns for ns, op in durs[name]
              if sf is None or (op is not None and res.op_meta[op]["sf"] == sf)]
        return pct(xs, p) / unit if xs else None

    aic = [(ns, res.op_meta[op]["n_samples"]) for ns, op in durs["onset.detect_aic"] if op is not None]
    out = {
        "fbest.estimate_fb_lsq.ms_p50": q("fbest.estimate_fb_lsq", 50, MS),
        "fbest.estimate_fb_lsq.ms_p90": q("fbest.estimate_fb_lsq", 90, MS),
        "fbest.second_chirp.ms_p50": q("fbest.second_chirp", 50, MS),
        "onset.detect_aic.ms_p50": q("onset.detect_aic", 50, MS),
        **{f"onset.detect_aic.sf{sf}.ms_p50": q("onset.detect_aic", 50, MS, sf) for sf in AIC_SFS},
        "onset.detect_aic.msamples_per_s":
            sum(n for _, n in aic) / sum(ns for ns, _ in aic) * 1e3 if aic else None,
        "iqfile.read_cf32.ms_p50": q("iqfile.read_cf32", 50, MS),
        "stamping.stamp.us_p50": q("stamping.stamp", 50, US),
        "defense.check_fb.us_p50": q("defense.check_fb", 50, US),
        "defense.pih_verify.us_p50": q("defense.pih_verify", 50, US),
        "defense.ProfileStore.save.ms_p50": q("defense.ProfileStore.save", 50, MS),
        "defense.ProfileStore.load_all.ms": q("defense.ProfileStore.load_all", 50, MS),
        "phy.gen_frame.ms_p50": q("phy.gen_frame", 50, MS),
        "attack.synthesize_collision.ms_p50": q("attack.synthesize_collision", 50, MS),
        **{f"demod.decode_frame.sf{sf}.ms_p50": q("demod.decode_frame", 50, MS, sf)
           for sf in scenario.COLLISION_SFS},
        **{f"demod.first_decode.sf{sf}.ms": first.get(f"first_decode.sf{sf}")
           for sf in scenario.COLLISION_SFS},
    }
    out.update(res.per_round)
    return out


def share_metrics(spans: list[tuple], res: Pass) -> dict:
    """Calls per operation and self-time share of operation time, per layer."""
    own = self_times(spans)
    op_ns = sum(end - start for name, start, end, _, op in spans if name == OP)
    n_ops = len(res.lat_ns[True])
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS + (OP,), 0)
    for (name, _, _, _, op), ns in zip(spans, own):
        if op is None:
            continue
        layer = name.split(".")[0]
        self_ns[layer] += ns
        if name != OP:
            calls[layer] += 1
    untraced = pct(res.lat_ns[False], 50)
    return {
        **{f"{layer}.calls_per_op": calls[layer] / n_ops for layer in LAYERS},
        **{f"{layer}.self_pct": 100 * self_ns[layer] / op_ns for layer in LAYERS},
        "trace.unattributed_pct": 100 * self_ns[OP] / op_ns,
        "trace.op_ms_total": op_ns / MS,
        "trace.overhead_pct": 100 * (pct(res.lat_ns[True], 50) / untraced - 1),
    }


def _instance(workload: str, seed: int, size: str, work: Path):
    """A workload instance and its in-process start-up timings."""
    wl = CLASSES[workload](seed, size, work)
    first = {}
    if workload == "collision":
        first = ready.startup("collision", work)
    return wl, first


def traced_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[Pass, dict]:
    tracer = Tracer()
    wl, first = _instance(workload, seed, "full", work)
    res = run_rounds(wl, seconds, tracer, alternate=True)
    metrics = {**function_metrics(tracer.spans, res, first), **share_metrics(tracer.spans, res)}
    tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")
    for other in WORKLOADS:
        if other == workload:
            continue
        side_work = work / other
        side_work.mkdir()
        side_tracer = Tracer()
        side_wl, side_first = _instance(other, seed, "tiny", side_work)
        side = run_rounds(side_wl, 0, side_tracer)
        res.errors += [f"{other} (tiny, traced): {why}" for why in side.errors]
        for name, value in function_metrics(side_tracer.spans, side, side_first).items():
            if metrics.get(name) is None:
                metrics[name] = value
    metrics["demod.bank_mb"] = bank_mb()
    metrics["trace.shim_us_per_call"] = shim_cost_ns() / US
    missing = [name for name, _ in PER_LAYER if metrics.get(name) is None]
    if missing:
        raise RuntimeError(f"per-layer metrics without a measurement: {missing}")
    return res, {name: (metrics[name], unit) for name, unit in PER_LAYER}
