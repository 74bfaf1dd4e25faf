"""lorastamp benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload {gateway,timestamp,collision} \
        --seed N --seconds S --trace {0,1}

Inputs come from --seed (see scenario.py).  The timed loop runs whole
rounds of the workload's operations, one at a time, until --seconds have
passed, and checks every output against the scenario's own truth.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1).  End-to-end timings are given at
reference machine speed (see calib.py); stderr also has them in plain wall
time.  Exit code 0 means every operation passed its check, apart from the
known SF9 collision fault.
"""

from __future__ import annotations

import os

# one thread on one core, here and in every child process: BLAS/OpenMP pools
# are pinned before numpy loads, and the process stays on the last core it
# may use, so that a memory-bound operation (AIC over a long trace) does not
# start on a core whose caches hold none of its data
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import Calibration
from workloads import CLASSES, HERE, SRC, WORK, WORKLOADS, Pass, child_env, pct, run_rounds

SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_SAMPLES = 5, 3.0, 4


def measure_setup(workload: str, work: Path, calib: Calibration) -> list[int]:
    """Wall times (ns) from process start to the program being ready, over
    at least five start-ups and at least three seconds of them, with
    kernel samples between them."""
    took = []
    while len(took) < SETUP_MIN_REPEATS or sum(took) < SETUP_MIN_S * 1e9:
        calib.sample(SETUP_SAMPLES)
        start = time.perf_counter_ns()
        with subprocess.Popen([sys.executable, str(HERE / "ready.py"), workload, str(work)],
                              stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            took.append(time.perf_counter_ns() - start)
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"start-up of {workload} failed (exit {proc.returncode})")
    calib.sample(SETUP_SAMPLES)
    return took


def end_to_end(res: Pass, setup_ns: list[int], setup_slowdown: float = 1.0,
               loop_slowdown: float = 1.0) -> dict:
    """The end-to-end metrics, with each phase's timings divided by its
    slowdown (see calib.py).  Throughput and latency percentiles are taken
    per round, then the median over the run's rounds."""
    def per_round(stat) -> float:
        return statistics.median(stat(lat) for lat in res.rounds)

    return {
        "setup_s": (statistics.median(setup_ns) / 1e9 / setup_slowdown, "s"),
        "ops_per_s": (per_round(lambda lat: len(lat) / sum(lat) * 1e9) * loop_slowdown, "1/s"),
        "op_ms_p50": (per_round(lambda lat: pct(lat, 50) / 1e6) / loop_slowdown, "ms"),
        "op_ms_p90": (per_round(lambda lat: pct(lat, 90) / 1e6) / loop_slowdown, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="lorastamp benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lorastamp" / "__init__.py").is_file():
        print(f"lorastamp sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            import layers

            res, metrics = layers.traced_run(args.workload, args.seed, args.seconds, work)
        else:
            wl = CLASSES[args.workload](args.seed, "full", work)
            setup_calib, loop_calib = Calibration(), Calibration()
            setup_ns = measure_setup(args.workload, work, setup_calib)
            if args.workload == "collision":
                import ready

                ready.startup("collision", work)
            res = run_rounds(wl, args.seconds, calib=loop_calib)
            slowdowns = setup_calib.slowdown(), loop_calib.slowdown()
            metrics = end_to_end(res, setup_ns, *slowdowns)
            print("machine slowdown against reference speed: start-ups {:.4f}, loop {:.4f}"
                  .format(*slowdowns), file=sys.stderr)
            for name, (value, unit) in end_to_end(res, setup_ns).items():
                print(f"wall-time {name:35s} {value:14.6g} {unit}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for why in res.errors[:20]:
        print(f"FAILED: {why}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"attempted {res.attempted}, failed {res.failed} "
          f"({res.failed - len(res.errors)} known SF9 collision fault)", file=sys.stderr)
    result = {
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
