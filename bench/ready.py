"""Program start-up of one workload, as a user pays it.

    python3 bench/ready.py WORKLOAD WORKDIR

Imports the layers the workload calls, runs the program's own start-up
(``gateway``: ``ProfileStore.load_all`` on the persisted profile log;
``collision``: the first ``decode_frame`` per SF, which builds the symbol
bank) and prints ``ready``.  ``run.py`` times process start to that line.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from scenario import BW, COLLISION_SFS

MODULES = {
    "gateway": ("iqfile", "onset", "stamping", "fbest", "defense"),
    "timestamp": ("iqfile", "onset", "stamping"),
    "collision": ("attack", "demod", "phy"),
}


def startup(workload: str, work: Path) -> dict[str, float]:
    """Run the program's start-up; returns the ms each step took."""
    mods = {m: importlib.import_module(f"lorastamp.{m}") for m in MODULES[workload]}
    took = {}
    if workload == "gateway":
        start = time.perf_counter()
        mods["defense"].ProfileStore(work / "profiles.jsonl").load_all()
        took["load_all"] = (time.perf_counter() - start) * 1e3
    elif workload == "collision":
        phy, demod = mods["phy"], mods["demod"]
        for sf in COLLISION_SFS:
            params = phy.PhyParams(sf, BW)
            frame = phy.gen_frame(params, phy.TxParams(), phy.RxParams(), [0] * 8, 2 * BW)
            start = time.perf_counter()
            demod.decode_frame(frame, params, 8)
            took[f"first_decode.sf{sf}"] = (time.perf_counter() - start) * 1e3
    return took


if __name__ == "__main__":
    startup(sys.argv[1], Path(sys.argv[2]))
    print("ready", flush=True)
