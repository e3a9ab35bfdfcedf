"""Recompute the exact revenues that the mc-sampling check compares against.

Exact enumeration of ``rand-matroid`` on these instances takes tens of
seconds each, too slow to repeat in every run, so the values are stored.

    python3 bench/exact_mc.py          # rewrites bench/mc_exact.json
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from auctionlab.mechanisms import MechanismSpec, expected_revenue  # noqa: E402

import workloads  # noqa: E402

STORE = HERE / "mc_exact.json"


def main() -> int:
    exact = {}
    for inst in workloads.mc_instances():
        for mech in workloads.MC_MECHANISMS:
            start = time.perf_counter()
            value = expected_revenue(inst, MechanismSpec(mech)).value
            exact[f"{inst.name}/{mech}"] = str(value)
            print(f"{inst.name}/{mech}: {float(value):.6f} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    STORE.write_text(json.dumps(exact, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
