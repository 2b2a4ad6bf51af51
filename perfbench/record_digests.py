#!/usr/bin/env python3
"""Re-record the expected virtual-output digests in ``digests.json``.

    python3 perfbench/record_digests.py [--size full]

Run it only when a change is *meant* to move simulated results, and say
in that change which digests moved and why.  ``overload`` draws only
argument values from the seed and ``paper`` draws nothing, so their
virtual outputs must be the same for every seed: the script checks
that on a few seeds and records one digest per workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES, WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
CHECKED_SEEDS = 3


def episode_digest(name: str, seed: int, size: str) -> str:
    workload = WORKLOADS[name](seed, size)
    workload.setup()
    ep = workload.episode()
    return ep.digest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                    help="only these workloads (default: all)")
    args = ap.parse_args()
    table = json.loads(DIGESTS.read_text())
    for name in args.workload or sorted(WORKLOADS):
        seen = {episode_digest(name, s, args.size)
                for s in range(CHECKED_SEEDS)}
        if len(seen) != 1:
            sys.exit(f"{name}: virtual outputs depend on the seed: {seen}")
        table[args.size][name] = seen.pop()
        print(f"recorded {name} ({args.size})", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
