"""Record the modelled-result digests the benchmark's correctness gate
checks against, one per workload and seed.

Run from the repository root on the code whose results are the
reference::

    python3 perfbench/record_digests.py [WORKLOAD ...]

It writes (for the named workloads, or all of them) ``perfbench/digests.json``: seeds ``0 .. SEEDS-1`` plus the
held-out seed, which is kept out of tuning so a later speed claim can be
re-checked on a seed nobody looked at while writing it.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = 64
HELD_OUT_SEED = 9001


def main() -> int:
    run.use_repo_source()
    from workloads import WORKLOADS

    names = sys.argv[1:] or list(WORKLOADS)
    digests = run.load_digests()
    for name in names:
        wl = WORKLOADS[name]
        digests[name] = {}
        for seed in [*range(SEEDS), HELD_OUT_SEED]:
            bench = run.Run(wl, seed)
            bench.reference(measure_memory=False)
            if bench.problems:
                raise SystemExit(f"{name} seed {seed}: {bench.problems}")
            digests[name][str(seed)] = bench.ref
        print(f"{name}: {len(digests[name])} digests", file=sys.stderr)
    digests = {name: digests[name] for name in WORKLOADS}
    run.DIGESTS.write_text(json.dumps(
        {"held_out_seed": HELD_OUT_SEED, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
