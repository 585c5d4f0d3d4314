"""Measure the benchmark's baseline and its run-to-run spread.

Run from the repository root, with nothing else running::

    python3 perfbench/baseline.py                 # every workload
    python3 perfbench/baseline.py fleet_chat      # one workload

For each workload it runs the benchmark command once per seed (seeds
0 to 9, one after another), reports each end-to-end metric's
median, quartiles and spread (interquartile distance over median)
against the metric's bound, then makes one traced run. With ``--write``
it stores the figures, with the machine they came from, in
``perfbench/baseline.json``. Exits non-zero when a run fails, is not
correct, or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np

from metrics import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer figures kept in the baseline from the traced run.
TRACED_KEEP = ("latency.calls", "latency.busy_s", "latency.wall_share",
               "costs.miss_rate", "costs.steps_per_run", "fleet.self_s",
               "sim.host_us_per_step", "trace.overhead_ratio")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct\n"
                         f"{out.stdout[-2000:]}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    names = args.workloads or [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(10))

    record: dict = {}
    too_wide = []
    for name in names:
        results = [run_once(name, seed, 0) for seed in seeds]
        rows = {}
        print(f"{name} ({len(seeds)} seeds)")
        for metric in END_TO_END:
            row = summarize([r["metrics"][metric.name]["value"]
                             for r in results])
            rows[metric.name] = row
            flag = ""
            if metric.name != "setup_s" and row["spread"] > metric.bound:
                flag = "  over bound"
                too_wide.append((name, metric.name))
            elif row["spread"] > metric.bound / 3:
                flag = "  over a third of bound"
            print(f"  {metric.name:<12} median {row['median']:14.6g}  spread "
                  f"{row['spread']:.4f} (bound {metric.bound}){flag}")
        traced = run_once(name, seeds[0], 1)["metrics"]
        record[name] = {
            "end_to_end": rows,
            "traced_seed": seeds[0],
            "traced": {k: traced[k]["value"] for k in TRACED_KEEP},
        }
        print("  traced: " + ", ".join(
            f"{k} {record[name]['traced'][k]:.6g}" for k in TRACED_KEEP))

    if args.write:
        path = HERE / "baseline.json"
        previous = json.loads(path.read_text()) if path.is_file() else {}
        previous.setdefault("workloads", {}).update(record)
        previous.update({
            "measured": date.today().isoformat(),
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "processor": platform.processor() or platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "run_seconds": SPEC["run_seconds"],
            "seeds": seeds,
        })
        path.write_text(json.dumps(previous, indent=1) + "\n")
    for name, metric in too_wide:
        print(f"spread over bound: {name} {metric}")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
