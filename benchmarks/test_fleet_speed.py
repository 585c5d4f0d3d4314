"""Fleet-speed benchmark: simulated requests per wall-second by pool size.

The fleet layer multiplies one well-batched replica (the paper's
scale-out, Sec. IV-C), so its host cost should not grow with the number
of replicas on a fixed trace. This benchmark serves one 20k-request
trace on 1, 4 and 16 replicas under ``round_robin`` (reads no replica
state) and ``least_outstanding`` (reads every live replica at every
arrival), at ``detail="summary"``, and writes ``BENCH_fleet_speed.json``
at the repo root. CI's ``bench-speed`` job regenerates and uploads it.

Gates:

* every leg must reach 70% of the committed baseline after normalizing
  machine speed through the per-step
  :func:`~repro.engine.serving_sim.simulate_serving_reference` on the
  same trace (as ``test_serving_speed.py`` does);
* ``round_robin`` on 16 replicas must run at least 1/1.5 of its
  1-replica rate (ROADMAP's fleet-scaling bar).

All fleet legs share one cost model, so its caches are warm after the
first run; each reports the best of three runs. The reference runs
three times too, spread over the benchmark (before the fleet legs and
after each routing's legs), and reports its best, so a host that
slows down for part of the run skews both sides of the ratio alike.

Opt-in: skipped unless ``BENCH_SPEED=1``.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    simulate_serving_reference,
    synthesize_trace,
)
from repro.fleet import simulate_fleet
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_SPEED") != "1",
    reason="heavy speed benchmark; set BENCH_SPEED=1 to run",
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet_speed.json"

# A chat-like dense deployment: 40 req/s saturates one replica and
# leaves sixteen lightly loaded, so the legs span both regimes.
MODEL, TP = "gpt-13b", 4
NUM_REQUESTS = 20_000
MEAN_PROMPT, MEAN_GEN = 128, 64
MAX_BATCH = 16
ARRIVAL_RATE = 40.0
SEED = 11
ROUTINGS = ("round_robin", "least_outstanding")
POOL_SIZES = (1, 4, 16)
REPEATS = 3

REGRESSION_FLOOR = 0.70
SCALING_BAR = 1.5  # 16 replicas at most this much slower than one


def _costs():
    return DenseStepCost(
        DenseLatencyModel(DENSE_ZOO[MODEL], dgx_a100_cluster(1), tp=TP))


def _best_rate(run, n):
    best, report = 0.0, None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = run()
        best = max(best, n / (time.perf_counter() - t0))
    return best, report


def test_fleet_speed_writes_benchmark_record():
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)
    trace = synthesize_trace(num_requests=NUM_REQUESTS,
                             arrival_rate=ARRIVAL_RATE,
                             mean_prompt=MEAN_PROMPT, mean_gen=MEAN_GEN,
                             seed=SEED)
    ref_rates = []

    def reference():
        t0 = time.perf_counter()
        report = simulate_serving_reference(trace, costs=_costs(),
                                            max_batch=MAX_BATCH)
        ref_rates.append(NUM_REQUESTS / (time.perf_counter() - t0))
        return report

    ref = reference()
    costs = _costs()
    rates: dict[str, dict[str, float]] = {}
    simulated: dict[str, dict[str, dict]] = {}
    for routing in ROUTINGS:
        rates[routing], simulated[routing] = {}, {}
        for replicas in POOL_SIZES:
            rate, report = _best_rate(
                lambda: simulate_fleet(trace, num_replicas=replicas,
                                       costs=costs, max_batch=MAX_BATCH,
                                       routing=routing, detail="summary"),
                NUM_REQUESTS)
            assert report.num_completed == NUM_REQUESTS
            if replicas == 1:
                # One replica is the single server: a speed number for a
                # wrong simulator is worthless.
                assert report.finish_times == ref.finish_times
            rates[routing][str(replicas)] = round(rate, 1)
            simulated[routing][str(replicas)] = {
                "makespan_s": report.makespan,
                "ttft_p99_s": report.ttft_percentile(trace, 99),
                "total_tokens": report.total_tokens,
            }
        reference()
    ref_rate = max(ref_rates)

    record = {
        "benchmark": "fleet_speed",
        "config": {
            "model": MODEL, "tp": TP,
            "num_requests": NUM_REQUESTS,
            "mean_prompt": MEAN_PROMPT, "mean_gen": MEAN_GEN,
            "max_batch": MAX_BATCH, "arrival_rate": ARRIVAL_RATE,
            "seed": SEED, "detail": "summary",
            "routings": list(ROUTINGS), "pool_sizes": list(POOL_SIZES),
        },
        "requests_per_s": rates,
        "ref_requests_per_s": round(ref_rate, 1),
        "simulated": simulated,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    rr = rates["round_robin"]
    assert rr["16"] * SCALING_BAR >= rr["1"], (
        f"round_robin on 16 replicas runs {rr['16']:.0f} req/s, more than "
        f"{SCALING_BAR}x slower than on one ({rr['1']:.0f} req/s)")

    if baseline is not None and baseline["config"] == record["config"]:
        # Both legs slow down together on a slower runner, so the gate
        # tracks the ratio to the reference, not absolute wall-clock.
        machine = ref_rate / baseline["ref_requests_per_s"]
        for routing in ROUTINGS:
            for replicas, rate in rates[routing].items():
                floor = (REGRESSION_FLOOR * machine
                         * baseline["requests_per_s"][routing][replicas])
                assert rate >= floor, (
                    f"fleet speed regressed ({routing}, {replicas} "
                    f"replicas): {rate:.0f} req/s vs a machine-normalized "
                    f"floor of {floor:.0f} (machine factor {machine:.2f})")
