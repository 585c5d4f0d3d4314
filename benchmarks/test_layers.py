"""Per-layer perf ledger: the cost of one latency evaluation, by shape.

The serving stack prices every iteration through
:meth:`~repro.engine.latency.DenseLatencyModel.step_time`, so its speed
sets the cold-cache cost of every simulation. This benchmark measures
that layer on fixed configs and writes ``BENCH_layers.json`` at the repo
root; CI's ``bench-speed`` job regenerates and uploads it. Legs:

* ``scalar_prompt`` — scalar prompt-shape evaluations/s:
  ``step_time(1, t, t)`` over a fixed set of prompt lengths ``t`` (each
  shape has its own Deep-Fusion partition and GeMM efficiencies);
* ``kv_row`` — 1k-entry KV-row evaluations/s: ``step_time(1, t, kvs)``
  with ``kvs = t .. t + 999``, one call pricing a whole row of a
  :class:`~repro.engine.costs.DenseStepCost` table;
* ``cold_fleet`` — a 16-replica ``session_affinity`` chat fleet with
  prefix sharing on a cold :class:`~repro.engine.costs.DenseStepCost`:
  the ``step_time`` calls it makes (a deterministic count) and its wall
  time.

Gates, as in the other speed benchmarks: every rate must reach 70% of
the committed baseline after normalizing machine speed through the
per-step :func:`~repro.engine.serving_sim.simulate_serving_reference`
on a fixed trace. Its cost model is warmed first, so the reference
times the per-step serving loop, not the layer measured here; it runs
three times spread over the benchmark and reports its best. The cold
fleet must not make more ``step_time`` calls than the baseline and must
reproduce the baseline's simulated makespan and tokens.

Each leg reports the best of five timed repeats.

Opt-in: skipped unless ``BENCH_SPEED=1``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
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
from repro.scenarios import chat_scenario

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_SPEED") != "1",
    reason="heavy speed benchmark; set BENCH_SPEED=1 to run",
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_layers.json"

MODEL, TP = "gpt-13b", 4
# Prompt lengths straddle the profile's small-batch switch (16 tokens).
PROMPT_LENS = range(4, 516, 8)
ROW_LEN = 1000
ROW_PROMPTS = PROMPT_LENS[::2]
FLEET = dict(num_replicas=16, max_batch=16, routing="session_affinity",
             prefix_sharing=True)
CHAT = dict(num_sessions=75, session_rate=10.0, mean_prompt=128,
            mean_gen=64, num_requests=300, seed=1)
REF_TRACE = dict(num_requests=2000, arrival_rate=40.0, mean_prompt=128,
                 mean_gen=64, seed=11)
REF_MAX_BATCH = 16
REPEATS = 5

REGRESSION_FLOOR = 0.70


def _model():
    return DenseLatencyModel(DENSE_ZOO[MODEL], dgx_a100_cluster(1), tp=TP)


class _CountingLatency:
    """Delegates to a latency model, counting ``step_time`` calls."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.calls += 1
        return self.model.step_time(batch, tokens_per_seq, kv_len)


def _best_s(run):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def test_layers_write_benchmark_record():
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)
    ref_trace = synthesize_trace(**REF_TRACE)
    ref_costs = DenseStepCost(_model())
    simulate_serving_reference(ref_trace, costs=ref_costs,
                               max_batch=REF_MAX_BATCH)  # warm its caches
    ref_s = []

    def reference():
        ref_s.append(_best_s(lambda: simulate_serving_reference(
            ref_trace, costs=ref_costs, max_batch=REF_MAX_BATCH)))

    reference()
    model = _model()

    def scalar_prompts():
        for t in PROMPT_LENS:
            model.step_time(1, t, t)

    rows = [np.arange(t, t + ROW_LEN) for t in ROW_PROMPTS]

    def kv_rows():
        for t, kvs in zip(ROW_PROMPTS, rows):
            model.step_time(1, t, kvs)

    rates = {
        "scalar_prompt_evals_per_s":
            round(len(PROMPT_LENS) / _best_s(scalar_prompts), 1),
        "kv_row_evals_per_s": round(len(ROW_PROMPTS) / _best_s(kv_rows), 1),
    }
    reference()

    trace = chat_scenario(**CHAT)
    counting = _CountingLatency(_model())
    report = simulate_fleet(trace, costs=DenseStepCost(counting), **FLEET)
    assert report.num_completed == len(trace.requests)
    fleet_s = _best_s(lambda: simulate_fleet(
        trace, costs=DenseStepCost(_model()), **FLEET))
    rates["cold_fleet_requests_per_s"] = round(len(trace.requests) / fleet_s, 1)
    reference()
    ref_rate = REF_TRACE["num_requests"] / min(ref_s)

    record = {
        "benchmark": "layers",
        "config": {
            "model": MODEL, "tp": TP,
            "prompt_lens": {"start": PROMPT_LENS.start,
                            "stop": PROMPT_LENS.stop,
                            "step": PROMPT_LENS.step},
            "row_len": ROW_LEN, "row_prompts": len(ROW_PROMPTS),
            "fleet": FLEET, "chat": CHAT,
            "reference": {**REF_TRACE, "max_batch": REF_MAX_BATCH},
        },
        "rates": rates,
        "cold_fleet": {
            "step_time_calls": counting.calls,
            "wall_s": round(fleet_s, 4),
            "makespan_s": report.makespan,
            "total_tokens": report.total_tokens,
        },
        "ref_requests_per_s": round(ref_rate, 1),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if baseline is not None and baseline["config"] == record["config"]:
        # A speed number for a wrong simulator is worthless.
        for key in ("makespan_s", "total_tokens"):
            assert record["cold_fleet"][key] == baseline["cold_fleet"][key]
        assert (counting.calls
                <= baseline["cold_fleet"]["step_time_calls"]), (
            f"the cold fleet made {counting.calls} step_time calls, "
            f"baseline {baseline['cold_fleet']['step_time_calls']}")
        # Both sides slow down together on a slower runner, so the gate
        # tracks the ratio to the reference, not absolute wall-clock.
        machine = ref_rate / baseline["ref_requests_per_s"]
        for leg, rate in rates.items():
            floor = REGRESSION_FLOOR * machine * baseline["rates"][leg]
            assert rate >= floor, (
                f"{leg} regressed: {rate:.0f}/s vs a machine-normalized "
                f"floor of {floor:.0f} (machine factor {machine:.2f})")
