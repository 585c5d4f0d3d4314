"""Metric catalogue: name, unit, direction, what is measured, and for
each per-layer metric the layer it measures, the end-to-end metric it
should move and the workloads where that should happen. On workloads
not named the prediction is no change.

``BENCHMARK.json`` lists the same names, units, directions and bounds;
its schema has no room for the rest, so the mapping lives here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    layer: str = ""
    moves: str = ""
    on: tuple[str, ...] = ()
    bound: float | None = None


ALL = ("tune_serving", "fleet_chat", "fleet_autoscale", "functional_chat")
ANALYTICAL = ("tune_serving", "fleet_chat", "fleet_autoscale")
FLEETS = ("fleet_chat", "fleet_autoscale")
CHAT = ("fleet_chat",)
AUTO = ("fleet_autoscale",)
TUNE = ("tune_serving",)
FUNC = ("functional_chat",)

END_TO_END = (
    Metric("req_per_s", "1/s", "higher",
           "requests one call completes over the median call time at "
           "reference host speed (tune_serving: candidates x trace "
           "requests)", bound=0.25),
    Metric("tok_per_s", "1/s", "higher",
           "tokens per call over the same time: simulated tokens, real "
           "decoded tokens on functional_chat", bound=0.25),
    Metric("setup_s", "s", "lower",
           "median time at reference host speed to build one call's "
           "inputs: trace, cluster, cost model, functional model weights",
           bound=0.25),
    Metric("peak_mem_mb", "MB", "lower",
           "peak Python heap (tracemalloc) during one untimed call",
           bound=0.2),
)

_LAT = "engine.latency, kernels"
_COSTS = "engine.costs"
_FLEET = "fleet (sim, router, policies, faults)"
_AUTO = "autoscale"
_SERVE = "engine.serving_sim, engine.scheduler, simcore, engine.tuner"
_FUNC = "model, engine.generation"
_MODEL = "modelled result: must stay bit for bit"

PER_LAYER = (
    Metric("latency.calls", "count", "lower",
           "DenseLatencyModel.step_time calls (cost-cache fills)",
           _LAT, "req_per_s", CHAT),
    Metric("latency.busy_s", "s", "lower", "time inside step_time",
           _LAT, "req_per_s", CHAT),
    Metric("latency.us_per_call", "us", "lower", "busy time per step_time call",
           _LAT, "req_per_s", CHAT),
    Metric("latency.wall_share", "ratio", "lower",
           "latency.busy_s over the traced call's wall time",
           _LAT, "req_per_s", CHAT),
    Metric("costs.prompt_calls", "count", "lower", "prompt_cost calls",
           _COSTS, "req_per_s", FLEETS),
    Metric("costs.decode_run_calls", "count", "lower",
           "decode_run_cost calls (decode stretches priced)",
           _COSTS, "req_per_s", FLEETS),
    Metric("costs.decode_steps", "count", "lower",
           "decode iterations priced, over all runs and single steps",
           _COSTS, "req_per_s", FLEETS),
    Metric("costs.steps_per_run", "ratio", "higher",
           "decode_steps per decode_run_cost call: event compression",
           _COSTS, "req_per_s", FLEETS),
    Metric("costs.self_s", "s", "lower",
           "time in the cost model outside latency fills",
           _COSTS, "req_per_s", FLEETS),
    Metric("costs.miss_rate", "ratio", "lower",
           "latency fills per priced prompt or decode step",
           _COSTS, "req_per_s", FLEETS),
    Metric("fleet.self_s", "s", "lower",
           "simulate_fleet time outside its child spans (replica scan)",
           _FLEET, "req_per_s", CHAT),
    Metric("router.route_calls", "count", "lower", "Router.route calls",
           _FLEET, "req_per_s", CHAT),
    Metric("router.busy_s", "s", "lower", "time inside Router.route",
           _FLEET, "req_per_s", CHAT),
    Metric("fleet.retries", "count", "lower",
           "requests re-placed after a crash", _FLEET, "req_per_s", CHAT),
    Metric("fleet.discarded_tok_ratio", "ratio", "lower",
           "tokens a crash threw away over tokens generated",
           _FLEET, "req_per_s", CHAT),
    Metric("autoscale.epochs", "count", "lower", "Autoscaler.epoch calls",
           _AUTO, "req_per_s", AUTO),
    Metric("autoscale.busy_s", "s", "lower", "time inside Autoscaler.epoch",
           _AUTO, "req_per_s", AUTO),
    Metric("autoscale.actions", "count", "lower",
           "actions the autoscaler admitted", _AUTO, "req_per_s", AUTO),
    Metric("serving.self_s", "s", "lower",
           "simulate_serving time outside its child spans",
           _SERVE, "req_per_s", TUNE),
    Metric("scheduler.calls", "count", "lower",
           "calls to public Scheduler methods", _SERVE, "req_per_s", TUNE),
    Metric("scheduler.busy_s", "s", "lower",
           "time inside public Scheduler methods", _SERVE, "req_per_s", TUNE),
    Metric("timeline.records", "count", "lower", "Timeline.record calls",
           _SERVE, "req_per_s", TUNE),
    Metric("timeline.busy_s", "s", "lower", "time inside Timeline.record",
           _SERVE, "req_per_s", TUNE),
    Metric("tuner.self_s", "s", "lower",
           "tune_serving_deployment time outside its child spans",
           _SERVE, "req_per_s", TUNE),
    Metric("decoder.prefill_calls", "count", "lower",
           "RaggedDecoder prefill/add_rows calls", _FUNC, "tok_per_s", FUNC),
    Metric("decoder.prefill_s", "s", "lower", "time inside prefill/add_rows",
           _FUNC, "tok_per_s", FUNC),
    Metric("decoder.step_calls", "count", "lower", "RaggedDecoder.step calls",
           _FUNC, "tok_per_s", FUNC),
    Metric("decoder.step_s", "s", "lower", "time inside RaggedDecoder.step",
           _FUNC, "tok_per_s", FUNC),
    Metric("paged_kv.fork_calls", "count", "lower", "PagedKVCache.fork calls",
           _FUNC, "tok_per_s", FUNC),
    Metric("paged_kv.block_ops", "count", "lower",
           "BlockAllocator alloc/share/free calls", _FUNC, "tok_per_s", FUNC),
    Metric("paged_kv.busy_s", "s", "lower", "time inside fork and block ops",
           _FUNC, "tok_per_s", FUNC),
    Metric("session.self_s", "s", "lower",
           "GenerationSession.step time outside its child spans",
           _FUNC, "tok_per_s", FUNC),
    Metric("scenarios.gen_s", "s", "lower",
           "median trace or scenario generation time", "scenarios",
           "setup_s", ALL),
    Metric("sim.ttft_p50_s", "s", "lower", "simulated median TTFT", _MODEL),
    Metric("sim.ttft_p99_s", "s", "lower", "simulated P99 TTFT", _MODEL),
    Metric("sim.makespan_s", "s", "lower", "simulated makespan", _MODEL),
    Metric("sim.tokens", "count", "higher",
           "tokens of completed requests (decoded, on functional_chat)",
           _MODEL),
    Metric("kv.prefix_hits", "count", "higher",
           "admissions that reused a parked prefix", _MODEL),
    Metric("kv.prefix_hit_rate", "ratio", "higher",
           "prefix hits per request declaring a shared prefix", _MODEL),
    Metric("kv.peak_blocks", "count", "lower", "peak KV blocks in use", _MODEL),
    Metric("kv.dedup_ratio", "ratio", "higher",
           "KV block allocations prefix sharing avoided", _MODEL),
    Metric("sim.host_us_per_step", "us", "lower",
           "median untraced call time at reference host speed over "
           "scheduler decode iterations",
           "whole stack", "req_per_s", ANALYTICAL),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "median traced over median untraced call time, minus 1",
           "benchmark tracer"),
    Metric("trace.unattributed_s", "s", "lower",
           "traced wall minus every module's self time", "benchmark tracer"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
