"""The benchmark's workloads.

Each workload builds its inputs from a seed (:meth:`Workload.setup`),
makes one timed call into a public entry point (:meth:`Workload.call`),
and reduces the result to a *digest* of modelled values
(:meth:`Workload.digest`) that must repeat bit for bit for a given seed.
:meth:`Workload.verify` holds the checks that need no recorded value:
they run once per benchmark run, outside the timed calls.

Every timed call gets a freshly built cost model and functional model,
so it pays the cost-cache fill a real user run pays. All workloads price
gpt-13b on one DGX-A100 node.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from contextlib import contextmanager

import numpy as np

import repro.engine.tuner as tuner_mod
from repro.autoscale import AutoscaleConfig
from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    WorkloadTrace,
    simulate_serving,
    synthesize_trace,
    tune_serving_deployment,
)
from repro.fleet import FaultPlan, ReplicaFault, run_fleet_functional, simulate_fleet
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, DenseTransformer, ModelConfig
from repro.scenarios import chat_scenario

MODEL = "gpt-13b"


def _sim_digest(report, trace) -> dict:
    followups = sum(1 for r in trace.requests if r.shared_prefix_len > 0)
    return {
        "sim.ttft_p50_s": report.ttft_percentile(trace, 50),
        "sim.ttft_p99_s": report.ttft_percentile(trace, 99),
        "sim.makespan_s": report.makespan,
        "sim.tokens": report.total_tokens,
        "kv.prefix_hits": report.prefix_hits,
        "kv.prefix_hit_rate": (report.prefix_hits / followups
                               if followups else 0.0),
        "kv.peak_blocks": report.peak_kv_blocks,
        "kv.dedup_ratio": report.kv_dedup_ratio,
    }


class Workload:
    """One benchmark workload. ``top`` names the span of its timed call."""

    name: str
    why: str
    top: str
    #: Trace size of the timed call and of the untimed warm-up call.
    size: int
    warm_size: int

    def setup(self, seed: int, size: int) -> dict:
        raise NotImplementedError

    def call(self, inputs: dict):
        raise NotImplementedError

    def digest(self, inputs: dict, result) -> dict:
        raise NotImplementedError

    @contextmanager
    def observe(self):
        """Context for the untimed reference call; yields a dict the
        workload may fill with counts :meth:`ops` needs."""
        yield {}

    def ops(self, inputs: dict, digest: dict) -> tuple[int, int]:
        """``(requests, tokens)`` one call processes (attempted)."""
        trace = inputs["trace"]
        return len(trace.requests), trace.total_gen_tokens

    def completed(self, digest: dict) -> int:
        """Requests one call finished (``ops`` units)."""
        return digest["requests.completed"]

    def verify(self, inputs: dict, result, digest: dict) -> list[str]:
        """Checks needing no recorded value; returns problems found."""
        return []


class TuneServing(Workload):
    name = "tune_serving"
    why = ("tune_serving_deployment scoring every TP x max_batch candidate "
           "on a Poisson trace: scheduler, serving loop and Timeline, "
           "few latency fills")
    top = "tuner"
    size = 200
    warm_size = 12
    ttft_sla = 2.0

    def setup(self, seed, size):
        t0 = time.perf_counter()
        # Every seed replays one arrival schedule (the seed-0 draw) and
        # varies prompt and generation lengths. The small-batch candidates
        # run near saturation, where a replay's host cost swings by ~15%
        # with the realized arrival rate of a short trace.
        shape = dict(num_requests=size, arrival_rate=20.0, mean_prompt=128,
                     mean_gen=64)
        schedule = synthesize_trace(**shape, seed=0).requests
        drawn = synthesize_trace(**shape, seed=seed).requests
        trace = WorkloadTrace(tuple(
            dataclasses.replace(r, arrival=a.arrival)
            for r, a in zip(drawn, schedule)))
        gen_s = time.perf_counter() - t0
        return {"trace": trace, "config": DENSE_ZOO[MODEL],
                "cluster": dgx_a100_cluster(1), "gen_s": gen_s}

    def call(self, inputs):
        return tune_serving_deployment(inputs["config"], inputs["cluster"],
                                       inputs["trace"],
                                       ttft_sla=self.ttft_sla)

    def _rescore(self, inputs, best):
        """The winner replayed through the public compat-mode pricing
        the tuner documents (``mean_prompt + mean_gen // 2``)."""
        reqs = inputs["trace"].requests
        mean_prompt = max(1, round(float(np.mean([r.prompt_len for r in reqs]))))
        mean_gen = max(1, round(float(np.mean([r.gen_tokens for r in reqs]))))
        costs = DenseStepCost(
            DenseLatencyModel(inputs["config"], inputs["cluster"], tp=best.tp),
            representative_kv=mean_prompt + mean_gen // 2)
        return simulate_serving(inputs["trace"], costs=costs,
                                max_batch=best.max_batch, policy=best.policy)

    def digest(self, inputs, best):
        trace = inputs["trace"]
        report = self._rescore(inputs, best)
        return {
            "winner.tp": best.tp,
            "winner.max_batch": best.max_batch,
            "winner.num_gpus": best.num_gpus,
            "winner.tokens_per_second": best.tokens_per_second,
            "winner.ttft_p99_s": best.ttft_p99,
            "winner.latency_p99_s": best.latency_p99,
            "requests.completed": len(report.finish_times),
            **_sim_digest(report, trace),
        }

    @contextmanager
    def observe(self):
        # Counts the candidates the tuner scores, through the public
        # function it calls for each one.
        seen = {"tuner.candidates": 0}
        original = tuner_mod.simulate_serving

        def counting(*args, **kwargs):
            seen["tuner.candidates"] += 1
            return original(*args, **kwargs)

        tuner_mod.simulate_serving = counting
        try:
            yield seen
        finally:
            tuner_mod.simulate_serving = original

    def ops(self, inputs, digest):
        requests, tokens = super().ops(inputs, digest)
        n = digest["tuner.candidates"]
        return n * requests, n * tokens

    def completed(self, digest):
        # Every candidate replays the whole trace; the re-scored winner
        # stands for all of them.
        return digest["tuner.candidates"] * digest["requests.completed"]

    def verify(self, inputs, best, digest):
        problems = []
        # ReportStats.tokens_per_second is total_tokens / makespan.
        if (digest["sim.tokens"] / digest["sim.makespan_s"]
                != best.tokens_per_second):
            problems.append("re-scored winner tokens/s differs from the tuner's")
        if digest["sim.ttft_p99_s"] != best.ttft_p99:
            problems.append("re-scored winner P99 TTFT differs from the tuner's")
        if best.ttft_p99 > self.ttft_sla:
            problems.append("winner misses the TTFT SLA")
        if digest["requests.completed"] != len(inputs["trace"].requests):
            problems.append("re-scored winner left requests unfinished")
        return problems


def _fleet_digest(report, trace) -> dict:
    return {
        "requests.completed": report.num_completed,
        "fleet.retries": len(report.retried),
        "fleet.tokens_discarded": report.tokens_discarded,
        "fleet.replicas": report.num_replicas,
        "fleet.avg_replicas": report.avg_replicas,
        "autoscale.log_events": len(report.autoscale_log),
        **_sim_digest(report, trace),
    }


def _fleet_problems(report, trace) -> list[str]:
    problems = []
    if report.num_completed != len(trace.requests):
        problems.append(f"{len(trace.requests) - report.num_completed} "
                        "requests unfinished")
    if report.total_tokens != trace.total_gen_tokens:
        problems.append("completed tokens differ from the trace's")
    return problems


class FleetChat(Workload):
    name = "fleet_chat"
    why = ("16-replica session-affinity fleet over multi-turn chat with "
           "prefix sharing: cold true-KV prompt fills, replica loop, "
           "per-replica KV ledger")
    top = "fleet"
    size = 300
    warm_size = 40

    def setup(self, seed, size):
        t0 = time.perf_counter()
        trace = chat_scenario(num_sessions=max(1, size // 4),
                              session_rate=10.0, mean_prompt=128,
                              mean_gen=64, num_requests=size, seed=seed)
        gen_s = time.perf_counter() - t0
        costs = DenseStepCost(DenseLatencyModel(DENSE_ZOO[MODEL], dgx_a100_cluster(1),
                                                tp=4))
        return {"trace": trace, "costs": costs, "gen_s": gen_s}

    def call(self, inputs):
        return simulate_fleet(inputs["trace"], num_replicas=16,
                              costs=inputs["costs"], max_batch=16,
                              routing="session_affinity",
                              prefix_sharing=True)

    def digest(self, inputs, report):
        return _fleet_digest(report, inputs["trace"])

    def verify(self, inputs, report, digest):
        trace = inputs["trace"]
        problems = _fleet_problems(report, trace)
        replica_of_session: dict[int, int] = {}
        for r in trace.requests:
            got = replica_of_session.setdefault(r.session,
                                                report.replica_of[r.request_id])
            if got != report.replica_of[r.request_id]:
                problems.append(f"session {r.session} left its replica")
                break
        return problems


class FleetAutoscale(Workload):
    name = "fleet_autoscale"
    why = ("autoscaled least-outstanding fleet on a diurnal trace with a "
           "crash and recovery: routing reads replica state at every "
           "arrival, epochs and faults split stretches")
    top = "fleet"
    size = 2000
    warm_size = 200

    def setup(self, seed, size):
        t0 = time.perf_counter()
        trace = synthesize_trace(num_requests=size, arrival_rate=30.0,
                                 mean_prompt=32, mean_gen=16,
                                 arrival_shape="diurnal",
                                 diurnal_amplitude=1.0, seed=seed)
        gen_s = time.perf_counter() - t0
        costs = DenseStepCost(DenseLatencyModel(DENSE_ZOO[MODEL], dgx_a100_cluster(1),
                                                tp=1))
        # Replica 0 crashes near the first diurnal peak and recovers a
        # quarter of the trace later; two initial replicas and a floor of
        # two keep a survivor up throughout.
        span = trace.duration
        faults = FaultPlan((ReplicaFault(0, 0.125 * span, "crash"),
                            ReplicaFault(0, 0.375 * span, "recover")))
        autoscaler = AutoscaleConfig(
            min_replicas=2, max_replicas=6, ttft_slo_s=0.3, epoch_s=2.0,
            sustain_epochs=3, slow_replica_ratio=0.25,
            scale_out_cooldown_s=4.0, mean_prompt=32)
        return {"trace": trace, "costs": costs, "faults": faults,
                "autoscaler": autoscaler, "gen_s": gen_s}

    def call(self, inputs):
        return simulate_fleet(inputs["trace"], num_replicas=2,
                              costs=inputs["costs"], max_batch=4,
                              routing="least_outstanding",
                              autoscaler=inputs["autoscaler"],
                              fault_plan=inputs["faults"])

    def digest(self, inputs, report):
        return _fleet_digest(report, inputs["trace"])

    def verify(self, inputs, report, digest):
        return _fleet_problems(report, inputs["trace"])


class FunctionalChat(Workload):
    name = "functional_chat"
    why = ("tiny NumPy GPT on a 2-replica functional fleet with prefix "
           "sharing: the real decoder, paged KV, copy-on-write fork and "
           "generation session")
    top = "functional"
    size = 80
    warm_size = 6

    def setup(self, seed, size):
        t0 = time.perf_counter()
        trace = chat_scenario(num_sessions=max(1, size // 4),
                              session_rate=2.0, mean_prompt=16, mean_gen=8,
                              num_requests=size, seed=seed)
        gen_s = time.perf_counter() - t0
        # A fixed context window (grown only for a trace that needs more)
        # keeps the KV pool, and so memory, the same from seed to seed.
        longest = max(r.prompt_len + r.gen_tokens for r in trace.requests)
        config = ModelConfig(name="bench-tiny", hidden=64, layers=2, heads=4,
                             vocab=128,
                             max_seq=max(256, 64 * -(-longest // 64)))
        model = DenseTransformer(config, seed=seed)
        costs = DenseStepCost(DenseLatencyModel(DENSE_ZOO[MODEL], dgx_a100_cluster(1),
                                                tp=4))
        return {"trace": trace, "model": model, "costs": costs,
                "seed": seed, "gen_s": gen_s}

    def call(self, inputs):
        return run_fleet_functional(
            inputs["model"], inputs["trace"], num_replicas=2,
            costs=inputs["costs"], max_batch=4, routing="session_affinity",
            prefix_sharing=True, kv_block_size=4, seed=inputs["seed"])

    def ops(self, inputs, digest):
        return len(inputs["trace"].requests), digest["sim.tokens"]

    def digest(self, inputs, result):
        trace = inputs["trace"]
        report = result.report
        sha = hashlib.sha256()
        decoded = 0
        for rid in sorted(result.outputs):
            out = np.asarray(result.outputs[rid], dtype=np.int64)
            sha.update(out.tobytes())
            decoded += len(self._request(result, rid).generated)
        return {
            "requests.completed": len(result.outputs),
            "outputs.sha256": sha.hexdigest(),
            "functional.prefix_hits": sum(s.prefix_hits
                                          for s in result.sessions),
            **_sim_digest(report, trace),
            "sim.tokens": decoded,
        }

    @staticmethod
    def _request(result, rid):
        return result.sessions[result.report.replica_of[rid]].result(rid)

    def verify(self, inputs, result, digest):
        """Every output equals solo greedy generation on the request's
        full (adopted) prompt."""
        model = inputs["model"]
        trace = inputs["trace"]
        problems = []
        if len(result.outputs) != len(trace.requests):
            problems.append(f"{len(trace.requests) - len(result.outputs)} "
                            "requests unfinished")
        for rid, out in sorted(result.outputs.items()):
            req = self._request(result, rid)
            solo = model.generate(np.asarray(req.prompt)[None, :],
                                  len(req.generated))[0]
            if not np.array_equal(out, solo):
                problems.append(f"request {rid} differs from solo generate")
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TuneServing(), FleetChat(), FleetAutoscale(),
                        FunctionalChat())
}
