"""Tests for fleet-level deployment tuning (replicas x TP x batch)."""

import pytest

from repro.engine import DenseLatencyModel, DenseStepCost, synthesize_trace
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet, tune_fleet_deployment
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

CFG = DENSE_ZOO["gpt-13b"]
CLUSTER = dgx_a100_cluster(1)


def _trace(n=12, rate=4.0, seed=0):
    return synthesize_trace(num_requests=n, arrival_rate=rate,
                            mean_prompt=64, mean_gen=16, seed=seed)


def test_meets_sla_within_budget():
    trace = _trace()
    best = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4,
                                 ttft_sla=1.0)
    assert best.num_gpus == best.replicas * best.tp <= 4
    assert best.ttft_p99 <= 1.0
    assert best.tokens_per_second > 0
    assert best.tokens_per_second_per_gpu == pytest.approx(
        best.tokens_per_second / best.num_gpus)


def test_winner_reproduces_its_numbers():
    """The winner replayed at full detail through the public simulator,
    priced the way the tuner documents (``mean_prompt + mean_gen // 2``
    representative KV), gives the tuner's numbers."""
    trace = _trace()
    best = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4)
    prompts = [r.prompt_len for r in trace.requests]
    gens = [r.gen_tokens for r in trace.requests]
    mean_prompt = max(1, round(sum(prompts) / len(prompts)))
    mean_gen = max(1, round(sum(gens) / len(gens)))
    costs = DenseStepCost(DenseLatencyModel(CFG, CLUSTER, tp=best.tp),
                          representative_kv=mean_prompt + mean_gen // 2)
    rep = simulate_fleet(trace, num_replicas=best.replicas, costs=costs,
                         max_batch=best.max_batch, routing=best.routing,
                         detail="full")
    assert rep.tokens_per_second == best.tokens_per_second
    assert rep.ttft_percentile(trace, 99) == best.ttft_p99
    assert rep.latency_percentile(trace, 99) == best.latency_p99


def test_budget_caps_the_search():
    trace = _trace()
    small = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=1)
    assert small.replicas == 1 and small.tp == 1 and small.num_gpus == 1
    big = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4)
    assert big.tokens_per_second >= small.tokens_per_second


def test_infeasible_sla_raises():
    trace = _trace()
    with pytest.raises(ValueError, match="no fleet deployment"):
        tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=2,
                              ttft_sla=1e-6)
    with pytest.raises(ValueError, match="gpu_budget"):
        tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=0)


def test_fault_plan_constrains_fleet_shapes():
    """Tuning under a crash plan only considers fleets the plan leaves a
    survivor in — and the winner still completes the whole trace."""
    trace = _trace(rate=8.0)
    plan = FaultPlan((ReplicaFault(1, trace.requests[4].arrival),))
    best = tune_fleet_deployment(CFG, CLUSTER, trace, gpu_budget=4,
                                 fault_plan=plan)
    # The crash names replica 1, so a single-replica fleet is excluded.
    assert best.replicas >= 2
    assert best.routing == "least_outstanding"
