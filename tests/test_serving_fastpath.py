"""Bit-for-bit equivalence of the event-compressed serving fast path.

``simulate_serving`` prices whole decode stretches with one vectorized
``decode_run_cost`` call; ``simulate_serving_reference`` retains the
per-step loop it replaced. The refactor's contract is *exactness*, not
approximation: with ``detail="full"`` the compressed simulator must
reproduce the reference — report, scheduler event log, and timeline —
bit for bit, across every cost adapter and admission policy.

The fleet layer runs the same engine and adds its own event loop, so it
is checked three ways:

* ``_max_run_steps=1`` caps every stretch at one step. It runs the
  production loop, so it checks the stretch arithmetic (faults,
  slowdown onsets, deliveries and sync points cut stretches exactly
  where per-step execution would act), not the loop;
* the loop itself is held against the eager loop it replaced
  (``tests/_eager_fleet.py``), which scanned every replica per event
  and cut every stretch at every arrival — across routings, fault
  plans, the autoscaler and both detail levels;
* each replica of a fault-free fleet must serve exactly what
  ``simulate_serving`` serves on the sub-trace routed to it, and a
  one-replica fleet must match the single-server simulator.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.serving_sim as serving_sim_mod
import repro.fleet.sim as fleet_sim_mod
from repro.autoscale import AutoscaleConfig
from repro.engine import (
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
    WorkloadTrace,
    ZeroStepCost,
    simulate_serving,
    simulate_serving_reference,
    synthesize_trace,
)
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet
from repro.hardware import dgx2_v100, dgx_a100_cluster
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO, get_model
from repro.scenarios import (
    TenantSpec,
    chat_scenario,
    multi_tenant_scenario,
    tenant_policy,
)
from repro.zero import ZeroInferenceEngine

from ._eager_fleet import simulate_fleet_eager

MAX_BATCH = 4


@pytest.fixture(scope="module")
def dense_cost():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    return DenseStepCost(model)


@pytest.fixture(scope="module")
def moe_cost():
    cluster = dgx_a100_cluster(16)
    cfg = MOE_ZOO["1.3b-moe-128"]
    model = MoELatencyModel(cfg, cluster, MOE_PARALLELISM[cfg.name],
                            optimized=True)
    return MoEStepCost(model)


@pytest.fixture(scope="module")
def zero_cost():
    engine = ZeroInferenceEngine(get_model("gpt-neox-20b"), dgx2_v100(1))
    return ZeroStepCost(engine)


@pytest.fixture
def cost(request, dense_cost, moe_cost, zero_cost):
    """Every pricing mode the simulators accept, by name."""
    if request.param == "dense":
        return dense_cost
    if request.param == "moe":
        return moe_cost
    if request.param == "zero":
        return zero_cost
    if request.param == "dense-compat":
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        return DenseStepCost(model, representative_kv=136)
    assert request.param == "closure"
    return ClosureStepCost(lambda b, p: 0.3 + 0.01 * p,
                           lambda b: 0.05 + 0.01 * b)


def _trace(n=80, seed=7, rate=40.0):
    """Arrivals dense enough to exercise queueing, sparse enough that
    stretches get split by arrivals mid-run."""
    return synthesize_trace(num_requests=n, arrival_rate=rate,
                            mean_prompt=32, mean_gen=12, seed=seed)


def _chat_trace(n=60, seed=3):
    """Multi-turn sessions whose follow-ups share their parent's prefix,
    so admissions fork parked caches and price only the suffix."""
    return chat_scenario(num_sessions=12, session_rate=6.0, mean_prompt=32,
                         mean_gen=12, num_requests=n, seed=seed)


TENANTS = (
    TenantSpec(name="batch", arrival_rate=30.0, num_requests=40,
               mean_prompt=32, mean_gen=12),
    TenantSpec(name="chatty", arrival_rate=6.0, num_requests=24,
               workload="chat", mean_prompt=24, mean_gen=8, weight=2.0,
               slot_cap=2),
)

#: (trace, admission policy) inputs of the bit-for-bit matrix. The ids
#: of the two Poisson cases are the bare policy names.
SERVING_CASES = [
    pytest.param((_trace, "fcfs"), id="fcfs"),
    pytest.param((_trace, "shortest_prompt"), id="shortest_prompt"),
    pytest.param((_chat_trace, "fcfs"), id="chat-fcfs"),
    pytest.param((lambda: multi_tenant_scenario(TENANTS, seed=2),
                  tenant_policy(TENANTS)), id="tenants-tenant_fair"),
]


def _events(sched):
    return [(e.step, e.kind, e.request_id, e.reason) for e in sched.events]


class TestServingBitForBit:
    """The acceptance matrix: adapters x policies, full fidelity."""

    @pytest.mark.parametrize(
        "cost", ["dense", "dense-compat", "moe", "zero", "closure"],
        indirect=True)
    @pytest.mark.parametrize("case", SERVING_CASES)
    def test_report_events_and_timeline_identical(self, cost, case):
        make_trace, policy = case
        trace = make_trace()
        fast = simulate_serving(trace, costs=cost, max_batch=MAX_BATCH,
                                policy=policy, detail="full")
        ref = simulate_serving_reference(trace, costs=cost,
                                         max_batch=MAX_BATCH, policy=policy)
        # ServingReport equality covers makespan, finish/first-token/
        # queue-delay dicts and total_tokens (dataclass ==).
        assert fast == ref
        assert _events(fast.scheduler) == _events(ref.scheduler)
        assert fast.timeline.to_rows() == ref.timeline.to_rows()

    def test_burst_trace_saturates_then_drains(self, dense_cost):
        """All-at-t=0 arrivals: after admission the queue drains with no
        arrival breaks, so stretches reach the retirement horizon."""
        trace = _trace(n=40, rate=1e9)
        fast = simulate_serving(trace, costs=dense_cost, max_batch=MAX_BATCH,
                                detail="full")
        ref = simulate_serving_reference(trace, costs=dense_cost,
                                         max_batch=MAX_BATCH)
        assert fast == ref
        assert fast.timeline.to_rows() == ref.timeline.to_rows()


class TestDetailLevels:
    def test_summary_report_equals_full(self, dense_cost):
        trace = _trace()
        full = simulate_serving(trace, costs=dense_cost, max_batch=MAX_BATCH,
                                detail="full")
        summary = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH, detail="summary")
        assert summary == full  # numbers never degrade, only the timeline
        assert _events(summary.scheduler) == _events(full.scheduler)

    def test_summary_drops_per_request_lanes(self, dense_cost):
        trace = _trace(n=30)
        full = simulate_serving(trace, costs=dense_cost, max_batch=MAX_BATCH,
                                detail="full")
        summary = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH, detail="summary")
        assert any(lane.startswith("req-") for lane in full.timeline.lanes())
        assert not any(lane.startswith("req-")
                       for lane in summary.timeline.lanes())
        assert "server" in summary.timeline.lanes()
        # Aggregation also shrinks the server lane itself.
        assert len(summary.timeline.spans("server")) < \
            len(full.timeline.spans("server"))

    def test_auto_switches_at_threshold(self, dense_cost, monkeypatch):
        monkeypatch.setattr(serving_sim_mod, "SUMMARY_DETAIL_THRESHOLD", 20)
        small = simulate_serving(_trace(n=10), costs=dense_cost,
                                 max_batch=MAX_BATCH)
        big = simulate_serving(_trace(n=25), costs=dense_cost,
                               max_batch=MAX_BATCH)
        assert any(lane.startswith("req-") for lane in small.timeline.lanes())
        assert not any(lane.startswith("req-")
                       for lane in big.timeline.lanes())

    def test_unknown_detail_rejected(self, dense_cost):
        with pytest.raises(ValueError, match="detail"):
            simulate_serving(_trace(n=5), costs=dense_cost,
                             max_batch=MAX_BATCH, detail="chatty")


FAULT_PLANS = {
    "none": None,
    "crash": FaultPlan((ReplicaFault(1, 0.9, "crash"),)),
    "slowdown": FaultPlan((ReplicaFault(0, 0.5, "slowdown", factor=2.5),)),
    "crash+slowdown": FaultPlan((
        ReplicaFault(1, 0.9, "crash"),
        ReplicaFault(2, 0.4, "slowdown", factor=1.8),
    )),
    "crash+recover": FaultPlan((
        ReplicaFault(0, 0.5, "crash"),
        ReplicaFault(0, 1.1, "recover"),
    )),
}

ROUTINGS = ["round_robin", "least_outstanding", "power_of_two",
            "session_affinity"]


class TestFleetBitForBit:
    """Compressed replicas vs forced per-step stepping: faults, slowdown
    onsets, deliveries and routing reads must split stretches exactly
    where per-step execution would act."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("faults", list(FAULT_PLANS))
    def test_compressed_equals_per_step(self, dense_cost, routing, faults):
        trace = _trace(n=60)
        kwargs = dict(num_replicas=3, costs=dense_cost, max_batch=MAX_BATCH,
                      routing=routing, fault_plan=FAULT_PLANS[faults],
                      detail="full")
        fast = simulate_fleet(trace, **kwargs)
        ref = simulate_fleet(trace, _max_run_steps=1, **kwargs)
        # FleetReport equality covers makespan, the per-request dicts,
        # replica assignment, retries, token accounting, per-replica
        # stats (incl. busy_time) and the routing log.
        assert fast == ref
        for fast_s, ref_s in zip(fast.schedulers, ref.schedulers):
            assert _events(fast_s) == _events(ref_s)
        assert fast.timeline.to_rows() == ref.timeline.to_rows()

    def test_one_replica_fleet_matches_serving(self, dense_cost):
        trace = _trace()
        fleet = simulate_fleet(trace, num_replicas=1, costs=dense_cost,
                               max_batch=MAX_BATCH)
        serving = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH)
        assert fleet.makespan == serving.makespan
        assert fleet.finish_times == serving.finish_times
        assert fleet.first_token_times == serving.first_token_times
        assert fleet.queue_delays == serving.queue_delays
        assert fleet.total_tokens == serving.total_tokens
        # On a prefix-sharing chat trace the KV ledger and the scheduler's
        # decisions must agree too, not only the latency numbers.
        chat = _chat_trace()
        fleet = simulate_fleet(chat, num_replicas=1, costs=dense_cost,
                               max_batch=MAX_BATCH)
        serving = simulate_serving(chat, costs=dense_cost,
                                   max_batch=MAX_BATCH)
        assert serving.prefix_hits > 0
        assert fleet.makespan == serving.makespan
        assert fleet.finish_times == serving.finish_times
        assert fleet.first_token_times == serving.first_token_times
        assert fleet.queue_delays == serving.queue_delays
        assert fleet.total_tokens == serving.total_tokens
        for counter in ("prefix_hits", "prefix_hit_tokens",
                        "kv_blocks_allocated", "kv_blocks_saved",
                        "peak_kv_blocks"):
            assert getattr(fleet, counter) == getattr(serving, counter)
        assert _events(fleet.schedulers[0]) == _events(serving.scheduler)

    def test_summary_detail_keeps_fleet_numbers(self, dense_cost):
        trace = _trace(n=60)
        kwargs = dict(num_replicas=3, costs=dense_cost, max_batch=MAX_BATCH,
                      fault_plan=FAULT_PLANS["crash+slowdown"])
        full = simulate_fleet(trace, detail="full", **kwargs)
        summary = simulate_fleet(trace, detail="summary", **kwargs)
        assert summary == full
        assert not any(lane.startswith("req-")
                       for lane in summary.timeline.lanes())


def _coalesced_rows(timeline):
    """Timeline rows with back-to-back summary decode spans of one batch
    size merged. A summary span covers one stretch, and the eager loop
    cut stretches at every arrival where the lazy loop does not; the
    per-step times inside are the same, so merging makes the two
    comparable."""
    rows = []
    for lane, start, end, label in timeline.to_rows():
        head, _, steps = label.partition(" (")
        if (rows and steps.endswith(" steps)") and rows[-1][0] == lane
                and rows[-1][2] == start and rows[-1][3].startswith(head + " (")):
            prev_steps = int(rows[-1][3].partition(" (")[2].split()[0])
            merged = prev_steps + int(steps.split()[0])
            rows[-1] = (lane, rows[-1][1], end, f"{head} ({merged} steps)")
        else:
            rows.append((lane, start, end, label))
    return rows


def _assert_same_run(lazy, eager, detail):
    # FleetReport equality covers the per-request dicts, replica
    # assignment, retries, token accounting, per-replica stats, the
    # routing log, KV counters, autoscale_log and lifetimes.
    assert lazy == eager
    assert lazy.crash_steps == eager.crash_steps
    assert lazy.telemetry == eager.telemetry
    assert [_events(s) for s in lazy.schedulers] == \
        [_events(s) for s in eager.schedulers]
    assert {i: [(_events(s), step) for s, step in past]
            for i, past in lazy.past_schedulers.items()} == \
        {i: [(_events(s), step) for s, step in past]
         for i, past in eager.past_schedulers.items()}
    if detail == "full":
        assert lazy.timeline.to_rows() == eager.timeline.to_rows()
    else:
        assert _coalesced_rows(lazy.timeline) == \
            _coalesced_rows(eager.timeline)
    assert _instants(lazy.timeline) == _instants(eager.timeline)


def _instants(timeline):
    return [(e["args"]["lane"], e["ts"], e["name"])
            for e in timeline.to_chrome_trace() if e["ph"] == "i"]


#: An autoscaler that acts within a 60-request trace: it scales out,
#: drains and replaces on one-epoch evidence with no cooldowns.
EAGER_AUTOSCALER = AutoscaleConfig(
    min_replicas=2, max_replicas=5, ttft_slo_s=0.3, epoch_s=0.2,
    sustain_epochs=1, scale_out_cooldown_s=0.0, scale_in_cooldown_s=0.0,
    cold_start_s=0.05, queue_low_depth=1.0, queue_high_depth=2.0,
    mean_prompt=32)


class TestFleetMatchesEagerLoop:
    """The lazy loop (replicas advance only when read) against the
    eager loop it replaced: every report, log and timeline the same."""

    @pytest.mark.parametrize("detail", ["full", "summary"])
    @pytest.mark.parametrize("autoscaler", [None, EAGER_AUTOSCALER],
                             ids=["static", "autoscaled"])
    @pytest.mark.parametrize("faults", list(FAULT_PLANS))
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_matrix(self, dense_cost, routing, faults, autoscaler, detail):
        trace = _trace(n=60)
        kwargs = dict(num_replicas=3, costs=dense_cost, max_batch=MAX_BATCH,
                      routing=routing, fault_plan=FAULT_PLANS[faults],
                      autoscaler=autoscaler, detail=detail)
        _assert_same_run(simulate_fleet(trace, **kwargs),
                         simulate_fleet_eager(trace, **kwargs), detail)

    def test_ttft_order_through_a_crash_round(self):
        """A crashing replica finishes its in-flight round at the fault
        time, so its first-token samples reach the autoscaler ahead of
        other replicas' actions that start later than the fault but
        earlier than the round's own actions. Ordering samples by
        action start alone misplaces them, and the autoscaler's window
        then keeps a different set."""
        trace = synthesize_trace(num_requests=60, arrival_rate=20.0,
                                 mean_prompt=32, mean_gen=4, seed=73)
        costs = ClosureStepCost(lambda b, p: 0.3 + 0.01 * p,
                                lambda b: 0.05 + 0.01 * b)
        kwargs = dict(num_replicas=3, costs=costs, max_batch=3,
                      routing="least_outstanding",
                      fault_plan=FaultPlan((ReplicaFault(1, 1.0, "crash"),)),
                      autoscaler=AutoscaleConfig(
                          min_replicas=1, max_replicas=5, ttft_slo_s=0.5,
                          epoch_s=0.3, window_s=0.6, sustain_epochs=1,
                          scale_out_cooldown_s=0.0, scale_in_cooldown_s=0.0,
                          cold_start_s=0.2, mean_prompt=32),
                      detail="summary")
        lazy = simulate_fleet(trace, **kwargs)
        assert lazy.retried
        _assert_same_run(lazy, simulate_fleet_eager(trace, **kwargs),
                         "summary")

    def test_drained_replica_that_recovers(self):
        """A replica drained by a scale-in, then crashed and recovered,
        is routable again but still draining, so it retires as soon as
        it runs dry. The eager loop checked that after each action,
        before later deliveries reached it; the lazy loop must retire it
        at the same point even when those deliveries are already in its
        inbox."""
        trace = synthesize_trace(num_requests=33, arrival_rate=5.0,
                                 mean_prompt=32, mean_gen=2,
                                 arrival_shape="diurnal", seed=781)
        costs = ClosureStepCost(lambda b, p: 0.3 + 0.01 * p,
                                lambda b: 0.05 + 0.01 * b)
        kwargs = dict(num_replicas=2, costs=costs, max_batch=1,
                      routing="round_robin",
                      fault_plan=FaultPlan((
                          ReplicaFault(1, 2.0366608658481407, "crash"),
                          ReplicaFault(1, 2.806033125600299, "recover"))),
                      autoscaler=AutoscaleConfig(
                          min_replicas=1, max_replicas=3, ttft_slo_s=10.0,
                          epoch_s=2.0, sustain_epochs=1,
                          scale_out_cooldown_s=0.0, scale_in_cooldown_s=0.0,
                          cold_start_s=0.1, queue_low_depth=2.0,
                          mean_prompt=32),
                      detail="full")
        lazy = simulate_fleet(trace, **kwargs)
        assert [(e.kind, e.replica) for e in lazy.autoscale_log[:2]] == [
            ("scale_in", 1), ("recover", 1)]
        _assert_same_run(lazy, simulate_fleet_eager(trace, **kwargs), "full")


class TestReplicaSubTraceOracle:
    """Without faults or an autoscaler a replica only ever sees the
    requests routed to it, at their arrival times. So each one must
    serve exactly what a lone server serves on that sub-trace."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(routing=st.sampled_from(ROUTINGS),
           num_replicas=st.integers(1, 5),
           chat=st.booleans(),
           seed=st.integers(0, 2**16),
           n=st.integers(8, 48))
    def test_each_replica_serves_its_sub_trace(self, dense_cost, routing,
                                               num_replicas, chat, seed, n):
        trace = (_chat_trace(n=n, seed=seed) if chat
                 else _trace(n=n, seed=seed))
        made = []

        class Recording(fleet_sim_mod._Replica):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fleet_sim_mod, "_Replica", Recording)
            fleet = simulate_fleet(trace, num_replicas=num_replicas,
                                   costs=dense_cost, max_batch=MAX_BATCH,
                                   routing=routing)
        assert fleet.num_completed == len(trace.requests)
        for i, rep in enumerate(made):
            mine = tuple(r for r in trace.requests
                         if fleet.replica_of[r.request_id] == i)
            if not mine:
                assert not rep.finish
                continue
            alone = simulate_serving(WorkloadTrace(mine), costs=dense_cost,
                                     max_batch=MAX_BATCH)
            rids = {r.request_id for r in mine}
            assert {rid: fleet.finish_times[rid] for rid in rids} == \
                alone.finish_times
            assert {rid: fleet.first_token_times[rid] for rid in rids} == \
                alone.first_token_times
            assert {rid: fleet.queue_delays[rid] for rid in rids} == \
                alone.queue_delays
            assert (rep.kv.hits, rep.kv.hit_tokens, rep.kv.allocated,
                    rep.kv.saved_blocks, rep.kv.peak_blocks) == (
                alone.prefix_hits, alone.prefix_hit_tokens,
                alone.kv_blocks_allocated, alone.kv_blocks_saved,
                alone.peak_kv_blocks)
            assert _events(fleet.schedulers[i]) == _events(alone.scheduler)
