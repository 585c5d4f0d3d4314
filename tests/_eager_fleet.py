"""Test-only reference: the eager fleet event loop.

:func:`simulate_fleet_eager` is :func:`repro.fleet.sim.simulate_fleet`
as it stood before replicas advanced lazily. The differential tests in
``test_serving_fastpath.py`` hold the lazy loop to it report for report,
log for log.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from repro.autoscale.actions import AutoscaleEvent
from repro.autoscale.controller import Autoscaler, AutoscaleConfig, resolve_autoscaler
from repro.autoscale.signals import FleetSignals, ReplicaSnapshot
from repro.engine.costs import StepCostModel
from repro.engine.serving_sim import Request, WorkloadTrace
from repro.fleet.faults import FaultPlan
from repro.fleet.policies import RoutingPolicy
from repro.fleet.report import FleetReport
from repro.fleet.router import Router
from repro.fleet.sim import _Replica
from repro.simcore.trace import Timeline

_INF = math.inf


def simulate_fleet_eager(
    trace: WorkloadTrace,
    *,
    num_replicas: int,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    routing: str | RoutingPolicy = "round_robin",
    fault_plan: FaultPlan | None = None,
    autoscaler: Autoscaler | AutoscaleConfig | None = None,
    kv_block_size: int = 16,
    kv_num_layers: int = 1,
    prefix_sharing: bool = True,
    detail: str = "auto",
    _max_run_steps: int | None = None,
) -> FleetReport:
    """The fleet loop as it was before replicas advanced lazily.

    Every iteration scans every replica for the earliest next action and
    runs it with ``t_limit`` at the next control event (arrival, fault,
    join or epoch), so every arrival cuts every replica's stretch. The
    body is kept verbatim; it drives the production ``_Replica``, so a
    difference from :func:`repro.fleet.simulate_fleet` isolates the
    event loop.
    """
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    plan = fault_plan or FaultPlan()
    plan.validate_against(num_replicas)
    scaler = resolve_autoscaler(autoscaler)
    ttft_sink: list[tuple[float, float]] | None = None
    if scaler is not None:
        scaler.bind(costs=costs, initial_replicas=num_replicas)
        ttft_sink = []

    def make_replica(index: int, join_time: float = 0.0) -> _Replica:
        return _Replica(trace.requests, join_time=join_time, index=index,
                        costs=costs, max_batch=max_batch, policy=policy,
                        detail=detail, kv_block_size=kv_block_size,
                        kv_num_layers=kv_num_layers,
                        prefix_sharing=prefix_sharing, ttft_sink=ttft_sink)

    replicas = [make_replica(i) for i in range(num_replicas)]
    for i, (t, factor) in plan.slowdowns().items():
        replicas[i].slow_from = t
        replicas[i].slow_factor = factor
    # Crash and recover events share one time-ordered stream; at equal
    # times a recovery applies first (the survivor-count argument of
    # FaultPlan.validate_against).
    fault_events = sorted(
        [(t, 0, i, "recover") for t, i in plan.recover_events()]
        + [(t, 1, i, "crash") for t, i in plan.crash_events()])
    fault_cursor = 0

    router = Router(num_replicas, policy=routing)
    replica_of: dict[int, int] = {}
    retried: set[int] = set()
    tokens_discarded = 0
    autoscale_log: list[AutoscaleEvent] = []
    telemetry: list[FleetSignals] = []
    # Pending scale-out boots: cold-start completion times, FIFO.
    joins: deque[float] = deque()
    epoch_s = scaler.config.epoch_s if scaler is not None else _INF
    next_epoch_s = epoch_s

    def on_complete(replica_index: int, request: Request, t: float) -> None:
        router.complete(request, replica_index)

    def snapshot(rep: _Replica) -> ReplicaSnapshot:
        return ReplicaSnapshot(
            index=rep.index,
            alive=rep.alive,
            draining=rep.draining,
            retired=rep.retired,
            queue_depth=rep.sched.num_waiting + len(rep.inbox),
            active_depth=rep.sched.num_active,
            outstanding_tokens=int(router.outstanding(rep.index)),
            done_tokens=rep.tokens,
            up_since_s=(rep.seg_open if rep.seg_open is not None
                        else rep.join_time),
        )

    def start_drain(index: int, t: float) -> None:
        rep = replicas[index]
        rep.draining = True
        router.mark_draining(index)
        rep.maybe_retire(t)

    # Arrival stream: the trace plus post-crash requeues, start-time
    # ordered (seq breaks ties in trace/requeue order).
    heap: list[tuple[float, int, Request, bool]] = [
        (r.arrival, seq, r, False) for seq, r in enumerate(trace.requests)
    ]
    heapq.heapify(heap)
    seq = len(trace.requests)

    while True:
        t_arr = heap[0][0] if heap else _INF
        t_act, act_i = _INF, -1
        for i, rep in enumerate(replicas):
            t = rep.next_action_time()
            if t < t_act:
                t_act, act_i = t, i
        t_fault = (fault_events[fault_cursor][0]
                   if fault_cursor < len(fault_events) else _INF)
        t_join = joins[0] if joins else _INF
        # Control epochs tick only while the run has work left — once
        # the heap is drained and every replica is idle there is nothing
        # to control and the loop must terminate.
        t_epoch = (next_epoch_s
                   if scaler is not None and (heap or t_act < _INF)
                   else _INF)
        t_split = min(t_arr, t_fault, t_join, t_epoch)
        if min(t_split, t_act) == _INF:
            break
        if t_fault <= t_split and t_fault <= t_act:
            t, _, target_i, kind = fault_events[fault_cursor]
            fault_cursor += 1
            target = replicas[target_i]
            if kind == "recover":
                target.recover(t)
                router.mark_recovered(target_i)
                if scaler is not None:
                    autoscale_log.append(AutoscaleEvent(
                        t, "recover", target_i, "fault plan recovery"))
                continue
            victims = target.crash(t, on_complete)
            router.mark_failed(target_i)
            delta = target.tokens - target.completed_tokens() \
                - target.discarded
            target.discarded += delta
            tokens_discarded += delta
            for t_req, r in victims:
                heapq.heappush(heap, (t_req, seq, r, True))
                seq += 1
            continue
        if t_join <= t_split and t_join <= t_act:
            t = joins.popleft()
            new_index = router.add_replica()
            replicas.append(make_replica(new_index, t))
            autoscale_log.append(AutoscaleEvent(
                t, "join", new_index, "cold start complete"))
            continue
        if t_epoch <= t_arr and t_epoch <= t_act:
            t = next_epoch_s
            next_epoch_s += epoch_s
            for rep in replicas:
                rep.maybe_retire(t)
            samples = list(ttft_sink)
            ttft_sink.clear()
            signals, actions = scaler.epoch(
                t, [snapshot(rep) for rep in replicas],
                pending_joins=len(joins), max_batch=max_batch,
                ttft_samples=samples)
            telemetry.append(signals)
            for action in actions:
                if action.kind == "scale_out":
                    joins.append(t + scaler.cold_start_s)
                elif action.kind == "replace":
                    rep = replicas[action.replica]
                    if rep.alive and not rep.retired:
                        start_drain(action.replica, t)
                    joins.append(t + scaler.cold_start_s)
                elif action.kind == "scale_in":
                    start_drain(action.replica, t)
                elif action.kind == "reweight":
                    router.set_weight(action.replica, action.weight)
                autoscale_log.append(AutoscaleEvent(
                    t, action.kind, action.replica, action.reason))
            continue
        if t_arr <= t_act:
            t, _, r, retry = heapq.heappop(heap)
            target_i = router.route(r, t, retry=retry)
            if retry:
                retried.add(r.request_id)
            replica_of[r.request_id] = target_i
            replicas[target_i].deliver(r, t)
            continue
        replicas[act_i].perform_action(on_complete,
                                       t_limit=t_split,
                                       max_steps=_max_run_steps)
        replicas[act_i].maybe_retire(replicas[act_i].now)

    # -- assemble the report --------------------------------------------
    finish: dict[int, float] = {}
    first: dict[int, float] = {}
    delays: dict[int, float] = {}
    by_id = {r.request_id: r for r in trace.requests}
    for rid, i in replica_of.items():
        rep = replicas[i]
        if rid in rep.finish:  # the serving replica's record is final
            finish[rid] = rep.finish[rid]
            first[rid] = rep.first[rid]
            delays[rid] = rep.admit_start[rid] - by_id[rid].arrival

    timeline = Timeline()
    for i, rep in enumerate(replicas):
        timeline.merge(rep.timeline, prefix=f"replica{i}/")
    for d in router.decisions:
        timeline.record_instant(
            "router", d.time,
            f"r{d.request_id}->replica{d.replica}"
            + (" (retry)" if d.retry else ""))
    for ev in autoscale_log:
        timeline.record_instant(
            "autoscale", ev.time_s,
            ev.kind + (f" replica{ev.replica}"
                       if ev.replica is not None else "")
            + (f" ({ev.detail})" if ev.detail else ""))

    makespan = max(finish.values(), default=0.0)
    return FleetReport(
        makespan=makespan,
        finish_times=finish,
        first_token_times=first,
        queue_delays=delays,
        replica_of=dict(replica_of),
        retried=frozenset(retried),
        total_tokens=sum(by_id[rid].gen_tokens for rid in finish),
        tokens_discarded=tokens_discarded,
        replica_stats=tuple(rep.stats() for rep in replicas),
        routing=tuple(router.decisions),
        prefix_hits=sum(rep.kv.hits for rep in replicas),
        prefix_hit_tokens=sum(rep.kv.hit_tokens for rep in replicas),
        kv_blocks_allocated=sum(rep.kv.allocated for rep in replicas),
        kv_blocks_saved=sum(rep.kv.saved_blocks for rep in replicas),
        peak_kv_blocks=sum(rep.kv.peak_blocks for rep in replicas),
        crash_steps={rep.index: rep.crash_step for rep in replicas
                     if rep.crash_step is not None},
        schedulers=tuple(rep.sched for rep in replicas),
        timeline=timeline,
        autoscale_log=tuple(autoscale_log),
        telemetry=tuple(telemetry),
        replica_lifetimes={rep.index: rep.lifetime(makespan)
                           for rep in replicas},
        past_schedulers={rep.index: tuple(rep.past)
                         for rep in replicas if rep.past},
    )
