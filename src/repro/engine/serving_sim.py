"""Serving-level simulation: request arrivals, queueing, percentiles.

The paper's latency/throughput numbers are per-batch; production systems
(Sec. I's "online scenarios") face *arrival processes*: requests queue,
join the running batch, and leave on completion. This module synthesizes
request traces and replays them through a continuous-batching server
whose per-iteration costs come from any :class:`~repro.engine.costs
.StepCostModel` — dense, MoE, or ZeRO-offloaded — reporting
time-to-first-token and end-to-end latency percentiles plus sustained
throughput — the numbers an operator actually quotes against an SLA.

The server is one :class:`ReplicaEngine`, the only priced replica loop
in the package: :func:`simulate_serving` runs a single engine until it
is idle, and :func:`~repro.fleet.sim.simulate_fleet` interleaves many of
them behind a router, adding only the fleet lifecycle (crashes, drains,
up-time). :func:`simulate_serving_reference` is the independent
per-step oracle the engine is tested against.

Admission and retirement decisions are **not** made here: the engine
drives the same :class:`~repro.engine.scheduler.Scheduler` that the
functional :class:`~repro.engine.generation.GenerationSession` uses, and
merely *prices* its decisions with the cost model — so the analytical
and functional serving paths cannot diverge. The scheduler (with its
event log) and a priced :class:`~repro.simcore.trace.Timeline` come back
on the report for chrome-trace export.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..model.paged_kv import blocks_needed
from ..rng import SeedLike, as_generator
from ..simcore.trace import Timeline
from .costs import BatchState, PromptShape, StepCostModel
from .report_stats import ReportStats
from .scheduler import SchedRequest, Scheduler

__all__ = [
    "Request",
    "WorkloadTrace",
    "synthesize_trace",
    "ServingReport",
    "ReplicaEngine",
    "simulate_serving",
    "simulate_serving_reference",
    "batch_state_of",
    "SUMMARY_DETAIL_THRESHOLD",
]

#: ``detail="auto"`` switches to ``"summary"`` timelines at this trace
#: size — per-request lanes allocate O(requests) span objects that
#: nobody exporting only percentiles ever reads.
SUMMARY_DETAIL_THRESHOLD = 10_000

# Cap on how many decode iterations one vectorized pricing call covers
# while an event with a *time* bound (an arrival, a fault) is pending —
# those can split the run mid-stretch, so pricing far past them is
# wasted work for per-step cost models. Without such an event the next
# retirement bounds the run exactly and no cap is needed. Chunking is
# observably identical (the loop just re-enters mid-stretch).
_RUN_CHUNK_STEPS = 256


@dataclass(frozen=True)
class Request:
    """One request of a trace.

    ``session`` optionally tags the request with a conversation/user id;
    the fleet layer's affinity routing keeps one session's requests on
    one replica (warm prefix/KV locality). ``None`` means unaffiliated.

    The scenario zoo's fields all default to "plain request", so traces
    built before they existed are bit-for-bit unchanged:

    * ``tenant`` — the customer/workload class the request bills to;
      tenant-aware admission policies and per-tenant report views key on
      it (``None`` = untagged).
    * ``turn_index`` — position within its session's conversation
      (0 = opening turn).
    * ``shared_prefix_len`` — leading prompt tokens shared with the
      session's previous turn. The serving layers treat it as an upper
      bound: the realized reuse is capped by what the previous turn's
      cache actually holds, and is zero when prefix sharing is off or
      nothing is parked for the session.
    """

    request_id: int
    arrival: float
    prompt_len: int
    gen_tokens: int
    session: int | None = None
    tenant: str | None = None
    turn_index: int = 0
    shared_prefix_len: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.arrival < math.inf:
            raise ValueError(
                f"request {self.request_id}: arrival={self.arrival!r} must "
                f"be a finite time >= 0 (seconds from the trace start); "
                f"shift the trace so its first arrival is at 0")
        if self.prompt_len < 1:
            raise ValueError(
                f"request {self.request_id}: prompt_len={self.prompt_len!r} "
                f"must be >= 1 because the prompt pass needs a token to "
                f"attend over; give an empty prompt one start token")
        if self.gen_tokens < 1:
            raise ValueError(
                f"request {self.request_id}: gen_tokens={self.gen_tokens!r} "
                f"must be >= 1 because a request emits at least its first "
                f"token from the prompt pass; use gen_tokens=1 for a "
                f"prefill-only request")
        if self.turn_index < 0:
            raise ValueError("turn_index must be >= 0")
        if not 0 <= self.shared_prefix_len < self.prompt_len:
            raise ValueError(
                "shared_prefix_len must satisfy 0 <= prefix < prompt_len")
        if self.shared_prefix_len and self.session is None:
            raise ValueError(
                "shared_prefix_len needs a session to share with")

    @property
    def work_tokens(self) -> int:
        """Total token work the request represents (prompt + generation);
        the unit the fleet router balances across replicas."""
        return self.prompt_len + self.gen_tokens


@dataclass(frozen=True)
class WorkloadTrace:
    """A reproducible request trace.

    ``expert_skew`` annotates MoE traces with the Zipf-s gate skew the
    workload was synthesized under (``None`` = unknown/uniform); the
    tuners read it to decide whether skew-aware expert placement is
    worth sweeping.
    """

    requests: tuple[Request, ...]
    expert_skew: float | None = None

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a trace needs at least one request")
        if self.expert_skew is not None and self.expert_skew < 0:
            raise ValueError("expert_skew must be >= 0 when given")
        arrivals = [r.arrival for r in self.requests]
        if arrivals != sorted(arrivals):
            i = next(i for i in range(1, len(arrivals))
                     if arrivals[i] < arrivals[i - 1])
            raise ValueError(
                f"requests must be sorted by arrival time: index {i} "
                f"(request {self.requests[i].request_id}) arrives at "
                f"{arrivals[i]!r}, before index {i - 1} at "
                f"{arrivals[i - 1]!r}; pass "
                f"sorted(requests, key=lambda r: r.arrival)")
        ids = [r.request_id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request ids must be unique within a trace "
                             "(duplicates would corrupt scheduler state)")

    @property
    def duration(self) -> float:
        """Span of the arrival process."""
        return self.requests[-1].arrival - self.requests[0].arrival

    @property
    def total_gen_tokens(self) -> int:
        """Tokens the trace asks for."""
        return sum(r.gen_tokens for r in self.requests)


def synthesize_trace(
    *,
    num_requests: int,
    arrival_rate: float,
    mean_prompt: int = 128,
    mean_gen: int = 32,
    num_sessions: int | None = None,
    session_mode: str = "uniform",
    expert_skew: float | None = None,
    arrival_shape: str = "poisson",
    diurnal_amplitude: float = 0.8,
    diurnal_period: float | None = None,
    burst_factor: float = 8.0,
    num_bursts: int = 2,
    seed: SeedLike = 0,
) -> WorkloadTrace:
    """Synthesize a request trace with Poisson-ish lengths and a chosen
    arrival process.

    This is now a thin compat wrapper over :mod:`repro.scenarios`: the
    arrival machinery lives in
    :func:`repro.scenarios.arrivals.draw_arrivals` (``arrival_shape`` /
    ``diurnal_*`` / ``burst_*`` knobs pass through unchanged — see its
    docstring for the shapes), and richer workloads (multi-turn chat,
    agentic loops, heavy tails, tenant mixes) come from the scenario
    generators. Historical arguments keep producing bit-for-bit
    identical traces.

    ``num_sessions`` tags requests with session ids for the fleet
    layer's affinity routing; ``session_mode`` picks how:

    * ``"uniform"`` (default, historical) — each request's session id is
      drawn i.i.d. uniform from ``range(num_sessions)``. A "session" is
      then just a routing tag: its requests have independent arrivals,
      interleave arbitrarily, and carry no turn ordering or shared
      prefix. Bit-for-bit the old behavior.
    * ``"chat"`` — delegate to
      :func:`repro.scenarios.chat_scenario`'s session machinery:
      ``num_sessions`` conversations whose turns arrive *causally*
      (each turn follows the previous turn's estimated completion) with
      ``turn_index``/``shared_prefix_len`` set for prefix reuse. Draws
      differ from uniform mode; ``arrival_rate`` becomes the session
      arrival rate and ``arrival_shape`` must be ``"poisson"``.

    ``expert_skew`` stamps the trace with a Zipf-s gate skew (see
    :func:`repro.moe_placement.zipf_expert_probs`) so MoE benchmarks can
    regenerate the matching gate stream from the same seed. ``seed``
    takes an int or a live :class:`numpy.random.Generator` to thread one
    stream through a composite workflow (see :mod:`repro.rng`).
    """
    # Function-local import: repro.scenarios builds WorkloadTrace objects
    # from this module, so the package dependency points scenarios ->
    # engine; the compat wrapper resolves its helpers lazily.
    from ..scenarios import chat_scenario
    from ..scenarios.arrivals import draw_arrivals

    if num_requests < 1 or arrival_rate <= 0:
        raise ValueError("num_requests >= 1 and arrival_rate > 0 required")
    if mean_prompt < 1 or mean_gen < 1:
        raise ValueError("mean lengths must be >= 1")
    if num_sessions is not None and num_sessions < 1:
        raise ValueError("num_sessions must be >= 1 when given")
    if session_mode not in ("uniform", "chat"):
        raise ValueError(
            f"unknown session_mode {session_mode!r}; "
            "choose 'uniform' or 'chat'")
    if expert_skew is not None and expert_skew < 0:
        raise ValueError("expert_skew must be >= 0 when given")
    if session_mode == "chat":
        if num_sessions is None:
            raise ValueError("session_mode='chat' requires num_sessions=")
        if arrival_shape != "poisson":
            raise ValueError(
                "session_mode='chat' supports only arrival_shape='poisson' "
                "(sessions arrive Poisson; turns follow causally)")
        return chat_scenario(
            num_sessions=num_sessions,
            session_rate=arrival_rate,
            mean_prompt=mean_prompt,
            mean_gen=mean_gen,
            num_requests=num_requests,
            expert_skew=expert_skew,
            seed=seed,
        )
    rng = as_generator(seed)
    arrivals = draw_arrivals(
        rng, num_requests, arrival_rate,
        arrival_shape=arrival_shape,
        diurnal_amplitude=diurnal_amplitude,
        diurnal_period=diurnal_period,
        burst_factor=burst_factor,
        num_bursts=num_bursts,
    )
    prompts = np.maximum(1, rng.poisson(mean_prompt, size=num_requests))
    gens = np.maximum(1, rng.poisson(mean_gen, size=num_requests))
    sessions = (None if num_sessions is None
                else rng.integers(0, num_sessions, size=num_requests))
    return WorkloadTrace(
        tuple(
            Request(i, float(arrivals[i]), int(prompts[i]), int(gens[i]),
                    session=None if sessions is None else int(sessions[i]))
            for i in range(num_requests)
        ),
        expert_skew=expert_skew,
    )


@dataclass(frozen=True)
class ServingReport(ReportStats):
    """Outcome of replaying one trace.

    Percentile/throughput views (``latency``, ``ttft``,
    ``latency_percentile``, ``ttft_percentile``, ``tokens_per_second``,
    and the per-tenant variants) come from
    :class:`~repro.engine.report_stats.ReportStats`, shared with the
    fleet layer's report.

    The KV counters mirror the functional engine's paged allocator
    (block-granular, all layers): ``kv_blocks_allocated`` are fresh
    allocations over the whole replay, ``kv_blocks_saved`` the
    allocations prefix sharing avoided (blocks inherited by fork),
    ``peak_kv_blocks`` the high-water pool occupancy including parked
    session caches. ``prefix_hits``/``prefix_hit_tokens`` count the
    admissions that reused a parked prefix and the tokens they skipped
    re-prefilling.
    """

    makespan: float
    finish_times: dict[int, float]
    first_token_times: dict[int, float]
    queue_delays: dict[int, float]
    total_tokens: int
    prefix_hits: int = 0
    prefix_hit_tokens: int = 0
    kv_blocks_allocated: int = 0
    kv_blocks_saved: int = 0
    peak_kv_blocks: int = 0
    scheduler: Scheduler | None = field(default=None, compare=False)
    timeline: Timeline | None = field(default=None, compare=False)


class _KvTracker:
    """Analytical KV-block accounting mirroring the functional paged
    allocator, including copy-on-write prefix sharing.

    The functional engine's cache for a request retired after ``G``
    tokens holds ``prompt + G - 1`` positions (the final emitted token
    is never appended), occupying ``num_layers * ceil(positions /
    block_size)`` pool blocks. With ``prefix_sharing`` on, a
    session-tagged retiree's cache is *parked*; the session's next turn
    forks it up to ``eff = min(shared_prefix_len, parked positions)``
    tokens — inheriting the covering blocks by aliasing instead of
    allocating them — and the parked parent is freed at the fork (its
    remaining blocks return to the pool, so no copy-on-write fires in
    this flow). The tracker replays exactly that arithmetic, so its
    counters equal the functional allocator's measurements.

    Stretch discipline: callers grow every live request (retirees
    included — they participate in all of a stretch's steps) *before*
    retiring, matching the functional order of operations within a
    decode step; block usage is monotone inside a stretch, so the peak
    is exact.
    """

    def __init__(
        self,
        requests,
        *,
        block_size: int = 16,
        num_layers: int = 1,
        prefix_sharing: bool = True,
    ) -> None:
        if block_size < 1 or num_layers < 1:
            raise ValueError("block_size and num_layers must be >= 1")
        self.block_size = block_size
        self.num_layers = num_layers
        self.prefix_sharing = prefix_sharing
        self._by_id = {r.request_id: r for r in requests}
        # session -> (parked cache positions, blocks it occupies)
        self._parked: dict[int, tuple[int, int]] = {}
        self._pos: dict[int, int] = {}  # live rid -> cached positions
        self._used = 0
        self.peak_blocks = 0
        self.allocated = 0
        self.hits = 0
        self.hit_tokens = 0
        self.saved_blocks = 0

    def _blocks(self, positions: int) -> int:
        return self.num_layers * (-(-positions // self.block_size))

    def admit(self, rid: int) -> int:
        """Account one admission; returns the effective shared prefix
        (0 = full prefill) for prefix-aware prompt pricing."""
        r = self._by_id[rid]
        eff = 0
        if (self.prefix_sharing and r.shared_prefix_len
                and r.session in self._parked):
            ctx, parked_blocks = self._parked.pop(r.session)
            eff = min(r.shared_prefix_len, ctx)
            # Fork: the child aliases the prefix blocks; the parked
            # parent is freed, returning its suffix blocks to the pool.
            self._used -= parked_blocks - self._blocks(eff)
            self.hits += 1
            self.hit_tokens += eff
            self.saved_blocks += self._blocks(eff)
        fresh = blocks_needed(r.prompt_len, block_size=self.block_size,
                              num_layers=self.num_layers,
                              shared_prefix_len=eff)
        self._used += fresh
        self.allocated += fresh
        if self._used > self.peak_blocks:
            self.peak_blocks = self._used
        self._pos[rid] = r.prompt_len
        return eff

    def grow_all(self, steps: int) -> None:
        """Every live request appends ``steps`` positions (one per
        decode iteration of a stretch)."""
        for rid, pos in self._pos.items():
            delta = self._blocks(pos + steps) - self._blocks(pos)
            self._used += delta
            self.allocated += delta
            self._pos[rid] = pos + steps
        if self._used > self.peak_blocks:
            self.peak_blocks = self._used

    def retire(self, rid: int) -> None:
        """Release (or park) a finished request's cache."""
        pos = self._pos.pop(rid)
        r = self._by_id[rid]
        blocks = self._blocks(pos)
        if self.prefix_sharing and r.session is not None:
            prev = self._parked.get(r.session)
            if prev is not None:  # newer turn supersedes the parked one
                self._used -= prev[1]
            self._parked[r.session] = (pos, blocks)
        else:
            self._used -= blocks

    def reset_live(self) -> None:
        """Drop all live (non-parked) accounting — a replica crash wipes
        in-flight caches; parked state dies with them too."""
        for pos in self._pos.values():
            self._used -= self._blocks(pos)
        self._pos.clear()
        for _, blocks in self._parked.values():
            self._used -= blocks
        self._parked.clear()


def batch_state_of(
    sched: Scheduler,
    prompt_lens: dict[int, int],
    *,
    exclude: int | None = None,
) -> BatchState:
    """The live batch's :class:`BatchState` as seen by the scheduler.

    Each active sequence's KV length is its prompt plus the tokens
    recorded so far; ``exclude`` drops one request id (used to price a
    prompt pass against the *riders*, not the newcomer itself).
    """
    return BatchState(tuple(
        prompt_lens[rid] + sched.generated(rid)
        for rid in sched.active if rid != exclude
    ))


def _resolve_detail(detail: str, num_requests: int) -> bool:
    """True for full per-step/per-request timelines, False for summary."""
    if detail not in ("auto", "full", "summary"):
        raise ValueError(
            f"unknown detail {detail!r}; choose 'auto', 'full' or 'summary'")
    if detail == "auto":
        return num_requests < SUMMARY_DETAIL_THRESHOLD
    return detail == "full"


class ReplicaEngine:
    """One priced replica: the continuous-batching server as atomic
    actions.

    This is the package's only priced replica loop.
    :func:`simulate_serving` runs one engine until it is idle;
    :func:`~repro.fleet.sim.simulate_fleet` interleaves many of them
    with arrivals, faults and control epochs, and adds the fleet
    lifecycle around them.

    ``requests`` is the whole trace: it sizes ``detail="auto"`` (see
    :func:`simulate_serving`) and keys the KV ledger. Requests reach the
    engine only through :meth:`deliver`. Each waits in the
    inbox until the engine's clock reaches its delivery time and then
    joins the scheduler's queue ahead of the next action. Every
    :meth:`perform_action` admits one request, paying its prompt pass,
    or else decodes a whole stretch of iterations. The engine's records
    (``admit_start``, ``first``, ``finish``, ``tokens``, ``kv``,
    ``timeline``) are what the reports are built from.

    Two pieces of state only a fleet moves keep neutral defaults: a
    scripted slowdown multiplies every cost from ``slow_from`` (``inf``)
    on by ``slow_factor``, and ``ttft_sink`` (``None``), when set, is
    handed every ``(time, ttft)`` sample for an autoscaler through its
    ``append`` method (a list, or the fleet's order-keeping sink).
    """

    def __init__(
        self,
        requests: Sequence[Request],
        *,
        costs: StepCostModel,
        max_batch: int,
        policy: str = "fcfs",
        detail: str = "auto",
        kv_block_size: int = 16,
        kv_num_layers: int = 1,
        prefix_sharing: bool = True,
        index: int = 0,
        start: float = 0.0,
        ttft_sink: list[tuple[float, float]] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.full = _resolve_detail(detail, len(requests))
        self.index = index
        self.max_batch = max_batch
        self.policy = policy
        self.costs = costs
        self.sched = Scheduler(max_batch, policy=policy)
        # KV pool ledger over ``requests``; on a fleet replica its
        # counters span crash incarnations.
        self.kv = _KvTracker(requests, block_size=kv_block_size,
                             num_layers=kv_num_layers,
                             prefix_sharing=prefix_sharing)
        self.now = start
        self.slow_from = math.inf
        self.slow_factor = 1.0
        self.ttft_sink = ttft_sink
        self.mid_round = False  # admitted since the last decode stretch
        self.inbox: deque[tuple[float, Request]] = deque()
        self.by_id: dict[int, Request] = {}
        # Incremental batch view: rid -> prompt + generated, admission
        # order (mirrors ``sched.active``) — no per-step tuple rebuilds.
        self.live_kv: dict[int, int] = {}
        self.admit_start: dict[int, float] = {}
        self.first: dict[int, float] = {}  # end of the prompt pass
        self.finish: dict[int, float] = {}
        self.tokens = 0  # every token generated here
        self.timeline = Timeline()

    def deliver(self, request: Request, t: float) -> None:
        """Hand over a request that reaches this replica at time ``t``."""
        self.inbox.append((t, request))
        self.by_id[request.request_id] = request

    def next_action_time(self) -> float:
        """Start time of the next atomic action (inf if idle)."""
        if self.sched.num_active or self.sched.num_waiting:
            return self.now
        if self.inbox:
            return max(self.now, self.inbox[0][0])  # idle fast-forward
        return math.inf

    def perform_action(
        self,
        on_complete: Callable[[int, Request, float], None],
        *,
        t_limit: float = math.inf,
        max_steps: int | None = None,
    ) -> str | None:
        """Run one atomic action and return what ran: ``"admit"``,
        ``"decode"``, or ``None`` when there was nothing to do.

        An admission prices one prompt pass with the live batch riding
        along. Otherwise the live batch decodes a stretch of iterations
        priced in one :meth:`~repro.engine.costs.StepCostModel
        .decode_run_cost` call and committed in one bulk
        :meth:`~repro.engine.scheduler.Scheduler.record_tokens`. Only
        iterations *starting* strictly before the break time are
        committed. The break time is the earliest of ``t_limit`` (the
        caller's next event), the next delivery in the inbox and, while
        still at full speed, the slowdown onset. So a stretch ends
        exactly where per-step stepping would have yielded. The next
        length retirement also ends it, and ``max_steps`` caps it (``1``
        gives per-step stepping).

        ``on_complete(index, request, t)`` is called for every request
        that finishes.
        """
        now = self.next_action_time()
        if now == math.inf:
            return None
        sched = self.sched
        inbox = self.inbox
        while inbox and inbox[0][0] <= now:
            t, r = inbox.popleft()
            sched.enqueue(SchedRequest(
                request_id=r.request_id,
                prompt_len=r.prompt_len,
                max_new_tokens=r.gen_tokens,
                arrival=t,
                tenant=r.tenant,
            ))
        slow_from = self.slow_from
        factor = self.slow_factor if now >= slow_from else 1.0
        live_kv = self.live_kv
        timeline = self.timeline
        kv = self.kv
        full = self.full
        admitted = sched.admit(max_admit=1)
        if admitted:
            s = admitted[0]
            rid = s.request_id
            self.mid_round = True
            start = now
            eff = kv.admit(rid)
            # ``live_kv`` excludes the newcomer: it is inserted after
            # pricing. A prefix hit prices the unshared suffix only;
            # ``eff == 0`` passes the scheduler's request through.
            shape = (PromptShape(s.prompt_len, shared_prefix_len=eff)
                     if eff else s)
            now += self.costs.prompt_cost(
                BatchState(tuple(live_kv.values())), shape) * factor
            self.now = now
            timeline.record("server", start, now,
                            f"prefill r{rid} (+{eff} cached)" if eff
                            else f"prefill r{rid}")
            if full:
                timeline.record(f"req-{rid}", s.arrival, start, "queued")
            self.admit_start[rid] = start
            self.first[rid] = now  # the prompt pass yields token 1
            if self.ttft_sink is not None:
                # TTFT from the *original* arrival (a retried request's
                # clock ran through the crash), matching the report.
                self.ttft_sink.append((now, now - self.by_id[rid].arrival))
            self.tokens += 1
            if sched.record_token(rid) is not None:
                self.finish[rid] = now
                kv.retire(rid)
                if full:
                    timeline.record(f"req-{rid}", start, now, "decode")
                on_complete(self.index, self.by_id[rid], now)
            else:
                live_kv[rid] = s.prompt_len + 1
            return "admit"
        self.now = now
        batch = sched.num_active
        if not batch:
            return None
        t_break = t_limit
        if inbox and inbox[0][0] < t_break:
            t_break = inbox[0][0]
        if now < slow_from < t_break:
            t_break = slow_from
        horizon = sched.decode_horizon()
        if t_break != math.inf and horizon > _RUN_CHUNK_STEPS:
            horizon = _RUN_CHUNK_STEPS
        if max_steps is not None and horizon > max_steps:
            horizon = max_steps
        run = self.costs.decode_run_cost(BatchState(tuple(live_kv.values())),
                                         horizon)
        # The cumsum *includes* ``now`` so the float additions associate
        # exactly as a per-step ``now += cost`` loop.
        buf = np.empty(horizon + 1)
        buf[0] = now
        buf[1:] = run
        if factor != 1.0:  # x * 1.0 == x, so skipping it is exact
            buf[1:] *= factor
        ends = buf.cumsum(out=buf)[1:]
        n = horizon
        if t_break != math.inf:
            k = int(ends.searchsorted(t_break, side="left")) + 1
            if k < n:
                n = k
        start = now
        retired = sched.record_tokens(n)
        self.tokens += n * batch
        if full:
            ends_list = ends[:n].tolist()  # exact float64 -> float
            timeline.record_run("server", start, ends_list, f"decode x{batch}")
            now = ends_list[-1]
        else:
            now = ends[n - 1].item()
            timeline.record("server", start, now,
                            f"decode x{batch} ({n} steps)")
        self.now = now
        # Caches grow before retirement (a retiree participates in every
        # step of the stretch — it retires *at* the last one).
        kv.grow_all(n)
        for rid in retired:
            self.finish[rid] = now
            kv.retire(rid)
            if full:
                timeline.record(f"req-{rid}", self.first[rid], now, "decode")
            on_complete(self.index, self.by_id[rid], now)
            del live_kv[rid]
        for rid in live_kv:
            live_kv[rid] += n
        self.mid_round = False
        return "decode"


def _ignore_completion(index: int, request: Request, t: float) -> None:
    """``on_complete`` for a lone server: nobody tracks outstanding work."""


def simulate_serving(
    trace: WorkloadTrace,
    *,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    detail: str = "auto",
    kv_block_size: int = 16,
    kv_num_layers: int = 1,
    prefix_sharing: bool = True,
) -> ServingReport:
    """Replay ``trace`` through a continuous-batching server.

    The server is one :class:`ReplicaEngine` with no router: the whole
    trace is delivered to it at its arrival times and it acts until it
    is idle. Lifecycle decisions come from the shared
    :class:`~repro.engine.scheduler.Scheduler` (the same class the
    functional engine runs); ``costs`` (any
    :class:`~repro.engine.costs.StepCostModel`:
    :class:`~repro.engine.costs.DenseStepCost`,
    :class:`~repro.engine.costs.MoEStepCost`,
    :class:`~repro.engine.costs.ZeroStepCost`,
    :class:`~repro.engine.costs.ClosureStepCost`, ...) prices them.

    ``prefix_sharing`` (with ``kv_block_size``/``kv_num_layers`` sizing
    the mirrored paged pool) enables session prefix reuse: a
    session-tagged request whose ``shared_prefix_len`` overlaps its
    session's parked previous turn is priced as *incremental* prefill
    (only the unshared suffix pays prompt FLOPs) and inherits the
    prefix's KV blocks instead of re-allocating them. The report's KV
    counters track the mirrored pool either way; traces without
    ``shared_prefix_len`` tags price bit-for-bit as before.

    The replay is *event-compressed*: between scheduler-relevant events
    (the next arrival, the next length retirement) the batch composition
    is frozen, so whole stretches of decode iterations are priced with
    one :meth:`~repro.engine.costs.StepCostModel.decode_run_cost` call.
    Reports are bit-for-bit identical to the per-step oracle
    (:func:`simulate_serving_reference`) — same makespan, same
    per-request times, same scheduler event log.

    ``detail`` controls timeline fidelity: ``"full"`` records per-step
    server spans and per-request queued/decode lanes; ``"summary"``
    records one aggregated server span per compressed stretch and skips
    the per-request lanes (O(requests) span objects saved); ``"auto"``
    (default) picks summary at :data:`SUMMARY_DETAIL_THRESHOLD` requests
    and full below it. The *report* numbers are identical at every
    level.

    The returned report carries the scheduler (event log, orderings) and
    a priced :class:`Timeline` — exportable with
    ``timeline.to_chrome_trace()``.
    """
    requests = trace.requests
    engine = ReplicaEngine(requests, costs=costs, max_batch=max_batch,
                           policy=policy, detail=detail,
                           kv_block_size=kv_block_size,
                           kv_num_layers=kv_num_layers,
                           prefix_sharing=prefix_sharing)
    for r in requests:
        engine.deliver(r, r.arrival)
    act = engine.perform_action
    while act(_ignore_completion) is not None:
        pass
    by_id = engine.by_id
    kv = engine.kv
    return ServingReport(
        makespan=engine.now,
        finish_times=engine.finish,
        first_token_times=engine.first,
        queue_delays={rid: t - by_id[rid].arrival
                      for rid, t in engine.admit_start.items()},
        total_tokens=engine.tokens,
        prefix_hits=kv.hits,
        prefix_hit_tokens=kv.hit_tokens,
        kv_blocks_allocated=kv.allocated,
        kv_blocks_saved=kv.saved_blocks,
        peak_kv_blocks=kv.peak_blocks,
        scheduler=engine.sched,
        timeline=engine.timeline,
    )


def simulate_serving_reference(
    trace: WorkloadTrace,
    *,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    kv_block_size: int = 16,
    kv_num_layers: int = 1,
    prefix_sharing: bool = True,
) -> ServingReport:
    """Per-step reference oracle for :func:`simulate_serving`.

    The pre-compression implementation, retained verbatim: one Python
    round-trip per decode iteration, ``batch_state_of`` tuple rebuild
    per pricing call, always-full timelines. It deliberately does not
    run :class:`ReplicaEngine`, so it checks the engine instead of
    sharing its bugs. The equivalence tests (and the speed benchmark's
    baseline leg) hold :func:`simulate_serving` bit-for-bit against
    this — including the prefix-sharing KV counters.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    plens = {r.request_id: r.prompt_len for r in trace.requests}
    sched = Scheduler(max_batch, policy=policy)
    timeline = Timeline()
    requests = trace.requests
    kv = _KvTracker(requests, block_size=kv_block_size,
                    num_layers=kv_num_layers, prefix_sharing=prefix_sharing)
    cursor = 0  # arrival cursor: O(1) per drain, no per-call trace copy
    admit_at: dict[int, float] = {}
    now = 0.0
    finish: dict[int, float] = {}
    first: dict[int, float] = {}
    delays: dict[int, float] = {}
    total_tokens = 0

    def enqueue_arrived() -> None:
        nonlocal cursor
        while cursor < len(requests) and requests[cursor].arrival <= now:
            r = requests[cursor]
            cursor += 1
            sched.enqueue(SchedRequest(
                request_id=r.request_id,
                prompt_len=r.prompt_len,
                max_new_tokens=r.gen_tokens,
                arrival=r.arrival,
                tenant=r.tenant,
            ))

    while cursor < len(requests) or sched.num_waiting or sched.num_active:
        # Fast-forward to the next arrival when idle.
        if (not sched.num_active and not sched.num_waiting
                and cursor < len(requests)
                and requests[cursor].arrival > now):
            now = requests[cursor].arrival
        enqueue_arrived()
        # Admit one at a time, paying each prompt pass, so requests
        # arriving *during* a prompt pass can join this round's queue.
        while True:
            admitted = sched.admit(max_admit=1)
            if not admitted:
                break
            s = admitted[0]
            delays[s.request_id] = now - s.arrival
            start = now
            eff = kv.admit(s.request_id)
            shape = (PromptShape(s.prompt_len, shared_prefix_len=eff)
                     if eff else s)
            now += costs.prompt_cost(
                batch_state_of(sched, plens, exclude=s.request_id), shape)
            label = (f"prefill r{s.request_id} (+{eff} cached)" if eff
                     else f"prefill r{s.request_id}")
            timeline.record("server", start, now, label)
            timeline.record(f"req-{s.request_id}", s.arrival, start, "queued")
            admit_at[s.request_id] = now
            first[s.request_id] = now  # prompt pass yields token 1
            total_tokens += 1
            if sched.record_token(s.request_id) is not None:
                finish[s.request_id] = now
                kv.retire(s.request_id)
                timeline.record(f"req-{s.request_id}", start, now, "decode")
            enqueue_arrived()
        if not sched.num_active:
            continue
        # One decode iteration for every live sequence — priced once,
        # whatever the batch size (the batched-forward semantics).
        batch = sched.num_active
        start = now
        now += costs.decode_cost(batch_state_of(sched, plens))
        timeline.record("server", start, now, f"decode x{batch}")
        total_tokens += batch
        kv.grow_all(1)  # every live cache appends this step's token
        for rid in sched.active:
            if sched.record_token(rid) is not None:
                finish[rid] = now
                kv.retire(rid)
                timeline.record(f"req-{rid}", admit_at[rid], now, "decode")
        sched.advance()

    return ServingReport(
        makespan=now,
        finish_times=finish,
        first_token_times=first,
        queue_delays=delays,
        total_tokens=total_tokens,
        prefix_hits=kv.hits,
        prefix_hit_tokens=kv.hit_tokens,
        kv_blocks_allocated=kv.allocated,
        kv_blocks_saved=kv.saved_blocks,
        peak_kv_blocks=kv.peak_blocks,
        scheduler=sched,
        timeline=timeline,
    )
