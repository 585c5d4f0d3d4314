"""Tests for the step-cost pricing interface (engine/costs.py).

Covers the compat guarantee — ``DenseStepCost(representative_kv=...)``
reproduces the legacy ``(prompt_time, step_time)`` closures bit-for-bit
through both the serving and fleet simulators — and the adapter
contract every model family must satisfy: finite, strictly positive
costs, monotone non-decreasing in batch size and KV length.
"""

import collections
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BatchState,
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
    PromptShape,
    StepCostModel,
    ZeroStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.fleet import simulate_fleet
from repro.hardware import dgx2_v100, dgx_a100_cluster
from repro.kernels.profiles import DEEPSPEED_FP16, PROFILE_REGISTRY
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO, get_model
from repro.scenarios import chat_scenario
from repro.zero import ZeroInferenceEngine


# Every shipped profile plus eager DeepSpeed; two nodes, so TP=16
# crosses the node boundary.
_PROFILES = [*PROFILE_REGISTRY.values(),
             DEEPSPEED_FP16.with_(name="DeepSpeed-eager", cuda_graph=False)]
_KV_CLUSTER = dgx_a100_cluster(2)


@pytest.fixture(scope="module")
def dense_cost():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    return DenseStepCost(model)


@pytest.fixture(scope="module")
def moe_cost():
    cluster = dgx_a100_cluster(16)  # 128 GPUs
    cfg = MOE_ZOO["1.3b-moe-128"]
    model = MoELatencyModel(cfg, cluster, MOE_PARALLELISM[cfg.name],
                            optimized=True)
    return MoEStepCost(model)


@pytest.fixture(scope="module")
def zero_cost():
    engine = ZeroInferenceEngine(get_model("gpt-neox-20b"), dgx2_v100(1))
    return ZeroStepCost(engine)


class TestBatchState:
    def test_empty_state_is_legal(self):
        s = BatchState(())
        assert s.batch == 0
        assert s.total_kv == 0
        assert s.mean_kv == 0
        assert s.max_kv == 0

    def test_accounting(self):
        s = BatchState((100, 101, 205))
        assert s.batch == 3
        assert s.total_kv == 406
        assert s.mean_kv == math.ceil(406 / 3)
        assert s.max_kv == 205

    def test_uniform(self):
        assert BatchState.uniform(4, 128) == BatchState((128,) * 4)
        assert BatchState.uniform(0, 128) == BatchState(())
        with pytest.raises(ValueError):
            BatchState.uniform(-1, 128)

    def test_rejects_nonpositive_kv(self):
        with pytest.raises(ValueError):
            BatchState((4, 0))

    def test_prompt_shape_validates(self):
        with pytest.raises(ValueError):
            PromptShape(0)


class TestClosureStepCost:
    def test_wraps_closures(self):
        got = ClosureStepCost(lambda b, p: 2.5, lambda b: 0.5)
        # KV-blind: the closures see batch sizes and prompt lengths only.
        assert got.prompt_cost(BatchState.uniform(3, 7), PromptShape(16)) == 2.5
        assert got.decode_cost(BatchState.uniform(3, 7)) == 0.5

    def test_closure_convention_includes_newcomer(self):
        got = ClosureStepCost(lambda b, p: float(b * 1000 + p),
                              lambda b: float(b))
        # prompt_time's batch includes the newcomer.
        assert got.prompt_cost(BatchState(()), PromptShape(9)) == 1009.0
        assert got.prompt_cost(BatchState.uniform(3, 50), PromptShape(9)) == 4009.0

    def test_simulators_require_costs(self):
        trace = synthesize_trace(num_requests=2, arrival_rate=1.0, seed=0)
        with pytest.raises(TypeError, match="costs"):
            simulate_serving(trace, max_batch=2)
        with pytest.raises(TypeError, match="costs"):
            simulate_fleet(trace, num_replicas=1, max_batch=2)


def _legacy_closures(model, *, mean_prompt, mean_gen):
    """The ``(prompt_time, step_time)`` pair the serving layer was once
    priced with: one representative KV length for every pass, and
    ``prompt_time``'s batch counting the newcomer."""
    costs = DenseStepCost(model, representative_kv=mean_prompt + mean_gen // 2)

    def prompt_time(batch, prompt_len):
        riders = BatchState.uniform(max(0, batch - 1), 1)
        return costs.prompt_cost(riders, PromptShape(prompt_len))

    def step_time(batch):
        return costs.decode_cost(BatchState.uniform(max(1, batch), 1))

    return prompt_time, step_time


class TestCompatEquivalence:
    """The representative-KV compat mode is bit-for-bit the legacy
    closure pair, wrapped in :class:`ClosureStepCost`."""

    MEAN_PROMPT, MEAN_GEN = 128, 16

    @pytest.fixture(scope="class")
    def setup(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        closures = ClosureStepCost(*_legacy_closures(
            model, mean_prompt=self.MEAN_PROMPT, mean_gen=self.MEAN_GEN))
        compat = DenseStepCost(
            model, representative_kv=self.MEAN_PROMPT + self.MEAN_GEN // 2)
        trace = synthesize_trace(num_requests=80, arrival_rate=12.0,
                                 mean_prompt=self.MEAN_PROMPT,
                                 mean_gen=self.MEAN_GEN, seed=11)
        return closures, compat, trace

    def test_serving_bit_for_bit(self, setup):
        closures, compat, trace = setup
        old = simulate_serving(trace, costs=closures, max_batch=8)
        new = simulate_serving(trace, costs=compat, max_batch=8)
        assert new.finish_times == old.finish_times
        assert new.first_token_times == old.first_token_times
        assert new.makespan == old.makespan
        assert new.total_tokens == old.total_tokens

    def test_fleet_single_replica_bit_for_bit(self, setup):
        closures, compat, trace = setup
        old = simulate_fleet(trace, num_replicas=1, costs=closures,
                             max_batch=8)
        new = simulate_fleet(trace, num_replicas=1, costs=compat, max_batch=8)
        assert new.finish_times == old.finish_times
        assert new.first_token_times == old.first_token_times
        assert new.makespan == old.makespan

    def test_policy_and_scheduling_identical(self, setup):
        closures, compat, trace = setup
        old = simulate_serving(trace, costs=closures, max_batch=4,
                               policy="shortest_prompt")
        new = simulate_serving(trace, costs=compat, max_batch=4,
                               policy="shortest_prompt")
        assert new.finish_times == old.finish_times


def _adapter_cases(cost, prompt_len=64):
    """(name, value) cost samples every adapter must price sensibly."""
    return [
        ("prompt-idle", cost.prompt_cost(BatchState(()),
                                         PromptShape(prompt_len))),
        ("prompt-riders", cost.prompt_cost(BatchState.uniform(4, 96),
                                           PromptShape(prompt_len))),
        ("decode-1", cost.decode_cost(BatchState.uniform(1, 32))),
        ("decode-ragged", cost.decode_cost(BatchState((17, 128, 301)))),
    ]


class TestAdapterContract:
    """Shared contract: finite, positive, monotone in batch and KV."""

    @pytest.fixture(params=["dense", "moe", "zero"])
    def cost(self, request, dense_cost, moe_cost, zero_cost):
        return {"dense": dense_cost, "moe": moe_cost,
                "zero": zero_cost}[request.param]

    def test_finite_and_positive(self, cost):
        for name, value in _adapter_cases(cost):
            assert math.isfinite(value), name
            assert value > 0.0, name

    def test_decode_monotone_in_batch(self, cost):
        costs = [cost.decode_cost(BatchState.uniform(b, 128))
                 for b in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_decode_monotone_in_kv(self, cost):
        costs = [cost.decode_cost(BatchState.uniform(4, kv))
                 for kv in (16, 64, 256, 1024)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_prompt_monotone_in_prompt_len(self, cost):
        state = BatchState.uniform(2, 128)
        costs = [cost.prompt_cost(state, PromptShape(p))
                 for p in (16, 64, 256, 1024)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_prompt_riders_cost_extra(self, cost):
        idle = cost.prompt_cost(BatchState(()), PromptShape(128))
        loaded = cost.prompt_cost(BatchState.uniform(8, 128), PromptShape(128))
        assert loaded > idle

    def test_memoization_stable(self, cost):
        state = BatchState.uniform(3, 200)
        assert cost.decode_cost(state) == cost.decode_cost(state)


class TestDenseStepCost:
    def test_true_kv_mode_tracks_context_growth(self, dense_cost):
        short = dense_cost.decode_cost(BatchState.uniform(4, 64))
        long = dense_cost.decode_cost(BatchState.uniform(4, 2048))
        assert long > short

    def test_compat_mode_ignores_state_kv(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        compat = DenseStepCost(model, representative_kv=136)
        a = compat.decode_cost(BatchState.uniform(4, 64))
        b = compat.decode_cost(BatchState.uniform(4, 2048))
        assert a == b

    def test_compat_validates(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        with pytest.raises(ValueError):
            DenseStepCost(model, representative_kv=0)


class TestDecodeRunCost:
    """Vectorized run pricing must equal the per-step scalar loop
    bit-for-bit — it is the foundation of the event-compressed serving
    simulator's exactness guarantee."""

    STEPS = 40

    def _reference(self, cost, state, steps):
        out = []
        for i in range(steps):
            out.append(cost.decode_cost(state.advanced(i)))
        return out

    @pytest.fixture(params=["dense", "moe", "zero"])
    def cost(self, request, dense_cost, moe_cost, zero_cost):
        return {"dense": dense_cost, "moe": moe_cost,
                "zero": zero_cost}[request.param]

    @pytest.mark.parametrize("state", [
        BatchState.uniform(1, 32),
        BatchState.uniform(4, 128),
        BatchState((17, 128, 301)),  # ragged KV
    ])
    def test_bitwise_equals_scalar_loop(self, cost, state):
        run = cost.decode_run_cost(state, self.STEPS)
        assert run.dtype == np.float64 and run.shape == (self.STEPS,)
        assert run.tolist() == self._reference(cost, state, self.STEPS)

    def test_warm_cache_still_bitwise(self, cost):
        state = BatchState.uniform(3, 64)
        first = cost.decode_run_cost(state, self.STEPS)
        again = cost.decode_run_cost(state, self.STEPS)
        assert first.tolist() == again.tolist()
        # Extending past the cached range stays exact too.
        longer = cost.decode_run_cost(state, 3 * self.STEPS)
        assert longer[:self.STEPS].tolist() == first.tolist()
        assert longer.tolist() == self._reference(cost, state, 3 * self.STEPS)

    def test_closure_adapter(self):
        cost = ClosureStepCost(lambda b, p: 1.0, lambda b: 0.25 * b)
        state = BatchState.uniform(4, 10)
        run = cost.decode_run_cost(state, 5)
        assert run.tolist() == self._reference(cost, state, 5)

    def test_compat_mode_is_flat(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        compat = DenseStepCost(model, representative_kv=136)
        state = BatchState.uniform(4, 64)
        run = compat.decode_run_cost(state, 6)
        assert run.tolist() == [compat.decode_cost(state)] * 6
        assert run.tolist() == self._reference(compat, state, 6)

    def test_base_class_fallback(self):
        """A subclass that does not override _decode_run_cost gets the
        per-step reference loop from the ABC."""
        class Plain(ClosureStepCost):
            _decode_run_cost = StepCostModel._decode_run_cost

        cost = Plain(lambda b, p: 1.0, lambda b: 0.5 * b)
        state = BatchState.uniform(2, 8)
        assert cost.decode_run_cost(state, 4).tolist() == [1.0] * 4

    def test_validation(self, dense_cost):
        state = BatchState.uniform(2, 16)
        assert dense_cost.decode_run_cost(state, 0).shape == (0,)
        with pytest.raises(ValueError):
            dense_cost.decode_run_cost(state, -1)
        with pytest.raises(ValueError):
            dense_cost.decode_run_cost(BatchState(()), 3)

    def test_advanced(self):
        s = BatchState((5, 9))
        assert s.advanced(0) is s
        assert s.advanced(3) == BatchState((8, 12))
        with pytest.raises(ValueError):
            s.advanced(-1)


class _CountingLatency:
    """Delegates to a real latency model, logging every ``step_time``
    call's ``(batch, tokens_per_seq, kv_len)``."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.calls.append((batch, tokens_per_seq, kv_len))
        return self.model.step_time(batch, tokens_per_seq, kv_len)


class _ScalarDenseReference(StepCostModel):
    """Dense pricing written out with scalar ``step_time`` calls only, in
    the adapter's summation order — the per-step oracle's prices."""

    def __init__(self, model):
        self.model = model
        self._step = functools.lru_cache(maxsize=None)(model.step_time)

    def prompt_cost(self, state, request):
        spl = getattr(request, "shared_prefix_len", 0)
        k, c = self._step(1, request.prompt_len - spl, request.prompt_len)
        if state.batch:
            dk, dc = self._step(state.batch, 1, max(1, state.mean_kv))
            k, c = k + dk, c + dc
        return k + c

    def decode_cost(self, state):
        k, c = self._step(max(1, state.batch), 1, max(1, state.mean_kv))
        return k + c


class TestDenseFillAhead:
    """True-KV dense pricing fills each ``(batch, tokens_per_seq)`` row
    ahead, a whole KV range per vectorized ``step_time`` call."""

    def _chat(self):
        return chat_scenario(num_sessions=160, session_rate=200.0,
                             mean_prompt=128, mean_gen=24, num_requests=240,
                             seed=3)

    def test_fleet_fills_stay_per_batch_constant(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        counting = _CountingLatency(model)
        trace = self._chat()
        kwargs = dict(num_replicas=16, max_batch=16,
                      routing="session_affinity", prefix_sharing=True,
                      detail="full")
        fast = simulate_fleet(trace, costs=DenseStepCost(counting), **kwargs)
        # Every true-KV pass, decode or prompt, reads a row filled by one
        # call per growth: a vector call, or the bitwise-equal scalar
        # call when the fill is one entry (a prompt read at kv == tokens).
        fills = [(b, t, np.atleast_1d(kv)) for b, t, kv in counting.calls]
        assert all(kv.size == 1 for _, _, kv in fills
                   if not isinstance(kv, np.ndarray))
        per_row = collections.Counter((b, t) for b, t, _ in fills)
        assert any(t == 1 for _, t in per_row), "no decode passes priced"
        assert any(t > 1 for _, t in per_row), "no prompt passes priced"
        assert any(kv.size > 1 for _, t, kv in fills if t > 1)
        # One fill when a row is first seen, one per doubling of its
        # table after that. A decode table starts at >= 64 entries, a
        # multi-token row at >= tokens + 1. A fallback to per-entry fills
        # would make hundreds per row.
        longest = max(r.prompt_len + r.gen_tokens for r in trace.requests)
        for (_, t), n in per_row.items():
            start = 64 if t == 1 else t + 1
            assert n <= 1 + max(0, math.ceil(math.log2((longest + 1) / start)))
        # A row is priced from kv = tokens_per_seq (the shortest legal
        # context) upward; a decode row's first fill spans its table.
        assert all(kv[0] >= t for _, t, kv in fills)
        assert all(kv.size >= 63 for _, t, kv in fills if t == 1)

        oracle = simulate_fleet(trace, costs=_ScalarDenseReference(model),
                                _max_run_steps=1, **kwargs)
        assert fast == oracle
        assert fast.timeline.to_rows() == oracle.timeline.to_rows()

    def test_prompt_riders_read_the_decode_tables(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        counting = _CountingLatency(model)
        cost = DenseStepCost(counting)
        reference = _ScalarDenseReference(model)
        state = BatchState((90, 130, 200))
        cost.decode_run_cost(state, 50)
        filled = len(counting.calls)
        for plen, spl in [(64, 0), (300, 299), (140, 100)]:
            req = PromptShape(plen, spl)
            assert cost.prompt_cost(state, req) == reference.prompt_cost(state, req)
        # The riders (batch 3, KV 140) hit the filled table; only the
        # multi-token prompt passes and the batch-1 table are new.
        new = counting.calls[filled:]
        assert (3, 1) not in [(b, t) for b, t, _ in new]
        assert sorted(t for _, t, _ in new) == [1, 40, 64]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        profile=st.sampled_from(_PROFILES),
        tp=st.sampled_from([1, 2, 4, 8, 16]),
        batch=st.sampled_from([1, 1, 2, 3, 8]),
        tokens_offset=st.sampled_from([-1, 0, 1]),
        extra=st.lists(st.integers(0, 600), min_size=1, max_size=6),
    )
    def test_rows_equal_scalar_step_time(self, profile, tp, batch,
                                         tokens_offset, extra):
        """A row read equals the scalar ``step_time`` bitwise at token
        counts around the small-batch (Deep-Fusion/SBI-GeMM) switch."""
        model = DenseLatencyModel(DENSE_ZOO["gpt-j-6b"], _KV_CLUSTER, tp=tp,
                                  profile=profile)
        tokens = max(1, profile.small_batch_tokens + tokens_offset)
        cost = DenseStepCost(model)
        for kv in [tokens + e for e in extra]:
            assert cost._fwd_pass(batch, tokens, kv) == model.step_time(
                batch, tokens, kv)

    def test_moe_and_zero_stay_lazy(self, moe_cost, zero_cost):
        """Scalar-priced adapters evaluate only the KV lengths a run
        visits, once each."""
        for fresh in (MoEStepCost(moe_cost.moe_model),
                      ZeroStepCost(zero_cost.zero_engine)):
            memo = fresh._memo
            fresh.decode_run_cost(BatchState.uniform(2, 100), 30)
            assert len(memo) == 30
            fresh.decode_run_cost(BatchState.uniform(2, 110), 30)
            assert len(memo) == 40


class TestBadCostsFailLoudly:
    """A non-finite or negative price raises where it is first priced,
    naming the adapter and the shape, instead of leaking into reports."""

    def _dense(self, bad_kv, value):
        class Latency:
            def step_time(self, batch, tokens_per_seq, kv_len):
                kernel = np.where(np.asarray(kv_len) == bad_kv, value, 1e-3)
                comm = np.zeros_like(kernel)
                if np.ndim(kv_len):
                    return kernel, comm
                return float(kernel), 0.0
        return DenseStepCost(Latency())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3])
    def test_dense_decode_fill(self, value):
        cost = self._dense(130, value)
        with pytest.raises(ValueError,
                           match=r"DenseStepCost.*batch=2, kv=130\b"):
            cost.decode_run_cost(BatchState.uniform(2, 128), 5)
        with pytest.raises(ValueError, match="finite and >= 0"):
            cost.decode_cost(BatchState.uniform(3, 200))

    def test_dense_prompt_fill(self):
        cost = self._dense(48, math.nan)
        with pytest.raises(ValueError, match=r"DenseStepCost.*"
                           r"batch=1, tokens_per_seq=48, kv=48"):
            cost.prompt_cost(BatchState(()), PromptShape(48))

    def test_dense_prompt_row_names_the_offending_kv(self):
        # A prefix-hit prompt (8 new tokens over 120) fills the (1, 8)
        # row from kv=8 up; the bad entry sits inside that row.
        cost = self._dense(100, math.inf)
        with pytest.raises(ValueError, match=r"DenseStepCost.*"
                           r"batch=1, tokens_per_seq=8, kv=100\b"):
            cost.prompt_cost(BatchState(()), PromptShape(120, 112))

    def test_moe(self):
        class Moe:
            def token_step(self, tokens, kv):
                return SimpleNamespace(total=math.nan if kv == 7 else 1e-3)
        cost = MoEStepCost(Moe())
        with pytest.raises(ValueError, match=r"MoEStepCost.*tokens=2, kv=7"):
            cost.decode_run_cost(BatchState.uniform(2, 5), 4)
        # Not silently retried as "unpriced" on the next run either.
        with pytest.raises(ValueError, match="MoEStepCost"):
            cost.decode_run_cost(BatchState.uniform(2, 5), 4)

    def test_zero(self):
        class Engine:
            def forward_pass(self, *, batch, tokens_per_seq, kv_len):
                return SimpleNamespace(time=-1.0 if tokens_per_seq > 1 else 1e-3)
        cost = ZeroStepCost(Engine())
        assert cost.decode_cost(BatchState.uniform(2, 9)) == 1e-3
        with pytest.raises(ValueError, match=r"ZeroStepCost.*"
                           r"batch=1, tokens_per_seq=9, kv=9"):
            cost.prompt_cost(BatchState(()), PromptShape(9))

    def test_closures(self):
        cost = ClosureStepCost(lambda b, p: math.inf, lambda b: math.nan)
        with pytest.raises(ValueError,
                           match=r"ClosureStepCost.*batch=2, prompt_len=16"):
            cost.prompt_cost(BatchState.uniform(1, 4), PromptShape(16))
        with pytest.raises(ValueError, match=r"ClosureStepCost.*batch=3"):
            cost.decode_run_cost(BatchState.uniform(3, 4), 6)


class TestMoEServingEndToEnd:
    def test_moe_trace_through_serving(self, moe_cost):
        trace = synthesize_trace(num_requests=30, arrival_rate=10.0,
                                 mean_prompt=64, mean_gen=8, seed=5)
        rep = simulate_serving(trace, costs=moe_cost, max_batch=8)
        assert len(rep.finish_times) == 30
        assert rep.total_tokens == sum(r.gen_tokens for r in trace.requests)
        assert math.isfinite(rep.makespan) and rep.makespan > 0
