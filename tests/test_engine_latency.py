"""Tests for the dense end-to-end latency model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import DenseLatencyModel, InferenceEngine, Workload
from repro.hardware import dgx_a100_cluster
from repro.kernels import PROFILE_REGISTRY
from repro.kernels.profiles import DEEPSPEED_FP16
from repro.model import DENSE_ZOO

CLUSTER = dgx_a100_cluster(8)


class TestWorkload:
    def test_token_accounting(self):
        w = Workload(batch=4, prompt_len=128, gen_tokens=8)
        assert w.total_tokens == 4 * 136
        assert w.generated_tokens == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(batch=0, prompt_len=1, gen_tokens=1)
        with pytest.raises(ValueError):
            Workload(batch=1, prompt_len=0, gen_tokens=1)
        with pytest.raises(ValueError):
            Workload(batch=1, prompt_len=1, gen_tokens=-1)


class TestSingleGPU:
    def setup_method(self):
        self.model = DenseLatencyModel(DENSE_ZOO["gpt2-1.5b"], CLUSTER,
                                       tp=1, pp=1)

    def test_report_is_consistent(self):
        r = self.model.estimate(Workload(batch=1, prompt_len=128, gen_tokens=8))
        assert r.total_latency == pytest.approx(
            r.prompt_latency + 8 * r.token_latency
        )
        assert r.tokens_per_second == pytest.approx(8 / r.total_latency)

    def test_token_latency_bounded_by_weight_read(self):
        cfg = DENSE_ZOO["gpt2-1.5b"]
        r = self.model.estimate(Workload(batch=1, prompt_len=128, gen_tokens=1))
        ideal = cfg.param_bytes() / CLUSTER.gpu.mem_bw
        assert r.token_latency >= ideal
        assert r.token_latency < 10 * ideal  # and not absurdly above

    def test_no_tp_comm_on_single_gpu(self):
        r = self.model.estimate(Workload(batch=1, prompt_len=16, gen_tokens=1))
        assert r.comm_time_per_step == 0.0

    def test_larger_batch_more_throughput(self):
        r1 = self.model.estimate(Workload(batch=1, prompt_len=128, gen_tokens=8))
        r8 = self.model.estimate(Workload(batch=8, prompt_len=128, gen_tokens=8))
        assert r8.tokens_per_second > r1.tokens_per_second
        assert r8.token_latency < 4 * r1.token_latency  # sublinear latency growth


class TestTensorParallel:
    def test_tp_cuts_latency_but_adds_comm(self):
        cfg = DENSE_ZOO["gpt-neox-20b"]
        w = Workload(batch=1, prompt_len=128, gen_tokens=8)
        t1 = DenseLatencyModel(cfg, CLUSTER, tp=1).estimate(w)
        t4 = DenseLatencyModel(cfg, CLUSTER, tp=4).estimate(w)
        assert t4.token_latency < t1.token_latency
        assert t4.comm_time_per_step > 0
        # Scaling efficiency: below ideal 4x, above 1.5x.
        speedup = t1.token_latency / t4.token_latency
        assert 1.5 < speedup < 4.0

    def test_cross_node_tp_pays_inter_node_comm(self):
        """TP=16 spans two nodes (Fig. 6's 175B config); its all-reduce must
        cost visibly more than a single-node TP=8 one."""
        cfg = DENSE_ZOO["lm-175b"]
        w = Workload(batch=1, prompt_len=16, gen_tokens=1)
        r8 = DenseLatencyModel(cfg, CLUSTER, tp=8).estimate(w)
        r16 = DenseLatencyModel(cfg, CLUSTER, tp=16).estimate(w)
        assert r16.comm_time_per_step > r8.comm_time_per_step

    def test_flat_allreduce_slower_across_nodes(self):
        cfg = DENSE_ZOO["lm-175b"]
        w = Workload(batch=24, prompt_len=128, gen_tokens=1)
        hier = DenseLatencyModel(cfg, CLUSTER, tp=16).estimate(w)
        flat = DenseLatencyModel(cfg, CLUSTER, tp=16,
                                 hierarchical_comm=False).estimate(w)
        assert flat.comm_time_per_step > hier.comm_time_per_step

    def test_oversized_deployment_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            DenseLatencyModel(DENSE_ZOO["lm-175b"], CLUSTER, tp=8, pp=32)

    def test_diminishing_returns_at_high_tp(self):
        cfg = DENSE_ZOO["gpt-j-6b"]  # small model: comm/overhead dominate
        w = Workload(batch=1, prompt_len=16, gen_tokens=1)
        t2 = DenseLatencyModel(cfg, CLUSTER, tp=2).estimate(w).token_latency
        t8 = DenseLatencyModel(cfg, CLUSTER, tp=8).estimate(w).token_latency
        assert t8 > t2 / 4  # nowhere near ideal scaling for a 6B model


class TestPipelineParallel:
    def setup_method(self):
        self.cfg = DENSE_ZOO["lm-175b"]
        self.w = Workload(batch=16, prompt_len=128, gen_tokens=16)

    def test_dynamic_beats_lockstep_generation(self):
        ds = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2)
        ft = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2,
                               lockstep_generation=True)
        rds, rft = ds.estimate(self.w), ft.estimate(self.w)
        assert rds.total_latency < rft.total_latency

    def test_hybrid_cuts_prompt_latency(self):
        plain = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2)
        hybrid = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2,
                                   hybrid_prompt_factor=4)
        rp, rh = plain.estimate(self.w), hybrid.estimate(self.w)
        assert rh.prompt_latency < rp.prompt_latency

    def test_more_stages_than_layers_rejected(self):
        with pytest.raises(ValueError):
            DenseLatencyModel(DENSE_ZOO["gpt2-1.5b"], CLUSTER, tp=1, pp=64)

    def test_gpu_count(self):
        m = DenseLatencyModel(self.cfg, CLUSTER, tp=8, pp=2)
        assert m.num_gpus == 16


class TestInferenceEngineFacade:
    def test_auto_planning(self):
        eng = InferenceEngine("lm-175b", CLUSTER)
        assert eng.tp == 8 and eng.pp == 2
        assert eng.num_gpus == 16

    def test_explicit_config_respected(self):
        eng = InferenceEngine("gpt-13b", CLUSTER, tp=2, pp=1)
        assert (eng.tp, eng.pp) == (2, 1)

    def test_estimate_and_best_throughput(self):
        eng = InferenceEngine("gpt-13b", CLUSTER, tp=1, pp=1)
        r = eng.estimate(batch=1, prompt_len=128, gen_tokens=8)
        assert r.total_latency > 0
        pt = eng.best_throughput(prompt_len=128, gen_tokens=8)
        assert pt.batch >= 1
        assert pt.tokens_per_second >= r.tokens_per_second

    def test_functional_model_guard(self):
        eng = InferenceEngine("gpt-13b", CLUSTER, tp=1, pp=1)
        with pytest.raises(ValueError, match="NumPy"):
            eng.build_functional_model()

    def test_functional_model_for_small_config(self):
        from repro.model import ModelConfig
        import numpy as np

        tiny = ModelConfig(name="t", hidden=32, layers=2, heads=4, vocab=50,
                           max_seq=16)
        eng = InferenceEngine(tiny, CLUSTER, tp=1, pp=1)
        m = eng.build_functional_model()
        assert m.forward(np.array([[1, 2]])).shape == (1, 2, 50)


# Every shipped profile (NONE/ELEMENTWISE/ATTENTION/DEEP fusion, INT8,
# CUDA graphs on and off).
_PROFILES = [*PROFILE_REGISTRY.values(),
             DEEPSPEED_FP16.with_(name="DeepSpeed-eager", cuda_graph=False)]
# Two nodes, so TP=16 crosses the node boundary and hierarchical_comm
# picks between the two all-reduce formulas.
_KV_CLUSTER = dgx_a100_cluster(2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    profile=st.sampled_from(_PROFILES),
    tp=st.sampled_from([1, 2, 4, 8, 16]),
    hierarchical=st.booleans(),
    batch=st.integers(1, 64),
    tokens_per_seq=st.sampled_from([1, 1, 1, 2, 7, 16, 17, 128]),
    extra=st.lists(st.integers(0, 2048), min_size=0, max_size=24),
)
def test_kv_array_step_time_is_bitwise_scalar(profile, tp, hierarchical, batch,
                                              tokens_per_seq, extra):
    """``step_time`` over a KV array equals the scalar loop element for
    element — exact ``==``, not approx — including ``kv == tokens``."""
    model = DenseLatencyModel(DENSE_ZOO["gpt-j-6b"], _KV_CLUSTER, tp=tp,
                              profile=profile, hierarchical_comm=hierarchical)
    kvs = np.array([tokens_per_seq] + [tokens_per_seq + e for e in extra])
    kernel, comm = model.step_time(batch, tokens_per_seq, kvs)
    assert kernel.shape == comm.shape == kvs.shape
    for i, kv in enumerate(kvs.tolist()):
        k, c = model.step_time(batch, tokens_per_seq, kv)
        assert (kernel[i], comm[i]) == (k, c)
        lk, lc = model.layer_time(batch, tokens_per_seq, kv)
        assert model.layer_time(batch, tokens_per_seq, kvs[i:i + 1]) == (lk, lc)


@pytest.mark.parametrize("tokens_per_seq", [1, 16])
def test_kv_array_shorter_than_tokens_raises_like_scalar(tokens_per_seq):
    model = DenseLatencyModel(DENSE_ZOO["gpt-j-6b"], _KV_CLUSTER, tp=2)
    short = tokens_per_seq - 1
    with pytest.raises(ValueError) as scalar:
        model.step_time(4, tokens_per_seq, short)
    with pytest.raises(ValueError) as array:
        model.step_time(4, tokens_per_seq,
                        np.array([tokens_per_seq + 5, short, 900]))
    assert str(array.value) == str(scalar.value)


def test_kv_array_must_be_1d_integer():
    model = DenseLatencyModel(DENSE_ZOO["gpt-j-6b"], _KV_CLUSTER)
    for bad in (np.array([[4, 5]]), np.array([4.0, 5.0])):
        with pytest.raises(ValueError, match="1-D and integer"):
            model.step_time(1, 1, bad)
