"""Roofline kernel cost model with fusion- and launch-aware terms.

Each fused region executes in::

    time = max(hbm_bytes / (mem_bw * bw_eff), flops / (peak * compute_eff))
           + launch_cost

which captures the paper's two regimes directly: small-batch inference is
the left branch (weight streaming, Sec. III-A), large-batch the right
(compute saturation). The profile decides the efficiencies — cuBLAS vs
SBI-GeMM bandwidth curves, FP16 vs INT8 peaks and weight traffic — and
whether launch cost is paid per kernel (eager), per kernel minus dispatch
(compiled runtime) or eliminated entirely (CUDA graph, Sec. III-D).

A shape whose ``kv_len`` is an array prices a whole KV axis in one pass:
the fusion partition and the GeMM efficiency curves depend on the token
count only and stay scalar, while the KV-dependent bytes and flops flow
through as arrays and meet the ``max`` terms via ``np.maximum`` — the
same IEEE operations per element as the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.specs import DType, GPUSpec
from .fusion import FusedRegion, partition
from .gemm import (
    cublas_bw_efficiency,
    cublas_compute_efficiency,
    cutlass_int8_compute_efficiency,
    sbi_bw_efficiency,
)
from .graph import LayerShape, transformer_layer_ops
from .ops import OpKind
from .profiles import ImplementationProfile

__all__ = ["RegionTime", "LayerCost", "KernelCostModel"]

# Residual per-node cost of replaying a kernel inside a CUDA graph.
_GRAPH_NODE_OVERHEAD = 0.3e-6


def _maximum(a, b):
    """``max`` that also takes KV-axis arrays (elementwise, same value)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


@dataclass(frozen=True)
class RegionTime:
    """Modeled execution time of one fused region.

    ``launch_time`` is the asynchronous driver launch cost: it only shows
    up when the kernel itself is shorter than the launch (the CPU cannot
    keep the GPU fed — exactly the small-model regime Sec. III-D's CUDA
    graphs attack). ``dispatch_time`` is *synchronous* CPU framework work
    (eager-mode op dispatch) and always adds to the critical path.
    """

    name: str
    memory_time: float
    compute_time: float
    launch_time: float
    hbm_bytes: float
    flops: float
    dispatch_time: float = 0.0

    @property
    def total(self) -> float:
        """Roofline time, with launch overhead hidden behind long kernels."""
        exec_time = _maximum(self.memory_time, self.compute_time)
        return _maximum(exec_time, self.launch_time) + self.dispatch_time

    @property
    def bound(self) -> str:
        """Which roofline branch dominates."""
        return "memory" if self.memory_time >= self.compute_time else "compute"


@dataclass(frozen=True)
class LayerCost:
    """Aggregate cost of one transformer-layer invocation on one GPU."""

    regions: tuple[RegionTime, ...]

    @property
    def total_time(self) -> float:
        """End-to-end layer time in seconds."""
        return sum(r.total for r in self.regions)

    @property
    def kernel_count(self) -> int:
        """Kernels launched per layer (fusion's first-order effect)."""
        return len(self.regions)

    @property
    def launch_time(self) -> float:
        """Total launch/dispatch overhead."""
        return sum(r.launch_time for r in self.regions)

    @property
    def hbm_bytes(self) -> float:
        """Total modeled HBM traffic."""
        return sum(r.hbm_bytes for r in self.regions)

    @property
    def flops(self) -> float:
        """Total math work."""
        return sum(r.flops for r in self.regions)

    @property
    def effective_bandwidth(self) -> float:
        """Achieved HBM bytes/s — the metric of Fig. 11."""
        t = self.total_time
        return self.hbm_bytes / t if t > 0 else 0.0


class KernelCostModel:
    """Times fused regions of a transformer layer on one GPU."""

    def __init__(self, gpu: GPUSpec, profile: ImplementationProfile) -> None:
        self.gpu = gpu
        self.profile = profile

    # -- public API -------------------------------------------------------

    def layer_cost(self, shape: LayerShape) -> LayerCost:
        """Cost of one dense transformer layer with this implementation."""
        ops = transformer_layer_ops(shape)
        return self.chain_cost(ops, tokens=shape.tokens)

    def chain_cost(self, ops, *, tokens: int) -> LayerCost:
        """Cost of an arbitrary op chain (used for MoE blocks too)."""
        small = self._small_batch(tokens)
        regions = partition(list(ops), self.profile.fusion, small_batch=small)
        return LayerCost(tuple(self.region_time(r, tokens) for r in regions))

    def region_time(self, region: FusedRegion, tokens: int) -> RegionTime:
        """Roofline + launch time for one fused region."""
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        hbm = self._region_hbm_bytes(region)
        bw_eff = self._bw_efficiency(region, tokens)
        memory_time = hbm / (self.gpu.mem_bw * bw_eff)
        compute_time = self._compute_time(region, tokens)
        return RegionTime(
            name=region.name,
            memory_time=memory_time,
            compute_time=compute_time,
            launch_time=self._launch_cost(),
            hbm_bytes=hbm,
            flops=region.flops,
            dispatch_time=self.profile.dispatch_overhead,
        )

    # -- internals --------------------------------------------------------

    def _small_batch(self, tokens: int) -> bool:
        return tokens <= self.profile.small_batch_tokens

    def _weight_scale(self) -> float:
        """Weight-traffic scale: quantized storage (INT8 halves FP16) and
        pruning (E.T.) both shrink the bytes streamed per GeMM."""
        return (
            self.profile.weight_dtype.itemsize
            / self.profile.compute_dtype.itemsize
        ) * self.profile.weight_traffic_scale

    def _region_hbm_bytes(self, region: FusedRegion) -> float:
        scale = self._weight_scale()
        w = sum(
            op.weight_bytes * (scale if op.is_weight_gemm else 1.0)
            for op in region.ops
        )
        return w + region.act_bytes

    def _gemm_out_features(self, region: FusedRegion, tokens: int) -> int:
        """Recover the (local) output width of the region's weight GeMM."""
        for op in region.ops:
            if op.is_weight_gemm:
                d = self.profile.compute_dtype.itemsize
                return max(1, int(op.act_out_bytes / (tokens * d)))
        raise ValueError("region has no weight GeMM")

    def _bw_efficiency(self, region: FusedRegion, tokens: int) -> float:
        has_weight_gemm = any(op.is_weight_gemm for op in region.ops)
        if not has_weight_gemm:
            return self.profile.nongemm_bw_eff
        if self.profile.sbi_gemm and self._small_batch(tokens):
            out_features = self._gemm_out_features(region, tokens)
            return sbi_bw_efficiency(
                self.gpu, tokens, out_features, self.profile.weight_dtype
            )
        return cublas_bw_efficiency(tokens)

    def _compute_time(self, region: FusedRegion, tokens: int) -> float:
        has_weight_gemm = any(op.is_weight_gemm for op in region.ops)
        has_attention = any(op.kind is OpKind.ATTENTION for op in region.ops)
        if has_weight_gemm:
            if self.profile.weight_dtype is DType.INT8:
                peak = self.gpu.peak_flops(DType.INT8)
                eff = cutlass_int8_compute_efficiency(tokens)
            else:
                peak = self.gpu.peak_flops(self.profile.compute_dtype)
                eff = cublas_compute_efficiency(tokens)
        elif has_attention:
            # Batched per-head contractions achieve lower utilization than
            # weight GeMMs of the same flop count.
            peak = self.gpu.peak_flops(self.profile.compute_dtype)
            eff = 0.5 * cublas_compute_efficiency(max(1, tokens))
        else:
            # Elementwise/reduction math is never the roofline binder, but
            # keep a finite term so the max() is well defined.
            peak = self.gpu.peak_flops(DType.FP32)
            eff = 0.5
        flops = region.flops
        # A KV-axis array of flops divides elementwise (0 / x == 0.0).
        if isinstance(flops, np.ndarray) or flops:
            return flops / (peak * eff)
        return 0.0

    def _launch_cost(self) -> float:
        if self.profile.cuda_graph:
            return _GRAPH_NODE_OVERHEAD
        return self.gpu.kernel_launch_overhead
