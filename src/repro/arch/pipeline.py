"""Pipelined execution of GEMM and non-GEMM stages (the paper's
future-work knob: "the deep pipeline of the photonic/digital processing
unit is not adopted in this paper, which can be employed to further
improve the system performance").

Two execution disciplines over the per-layer (GEMM time, digital time)
pairs:

* **sequential** — each layer's digital work waits for its GEMMs and
  vice versa: total = sum(gemm_i + digital_i);
* **pipelined** — the digital units of layer ``i`` overlap the photonic
  cores already working on layer ``i+1``: a classic two-stage pipeline,
  total = sum(max-rate stages) + fill/drain.

The model also validates the paper's implicit assumption that digital
time stays below GEMM time (so ignoring it in Table V is sound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.arch.latency import workload_latency
from repro.arch.nonlinear import DigitalUnitModel
from repro.workloads.gemm import GEMMOp, MODULE_ATTENTION, MODULE_FFN, MODULE_PROJECTION
from repro.workloads.transformer import TransformerConfig, gemm_trace


@dataclass(frozen=True)
class PipelineReport:
    """Latency of one inference under both execution disciplines."""

    gemm_time: float  #: s, photonic GEMM work
    digital_time: float  #: s, non-GEMM digital work
    sequential_latency: float
    pipelined_latency: float

    @property
    def speedup(self) -> float:
        return self.sequential_latency / self.pipelined_latency

    @property
    def digital_hidden(self) -> bool:
        """True when the digital stage is not the bottleneck: digital
        time per layer <= GEMM time per layer, so the steady state runs
        at the photonic rate and only the last layer's digital work
        (the drain) is exposed."""
        return self.digital_time <= self.gemm_time


def _layer_gemm_ops(model: TransformerConfig) -> list[GEMMOp]:
    """The GEMMs of a single encoder layer (count collapsed to 1 layer)."""
    per_layer = []
    for op in gemm_trace(model, include_head=False):
        if op.module in (MODULE_ATTENTION, MODULE_PROJECTION, MODULE_FFN):
            instances_per_layer = op.count // model.depth
            per_layer.append(
                GEMMOp(
                    op.name,
                    op.m,
                    op.k,
                    op.n,
                    module=op.module,
                    dynamic=op.dynamic,
                    count=max(1, instances_per_layer),
                )
            )
    return per_layer


def pipeline_report(
    model: TransformerConfig,
    accelerator: AcceleratorConfig,
    digital: DigitalUnitModel | None = None,
) -> PipelineReport:
    """Compare sequential vs pipelined execution of a Transformer."""
    digital = digital if digital is not None else DigitalUnitModel()
    layer_ops = _layer_gemm_ops(model)
    gemm_per_layer = workload_latency(accelerator, layer_ops)
    digital_per_layer = digital.layer_time(model, accelerator)

    depth = model.depth
    gemm_total = depth * gemm_per_layer
    digital_total = depth * digital_per_layer
    sequential = gemm_total + digital_total
    # Two-stage pipeline across layers: steady state runs at the slower
    # stage's rate; the other stage's single iteration fills/drains.
    bottleneck = max(gemm_per_layer, digital_per_layer)
    other = min(gemm_per_layer, digital_per_layer)
    pipelined = depth * bottleneck + other
    return PipelineReport(
        gemm_time=gemm_total,
        digital_time=digital_total,
        sequential_latency=sequential,
        pipelined_latency=pipelined,
    )
