"""Modeled LT-B latency, energy and tile utilization of the GEMMs run.

The executor's matmul calls are recorded as operand shapes and turned
into :class:`~repro.workloads.gemm.GEMMOp` rows, which the paper's own
cost models (``arch.latency.workload_latency`` and
``arch.energy.LTEnergyModel``, which reproduce Table V) price.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from perfbench.spans import patched


@contextmanager
def recording_gemms() -> Iterator[Counter]:
    """Count ``(a_shape, b_shape, weight_operand)`` of executor matmuls."""
    from repro.neural.photonic import PhotonicExecutor

    shapes: Counter = Counter()
    original = PhotonicExecutor.matmul

    def matmul(self, a, b, weight_operand=None):
        shapes[(a.shape, b.shape, weight_operand)] += 1
        return original(self, a, b, weight_operand)

    with patched([(PhotonicExecutor, "matmul", matmul)]):
        yield shapes


def gemm_ops(shapes: Counter) -> list:
    """The recorded shapes as GEMM ops (leading batch axes -> count)."""
    from repro.workloads.gemm import MODULE_ATTENTION, MODULE_PROJECTION, GEMMOp

    ops = []
    for (a_shape, b_shape, weight_operand), calls in sorted(shapes.items(), key=str):
        batch = math.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]))
        dynamic = weight_operand is None
        ops.append(
            GEMMOp(
                f"{a_shape}x{b_shape}",
                m=a_shape[-2],
                k=a_shape[-1],
                n=b_shape[-1],
                module=MODULE_ATTENTION if dynamic else MODULE_PROJECTION,
                dynamic=dynamic,
                count=batch * calls,
            )
        )
    return ops


def modeled_costs(shapes: Counter, items: int) -> dict[str, float]:
    """Per-item LT-B latency (us) and energy (uJ), and tile utilization."""
    from repro.arch.config import lt_base
    from repro.arch.energy import LTEnergyModel
    from repro.arch.latency import gemm_tile_count, workload_latency

    config = lt_base()
    ops = gemm_ops(shapes)
    useful = sum(op.m * op.k * op.n * op.count for op in ops)
    provisioned = sum(gemm_tile_count(config, op) for op in ops) * (
        config.geometry.macs_per_cycle
    )
    return {
        "modeled_latency_us": workload_latency(config, ops) / items * 1e6,
        "modeled_energy_uj": LTEnergyModel(config).workload_energy(ops).total
        / items
        * 1e6,
        "tile_utilization": useful / provisioned,
    }
