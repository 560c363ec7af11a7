"""Async dynamic-batching inference serving over the photonic engine.

The request-to-batch layer of the stack: concurrent ``submit()`` calls
enter a bounded :class:`RequestQueue`, a :class:`DynamicBatcher`
coalesces them into ``[batch, ...]`` tensors under a
``max_batch_size`` / ``max_wait_us`` :class:`BatchingPolicy`, and the
:class:`ServingEngine` worker executes each batch on the sharded
photonic engine (PR 1-3's ``num_cores`` / ``shard_axis`` / ``backend``
knobs apply unchanged).  A :class:`SessionCache` memoizes repeated
prompts and keeps KV-session accounting consistent with the Sec. VI-B
decode analysis, and :class:`Metrics` records throughput, latency
percentiles, and batch occupancy — deterministically, under a
:class:`SimulatedClock`, so the whole pipeline is testable without
sleeping.
"""

from repro.serving.batcher import BatchingPolicy, DynamicBatcher
from repro.serving.cache import (
    MISS,
    BlockPool,
    KVBlock,
    PrefixChain,
    Session,
    SessionCache,
)
from repro.serving.clock import SimulatedClock, WallClock
from repro.serving.config import EngineConfig
from repro.serving.engine import SCHEDULERS, ServingEngine
from repro.serving.loadgen import (
    Arrival,
    DecodeSessionSpec,
    TenantSpec,
    arrival_gaps,
    decode_payload,
    mixed_decode_trace,
    multi_tenant_arrivals,
    poisson_gaps,
    run_closed_loop,
    run_decode_trace,
    run_open_loop,
)
from repro.serving.metrics import Metrics, RequestRecord, summarize
from repro.serving.scheduler import IterationCost, IterationScheduler
from repro.serving.request import (
    EngineClosed,
    InferenceRequest,
    QueueFull,
    RequestHandle,
    RequestQueue,
    ServingError,
)
from repro.serving.servable import (
    DecodeServable,
    Servable,
    TextServable,
    VisionServable,
)

__all__ = [
    "Arrival",
    "BatchingPolicy",
    "BlockPool",
    "DecodeServable",
    "DecodeSessionSpec",
    "DynamicBatcher",
    "EngineClosed",
    "EngineConfig",
    "InferenceRequest",
    "IterationCost",
    "IterationScheduler",
    "KVBlock",
    "MISS",
    "Metrics",
    "PrefixChain",
    "QueueFull",
    "RequestHandle",
    "RequestQueue",
    "RequestRecord",
    "SCHEDULERS",
    "Servable",
    "ServingEngine",
    "ServingError",
    "Session",
    "SessionCache",
    "SimulatedClock",
    "TenantSpec",
    "TextServable",
    "VisionServable",
    "WallClock",
    "arrival_gaps",
    "decode_payload",
    "mixed_decode_trace",
    "multi_tenant_arrivals",
    "poisson_gaps",
    "run_closed_loop",
    "run_decode_trace",
    "run_open_loop",
    "summarize",
]
