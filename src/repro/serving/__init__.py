"""Async dynamic-batching inference serving over the photonic engine.

The request-to-batch layer of the stack: concurrent ``submit()`` calls
enter a bounded :class:`RequestQueue`, and the :class:`ServingEngine`
runs one loop over an :class:`IterationScheduler` that composes each
iteration's ``[batch, ...]`` tensor and executes it on the sharded
photonic engine (the executor's ``num_cores`` / ``shard_axis`` knobs
apply unchanged).  ``EngineConfig.scheduler`` picks
the loop's batching window and intake: ``"request"`` holds a partial
batch up to ``max_wait_us`` and admits one FIFO batch of at most
``max_batch_size`` per iteration, ``"continuous"`` admits every arrival
with no window.  A :class:`MemoCache` memoizes repeated prompts, a
decoder's paged :class:`SessionCache` keeps its KV-session accounting
consistent with the Sec. VI-B decode analysis, and :class:`Metrics` records throughput, latency
percentiles, and batch occupancy — deterministically, under a
:class:`SimulatedClock`, so the whole pipeline is testable without
sleeping.
"""

from repro.serving.cache import (
    MISS,
    BlockPool,
    MemoCache,
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
    "BlockPool",
    "DecodeServable",
    "DecodeSessionSpec",
    "EngineClosed",
    "EngineConfig",
    "InferenceRequest",
    "IterationCost",
    "IterationScheduler",
    "MISS",
    "MemoCache",
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
