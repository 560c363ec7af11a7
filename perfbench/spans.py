"""Spans around the public entry points of each layer, kept in memory.

The benchmark wraps each layer's entry points from outside the program
(the in-program ``repro.obs`` tracer stays off), records one span per
call, and derives per-layer self time afterwards: a span's duration
minus the durations of the spans it directly contains.  Spans opened on
the caller thread partition the caller's wall time, so their self times
plus the time outside every span (``driver``) add up to the wall time
exactly.  Spans opened on other threads (the sharded engine's core
pool) are reported separately as busy time.

The wrappers' own work on both sides of a call (building the span,
keeping the stack, counting normals, noting quantized operands) is
timed with the span and reported as the pseudo-layer ``perfbench``, so
it is not charged to any layer of the program.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

#: Pseudo-layer of the wrappers' own bookkeeping.
BOOKKEEPING = "perfbench"

#: Layers whose spans the benchmark records, in report order.
LAYERS = (
    "cluster",
    "serving.engine",
    "serving.scheduler",
    "serving.servable",
    "serving.cache",
    "neural.autograd",
    "neural.photonic",
    "neural.quantization",
    "core.sharding",
    "core.dptc.sample",
    "core.dptc.encode",
    "core.dptc.compute",
    "core.dptc.detect",
)

_MISSING = object()


class Span:
    """One wrapped call: layer, interval, parent, and the thread kind."""

    __slots__ = (
        "layer", "start", "end", "parent", "caller", "children_s", "book_s", "attrs"
    )

    def __init__(self, layer: str, parent: "Span | None", caller: bool) -> None:
        self.layer = layer
        self.parent = parent
        self.caller = caller
        self.start = 0.0
        self.end = 0.0
        self.children_s = 0.0
        self.book_s = 0.0  # the wrapper's own time, just outside the span
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Holds the spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rounds: list[tuple[float, float]] = []
        self._caller = threading.get_ident()
        self._local = threading.local()
        # Hook state: engine submit times by handle id, and the operands
        # quantized so far (see _note_operand).
        self.submitted: dict[int, float] = {}
        self.seen_operands: dict[int, tuple] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Callable[["Recorder", Span, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as a span of ``layer``; ``after`` runs as bookkeeping."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = time.perf_counter()
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            caller = threading.get_ident() == recorder._caller
            span = Span(layer, parent, caller)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if after is not None:
                after(recorder, span, args, kwargs, result)
            # The wrapper's own work on both sides of the call.
            span.book_s = (span.start - entry) + (time.perf_counter() - span.end)
            return result

        return wrapper

    @contextmanager
    def round(self) -> Iterator[None]:
        """Mark one round of a workload; spans are grouped by round."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.rounds.append((start, time.perf_counter()))


# -- bookkeeping hooks ---------------------------------------------------------
def _count_normals(recorder, span, args, kwargs, draw) -> None:
    span.attrs = {
        "normals": sum(
            value.size for value in vars(draw).values() if isinstance(value, np.ndarray)
        )
    }


def _count_macs(recorder, span, args, kwargs, out) -> None:
    core, a = args[0], args[1]
    span.attrs = {"macs": int(np.size(out)) * int(np.shape(a)[-1]), "core": id(core)}


def _note_operand(recorder, span, args, kwargs, result) -> None:
    """Count elements whose operand was quantized before, unchanged.

    "Unchanged" is the same array object at the same precision: the
    program replaces parameters on update (``Adam`` assigns new arrays)
    rather than writing into them, so object identity is what a weight
    memo could key on.
    """
    values = args[0]
    bits = args[1] if len(args) > 1 else kwargs["bits"]
    per_matrix = args[2] if len(args) > 2 else kwargs.get("per_matrix", False)
    size = np.size(values)
    seen = recorder.seen_operands.get(id(values))
    repeat = seen is not None and seen[0]() is values and seen[1:] == (bits, per_matrix)
    if not repeat and isinstance(values, np.ndarray):
        recorder.seen_operands[id(values)] = (weakref.ref(values), bits, per_matrix)
    span.attrs = {"elements": size, "repeat": size if repeat else 0}


def _note_iteration(recorder, span, args, kwargs, iteration) -> None:
    span.attrs = {
        "lanes": len(iteration.batch),
        "preempted": len(iteration.preempted),
    }


def _note_submit(recorder, span, args, kwargs, handle) -> None:
    recorder.submitted[id(handle)] = span.start


def _note_batch(recorder, span, args, kwargs, outputs) -> None:
    waits = []
    for request in args[1]:
        submitted = recorder.submitted.pop(id(request.handle), None)
        if submitted is not None:
            waits.append(span.start - submitted)
    span.attrs = {"batch": len(args[1]), "waits": waits}


def _note_kv(recorder, span, args, kwargs, result) -> None:
    pool = getattr(args[0], "pool", None)
    if pool is not None and pool.capacity_bytes:
        span.attrs = {"kv_util": pool.in_use_bytes / pool.capacity_bytes}


def targets() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, layer, hook)`` for every wrapped entry point."""
    from repro.cluster import ServingCluster
    from repro.core.dptc import DPTC
    from repro.core.sharding import ShardedDPTC
    from repro.neural import quantization
    from repro.neural.autograd import Tensor
    from repro.neural.photonic import PhotonicExecutor
    from repro.neural.train import Adam
    from repro.serving import (
        DecodeServable,
        IterationScheduler,
        ServingEngine,
        SessionCache,
        TextServable,
        VisionServable,
    )
    from repro.serving.cache import Session

    found = [
        (ServingCluster, "submit", "cluster", None),
        (ServingCluster, "step", "cluster", None),
        (ServingCluster, "release_session", "cluster", None),
        (ServingEngine, "submit", "serving.engine", _note_submit),
        (ServingEngine, "step", "serving.engine", None),
        (ServingEngine, "release_session", "serving.engine", None),
        (IterationScheduler, "compose", "serving.scheduler", _note_iteration),
        (VisionServable, "execute", "serving.servable", _note_batch),
        (TextServable, "execute", "serving.servable", _note_batch),
        (DecodeServable, "execute", "serving.servable", _note_batch),
        (Session, "kv_arrays", "serving.cache", None),
        (PhotonicExecutor, "matmul", "neural.photonic", None),
        (quantization, "quantize_array", "neural.quantization", _note_operand),
        (ShardedDPTC, "matmul", "core.sharding", None),
        # On the ideal path DPTC.matmul is the plain product (COMPUTE);
        # on the noisy path it only dispatches to the stage methods.
        (DPTC, "matmul", "core.dptc.compute", _count_macs),
        (DPTC, "sample_noise", "core.dptc.sample", _count_normals),
        (DPTC, "prepare_chunk", "core.dptc.encode", None),
        (DPTC, "compute_chunk", "core.dptc.compute", None),
        (DPTC, "detect_chunk", "core.dptc.detect", None),
        (Tensor, "backward", "neural.autograd", None),
        (Adam, "step", "neural.autograd", None),
    ]
    for name in (
        "open_session",
        "append_kv",
        "close_session",
        "swap_out",
        "swap_in",
        "pop_session",
        "adopt_session",
        "adopt_prefix",
        "export_prefix",
    ):
        found.append((SessionCache, name, "serving.cache", _note_kv))
    return found


@contextmanager
def patched(replacements: list[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attribute = value`` for each entry; restore on exit."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, vars(owner).get(name, _MISSING)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer entry point with ``recorder`` for the block."""
    with patched(
        [
            (owner, name, recorder.wrap(layer, getattr(owner, name), hook))
            for owner, name, layer, hook in targets()
        ]
    ):
        yield recorder


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


@contextmanager
def delayed(layer: str, seconds: float) -> Iterator[None]:
    """Add ``seconds`` of busy time to every call into ``layer``.

    The injected-regression fixture of the benchmark's tests: the delay
    runs inside the layer's span when combined with :func:`traced`
    (enter this first).
    """

    def slow(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _spin(seconds)
            return fn(*args, **kwargs)

        return wrapper

    with patched(
        [
            (owner, name, slow(getattr(owner, name)))
            for owner, name, target, _ in targets()
            if target == layer
        ]
    ):
        yield


# -- rollup -------------------------------------------------------------------
def rollup(recorder: Recorder) -> list[dict]:
    """Per-round layer self times and counters from the recorded spans.

    Each round's ``caller_s`` self times plus ``driver_s`` equal its
    ``wall_s``; ``worker_s`` is busy time on other threads.
    """
    for span in recorder.spans:
        if span.parent is not None:
            span.parent.children_s += span.duration + span.book_s
    starts = [start for start, _ in recorder.rounds]
    rounds = [_empty_round(start, end) for start, end in recorder.rounds]
    sharded: list[list[Span]] = [[] for _ in rounds]
    core_spans: list[list[Span]] = [[] for _ in rounds]
    for span in recorder.spans:
        index = bisect.bisect_right(starts, span.start) - 1
        if index < 0 or span.start > recorder.rounds[index][1]:
            continue  # outside every round (set-up, checks)
        out = rounds[index]
        own = span.duration - span.children_s
        kind = "caller_s" if span.caller else "worker_s"
        out["layers"][span.layer][kind] += own
        out["layers"][BOOKKEEPING][kind] += span.book_s
        if span.caller and span.parent is None:
            out["driver_s"] -= span.duration + span.book_s
        if span.layer == "core.sharding" and span.caller:
            sharded[index].append(span)
        if not span.caller and span.parent is None and span.attrs and "core" in span.attrs:
            core_spans[index].append(span)
        if span.attrs:
            _count(out["counters"], span.attrs)
    for out, calls, cores in zip(rounds, sharded, core_spans):
        out["counters"]["shard_max_s"], out["counters"]["shard_mean_s"] = _imbalance(
            calls, cores
        )
        out["layers"] = {layer: dict(v) for layer, v in out["layers"].items()}
    return rounds


def _empty_round(start: float, end: float) -> dict:
    return {
        "wall_s": end - start,
        "driver_s": end - start,
        "layers": defaultdict(lambda: {"caller_s": 0.0, "worker_s": 0.0}),
        "counters": defaultdict(float, waits=[], kv_util=[]),
    }


def _count(counters: dict, attrs: dict) -> None:
    for key in ("normals", "macs", "elements", "repeat", "preempted"):
        if key in attrs:
            counters[key] += attrs[key]
    if "lanes" in attrs:
        counters["compose_calls"] += 1
        counters["compose_lanes"] += attrs["lanes"]
        counters["compose_empty"] += attrs["lanes"] == 0
    if "batch" in attrs:
        counters["batches"] += 1
        counters["batch_lanes"] += attrs["batch"]
        counters["waits"].extend(attrs["waits"])
    if "kv_util" in attrs:
        counters["kv_util"].append(attrs["kv_util"])


def _imbalance(calls: list[Span], cores: list[Span]) -> tuple[float, float]:
    """Summed per-call (max, mean) core busy time of sharded matmuls."""
    cores = sorted(cores, key=lambda span: span.start)
    starts = [span.start for span in cores]
    total_max = total_mean = 0.0
    for call in calls:
        busy: dict[int, float] = defaultdict(float)
        lo = bisect.bisect_left(starts, call.start)
        hi = bisect.bisect_right(starts, call.end)
        for span in cores[lo:hi]:
            busy[span.attrs["core"]] += span.duration
        if busy:
            total_max += max(busy.values())
            total_mean += sum(busy.values()) / len(busy)
    return total_max, total_mean
