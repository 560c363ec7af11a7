"""One execution body per layer: tracing changes observability, never math.

Every instrumented layer (DPTC stages, sharded cores, engine, cluster)
runs a single body that always calls its tracer.  With the default
:data:`~repro.obs.trace.NULL_TRACER` that body must return exactly what
an actively traced run returns.  Also pinned here: the null tracer's
shared context objects, an ambient tracer showing through an untraced
engine, the default sharded executor's stage spans, and span closure
for requests rejected at submit.
"""

import io

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServingCluster
from repro.core import DPTC, CalibratedDPTC, NoiseModel, ShardedDPTC
from repro.neural.autograd import Tensor
from repro.neural.photonic import PhotonicExecutor
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    FanoutSink,
    SpanCollector,
    StreamingSpanWriter,
    Tracer,
)
from repro.obs.trace import current_span, current_tracer
from repro.serving import (
    EngineConfig,
    ServingEngine,
    SimulatedClock,
    VisionServable,
    mixed_decode_trace,
)
from repro.workloads import kv_cache_bytes, scenarios
from tests.cluster.test_cluster import decode_cluster, decode_steps
from tests.serving.test_continuous_engine import toy_decoder, trace_outputs
from tests.serving.test_servable import tiny_vit


def operands():
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 5, 13)), rng.normal(size=(4, 13, 5))


def make_tracer(traced, clock=None):
    return Tracer(clock=clock) if traced else NULL_TRACER


def single_core(core_cls):
    def run(traced):
        tracer = make_tracer(traced)
        core = core_cls(noise=NoiseModel.paper_default())
        with tracer.activate():
            out = core.matmul(*operands(), rng=np.random.default_rng(1))
        return [out], None, tracer.collector

    return run


def sharded(shard_axis):
    def run(traced):
        tracer = make_tracer(traced)
        engine = ShardedDPTC(
            num_cores=2,
            noise=NoiseModel.paper_default(),
            shard_axis=shard_axis,
        )
        with tracer.activate():
            out = engine.matmul(*operands(), rng=np.random.default_rng(7))
        return [out], None, tracer.collector

    return run


def continuous_preempting(traced):
    """Dense decode arrivals against 4 two-token pages force preemption."""
    config = toy_decoder()
    specs = mixed_decode_trace(8, seed=11, max_steps=8, horizon_s=2e-3)
    result, engine = trace_outputs(
        config,
        specs,
        scheduler="continuous",
        traced=traced,
        block_size=2,
        kv_capacity_bytes=kv_cache_bytes(config, 2) * 4,
    )
    assert engine._scheduler.preemptions > 0, "tight pool must preempt"
    outputs = [out for spec in specs for out in result["outputs"][spec.session_id]]
    return outputs, engine.metrics.snapshot(), engine.tracer.collector


def cluster_failover(traced):
    clock = SimulatedClock()
    tracer = make_tracer(traced, clock)
    steps = decode_steps(sessions=3, rounds=3)
    with decode_cluster(
        policy="session_affinity", max_batch_size=4, clock=clock, tracer=tracer
    ) as cluster:
        handles = [cluster.submit(x, session_id=sid) for sid, x in steps]
        assert cluster.fail_replica(cluster.router.directory["s1"]) == 3
        cluster.run_until_idle()
        outputs = [handle.result(timeout=0) for handle in handles]
    return outputs, cluster.snapshot(), tracer.collector


def demo_workload(traced):
    """The ``repro trace`` workload: sharded noisy matmuls under an engine."""
    collector, results, snapshot = scenarios.demo_workload(requests=12, traced=traced)
    return results, snapshot, collector


CASES = {
    "dptc-noisy": single_core(DPTC),
    "dptc-calibrated": single_core(CalibratedDPTC),
    "sharded-batch-thread": sharded("batch"),
    "sharded-contraction-thread": sharded("contraction"),
    "engine-continuous-preempting": continuous_preempting,
    "cluster-fail-replica": cluster_failover,
    "demo-workload": demo_workload,
}


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_traced_equals_untraced(case):
    plain, plain_snapshot, _ = CASES[case](traced=False)
    traced, traced_snapshot, collector = CASES[case](traced=True)
    assert len(plain) == len(traced)
    for x, y in zip(plain, traced):
        np.testing.assert_array_equal(x, y)
    assert plain_snapshot == traced_snapshot
    assert len(collector) > 0, "the traced run must record spans"
    assert all(span.end is not None for span in collector.spans())


class TestNullTracer:
    def test_contexts_are_shared_objects(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", k=1) is NULL_SPAN
        assert NULL_TRACER.activate() is NULL_TRACER.activate(NULL_SPAN)
        with NULL_TRACER.span("ignored") as span:
            assert span is NULL_SPAN

    def test_activate_keeps_an_ambient_tracer(self):
        tracer = Tracer()
        with tracer.activate(), tracer.span("outer") as outer:
            with NULL_TRACER.activate(NULL_SPAN):
                assert current_tracer() is tracer
                assert current_span() is outer

    def test_ambient_tracer_sees_beneath_an_untraced_engine(self):
        """An engine built without ``tracer=`` still lets a tracer
        activated around it record the shard and stage spans."""
        executor = PhotonicExecutor.paper_default(seed=0, num_cores=2)
        engine = ServingEngine(
            VisionServable(tiny_vit(seed=0, executor=executor)),
            config=EngineConfig(max_batch_size=4),
            clock=SimulatedClock(),
        )
        rng = np.random.default_rng(0)
        for _ in range(4):
            engine.submit(rng.normal(size=(16, 16)))
        tracer = Tracer()
        with tracer.activate(), tracer.span("driver") as driver:
            engine.run_until_idle()
        engine.close()
        spans = tracer.collector.spans()
        names = {span.name for span in spans}
        assert {"shard.matmul", "shard.core", "stage.sample"} <= names
        assert not names & {"request", "engine.batch", "engine.iteration"}
        shards = [span for span in spans if span.name == "shard.matmul"]
        assert all(span.parent_id == driver.span_id for span in shards)


def test_default_sharded_executor_records_every_stage_under_shard_core():
    """No knob is needed to see the stages: the default sharded
    executor's noisy matmul records all four under each ``shard.core``."""
    executor = PhotonicExecutor.paper_default(seed=0, num_cores=2)
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5, 12)))
    w = Tensor(rng.normal(size=(12, 6)))
    tracer = Tracer()
    with tracer.activate():
        executor.matmul(a, w, weight_operand=1)
    spans = tracer.collector.spans()
    by_id = {span.span_id: span for span in spans}
    cores = tracer.collector.find("shard.core")
    assert len(cores) == 2
    for core in cores:
        assert [span.name for span in tracer.collector.children_of(core.span_id)] == [
            "stage.sample", "stage.encode", "stage.compute", "stage.detect",
        ]
    stages = [span for span in spans if span.name.startswith("stage.")]
    assert len(stages) == 8
    assert all(by_id[span.parent_id].name == "shard.core" for span in stages)


class TestRejectedAtSubmit:
    """A request refused at submit ends its spans with a rejected event,
    so no streaming writer holds it open forever."""

    def setup_method(self):
        self.clock = SimulatedClock()
        self.writer = StreamingSpanWriter(io.StringIO())
        self.memory = SpanCollector()
        self.tracer = Tracer(
            clock=self.clock, collector=FanoutSink(self.writer, self.memory)
        )

    def assert_rejected(self, *names):
        for name in names:
            (span,) = self.memory.find(name)
            assert span.end is not None
            assert span.events[-1].name == "rejected"
            assert span.events[-1].attrs == {"error": "ValueError"}

    def test_engine_request_span_closes(self):
        engine = ServingEngine(
            VisionServable(tiny_vit(seed=0)), clock=self.clock, tracer=self.tracer
        )
        with pytest.raises(ValueError):
            engine.submit(np.zeros((3, 3)))
        self.assert_rejected("request")
        assert self.writer.open_spans == 0
        engine.close()

    def test_cluster_request_spans_close(self):
        cluster = ServingCluster(
            lambda rid: VisionServable(tiny_vit(seed=0)),
            config=ClusterConfig(replicas=1),
            clock=self.clock,
            tracer=self.tracer,
        )
        with pytest.raises(ValueError):
            cluster.submit(np.zeros((3, 3)))
        self.assert_rejected("cluster.request", "request")
        assert self.writer.open_spans == 1  # the fleet-lifetime root
        cluster.close()
        assert self.writer.open_spans == 0
