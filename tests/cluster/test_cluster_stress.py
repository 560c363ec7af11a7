"""Threaded stress of the shared state on the wall-clock decode path.

More client threads than cores, each driving its own decode session
through a two-replica wall-clock cluster with a short switch interval,
so threads interleave inside the bound metric counters, the router's
session directory, the session caches and the handle callbacks.
"""

import sys
import threading

import numpy as np

from repro.cluster import ClusterConfig, ServingCluster
from repro.neural.photonic import PhotonicExecutor
from repro.serving import EngineConfig
from repro.serving.loadgen import (
    DecodeSessionSpec,
    bit_equal,
    decode_payload,
    sequential_decode,
)
from repro.workloads.llm import DecoderConfig, decode_servable

DECODER = DecoderConfig("stress", depth=1, dim=16, heads=2, mlp_ratio=2.0)
ENGINE = EngineConfig(
    max_batch_size=4, max_wait_us=0.0, scheduler="continuous", block_size=2, seed=0
)
CLIENTS = 8
STEPS = 12
SEED = 7


def servable():
    return decode_servable(
        DECODER, executor=PhotonicExecutor.digital_reference(), engine=ENGINE
    )


def payload(client: int, step: int) -> np.ndarray:
    return decode_payload(SEED, client, step, DECODER.dim)


def test_threaded_clients_keep_counts_and_bits():
    cluster = ServingCluster(
        lambda replica_id: servable(),
        # least_outstanding migrates quiescent sessions between replicas.
        config=ClusterConfig(replicas=2, policy="least_outstanding", engine=ENGINE),
    )
    outputs: dict[str, list] = {f"c{i}": [] for i in range(CLIENTS)}
    errors: list[BaseException] = []

    def client(index: int) -> None:
        session = f"c{index}"
        try:
            for step in range(STEPS):
                handle = cluster.submit(payload(index, step), session_id=session)
                outputs[session].append(handle.result(timeout=10.0))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cluster:
            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    for replica in cluster.replicas.values():
        metrics = replica.engine.metrics
        completed = metrics.registry.counter("serving_requests_completed_total")
        assert completed.value == len(metrics.records())
    assert sum(cluster.metrics.dispatch_counts().values()) == CLIENTS * STEPS
    assert cluster.metrics.completed == CLIENTS * STEPS
    specs = [DecodeSessionSpec(f"c{i}", 0.0, STEPS) for i in range(CLIENTS)]
    assert bit_equal(outputs, sequential_decode(servable, specs, payload))
