"""Cluster load drivers: deterministic virtual-time open-loop runs.

The wall-clock generators in :mod:`repro.serving.loadgen` sleep between
arrivals; these drivers instead *advance the simulated clock* by the
same gaps and step the cluster, so an open-loop Poisson run — fleet
throughput, latency percentiles, autoscaler trajectory and all — is a
bit-deterministic function of the seed and finishes in milliseconds of
real time.  This is the regime the fleet-scaling gate
(``tests/cluster/test_cluster_loadgen.py``) pins and the ``fleet-*``
scenarios of :mod:`repro.workloads.scenarios` (``repro bench``) run.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.cluster.cluster import ClusterHandle, ServingCluster


def _require_manual(cluster: ServingCluster) -> None:
    if not cluster.manual:
        raise ValueError(
            "virtual-time runs need a cluster on a SimulatedClock; use "
            "repro.serving.loadgen for wall-clock load"
        )


def run_virtual_open_loop(
    cluster: ServingCluster,
    payloads: Sequence[Any],
    gaps: Sequence[float],
    *,
    submit_kwargs: Callable[[int], dict] | None = None,
    step_each: bool = True,
    force_each: bool = False,
) -> dict:
    """Open-loop run in virtual time: advance, submit, step, drain.

    ``gaps[i]`` is the virtual pause before submitting ``payloads[i]``
    (for a :func:`~repro.serving.loadgen.multi_tenant_arrivals`
    schedule, :func:`~repro.serving.loadgen.arrival_gaps`) and
    ``submit_kwargs(i)`` its submit options.  With ``step_each`` the
    cluster takes a policy-respecting step at every arrival instant
    (batches dispatch when they fill or their wait budget expires);
    ``force_each`` executes every arrival immediately instead — the
    one-request-per-step regime the affinity-vs-round-robin comparison
    uses, where no session ever has in-flight work when its next step
    routes.  The tail is drained with forced steps.  Returns the fleet
    report plus the resolved handles, in submit order.
    """
    _require_manual(cluster)
    if len(payloads) != len(gaps):
        raise ValueError(f"{len(payloads)} payloads vs {len(gaps)} arrival gaps")
    handles: list[ClusterHandle] = []
    for i, (payload, gap) in enumerate(zip(payloads, gaps)):
        if gap > 0:
            cluster.clock.advance(gap)
        kwargs = submit_kwargs(i) if submit_kwargs is not None else {}
        handles.append(cluster.submit(payload, **kwargs))
        if step_each or force_each:
            cluster.step(force=force_each)
    cluster.run_until_idle()
    return _virtual_report(cluster, handles)


def _virtual_report(cluster: ServingCluster, handles: list[ClusterHandle]) -> dict:
    metrics = cluster.metrics
    latency = metrics.latency_summary()
    wait = metrics.queue_wait_summary()
    return {
        "pattern": "virtual-open-loop",
        "requests": len(handles),
        "completed": metrics.completed,
        "failed": metrics.failed,
        "fleet_size": cluster.fleet_size,
        "throughput_rps": metrics.throughput(),
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_p95_ms": latency["p95"] * 1e3,
        "latency_p99_ms": latency["p99"] * 1e3,
        "queue_wait_p50_ms": wait["p50"] * 1e3,
        "affinity_hit_rate": metrics.affinity_hit_rate(),
        "migrations": metrics.migrations,
        "handles": handles,
    }
