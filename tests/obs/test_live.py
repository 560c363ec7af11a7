"""Tests for the fleet dashboard renderer and metrics exposition."""

from repro.cluster import ClusterConfig, ServingCluster
from repro.obs import (
    FleetTop,
    MetricsExposition,
    MetricsRegistry,
    render_fleet_table,
)
from repro.obs.live import ANSI_HOME, fetch_once, serve_metrics_once, threaded_fetch
from repro.serving import EngineConfig, SimulatedClock


def fleet_snapshot():
    return {
        "fleet_size": 2,
        "replicas": {
            "0": {
                "state": "healthy",
                "dispatched": 7,
                "outstanding": 1,
                "busy_until": 2.5e-3,
            },
            "1": {
                "state": "failed",
                "dispatched": 3,
                "outstanding": 0,
                "busy_until": 0.0,
            },
        },
        "completed": 9,
        "failed": 1,
        "failovers": 1,
        "latency_s": {"p95": 4e-3},
        "queue_wait_s": {"p95": 1e-3},
        "throughput_rps": 1200.0,
    }


def slo_rows(firing=False):
    return [
        {
            "objective": "p95-latency",
            "firing": firing,
            "windows": {
                "fast": {
                    "burn_long": 15.0 if firing else 0.0,
                    "burn_short": 15.0 if firing else 0.0,
                    "max_burn": 14.4,
                    "firing": firing,
                }
            },
        }
    ]


class TestRenderFleetTable:
    def test_pure_and_deterministic(self):
        first = render_fleet_table(fleet_snapshot(), now=1.5e-3)
        second = render_fleet_table(fleet_snapshot(), now=1.5e-3)
        assert first == second

    def test_contents(self):
        frame = render_fleet_table(
            fleet_snapshot(), now=1.5e-3, slo_status=slo_rows(), color=False
        )
        assert "fleet of 2" in frame
        assert "(t=1.500 ms)" in frame
        assert "healthy" in frame and "failed" in frame
        assert "9 done, 1 failed, 1 failovers" in frame
        assert "p95 4.000 ms" in frame
        assert "1200 rps" in frame
        assert "slo: [ok] p95-latency" in frame

    def test_firing_badge(self):
        frame = render_fleet_table(
            fleet_snapshot(), slo_status=slo_rows(firing=True), color=False
        )
        assert "[FIRING] p95-latency" in frame
        assert "fast 15.0/14.4" in frame

    def test_color_off_emits_no_ansi(self):
        frame = render_fleet_table(
            fleet_snapshot(), slo_status=slo_rows(True), color=False
        )
        assert "\x1b[" not in frame

    def test_color_on_paints_states(self):
        frame = render_fleet_table(fleet_snapshot(), color=True)
        assert "\x1b[32m" in frame  # healthy green
        assert "\x1b[31m" in frame  # failed red

    def test_empty_snapshot_renders(self):
        frame = render_fleet_table({}, color=False)
        assert "fleet of 0" in frame


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


class TestFleetTop:
    def test_frames_over_a_live_cluster(self):
        clock = SimulatedClock()
        cluster = ServingCluster(
            lambda rid: EchoServable(),
            config=ClusterConfig(
                replicas=2,
                engine=EngineConfig(max_wait_us=0.0),
            ),
            clock=clock,
        )
        with cluster:
            top = FleetTop(cluster, color=False)
            idle = top.frame()
            for x in range(4):
                cluster.submit(x)
            cluster.run_until_idle()
            busy = top.frame()
        assert top.frames_rendered == 2
        assert "fleet of 2" in idle
        assert "4 done" in busy
        assert "\x1b[" not in idle + busy
        assert ANSI_HOME.startswith("\x1b[")  # the loop prefix is separate


class TestMetricsExposition:
    def test_round_trip_one_scrape(self):
        registry = MetricsRegistry()
        registry.counter("scrapes_total", help="demo").inc(3)
        exposition = MetricsExposition(registry.to_prometheus, port=0)
        assert exposition.url.startswith("http://127.0.0.1:")
        thread = threaded_fetch(exposition.url)
        served = exposition.serve_once(timeout=10.0)
        thread.join(timeout=10.0)
        assert served is not None
        assert "scrapes_total 3" in served

    def test_body_matches_what_a_client_reads(self):
        exposition = MetricsExposition(lambda: "line 1\n", port=0)
        bodies = []
        import threading

        thread = threading.Thread(
            target=lambda: bodies.append(fetch_once(exposition.url)),
            daemon=True,
        )
        thread.start()
        served = exposition.serve_once(timeout=10.0)
        thread.join(timeout=10.0)
        assert bodies == [served] == ["line 1\n"]

    def test_timeout_returns_none(self):
        exposition = MetricsExposition(lambda: "never\n", port=0)
        assert exposition.serve_once(timeout=0.05) is None

    def test_serve_metrics_once_announces_url(self):
        urls = []
        registry = MetricsRegistry()
        registry.gauge("fleet_size").set(3)

        import threading

        result = {}

        def serve():
            result["text"] = serve_metrics_once(
                registry.to_prometheus,
                announce=urls.append,
                timeout=10.0,
            )

        # announce fires before serving blocks, but the bind happens
        # inside serve_metrics_once — poll for the URL from the fetcher.
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        for _ in range(1000):
            if urls:
                break
            import time

            time.sleep(0.005)
        assert urls and urls[0].endswith("/metrics")
        fetcher = threaded_fetch(urls[0])
        thread.join(timeout=10.0)
        fetcher.join(timeout=10.0)
        assert "fleet_size 3" in result["text"]
