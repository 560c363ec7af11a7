"""Live fleet surfaces: the ``repro top`` table and metrics exposition.

Two ways to watch a running fleet:

* :func:`render_fleet_table` / :class:`FleetTop` — an ANSI terminal
  table rendered from :meth:`ServingCluster.snapshot` dicts (replica
  states, dispatch/outstanding counts, latency percentiles, SLO alert
  status).  The renderer is a pure function of the snapshot, so under a
  :class:`~repro.serving.clock.SimulatedClock` every frame is
  byte-deterministic and testable frame-by-frame — the ``repro top``
  CLI verb just loops it.
* :class:`MetricsExposition` — one-shot Prometheus text exposition over
  HTTP (stdlib ``http.server``, ephemeral port, exactly one request),
  behind ``repro metrics --port``.  No server dependency enters the
  repo, and ``http.server`` itself loads only when the first exposition
  is built; scrape-shaped output comes straight from
  :meth:`MetricsRegistry.to_prometheus`.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["FleetTop", "MetricsExposition", "render_fleet_table"]

#: ANSI styles keyed by replica state (reset with _RESET).
_STATE_COLORS = {
    "healthy": "\x1b[32m",   # green
    "draining": "\x1b[33m",  # yellow
    "failed": "\x1b[31m",    # red
    "stopped": "\x1b[2m",    # dim
}
_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"

#: Clear screen + home — the frame prefix of a live ``repro top`` loop.
ANSI_HOME = "\x1b[H\x1b[2J"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color and code else text


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}"


def render_fleet_table(
    snapshot: dict,
    *,
    now: float | None = None,
    slo_status: list[dict] | None = None,
    color: bool = True,
    title: str = "repro top",
) -> str:
    """One fleet-dashboard frame from a cluster snapshot dict.

    Pure: equal inputs render equal bytes.  ``slo_status`` takes
    :meth:`SLOMonitor.status` rows; ``now`` stamps the header with the
    (virtual or wall) clock reading.
    """
    lines = []
    header = f"{title} — fleet of {snapshot.get('fleet_size', 0)}"
    if now is not None:
        header += f" (t={now * 1e3:.3f} ms)"
    lines.append(_paint(header, _BOLD, color))
    lines.append(
        f"{'REPLICA':>7}  {'STATE':<8}  {'DISPATCHED':>10}  "
        f"{'OUTSTANDING':>11}  {'BUSY_UNTIL_MS':>13}"
    )
    for rid, row in sorted(
        snapshot.get("replicas", {}).items(), key=lambda item: int(item[0])
    ):
        state = row["state"]
        lines.append(
            f"{rid:>7}  "
            + _paint(f"{state:<8}", _STATE_COLORS.get(state, ""), color)
            + f"  {row['dispatched']:>10}  {row['outstanding']:>11}"
            + f"  {_ms(row['busy_until']):>13}"
        )
    latency = snapshot.get("latency_s", {})
    queue_wait = snapshot.get("queue_wait_s", {})
    lines.append(
        f"fleet: {snapshot.get('completed', 0)} done, "
        f"{snapshot.get('failed', 0)} failed, "
        f"{snapshot.get('failovers', 0)} failovers | "
        f"p95 {latency.get('p95', 0.0) * 1e3:.3f} ms | "
        f"queue p95 {queue_wait.get('p95', 0.0) * 1e3:.3f} ms | "
        f"{snapshot.get('throughput_rps', 0.0):.0f} rps"
    )
    for row in slo_status or []:
        firing = row["firing"]
        badge = _paint(
            "[FIRING]" if firing else "[ok]",
            _STATE_COLORS["failed"] if firing else _STATE_COLORS["healthy"],
            color,
        )
        burns = ", ".join(
            f"{label} {w['burn_long']:.1f}/{w['max_burn']:g}"
            for label, w in sorted(row["windows"].items())
        )
        lines.append(f"slo: {badge} {row['objective']} ({burns})")
    return "\n".join(lines) + "\n"


class FleetTop:
    """Frame source over a live cluster (+ optional SLO monitor).

    ``frame()`` snapshots the cluster and renders one table; the CLI
    loops it with :data:`ANSI_HOME` between frames.  Frames taken at
    equal virtual instants of equal workloads are byte-identical.
    """

    def __init__(self, cluster, *, monitor=None, color: bool = True) -> None:
        self.cluster = cluster
        self.monitor = monitor
        self.color = color
        self.frames_rendered = 0

    def frame(self) -> str:
        self.frames_rendered += 1
        return render_fleet_table(
            self.cluster.snapshot(),
            now=self.cluster.clock.now(),
            slo_status=self.monitor.status() if self.monitor else None,
            color=self.color,
        )


class MetricsExposition:
    """One-shot Prometheus HTTP exposition of a text producer.

    Binds immediately (``port=0`` picks an ephemeral port, readable via
    :attr:`port` before serving), then :meth:`serve_once` handles
    exactly one HTTP request and returns the text it served.  Enough
    for ``curl``/a scrape smoke test without a long-lived server.
    """

    def __init__(
        self,
        produce_text: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # Imported here, not at module import: only an exposition needs it.
        from http.server import BaseHTTPRequestHandler, HTTPServer

        exposition = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                exposition._served_text = produce_text()
                body = exposition._served_text.encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:  # noqa: A002
                pass  # keep scrapes off stderr

        self._served_text: str | None = None
        self._server = HTTPServer((host, port), Handler)

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def serve_once(self, timeout: float | None = 10.0) -> str | None:
        """Block for one request (bounded by ``timeout``); the text served."""
        self._server.timeout = timeout
        try:
            self._server.handle_request()
        finally:
            self._server.server_close()
        return self._served_text

    def close(self) -> None:
        self._server.server_close()


def serve_metrics_once(
    produce_text: Callable[[], str],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Callable[[str], None] | None = None,
    timeout: float | None = 10.0,
) -> str | None:
    """Convenience wrapper: bind, announce the URL, serve one request."""
    exposition = MetricsExposition(produce_text, host=host, port=port)
    if announce is not None:
        announce(exposition.url)
    return exposition.serve_once(timeout=timeout)


def fetch_once(url: str, timeout: float = 10.0) -> str:
    """GET ``url`` and return its body (stdlib urllib; test helper)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def threaded_fetch(url: str, timeout: float = 10.0) -> "threading.Thread":
    """Fire a background GET (used to drive :meth:`serve_once` in-process)."""
    thread = threading.Thread(
        target=fetch_once, args=(url, timeout), daemon=True
    )
    thread.start()
    return thread
