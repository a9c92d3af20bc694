"""Stdlib-only threaded HTTP front end for the job queue.

API
---
* ``POST /jobs`` -- submit ``{"experiment", "scale", "params",
  "run_config"}``; returns the content-derived job id (identical
  submissions dedup to the same id).  400 with ``{"error": ...}`` on
  invalid payloads or a malformed ``Content-Length``; 413 on a body over
  :data:`MAX_REQUEST_BYTES`.
* ``GET /jobs`` -- all job records.
* ``GET /jobs/<id>`` -- one record plus live progress (finished trials and
  in-flight checkpoints from the job's checkpoint directory).  404 on
  unknown ids.
* ``GET /jobs/<id>/artifact`` -- the cached ``ExperimentResult`` JSON,
  byte-identical to a direct ``repro run`` of the same payload (modulo the
  zeroed ``wall_time``).  409 while the job is not done.
* ``GET /healthz`` -- liveness plus version, uptime, queue depths, and
  jobs-served counters.
* ``GET /metrics`` -- the telemetry registry in Prometheus text format
  (queue-depth and stale-running gauges refreshed at scrape time).

Telemetry is always on while the server runs: :meth:`ReproServer.start`
enables the metrics registry and installs an append-mode trace writer at
``<queue>/trace.jsonl`` (restored on :meth:`ReproServer.stop`), so worker
claims, jobs, and trials stream into one correlated JSONL log that
``repro trace`` can summarize.

The server owns a :class:`~repro.serve.queue.JobQueue`, an
:class:`~repro.serve.cache.ArtifactCache` under ``<queue>/artifacts``, and
an in-process pool of worker threads; the HTTP layer is a stock
``ThreadingHTTPServer`` so everything runs on the standard library.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib import request as urllib_request
from urllib.error import HTTPError

from repro.serve.cache import ArtifactCache
from repro.serve.queue import JobQueue, UnknownJobError
from repro.serve.worker import TrialMemo, Worker, estimate_total_trials
from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing

#: Largest ``POST /jobs`` body read (1 MiB); a larger ``Content-Length`` gets
#: 413 before any of the body is read.  Job payloads are a few hundred bytes.
MAX_REQUEST_BYTES = 1 << 20


class ReproServer:
    """The queue + cache + worker pool behind one HTTP listener."""

    def __init__(
        self,
        queue_root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 1,
        max_retries: int = 3,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.queue = JobQueue(queue_root, max_retries=max_retries)
        self.cache = ArtifactCache(Path(queue_root) / "artifacts")
        self._stop = threading.Event()
        self._threads = []
        self.workers = [
            Worker(self.queue, self.cache, name=f"worker-{index}")
            for index in range(workers)
        ]
        self.started_at = time.time()
        self.tracer: Optional[_tracing.TraceWriter] = None
        self._previous_tracer: Optional[_tracing.TraceWriter] = None
        self._metrics_were_enabled = False
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # no per-request stderr noise
                pass

            def _send_json(self, status: int, payload: Dict) -> None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_bytes(self, status: int, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self) -> None:
                _metrics.record_http_request("jobs")
                if self.path.rstrip("/") != "/jobs":
                    self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
                    return
                header = (self.headers.get("Content-Length") or "0").strip()
                length = int(header) if header.isascii() and header.isdigit() else -1
                if length < 0:
                    self._send_json(400, {"error": f"invalid Content-Length {header!r}"})
                    return
                if length > MAX_REQUEST_BYTES:
                    limit = f"over the {MAX_REQUEST_BYTES}-byte limit"
                    self._send_json(413, {"error": f"request body of {length} bytes is {limit}"})
                    return
                try:
                    payload = json.loads(self.rfile.read(length) or b"{}")
                except json.JSONDecodeError as error:
                    self._send_json(400, {"error": f"request body is not JSON: {error}"})
                    return
                try:
                    record = server.queue.submit(payload)
                except ValueError as error:
                    self._send_json(400, {"error": str(error)})
                    return
                self._send_json(
                    200,
                    {
                        "job_id": record.job_id,
                        "digest": record.digest,
                        "state": record.state,
                        "cached": server.cache.has(record.digest),
                    },
                )

            def do_GET(self) -> None:
                parts = [part for part in self.path.split("/") if part]
                _metrics.record_http_request(parts[0] if parts else "/")
                if parts == ["healthz"]:
                    from repro import __version__

                    depths = server.queue.depths()
                    self._send_json(
                        200,
                        {
                            "ok": True,
                            "version": __version__,
                            "uptime_seconds": round(time.time() - server.started_at, 3),
                            "queue": depths,
                            "jobs_served": {
                                "simulated": sum(
                                    worker.simulations_run for worker in server.workers
                                ),
                                "cache_hits": sum(
                                    worker.cache_hits for worker in server.workers
                                ),
                                "done": depths.get("done", 0),
                                "failed": depths.get("failed", 0),
                            },
                        },
                    )
                    return
                if parts == ["metrics"]:
                    body = server.render_metrics().encode("utf-8")
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                if parts == ["jobs"]:
                    self._send_json(
                        200,
                        {
                            "jobs": [record.to_dict() for record in server.queue.list_jobs()],
                            "depths": server.queue.depths(),
                            "stale": server.queue.stale_running(),
                        },
                    )
                    return
                if len(parts) >= 2 and parts[0] == "jobs":
                    try:
                        record = server.queue.get(parts[1])
                    except UnknownJobError as error:
                        self._send_json(404, {"error": str(error)})
                        return
                    if len(parts) == 2:
                        status = record.to_dict()
                        progress = TrialMemo(
                            server.queue.checkpoint_dir(record.job_id)
                        ).progress()
                        if record.state == "running" and record.started_at is not None:
                            progress.update(
                                _throughput_eta(
                                    record, progress["trials_done"], time.time()
                                )
                            )
                        status["progress"] = progress
                        self._send_json(200, status)
                        return
                    if parts[2] == "artifact" and len(parts) == 3:
                        if record.state != "done":
                            self._send_json(
                                409,
                                {
                                    "error": f"job {record.job_id} is "
                                    f"{record.state}, not done",
                                    "state": record.state,
                                },
                            )
                            return
                        try:
                            body = server.cache.get_bytes(record.digest)
                        except KeyError as error:
                            self._send_json(500, {"error": str(error)})
                            return
                        self._send_bytes(200, body)
                        return
                self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

        self.http = ThreadingHTTPServer((host, port), Handler)

    @property
    def host(self) -> str:
        return self.http.server_address[0]

    @property
    def port(self) -> int:
        return self.http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def render_metrics(self) -> str:
        """The registry as Prometheus text, with live gauges refreshed."""
        registry = _metrics.registry()
        for state, depth in self.queue.depths().items():
            _metrics.set_queue_depth(state, depth)
        if _metrics.enabled():
            registry.gauge(
                "repro_queue_stale_running",
                "Running jobs whose worker pid is dead (probe, not requeue).",
            ).set(len(self.queue.stale_running()))
            registry.gauge(
                "repro_server_uptime_seconds", "Seconds since the server started."
            ).set(time.time() - self.started_at)
        return registry.render_prometheus()

    def start(self) -> None:
        """Start the worker pool and the HTTP listener (all daemon threads).

        Telemetry is always on for a serving process: the metrics registry
        is enabled and an append-mode tracer is installed at
        ``<queue>/trace.jsonl``; both are restored by :meth:`stop` so
        embedding callers (tests) never leak global state.
        """
        self._metrics_were_enabled = _metrics.enabled()
        # /metrics reports this server's lifetime: drop whatever a previous
        # in-process server (or an instrumented run) left in the global
        # registry, then enable collection.
        _metrics.reset_registry()
        _metrics.enable()
        self.tracer = _tracing.TraceWriter(self.queue.root / "trace.jsonl", append=True)
        self._previous_tracer = _tracing.set_tracer(self.tracer)
        self.started_at = time.time()
        for index, worker in enumerate(self.workers):
            thread = threading.Thread(
                target=worker.run_forever,
                args=(self._stop,),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        http_thread = threading.Thread(
            target=self.http.serve_forever, name="repro-http", daemon=True
        )
        http_thread.start()
        self._threads.append(http_thread)

    def stop(self) -> None:
        self._stop.set()
        self.http.shutdown()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        self.http.server_close()
        if self.tracer is not None:
            _tracing.set_tracer(self._previous_tracer)
            self.tracer.close()
            self.tracer = None
        if not self._metrics_were_enabled:
            _metrics.disable()

    def serve_forever(self, already_started: bool = False) -> None:
        """Foreground mode for ``repro serve`` (Ctrl-C stops cleanly)."""
        if not already_started:
            self.start()
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()


def _throughput_eta(record, trials_done: int, now: float) -> Dict:
    """ETA fields for a running job from its finished-trial throughput.

    ``estimated_total_trials`` and ``eta_seconds`` are best-effort (``None``
    when the payload's parameters don't expose a trial count or no trial
    has finished yet); ``elapsed_seconds`` and ``trials_per_second`` are
    always present so clients can do their own arithmetic.
    """
    elapsed = max(now - record.started_at, 1e-9)
    rate = trials_done / elapsed
    total = estimate_total_trials(record.payload)
    eta = None
    if total is not None and rate > 0.0:
        eta = round(max(total - trials_done, 0) / rate, 3)
    return {
        "elapsed_seconds": round(elapsed, 3),
        "trials_per_second": round(rate, 3),
        "estimated_total_trials": total,
        "eta_seconds": eta,
    }


def http_json(
    method: str, url: str, payload: Optional[Dict] = None, timeout: float = 30.0
) -> Tuple[int, object]:
    """Tiny JSON-over-HTTP client: ``(status, parsed body or raw text)``.

    HTTP error statuses are returned, not raised (their JSON bodies carry
    the server's ``error`` message); transport failures (connection
    refused, DNS) still raise ``urllib.error.URLError`` for the caller.
    """
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib_request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib_request.urlopen(request, timeout=timeout) as response:
            status, body = response.status, response.read()
    except HTTPError as error:
        status, body = error.code, error.read()
    try:
        return status, json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return status, body.decode("utf-8", errors="replace")


def http_get_bytes(url: str, timeout: float = 30.0) -> Tuple[int, bytes]:
    """GET ``url`` returning ``(status, raw bytes)`` -- for artifact fetches.

    Artifacts are compared and persisted byte-for-byte, so the client must
    not round-trip them through a JSON parse.  HTTP error statuses are
    returned with their body bytes; transport failures raise ``URLError``.
    """
    try:
        with urllib_request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except HTTPError as error:
        return error.code, error.read()


__all__ = ["MAX_REQUEST_BYTES", "ReproServer", "http_get_bytes", "http_json"]
