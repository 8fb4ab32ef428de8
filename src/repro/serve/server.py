"""Flow-as-a-service HTTP server (stdlib only).

One :class:`ReproServer` owns three cooperating parts:

* a :class:`~repro.serve.queue.JobQueue` (persistent, coalescing),
* an :class:`Executor` — a bounded pool of in-process worker threads
  that drive the existing flow (``run_design`` / ``run_cells``) with the
  cancellation and progress hooks added for this subsystem,
* a ``ThreadingHTTPServer`` exposing the REST API:

  ====== ============================= =================================
  POST   /v1/jobs                      submit (400 invalid, 429 full,
                                       503 draining)
  GET    /v1/jobs                      list job summaries
  GET    /v1/jobs/{id}                 status + result JSON
  GET    /v1/jobs/{id}/events          progress stream (long-poll with
                                       ``since`` / ``wait`` params)
  DELETE /v1/jobs/{id}                 cancel (queued: immediate;
                                       running: next stage boundary)
  GET    /v1/healthz                   liveness + queue counters
  GET    /v1/metrics                   Prometheus exposition
  ====== ============================= =================================

**Graceful drain** (SIGTERM/SIGINT through :func:`run_server`, or
:meth:`ReproServer.drain` in-process): stop admitting (503), interrupt
running jobs at their next stage boundary, checkpoint them back to the
queue — their completed stages are in the content-addressed stage
cache, so a restarted server (same queue root) resumes them warm — then
exit 0.

Wall-clock reads here are intentional (timestamps and deadlines are a
job server's business) — the determinism linter exempts ``serve``
alongside ``obs``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from ..obs.export import prometheus_text
from ..obs.journal import tail_journal
from ..obs.metrics import Metrics
from .jobs import Job, JobSpec, derive_request_key
from .queue import JobQueue, QueueFull

DEFAULT_PORT = 8157

#: Executor threads run full flow stages in-process; synthesis recursion
#: needs more than the default thread stack (the CLI main thread gets a
#: large stack from the OS, worker threads must ask for one).
_THREAD_STACK_BYTES = 512 * 1024 * 1024

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)(/events)?$")

_MAX_BODY_BYTES = 1 << 20


def default_queue_dir() -> Path:
    """``$REPRO_QUEUE_DIR`` or ``<cache root>/serve``."""
    override = os.environ.get("REPRO_QUEUE_DIR")
    if override:
        return Path(override).expanduser()
    from ..flow.cache import default_cache_dir

    return default_cache_dir() / "serve"


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Executor threads (concurrent jobs).
    workers: int = 1
    #: Total subprocess budget shared by running ``tables`` jobs.
    flow_jobs: int = 1
    #: Admission limit on *queued* jobs (0 = reject every submission
    #: that cannot start or coalesce immediately... i.e. always 429s).
    queue_limit: int = 16
    #: Retry-After header value for 429 responses, seconds.
    retry_after: int = 2
    queue_dir: Optional[Path] = None

    def resolved_queue_dir(self) -> Path:
        return Path(self.queue_dir) if self.queue_dir else default_queue_dir()


class _Budget:
    """Counting allocator for the shared subprocess budget."""

    def __init__(self, total: int, cond: threading.Condition) -> None:
        self._free = max(0, total)
        self.cond = cond

    def acquire(self, want: int) -> int:
        """Grant up to ``want`` workers; 0 means run in this thread."""
        with self.cond:
            granted = min(max(0, want), self._free)
            self._free -= granted
            return granted

    def release(self, granted: int) -> None:
        with self.cond:
            self._free += granted


class Executor:
    """Bounded pool of job-executing threads over a :class:`JobQueue`.

    Budget and metrics updates hold the queue's Condition
    (:attr:`JobQueue.cond`), the one lock of the service.
    """

    def __init__(self, queue: JobQueue, config: ServeConfig,
                 metrics: Metrics) -> None:
        self.queue = queue
        self.config = config
        self.metrics = metrics
        self._budget = _Budget(config.flow_jobs, queue.cond)
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._threads: List[threading.Thread] = []

    def start(self) -> None:
        previous = threading.stack_size()
        try:
            threading.stack_size(_THREAD_STACK_BYTES)
        except (ValueError, RuntimeError):  # platform refuses: keep default
            pass
        try:
            for index in range(max(1, self.config.workers)):
                thread = threading.Thread(
                    target=self._loop, name=f"serve-exec-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        finally:
            try:
                threading.stack_size(previous)
            except (ValueError, RuntimeError):
                pass

    def drain(self) -> None:
        """Stop claiming, checkpoint running jobs, join all threads."""
        self._draining.set()
        self._stop.set()
        for thread in self._threads:
            thread.join()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _count(self, name: str, n: int = 1) -> None:
        with self.queue.cond:
            self.metrics.counter(name).inc(n)

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(timeout=0.2)
            if job is None:
                continue
            self._execute(job)

    # -- one job -------------------------------------------------------

    def _execute(self, job: Job) -> None:
        from ..flow.scheduler import FlowCancelled

        spec = job.spec
        self.queue.emit(job.id, "job.state", id=job.id, state="running",
                        kind=spec.kind)
        self._count("serve.jobs.started")
        deadline = (
            time.monotonic() + spec.timeout_seconds
            if spec.timeout_seconds else None
        )
        timed_out = False

        def should_stop() -> bool:
            nonlocal timed_out
            if job.cancel_requested or self._draining.is_set():
                return True
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                return True
            return False

        started = time.monotonic()
        try:
            result = self._run_spec(job, should_stop)
        except FlowCancelled as exc:
            if timed_out:
                self.queue.fail(
                    job.id,
                    f"timeout after {spec.timeout_seconds}s ({exc})",
                )
                self.queue.emit(job.id, "job.state", id=job.id,
                                state="failed", reason="timeout")
                self._count("serve.jobs.timeout")
            elif self._draining.is_set() and not job.cancel_requested:
                self.queue.requeue(job.id)
                self.queue.emit(job.id, "job.state", id=job.id,
                                state="queued", reason="drain-checkpoint")
                self._count("serve.jobs.checkpointed")
            else:
                self.queue.mark_cancelled(job.id, str(exc))
                self.queue.emit(job.id, "job.state", id=job.id,
                                state="cancelled")
                self._count("serve.jobs.cancelled")
        except Exception:
            self.queue.fail(job.id, traceback.format_exc(limit=20))
            self.queue.emit(job.id, "job.state", id=job.id, state="failed")
            self._count("serve.jobs.failed")
        else:
            self.queue.finish(job.id, result)
            self.queue.emit(job.id, "job.state", id=job.id, state="done",
                            seconds=round(time.monotonic() - started, 6))
            self._count("serve.jobs.done")
            with self.queue.cond:
                self.metrics.histogram("serve.job.seconds").observe(
                    time.monotonic() - started
                )

    def _run_spec(
        self, job: Job, should_stop: Callable[[], bool]
    ) -> Dict[str, Any]:
        from ..flow.experiments import (
            ARCHES, DESIGNS, Matrix, build_design, run_table1, run_table2,
        )
        from ..flow.flow import run_design
        from ..flow.parallel import run_cells

        spec = job.spec

        def progress(stage: str, cached: bool, seconds: float) -> None:
            self.queue.emit(
                job.id, "job.stage", id=job.id, stage=stage,
                cached=cached, seconds=round(seconds, 6),
            )

        if spec.kind in ("flow", "check"):
            if spec.design is None:  # unreachable past admission
                raise ValueError(f"kind {spec.kind!r} requires a design")
            options = spec.flow_options()
            netlist = build_design(spec.design, spec.scale)
            run = run_design(
                netlist, spec.arch, options,
                cancel=should_stop, progress=progress,
            )
            result: Dict[str, Any] = {"metrics": run.metrics()}
            if spec.kind == "check":
                from ..check import check_design_run

                report = check_design_run(run)
                result["check"] = report.to_json()
            return result

        # tables: the full evaluation matrix as one job.  The shared
        # subprocess budget decides the fan-out; an exhausted budget
        # runs the stage DAG in this process (jobs=1, still cancellable
        # before every stage), never a queue stall.
        cells = [(d, a) for d in DESIGNS for a in ARCHES]
        granted = self._budget.acquire(self.config.flow_jobs)
        try:
            runs = run_cells(
                cells, spec.scale, spec.flow_options(),
                jobs=max(1, granted), cancel=should_stop,
            )
        finally:
            self._budget.release(granted)
        matrix = Matrix(runs=runs)
        return {
            "metrics": {
                f"{design}/{arch}": run.metrics()
                for (design, arch), run in runs.items()
            },
            "table1": run_table1(matrix).format(),
            "table2": run_table2(matrix).format(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes /v1/* onto the owning :class:`ReproServer`."""

    protocol_version = "HTTP/1.1"
    server: "_HTTPServer"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        self.server.repro.log(f"{self.address_string()} {format % args}")

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(
            payload, indent=2, sort_keys=True, default=str
        ).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(status, {"error": message}, headers)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            self._error(400, "Content-Length must be a non-negative "
                             "integer")
            return None
        if length > _MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = urlsplit(self.path)
        repro = self.server.repro
        if parts.path == "/v1/healthz":
            self._send_json(200, repro.health())
            return
        if parts.path == "/v1/metrics":
            self._send_text(200, repro.metrics_text())
            return
        if parts.path == "/v1/jobs":
            jobs = [j.to_dict(with_result=False) for j in repro.queue.jobs()]
            self._send_json(200, {"jobs": jobs})
            return
        match = _JOB_PATH.match(parts.path)
        if match:
            job = repro.queue.get(match.group(1))
            if job is None:
                self._error(404, f"no such job {match.group(1)!r}")
                return
            if match.group(2):  # /events
                query = parse_qs(parts.query)
                try:
                    since = int(query.get("since", ["0"])[0])
                    wait = min(30.0, float(query.get("wait", ["0"])[0]))
                except ValueError:
                    since = -1
                if since < 0:
                    self._error(400, "since must be a non-negative integer "
                                     "offset and wait a number of seconds")
                    return
                self._send_json(200, repro.events(job, since, wait))
                return
            self._send_json(200, job.to_dict())
            return
        self._error(404, f"no route for GET {parts.path}")

    def do_POST(self) -> None:  # noqa: N802
        parts = urlsplit(self.path)
        repro = self.server.repro
        if parts.path != "/v1/jobs":
            self._error(404, f"no route for POST {parts.path}")
            return
        if repro.draining:
            self._error(503, "server is draining; resubmit after restart")
            return
        payload = self._read_body()
        if payload is None:
            return
        try:
            spec = JobSpec.from_payload(payload)
            key = derive_request_key(spec)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        try:
            job = repro.queue.submit(spec, key)
        except QueueFull as exc:
            repro.count("serve.jobs.rejected")
            self._error(
                429, str(exc),
                headers={"Retry-After": str(repro.config.retry_after)},
            )
            return
        repro.count("serve.jobs.submitted")
        if job.coalesced_into:
            repro.count("serve.jobs.coalesced")
        self._send_json(201, {
            "id": job.id,
            "key": job.key,
            "state": job.state,
            "coalesced_into": job.coalesced_into,
        })

    def do_DELETE(self) -> None:  # noqa: N802
        parts = urlsplit(self.path)
        repro = self.server.repro
        match = _JOB_PATH.match(parts.path)
        if not match or match.group(2):
            self._error(404, f"no route for DELETE {parts.path}")
            return
        state = repro.queue.cancel(match.group(1))
        if state is None:
            self._error(404, f"no such job {match.group(1)!r}")
            return
        repro.count("serve.jobs.cancel_requests")
        self._send_json(200, {"id": match.group(1), "state": state})


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro: "ReproServer"


class ReproServer:
    """The assembled service: queue + executor + HTTP front end."""

    def __init__(self, config: ServeConfig,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.config = config
        self.queue = JobQueue(
            config.resolved_queue_dir(), limit=config.queue_limit
        )
        self.metrics = Metrics()
        self.executor = Executor(self.queue, config, self.metrics)
        self._log = log or (lambda message: None)
        self._started_at = time.time()
        self._drained = threading.Event()
        self.httpd = _HTTPServer((config.host, config.port), _Handler)
        self.httpd.repro = self

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        return int(self.httpd.server_address[1])

    @property
    def draining(self) -> bool:
        return self.executor.draining

    def start(self) -> None:
        """Start executor threads and the HTTP accept thread."""
        self.executor.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http", daemon=True
        )
        self._http_thread.start()

    def serve_forever(self) -> None:
        """Run the HTTP loop on the calling thread (CLI path)."""
        self.executor.start()
        try:
            self.httpd.serve_forever()
        finally:
            self.httpd.server_close()

    def drain(self) -> None:
        """Stop admitting, checkpoint running jobs, stop the HTTP loop."""
        if self._drained.is_set():
            return
        self.log("drain requested: refusing new jobs")
        self.executor.drain()
        counts = self.queue.counts()
        self.log(f"drain complete: {counts}")
        self.httpd.shutdown()
        self._drained.set()

    def close(self) -> None:
        """In-process shutdown (tests): drain and release the socket."""
        self.drain()
        self.httpd.server_close()

    def log(self, message: str) -> None:
        self._log(message)

    # -- handler support -----------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self.queue.cond:
            self.metrics.counter(name).inc(n)

    def health(self) -> Dict[str, Any]:
        counts = self.queue.counts()
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "queued": self.queue.depth(),
            "running": self.queue.running(),
            "jobs": counts,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
        }

    def metrics_text(self) -> str:
        # depth() and running() re-enter the (RLock-backed) Condition.
        with self.queue.cond:
            self.metrics.gauge("serve.queue.depth").set(self.queue.depth())
            self.metrics.gauge("serve.jobs.running").set(
                self.queue.running()
            )
            self.metrics.gauge("serve.uptime.seconds").set(
                time.time() - self._started_at
            )
            events = self.metrics.snapshot_events(os.getpid(), time.time())
        return prometheus_text(events) + "\n"

    def events(self, job: Job, since: int, wait: float) -> Dict[str, Any]:
        """Tail a job's progress stream, long-polling up to ``wait``."""
        path = self.queue.events_path(job.id)
        deadline = time.monotonic() + max(0.0, wait)
        while True:
            events, offset = tail_journal(path, since)
            current = self.queue.get(job.id)
            state = current.state if current else job.state
            remaining = deadline - time.monotonic()
            if events or remaining <= 0 or (
                current is not None and current.terminal
            ):
                return {
                    "id": job.id,
                    "state": state,
                    "events": events,
                    "next_offset": offset,
                }
            self.queue.wait_for_change(
                lambda: self.queue.events_path(job.id).stat().st_size > since
                if self.queue.events_path(job.id).exists() else False,
                timeout=min(0.25, remaining),
            )


def run_server(
    config: ServeConfig, log: Callable[[str], None]
) -> int:
    """CLI entry: serve until SIGTERM/SIGINT, drain gracefully, exit 0.

    Prints the listening address through ``log`` first, so wrappers
    (tests, CI, scripts) can discover an ephemeral ``--port 0``.
    """
    server = ReproServer(config, log=log)

    def handle(signum: int, _frame: Any) -> None:
        log(f"signal {signal.Signals(signum).name}: draining")
        threading.Thread(target=server.drain, daemon=True).start()

    # Handlers go in before the listening line: a wrapper that signals
    # the instant it sees the port must already get the graceful path.
    previous: Dict[int, Any] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, handle)
    log(
        f"repro-serve listening on http://{config.host}:{server.port} "
        f"(queue: {server.queue.root}, workers: {config.workers}, "
        f"queue-limit: {config.queue_limit})"
    )
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    log("repro-serve exited cleanly")
    return 0
