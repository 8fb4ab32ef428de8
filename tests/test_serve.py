"""Tests for the flow-as-a-service subsystem (``repro.serve``).

Covered contracts:

* **Spec validation** — malformed submissions are rejected with clear
  errors at admission (HTTP 400), never enqueued.
* **Request keys** — coalescing identity follows the stage-cache key
  chain: perf knobs never change it, every semantic knob does.
* **Queue** — priority ordering, admission limit, persistence/replay
  (running jobs resume as queued), coalescing, cancellation.
* **End-to-end HTTP** — a served job's metrics are byte-identical to a
  direct ``run_design`` (the acceptance criterion), two identical
  submissions share one execution, 429 + Retry-After under admission
  pressure, DELETE cancels a running job at a stage boundary, drain
  checkpoints and a restarted server resumes warm, and SIGTERM makes
  the CLI daemon exit 0.

Jobs here run a tiny ALU (scale 0.15, minimal effort): ~1 s cold.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.flow.cache import StageCache
from repro.flow.experiments import build_design
from repro.flow.flow import request_key, run_design
from repro.flow.options import FlowOptions
from repro.serve import (
    JobQueue,
    JobSpec,
    QueueFull,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    derive_request_key,
)

SCALE = 0.15
FAST_OPTIONS = {
    "seed": 11, "place_effort": 0.05, "place_iterations": 1,
    "pack_iterations": 1,
}


def fast_payload(**overrides):
    payload = {
        "kind": "flow", "design": "alu", "arch": "granular",
        "scale": SCALE, "options": dict(FAST_OPTIONS),
    }
    payload.update(overrides)
    return payload


def fast_spec(**overrides) -> JobSpec:
    return JobSpec.from_payload(fast_payload(**overrides))


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_roundtrip(self):
        spec = fast_spec(priority="high", timeout_seconds=5)
        again = JobSpec.from_payload(spec.to_dict())
        assert again == spec

    @pytest.mark.parametrize("payload, match", [
        ({"kind": "nope"}, "unknown kind"),
        ({"design": "alu", "frobnicate": 1}, "unknown field"),
        ({"design": "nonesuch"}, "unknown design"),
        ({"kind": "tables", "design": "alu"}, "drop 'design'"),
        ({"design": "alu", "arch": "asic"}, "unknown arch"),
        ({"design": "alu", "scale": 99}, "out of range"),
        ({"design": "alu", "scale": "big"}, "must be a number"),
        ({"design": "alu", "options": {"jobs": 4}}, "unsubmittable"),
        ({"design": "alu", "options": {"use_cache": False}},
         "unsubmittable"),
        ({"design": "alu", "priority": "urgent"}, "unknown priority"),
        ({"design": "alu", "timeout_seconds": -1}, "positive"),
        ([1, 2], "JSON object"),
        ({"design": "alu", "options": {"place_effort": float("nan")}},
         "finite number > 0"),
        ({"design": "alu", "options": {"place_effort": float("1e999")}},
         "finite number > 0"),
        ({"design": "alu", "options": {"place_effort": "high"}},
         "finite number > 0"),
        ({"design": "alu", "options": {"place_effort": -3}},
         "finite number > 0"),
    ])
    def test_rejects(self, payload, match):
        with pytest.raises(ValueError, match=match):
            JobSpec.from_payload(payload)

    def test_flow_options_round_trip(self):
        options = fast_spec().flow_options()
        assert options.seed == 11
        assert options.place_effort == 0.05
        assert options.arch == "granular"

    def test_flow_options_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown flow option"):
            FlowOptions.from_dict({"plase_effort": 0.2})

    def test_flow_options_to_dict_round_trips(self):
        options = FlowOptions(seed=3, place_effort=0.4, jobs=2)
        assert FlowOptions.from_dict(options.to_dict()) == options


class TestRequestKey:
    def test_perf_knobs_do_not_change_key(self):
        base = fast_spec()
        assert derive_request_key(base) == derive_request_key(fast_spec())
        # jobs/use_cache/observe are not even submittable —
        # the stage-key chain is what guarantees they stay excluded.
        cache = StageCache(enabled=False)
        from repro.flow.experiments import build_design

        netlist = build_design("alu", SCALE)
        options = base.flow_options()
        noisy = replace(options, jobs=8, use_cache=False, observe=True)
        assert request_key(cache, netlist, options) == \
            request_key(cache, netlist, noisy)

    @pytest.mark.parametrize("change", [
        {"options": {**FAST_OPTIONS, "seed": 12}},
        {"arch": "lut"},
        # 0.5 changes the built netlist; tiny scale deltas that clamp
        # to the same design correctly keep the same key.
        {"scale": 0.5},
        {"kind": "check"},
    ])
    def test_semantic_knobs_change_key(self, change):
        assert derive_request_key(fast_spec(**change)) != \
            derive_request_key(fast_spec())

    def test_tables_key_is_kind_scoped(self):
        tables = JobSpec.from_payload(
            {"kind": "tables", "scale": SCALE, "options": FAST_OPTIONS}
        )
        assert derive_request_key(tables) != derive_request_key(fast_spec())


# ----------------------------------------------------------------------
# Queue semantics (no HTTP, no flow execution)
# ----------------------------------------------------------------------

class TestJobQueue:
    def test_priority_order(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        low = queue.submit(fast_spec(priority="low"), "key-low")
        normal = queue.submit(fast_spec(priority="normal"), "key-norm")
        high = queue.submit(fast_spec(priority="high"), "key-high")
        order = [queue.claim(timeout=0).id for _ in range(3)]
        assert order == [high.id, normal.id, low.id]

    def test_fifo_within_priority(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        first = queue.submit(fast_spec(), "key-a")
        second = queue.submit(fast_spec(), "key-b")
        assert queue.claim(timeout=0).id == first.id
        assert queue.claim(timeout=0).id == second.id

    def test_admission_limit(self, tmp_path):
        queue = JobQueue(tmp_path, limit=1)
        queue.submit(fast_spec(), "key-a")
        with pytest.raises(QueueFull, match="limit 1"):
            queue.submit(fast_spec(), "key-b")
        # An identical request still coalesces: it takes no queue slot.
        attached = queue.submit(fast_spec(), "key-a")
        assert attached.coalesced_into is not None

    def test_coalescing_and_result_propagation(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        primary = queue.submit(fast_spec(), "key-x")
        twin = queue.submit(fast_spec(), "key-x")
        assert twin.coalesced_into == primary.id
        claimed = queue.claim(timeout=0)
        assert claimed.id == primary.id
        assert queue.get(twin.id).state == "running"
        queue.finish(primary.id, {"answer": 42})
        assert queue.get(twin.id).state == "done"
        assert queue.get(twin.id).result == {"answer": 42}
        # After the primary finished, the same key runs fresh again.
        fresh = queue.submit(fast_spec(), "key-x")
        assert fresh.coalesced_into is None

    def test_cancel_queued_and_attached(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        primary = queue.submit(fast_spec(), "key-y")
        twin = queue.submit(fast_spec(), "key-y")
        assert queue.cancel(twin.id) == "cancelled"
        queue.claim(timeout=0)
        queue.finish(primary.id, {"answer": 1})
        # The individually cancelled twin never receives the result.
        assert queue.get(twin.id).state == "cancelled"
        assert queue.get(twin.id).result is None

    def test_cancel_running_sets_flag(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        job = queue.submit(fast_spec(), "key-z")
        queue.claim(timeout=0)
        assert queue.cancel(job.id) == "cancelling"
        assert queue.get(job.id).cancel_requested
        assert queue.cancel("j99999-nonesuch") is None

    def test_replay_resumes_running_as_queued(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        finished = queue.submit(fast_spec(), "key-done")
        queue.claim(timeout=0)
        queue.finish(finished.id, {"n": 7})
        interrupted = queue.submit(fast_spec(), "key-run")
        queue.claim(timeout=0)
        assert queue.get(interrupted.id).state == "running"

        revived = JobQueue(tmp_path, limit=8)  # simulated restart
        assert revived.get(finished.id).state == "done"
        assert revived.get(finished.id).result == {"n": 7}
        resumed = revived.get(interrupted.id)
        assert resumed.state == "queued"
        assert resumed.requeues == 1
        assert revived.claim(timeout=0).id == interrupted.id
        # The revived key is active again: identical requests coalesce.
        assert revived.submit(
            fast_spec(), "key-run"
        ).coalesced_into == interrupted.id

    def test_replay_tolerates_torn_tail(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        queue.submit(fast_spec(), "key-a")
        with queue.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"rec": "state", "id": "j0')  # killed mid-write
        revived = JobQueue(tmp_path, limit=8)
        assert len(revived.jobs()) == 1


class TestQueueConcurrency:
    """Regression tests for defects the CC static rules surfaced (PR 9).

    ``claim`` used a bare ``Condition.wait`` inside an ``if`` (CC004):
    a spurious wakeup — or any notify that didn't enqueue work, like a
    cancellation — made it give up its whole timeout early.  ``emit``
    wrote the per-job event file while holding the queue condition
    (CC002): every submit/claim stalled behind disk I/O.
    """

    def test_claim_timeout_waits_out_unproductive_notifies(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)

        def nudge():
            # A notify with nothing enqueued (e.g. a cancellation).
            time.sleep(0.05)
            with queue._cond:
                queue._cond.notify_all()

        nudger = threading.Thread(target=nudge)
        nudger.start()
        started = time.monotonic()
        assert queue.claim(timeout=0.5) is None
        elapsed = time.monotonic() - started
        nudger.join()
        assert elapsed >= 0.4, (
            f"claim returned after {elapsed:.3f}s; an unproductive "
            f"notify must not consume the caller's timeout"
        )

    def test_claim_wakes_promptly_on_submit(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        claimed = []

        def claimer():
            claimed.append(queue.claim(timeout=10.0))

        worker = threading.Thread(target=claimer)
        worker.start()
        time.sleep(0.05)  # let the claimer block
        started = time.monotonic()
        job = queue.submit(fast_spec(), "key-wake")
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert time.monotonic() - started < 5.0
        assert claimed and claimed[0] is not None
        assert claimed[0].id == job.id

    def test_zero_timeout_claim_still_works(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        assert queue.claim(timeout=0) is None
        job = queue.submit(fast_spec(), "key-z")
        assert queue.claim(timeout=0).id == job.id

    def test_emit_wakes_long_pollers(self, tmp_path):
        queue = JobQueue(tmp_path, limit=8)
        job = queue.submit(fast_spec(), "key-emit")
        path = queue.events_path(job.id)
        woken = []

        def poller():
            woken.append(queue.wait_for_change(
                lambda: path.exists() and path.stat().st_size > 0,
                timeout=5.0,
            ))

        waiter = threading.Thread(target=poller)
        waiter.start()
        time.sleep(0.05)
        queue.emit(job.id, "job.stage", stage="synth")
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert woken == [True]
        # The event line landed, outside the lock, before the wakeup.
        assert "job.stage" in path.read_text()


    def test_budget_and_counters_share_the_queue_condition(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.metrics import Counter, Metrics
        from repro.serve.server import Executor

        def yielding_inc(counter, n=1):
            value = counter.value
            time.sleep(0)  # an unguarded caller loses updates here
            counter.value = value + n

        monkeypatch.setattr(Counter, "inc", yielding_inc)
        queue = JobQueue(tmp_path, limit=64)
        executor = Executor(queue, ServeConfig(flow_jobs=3), Metrics())
        budget = executor._budget
        assert budget.cond is queue.cond
        rounds, workers = 300, 8

        def hammer(index):
            for _ in range(rounds):
                granted = budget.acquire(2)
                executor._count("stress.rounds")
                budget.release(granted)
            queue.submit(fast_spec(), f"key-stress-{index}")
            assert queue.claim(timeout=5.0) is not None

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        # A lost update would leave the count short or the budget leaked.
        assert executor.metrics.counter("stress.rounds").value == (
            rounds * workers
        )
        assert budget.acquire(10) == 3
        assert queue.counts() == {"running": workers}


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------

@pytest.fixture()
def server(tmp_path):
    config = ServeConfig(
        port=0, workers=2, flow_jobs=1, queue_limit=8,
        queue_dir=tmp_path / "queue",
    )
    srv = ReproServer(config)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}", timeout=60.0)


def _blocking_stage(monkeypatch, stage="physical"):
    """Make one stage block until released; returns (started, release)."""
    from repro.flow import scheduler

    started = threading.Event()
    release = threading.Event()
    original = scheduler.compute_stage

    def patched(name, options, artifacts, netlist=None):
        if name == stage:
            started.set()
            assert release.wait(timeout=30), "test never released the stage"
        return original(name, options, artifacts, netlist=netlist)

    monkeypatch.setattr(scheduler, "compute_stage", patched)
    return started, release


class TestServeEndToEnd:
    def test_health_and_routes(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queued"] == 0
        with pytest.raises(ServeError) as err:
            client.job("j99999-nonesuch")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("GET", "/v2/nothing")
        assert err.value.status == 404

    def test_invalid_submissions_are_400(self, client):
        with pytest.raises(ServeError) as err:
            client.submit(design="nonesuch")
        assert err.value.status == 400
        assert "unknown design" in str(err.value)
        with pytest.raises(ServeError) as err:
            client.submit(design="alu", options={"jobs": 4})
        assert err.value.status == 400

    def test_served_metrics_byte_identical_to_direct_run(self, client):
        ticket = client.submit(**fast_payload())
        job = client.wait(ticket["id"], timeout=120)
        assert job["state"] == "done"

        run = run_design(
            build_design("alu", SCALE), "granular",
            FlowOptions.from_dict(dict(FAST_OPTIONS)),
        )
        direct = json.dumps(run.metrics(), indent=2, sort_keys=True,
                            default=str)
        served = json.dumps(job["result"]["metrics"], indent=2,
                            sort_keys=True, default=str)
        assert served == direct

    def test_identical_submissions_coalesce_to_one_execution(
        self, server, client
    ):
        payload = fast_payload(options={**FAST_OPTIONS, "seed": 23})
        first = client.submit(**payload)
        second = client.submit(**payload)
        assert second["coalesced_into"] == first["id"]
        done_first = client.wait(first["id"], timeout=120)
        done_second = client.wait(second["id"], timeout=120)
        assert done_first["state"] == done_second["state"] == "done"
        assert done_first["result"] == done_second["result"]
        # One execution: both ids stream the *same* five stage events.
        for job_id in (first["id"], second["id"]):
            chunk = client.events(job_id)
            stages = [e for e in chunk["events"]
                      if e["name"] == "job.stage"]
            assert len(stages) == 5
            assert {e["attrs"]["id"] for e in stages} == {first["id"]}
        metrics = client.metrics_text()
        assert "repro_serve_jobs_coalesced_total 1" in metrics
        assert "repro_serve_jobs_done_total 1" in metrics

    def test_admission_control_returns_429(self, tmp_path):
        config = ServeConfig(port=0, workers=1, queue_limit=0,
                             queue_dir=tmp_path / "q429")
        srv = ReproServer(config)
        srv.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{srv.port}")
            with pytest.raises(ServeError) as err:
                client.submit(**fast_payload())
            assert err.value.status == 429
            assert err.value.retry_after == 2
        finally:
            srv.close()

    def test_delete_cancels_running_job(self, client, monkeypatch):
        started, release = _blocking_stage(monkeypatch)
        ticket = client.submit(
            **fast_payload(options={**FAST_OPTIONS, "seed": 31})
        )
        assert started.wait(timeout=30)
        outcome = client.cancel(ticket["id"])
        assert outcome["state"] == "cancelling"
        release.set()
        job = client.wait(ticket["id"], timeout=60)
        assert job["state"] == "cancelled"
        assert "cancelled before stage" in (job["error"] or "")

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        # workers=0 is clamped to 1 at start; don't start the executor
        # at all so submissions stay queued.
        config = ServeConfig(port=0, workers=1, queue_limit=8,
                             queue_dir=tmp_path / "qcancel")
        srv = ReproServer(config)
        srv._http_thread = threading.Thread(
            target=srv.httpd.serve_forever, daemon=True
        )
        srv._http_thread.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{srv.port}")
            ticket = client.submit(**fast_payload())
            assert client.cancel(ticket["id"])["state"] == "cancelled"
            assert client.job(ticket["id"])["state"] == "cancelled"
        finally:
            srv.httpd.shutdown()
            srv.httpd.server_close()

    def test_job_timeout_fails_with_clear_error(self, client, monkeypatch):
        started, release = _blocking_stage(monkeypatch)
        ticket = client.submit(
            **fast_payload(options={**FAST_OPTIONS, "seed": 37}),
            timeout_seconds=0.05,
        )
        assert started.wait(timeout=30)
        time.sleep(0.1)  # let the deadline lapse while the stage blocks
        release.set()
        job = client.wait(ticket["id"], timeout=60)
        assert job["state"] == "failed"
        assert "timeout after 0.05s" in job["error"]


class TestMalformedRequests:
    """Unparseable numbers in a query or header get a 400 JSON error,
    never a dropped connection or a negative stream offset."""

    @pytest.fixture()
    def http_only(self, tmp_path):
        # No executor threads: a submitted job stays queued.
        srv = ReproServer(ServeConfig(port=0, queue_dir=tmp_path / "q"))
        threading.Thread(target=srv.httpd.serve_forever, daemon=True).start()
        yield srv
        srv.close()

    @pytest.mark.parametrize("effort", ["NaN", "1e999", '"high"', "-3"])
    def test_bad_effort_is_400(self, http_only, effort):
        import http.client

        body = ('{"design": "alu", "options": {"place_effort": %s}}'
                % effort).encode()
        conn = http.client.HTTPConnection(
            "127.0.0.1", http_only.port, timeout=10
        )
        try:
            conn.request("POST", "/v1/jobs", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
        finally:
            conn.close()
        assert response.status == 400
        assert "place_effort must be a finite number > 0" in error
        assert http_only.queue.depth() == 0

    @pytest.mark.parametrize("method, target, headers", [
        ("GET", "/events?since=abc", {}),
        ("GET", "/events?wait=xyz", {}),
        ("GET", "/events?since=-5", {}),
        ("POST", "/v1/jobs", {"Content-Length": "abc"}),
    ], ids=["since-abc", "wait-xyz", "since-negative", "content-length"])
    def test_rejected_with_400(self, http_only, method, target, headers):
        import http.client

        job = http_only.queue.submit(fast_spec(), "key-malformed")
        if target.startswith("/events"):
            target = f"/v1/jobs/{job.id}{target}"
        conn = http.client.HTTPConnection(
            "127.0.0.1", http_only.port, timeout=10
        )
        try:
            conn.putrequest(method, target)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert response.getheader("Content-Type") == "application/json"
        assert "must be a non-negative" in body["error"]


class TestDrainAndResume:
    def test_drain_checkpoints_and_restart_resumes_warm(
        self, tmp_path, monkeypatch
    ):
        queue_dir = tmp_path / "queue"
        options = {**FAST_OPTIONS, "seed": 41}
        config = ServeConfig(port=0, workers=1, queue_limit=8,
                             queue_dir=queue_dir)
        first = ReproServer(config)
        first.start()
        client = ServeClient(f"http://127.0.0.1:{first.port}")
        started, release = _blocking_stage(monkeypatch)
        ticket = client.submit(**fast_payload(options=options))
        assert started.wait(timeout=30)

        drainer = threading.Thread(target=first.drain)
        drainer.start()
        # Draining refuses new work while the running job checkpoints.
        time.sleep(0.05)
        release.set()
        drainer.join(timeout=60)
        assert not drainer.is_alive()
        first.close()
        checkpointed = first.queue.get(ticket["id"])
        assert checkpointed.state == "queued"
        assert checkpointed.requeues >= 1

        # Same queue root, fresh server: the job resumes and its
        # synthesis/physical stages replay from the stage cache.
        second = ReproServer(ServeConfig(port=0, workers=1, queue_limit=8,
                                         queue_dir=queue_dir))
        second.start()
        try:
            client2 = ServeClient(f"http://127.0.0.1:{second.port}")
            job = client2.wait(ticket["id"], timeout=120)
            assert job["state"] == "done"
            run = run_design(
                build_design("alu", SCALE), "granular",
                FlowOptions.from_dict(dict(options)),
            )
            assert job["result"]["metrics"] == json.loads(
                json.dumps(run.metrics(), default=str)
            )
        finally:
            second.close()

    def test_draining_server_rejects_submissions_with_503(self, server):
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        server.executor._draining.set()
        with pytest.raises(ServeError) as err:
            client.submit(**fast_payload())
        assert err.value.status == 503


class TestServeCLI:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env["REPRO_QUEUE_DIR"] = str(tmp_path / "queue")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            deadline = time.monotonic() + 30
            line = ""
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening" in line:
                    break
            assert "listening" in line, "server never announced its port"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
