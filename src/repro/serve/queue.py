"""Persistent job queue with priority classes and request coalescing.

The queue is a priority heap (priority rank, then submission order) in
front of a JSONL journal.  Every mutation — submission, state change,
result — appends one line to ``queue.jsonl`` under the queue root, so a
server restart replays the journal and resumes exactly where it left
off: terminal jobs keep their results, queued jobs stay queued, and jobs
that were *running* when the process died go back to queued (their
finished stages live in the content-addressed stage cache, so the rerun
resumes warm).

**Coalescing**: a submission whose request key matches a queued or
running job does not enqueue a second execution.  It becomes an
*attached* job — a full record with its own id — that receives a copy
of the primary's result (or error) the moment the primary finishes.

Progress events stream through per-job files under ``events/<id>.jsonl``
in the obs journal format, tailed incrementally by the
``/v1/jobs/{id}/events`` endpoint via
:func:`repro.obs.journal.tail_journal`.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .jobs import Job, JobSpec, job_id_for


class QueueFull(RuntimeError):
    """Admission control: queue depth is at the configured limit."""

    def __init__(self, depth: int, limit: int, retry_after: int = 2) -> None:
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"queue full: {depth} job(s) queued, limit {limit}"
        )


class JobQueue:
    """Thread-safe persistent priority queue of :class:`Job` records."""

    def __init__(self, root: Path, limit: int = 16) -> None:
        self.root = Path(root)
        self.limit = limit
        self.root.mkdir(parents=True, exist_ok=True)
        self.events_dir = self.root / "events"
        self.events_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "queue.jsonl"
        #: The one lock of ``repro.serve`` (see :attr:`cond`).
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        #: (rank, seq) heap of job ids awaiting a worker.
        self._heap: List[Tuple[int, int, str]] = []
        #: request key -> id of the non-terminal primary for that key.
        self._by_key: Dict[str, str] = {}
        self._seq = 0
        self._replay()

    @property
    def cond(self) -> threading.Condition:
        """The queue's Condition, the only lock in ``repro.serve``.

        The executor and the HTTP server guard their own shared state
        (budget, metrics) with it too, so no second lock exists whose
        acquisition order could invert.  It is RLock-backed (the
        ``Condition()`` default): a holder may call back into the queue,
        as the server's metrics snapshot does with :meth:`depth`.
        """
        return self._cond

    # -- persistence ---------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        """Append one journal line (caller holds the lock).

        Writing under the lock is deliberate: journal order must equal
        state-mutation order or a replay reconstructs a different
        queue.  The cost is bounded (one line + fsync) and admission
        control bounds the rate.
        """
        with self.journal_path.open("a", encoding="utf-8") as handle:  # check: allow(CC002)
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())  # check: allow(CC002)

    def _replay(self) -> None:
        """Rebuild queue state from the journal (startup only)."""
        if not self.journal_path.exists():
            return
        with self.journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn final write from a killed server
                self._replay_record(record)
        # Jobs that were running when the previous server died resume
        # from the queue; their completed stages replay from the cache.
        for job in self._jobs.values():
            if job.state == "running":
                job.state = "queued"
                job.started_at = None
                job.requeues += 1
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            if job.state == "queued" and job.coalesced_into is None:
                heapq.heappush(self._heap, (job.rank, job.seq, job.id))
            if not job.terminal:
                primary = job.coalesced_into or job.id
                self._by_key.setdefault(job.key, primary)

    def _replay_record(self, record: Dict[str, Any]) -> None:
        kind = record.get("rec")
        if kind == "submit":
            try:
                job = Job.from_dict(record["job"])
            except (KeyError, ValueError):
                return
            self._jobs[job.id] = job
            self._seq = max(self._seq, job.seq + 1)
            if job.coalesced_into is not None:
                primary = self._jobs.get(job.coalesced_into)
                if primary is not None and job.id not in primary.attached:
                    primary.attached.append(job.id)
        elif kind == "state":
            job = self._jobs.get(record.get("id", ""))
            if job is None:
                return
            job.state = record.get("state", job.state)
            for attr in ("started_at", "finished_at", "error"):
                if record.get(attr) is not None:
                    setattr(job, attr, record[attr])
            if record.get("result") is not None:
                job.result = record["result"]

    def _persist_state(self, job: Job, with_result: bool = False) -> None:
        record: Dict[str, Any] = {
            "rec": "state",
            "id": job.id,
            "state": job.state,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "error": job.error,
        }
        if with_result:
            record["result"] = job.result
        self._append(record)

    # -- submission / coalescing ---------------------------------------

    def submit(self, spec: JobSpec, key: str) -> Job:
        """Admit one job; may coalesce onto an active identical request.

        Raises :class:`QueueFull` when the number of *queued* primaries
        is at the limit (running jobs don't count — the queue, not the
        execution capacity, is what admission protects).  A coalesced
        submission always fits: it occupies no queue slot.
        """
        with self._cond:
            primary_id = self._by_key.get(key)
            primary = self._jobs.get(primary_id) if primary_id else None
            if primary is not None and primary.terminal:
                primary = None
            if primary is None and len(self._heap) >= self.limit:
                raise QueueFull(len(self._heap), self.limit)
            seq = self._seq
            self._seq += 1
            job = Job(id=job_id_for(seq, key), seq=seq, spec=spec, key=key)
            if primary is not None:
                job.coalesced_into = primary.id
                job.state = primary.state if not primary.terminal else "queued"
                primary.attached.append(job.id)
            else:
                self._by_key[key] = job.id
                heapq.heappush(self._heap, (job.rank, job.seq, job.id))
            self._jobs[job.id] = job
            self._append({"rec": "submit", "job": job.to_dict()})
            self._cond.notify_all()
            return job

    # -- worker side ---------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority queued job and mark it running.

        Blocks up to ``timeout`` seconds for work; returns None on
        timeout so executor loops can poll their stop flag.
        """
        with self._cond:
            # wait_for re-checks the predicate in a loop, so a spurious
            # wakeup (or a wakeup for a job another worker claims first)
            # goes back to sleep for the remaining timeout instead of
            # returning None early.
            self._cond.wait_for(lambda: bool(self._heap), timeout)
            while self._heap:
                _rank, _seq, job_id = heapq.heappop(self._heap)
                job = self._jobs[job_id]
                if job.state != "queued":
                    continue  # cancelled while queued
                job.state = "running"
                job.started_at = time.time()
                self._persist_state(job)
                self._propagate_state(job)
                self._cond.notify_all()
                return job
            return None

    def finish(self, job_id: str, result: Dict[str, Any]) -> None:
        self._finalize(job_id, "done", result=result)

    def fail(self, job_id: str, error: str) -> None:
        self._finalize(job_id, "failed", error=error)

    def mark_cancelled(self, job_id: str, error: str) -> None:
        """Executor-side completion of a running job's cancellation."""
        self._finalize(job_id, "cancelled", error=error)

    def _finalize(
        self,
        job_id: str,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        with self._cond:
            job = self._jobs[job_id]
            job.state = state
            job.finished_at = time.time()
            job.result = result
            job.error = error
            self._persist_state(job, with_result=result is not None)
            if self._by_key.get(job.key) == job.id:
                del self._by_key[job.key]
            self._propagate_state(job)
            self._cond.notify_all()

    def _propagate_state(self, primary: Job) -> None:
        """Mirror a primary's progress onto its attached jobs.

        Caller holds the lock.  Attached jobs that were individually
        cancelled keep their cancelled state and never see the result.
        """
        for attached_id in primary.attached:
            attached = self._jobs.get(attached_id)
            if attached is None or attached.state == "cancelled":
                continue
            attached.state = primary.state
            attached.started_at = primary.started_at
            attached.finished_at = primary.finished_at
            attached.result = primary.result
            attached.error = primary.error
            self._persist_state(
                attached, with_result=primary.result is not None
            )

    def requeue(self, job_id: str) -> None:
        """Checkpoint a running job back to queued (drain path)."""
        with self._cond:
            job = self._jobs[job_id]
            job.state = "queued"
            job.started_at = None
            job.requeues += 1
            heapq.heappush(self._heap, (job.rank, job.seq, job.id))
            self._persist_state(job)
            self._propagate_state(job)
            self._cond.notify_all()

    def cancel(self, job_id: str) -> Optional[str]:
        """Request cancellation; returns the resulting state.

        A queued job cancels immediately.  A running job gets its
        ``cancel_requested`` flag set — the executor interrupts it at
        the next stage boundary — and reports ``"cancelling"``.  A
        coalesced job detaches alone; the primary keeps running for the
        other submitters.  Returns None for unknown ids, and the
        terminal state unchanged for already-finished jobs.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.terminal:
                return job.state
            if job.coalesced_into is not None or job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                self._persist_state(job)
                if self._by_key.get(job.key) == job.id:
                    del self._by_key[job.key]
                self._propagate_state(job)
                self._cond.notify_all()
                return "cancelled"
            job.cancel_requested = True
            self._cond.notify_all()
            return "cancelling"

    # -- introspection -------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def depth(self) -> int:
        """Queued primaries awaiting a worker (the admission metric)."""
        with self._cond:
            return sum(
                1 for _r, _s, job_id in self._heap
                if self._jobs[job_id].state == "queued"
            )

    def running(self) -> int:
        with self._cond:
            return sum(
                1 for job in self._jobs.values()
                if job.state == "running" and job.coalesced_into is None
            )

    def counts(self) -> Dict[str, int]:
        with self._cond:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def wait_for_change(
        self, predicate: Callable[[], bool], timeout: float
    ) -> bool:
        """Block until ``predicate()`` or timeout (long-poll support)."""
        with self._cond:
            return self._cond.wait_for(predicate, timeout)

    # -- progress events -----------------------------------------------

    def events_path(self, job_id: str) -> Path:
        """The progress stream for a job (a coalesced job follows its
        primary's stream — there is only one execution to report)."""
        job = self.get(job_id)
        if job is not None and job.coalesced_into is not None:
            job_id = job.coalesced_into
        return self.events_dir / f"{job_id}.jsonl"

    def emit(self, job_id: str, name: str, **attrs: Any) -> None:
        """Append one obs-format point to a job's progress stream."""
        event = {
            "ev": "point",
            "name": name,
            "pid": os.getpid(),
            "ts": time.time(),
            "attrs": attrs,
        }
        path = self.events_dir / f"{job_id}.jsonl"
        # The executor thread running the job is the only writer of its
        # stream, so the append needs no lock — holding the queue
        # condition across disk I/O would stall every submit/claim for
        # the duration of the write.  The condition is taken only to
        # wake long-pollers once the line is durable.
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(event, sort_keys=True, default=str))
            handle.write("\n")
        with self._cond:
            self._cond.notify_all()
