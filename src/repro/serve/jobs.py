"""Job model for the flow-as-a-service subsystem.

A *job* is one client-submitted unit of work: a single-design flow run
(``kind="flow"``), the full paper evaluation matrix (``kind="tables"``),
or a flow run plus the static-verification audit (``kind="check"``).
Specs are plain JSON in and out; validation happens at admission so a
malformed submission is rejected with a 400 before it can occupy queue
space.

Every job carries a **request key**: a sha256 identity derived from the
content-addressed stage-cache key chain
(:func:`repro.flow.flow.request_key`), prefixed by the job kind.  Two
submissions with equal keys are, by the cache's own contract, the same
computation — the queue coalesces them onto one execution and both
submitters receive the result.  Performance knobs (the fields in
:data:`repro.flow.options.PERF_KNOBS`) are excluded from stage keys and
therefore from request keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from dataclasses import fields as dataclass_fields

from ..flow.cache import StageCache, stable_hash
from ..flow.flow import request_key
from ..flow.options import PERF_KNOBS, FlowOptions

#: Job kinds, in the order the README documents them.
KINDS = ("flow", "tables", "check")

#: Priority classes: lower rank dispatches first.
PRIORITIES: Dict[str, int] = {"high": 0, "normal": 1, "low": 2}

#: Job lifecycle: queued -> running -> done | failed | cancelled.
#: A drained job moves running -> queued (checkpointed; finished stages
#: are in the stage cache, so the rerun resumes warm).
STATES = ("queued", "running", "done", "failed", "cancelled")

TERMINAL_STATES = ("done", "failed", "cancelled")

#: Perf knobs a submission may set anyway.  ``check`` never changes
#: computed results (it only audits stage artifacts and aborts on fatal
#: findings), but whether to pay for the audit is a per-request choice,
#: not server policy — so it is re-admitted here.  Must stay a subset
#: of :data:`repro.flow.options.PERF_KNOBS` (asserted in
#: ``tests/test_key_contract.py``).
_SUBMITTABLE_PERF_KNOBS = ("check",)

#: Flow-option fields a submission may set: every semantic (cache-keyed)
#: field, plus the re-admitted perf knobs above.  Derived from the
#: dataclass and :data:`~repro.flow.options.PERF_KNOBS` so a new
#: FlowOptions field is submittable by default and a new perf knob is
#: excluded by default — no hand-maintained list to drift.  ``arch`` is
#: top-level on the spec (rejecting it here keeps one source of truth).
_SUBMITTABLE_OPTIONS = tuple(sorted(
    ({f.name for f in dataclass_fields(FlowOptions)} - PERF_KNOBS
     - {"arch"})
    | set(_SUBMITTABLE_PERF_KNOBS)
))


def known_designs() -> List[str]:
    from ..designs import DESIGN_BUILDERS

    return sorted(DESIGN_BUILDERS)


@dataclass(frozen=True)
class JobSpec:
    """One validated job submission (the POST /v1/jobs body)."""

    kind: str = "flow"
    design: Optional[str] = None
    arch: str = "granular"
    scale: float = 0.5
    options: Dict[str, Any] = field(default_factory=dict)
    priority: str = "normal"
    timeout_seconds: Optional[float] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Validate a JSON submission; raises ValueError on any defect."""
        if not isinstance(payload, dict):
            raise ValueError("job submission must be a JSON object")
        known = {
            "kind", "design", "arch", "scale", "options", "priority",
            "timeout_seconds",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown field(s) {unknown} (choices: {sorted(known)})"
            )
        kind = payload.get("kind", "flow")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r} (choices: {KINDS})")
        design = payload.get("design")
        if kind == "tables":
            if design is not None:
                raise ValueError(
                    "kind 'tables' runs the full matrix; drop 'design'"
                )
        else:
            if design not in known_designs():
                raise ValueError(
                    f"unknown design {design!r} "
                    f"(choices: {known_designs()})"
                )
        arch = payload.get("arch", "granular")
        if arch not in ("lut", "granular"):
            raise ValueError(
                f"unknown arch {arch!r} (choices: ['granular', 'lut'])"
            )
        try:
            scale = float(payload.get("scale", 0.5))
        except (TypeError, ValueError):
            raise ValueError("scale must be a number") from None
        if not 0.0 < scale <= 4.0:
            raise ValueError(f"scale {scale} out of range (0, 4]")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("options must be a JSON object")
        bad = sorted(set(options) - set(_SUBMITTABLE_OPTIONS))
        if bad:
            raise ValueError(
                f"unsubmittable option(s) {bad} "
                f"(choices: {sorted(_SUBMITTABLE_OPTIONS)})"
            )
        FlowOptions.from_dict(dict(options))  # raises on a bad value
        priority = payload.get("priority", "normal")
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r} "
                f"(choices: {sorted(PRIORITIES)})"
            )
        timeout = payload.get("timeout_seconds")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise ValueError("timeout_seconds must be a number") from None
            if timeout <= 0:
                raise ValueError("timeout_seconds must be positive")
        return cls(
            kind=kind, design=design, arch=arch, scale=scale,
            options=dict(options), priority=priority,
            timeout_seconds=timeout,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "design": self.design,
            "arch": self.arch,
            "scale": self.scale,
            "options": dict(self.options),
            "priority": self.priority,
            "timeout_seconds": self.timeout_seconds,
        }

    def flow_options(self, arch: Optional[str] = None) -> FlowOptions:
        """The effective FlowOptions for this spec (validated fields)."""
        options = FlowOptions.from_dict(dict(self.options))
        return replace(options, arch=arch or self.arch)


def derive_request_key(spec: JobSpec) -> str:
    """The coalescing identity of one submission.

    Chained from the stage-cache keys, so it changes exactly when any
    stage of the request would recompute — and never with perf knobs.
    The (never-read) :class:`StageCache` here only supplies ``key()``;
    no cache I/O happens during derivation.
    """
    from ..flow.experiments import ARCHES, DESIGNS, build_design

    cache = StageCache(enabled=False)
    if spec.kind == "tables":
        keys = []
        for design in DESIGNS:
            netlist = build_design(design, spec.scale)
            for arch in ARCHES:
                keys.append(request_key(
                    cache, netlist, spec.flow_options(arch)
                ))
        return stable_hash("tables", *keys)
    if spec.design is None:  # unreachable past admission validation
        raise ValueError(f"kind {spec.kind!r} requires a design")
    netlist = build_design(spec.design, spec.scale)
    return stable_hash(
        spec.kind, request_key(cache, netlist, spec.flow_options())
    )


@dataclass
class Job:
    """One queued/running/finished job and its full lifecycle record."""

    id: str
    seq: int
    spec: JobSpec
    key: str
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Primary job this submission coalesced onto (None = runs itself).
    coalesced_into: Optional[str] = None
    #: Ids of later submissions attached to this (primary) job.
    attached: List[str] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Times this job was checkpointed back to the queue by a drain.
    requeues: int = 0
    #: Set by DELETE while running; the executor cancels at the next
    #: stage boundary.  Never persisted — a restart clears it.
    cancel_requested: bool = False

    @property
    def rank(self) -> int:
        return PRIORITIES[self.spec.priority]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, with_result: bool = True) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "seq": self.seq,
            "spec": self.spec.to_dict(),
            "key": self.key,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "coalesced_into": self.coalesced_into,
            "attached": list(self.attached),
            "requeues": self.requeues,
            "error": self.error,
        }
        if with_result:
            doc["result"] = self.result
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Job":
        return cls(
            id=doc["id"],
            seq=doc["seq"],
            spec=JobSpec.from_payload(doc["spec"]),
            key=doc["key"],
            state=doc.get("state", "queued"),
            submitted_at=doc.get("submitted_at", 0.0),
            started_at=doc.get("started_at"),
            finished_at=doc.get("finished_at"),
            coalesced_into=doc.get("coalesced_into"),
            attached=list(doc.get("attached") or []),
            result=doc.get("result"),
            error=doc.get("error"),
            requeues=doc.get("requeues", 0),
        )


def job_id_for(seq: int, key: str) -> str:
    """Stable, human-scannable job ids: sequence plus key prefix."""
    return f"j{seq:05d}-{key[:10]}"
