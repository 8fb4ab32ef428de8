"""Flow configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict

from ..timing.sta import DEFAULT_CLOCK_PERIOD_NS

#: Performance/observability knobs: the FlowOptions fields that NEVER
#: change computed results — the worker count, the stage cache switch,
#: tracing and the stage-boundary audits.  They belong to no stage slice
#: below, so no stage compute function can read them and no cache key
#: (nor ``request_key`` coalescing) can include them.  The serve layer
#: derives its submittable-option list from this set.  Adding a field
#: here is a *claim* that cached and fresh runs are bit-identical under
#: any value of the field; ``tests/test_key_contract.py`` checks that the
#: slices and this set partition the FlowOptions fields.
PERF_KNOBS = frozenset({"jobs", "use_cache", "observe", "check"})


def check_effort(effort: Any) -> float:
    """Return ``effort`` if it is a finite number > 0, else raise ValueError."""
    if not (isinstance(effort, (int, float)) and math.isfinite(effort)
            and effort > 0):
        raise ValueError(
            f"place_effort must be a finite number > 0, got {effort!r}"
        )
    return effort


@dataclass(frozen=True)
class FlowOptions:
    """Knobs for one flow run (defaults match the paper's setup).

    ``arch`` is ``"lut"`` or ``"granular"``.  ``place_effort`` scales the
    annealing move budget (1.0 = full VPR schedule) and must be a finite
    number > 0 (:func:`check_effort`); experiment drivers lower it for
    large designs to keep runtimes sane — the comparison is
    differential, so both architectures always run with identical
    effort.

    ``jobs`` is the worker count of the stage DAG that runs the
    evaluation matrix (:mod:`repro.flow.scheduler`): 1 runs it in this
    process, more runs it on a worker pool; results are identical for
    any worker count because every stage is deterministic per seed.
    :func:`~repro.flow.flow.run_design` runs one cell in this process
    and ignores it.  ``use_cache`` enables the content-addressed stage
    cache (see :mod:`repro.flow.cache`).  Neither knob affects computed
    results.

    ``observe`` turns on the :mod:`repro.obs` tracing subsystem for the
    run: spans, metrics, and cache events are recorded and written to a
    JSONL journal (also enabled by ``--trace`` / ``REPRO_TRACE``).  Like
    the performance knobs it never changes computed results — traced and
    untraced runs are bit-identical — and it is excluded from stage
    cache keys.

    ``check`` runs the fatal-severity subset of :mod:`repro.check` at
    every flow stage boundary (``--check`` on the CLI); a fatal finding
    aborts the run with :class:`repro.check.CheckError`.  Audits only
    read stage artifacts, so this too never changes computed results.

    ``utilization`` is the flow-a standard-cell utilization target: die
    sizing inflates total cell area by ``1/utilization`` when building
    the placement grid.  It is a *semantic* knob (placement and die area
    depend on it), so it is part of the ``physical`` stage slice.

    Stage code never sees a ``FlowOptions``: each stage's record
    (:data:`repro.flow.flow.PIPELINE`) hands it only the frozen slice of
    fields its cache key hashes, so a stage cannot read an unkeyed field.
    """

    arch: str = "granular"
    period: float = DEFAULT_CLOCK_PERIOD_NS
    seed: int = 0
    opt_effort: int = 1
    run_compaction: bool = True
    place_iterations: int = 2
    place_effort: float = 1.0
    pack_iterations: int = 2
    pack_headroom: float = 1.15
    utilization: float = 0.70
    routing_tracks: int = 28
    routing_bins_per_side: int = 12
    jobs: int = 1
    use_cache: bool = True
    observe: bool = False
    check: bool = False

    def __post_init__(self) -> None:
        check_effort(self.place_effort)

    def with_arch(self, arch: str) -> "FlowOptions":
        from dataclasses import replace

        return replace(self, arch=arch)

    # -- JSON round-trip (job submissions, ``repro.serve``) ------------
    def to_dict(self) -> Dict[str, Any]:
        """The options as a plain JSON-ready dict (field name -> value)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowOptions":
        """Rebuild options from a (possibly partial) JSON dict.

        Unknown keys raise :class:`ValueError` — a typo in a job
        submission must be rejected at admission, not silently ignored
        (it would change which cache chain the request coalesces onto).
        JSON integers given for float fields become floats: keys hash
        ``repr``, and ``1`` and ``1.0`` must land on one cache chain.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown flow option(s) {unknown} "
                f"(choices: {sorted(known)})"
            )
        data = {
            name: float(value)
            if type(value) is int and name in _FLOAT_FIELDS else value
            for name, value in data.items()
        }
        return cls(**data)


_FLOAT_FIELDS = frozenset(
    f.name for f in fields(FlowOptions) if f.type in ("float", float)
)


# -- per-stage option slices --------------------------------------------
# Each slice holds exactly the fields its stage reads, in the order its
# cache key hashes them (``stage_keys`` hashes ``astuple(slice)`` below
# the root).  Field order is load-bearing: reordering changes keys.

@dataclass(frozen=True)
class SynthesisOptions:
    """Front end: AIG optimization, mapping, logic compaction."""

    arch: str
    opt_effort: int
    run_compaction: bool


@dataclass(frozen=True)
class PhysicalOptions:
    """Physical synthesis + ASIC placement."""

    seed: int
    place_iterations: int
    place_effort: float
    period: float
    utilization: float


@dataclass(frozen=True)
class RouteAOptions:
    """Flow a back end: routing over the cell grid + STA."""

    routing_tracks: int
    routing_bins_per_side: int
    period: float


@dataclass(frozen=True)
class PackingOptions:
    """Packing into the PLB array, iterated with physical synthesis."""

    pack_iterations: int
    pack_headroom: float
    period: float


@dataclass(frozen=True)
class RouteBOptions:
    """Flow b back end: routing over the PLB array + STA."""

    routing_tracks: int
    period: float
