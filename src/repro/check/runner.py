"""Check orchestration: run analyzer families over flow artifacts.

Two entry points:

* :func:`check_design_run` — audit every artifact a completed
  :class:`~repro.flow.flow.DesignRun` carries (netlists, realization
  tables, placement, packing, routing, cross-stage equivalence) without
  re-executing any stage.
* :func:`check_stage` — audit one stage boundary; the flow calls this
  behind ``FlowOptions.check`` and aborts on fatal findings.

Findings are also emitted into the live observability trace (one
``check.finding`` point per finding plus ``check.findings`` counters),
so journals record what the static analysis saw for the run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, List, Optional, Sequence, Set

from ..obs import core as _obs
from .equiv_rules import check_equivalence
from .findings import CheckError, Finding, Report
from .library_rules import check_library
from .netlist_rules import check_netlist
from .pack_rules import check_packing
from .place_rules import check_placement
from .route_rules import check_routing
from .rules import REGISTRY, Rule, filter_findings

#: Artifact-check stages, in flow order (plus the self-lint family,
#: which :mod:`repro.check.selflint` owns).
CHECK_STAGES = (
    "netlist", "library", "placement", "packing", "routing", "equivalence",
)


def _relabel(findings: Iterable[Finding], label: str) -> List[Finding]:
    """Prefix finding locations with the artifact they were found in."""
    return [replace(f, location=f"{label}: {f.location}") for f in findings]


def emit_findings(findings: Sequence[Finding]) -> None:
    """Record findings into the live trace (no-op while tracing is off)."""
    if not _obs.active():
        return
    for finding in findings:
        _obs.point(
            "check.finding",
            rule=finding.rule_id,
            severity=finding.severity.label,
            stage=finding.stage,
            location=finding.location,
            message=finding.message,
        )
        _obs.counter(f"check.findings.{finding.severity.label}")


def check_stage(
    stage: str,
    *,
    netlist: Any = None,
    arch: Any = None,
    placement: Any = None,
    packing: Any = None,
    routing: Any = None,
    net_points: Any = None,
    reference: Any = None,
    implementation: Any = None,
) -> Report:
    """Audit one stage's artifacts; see :data:`CHECK_STAGES` for names."""
    findings: List[Finding] = []
    if stage == "netlist":
        findings = check_netlist(netlist)
    elif stage == "library":
        findings = check_library(arch)
    elif stage == "placement":
        findings = check_placement(netlist, placement)
    elif stage == "packing":
        findings = check_packing(netlist, packing)
    elif stage == "routing":
        findings = check_routing(routing, net_points)
    elif stage == "equivalence":
        findings = check_equivalence(reference, implementation)
    else:
        raise ValueError(
            f"unknown check stage {stage!r} (choices: {CHECK_STAGES})"
        )
    emit_findings(findings)
    return Report(findings)


def enforce(report: Report, context: str) -> None:
    """Raise :class:`CheckError` when ``report`` has fatal findings."""
    if report.errors:
        raise CheckError(report=report, context=context)


def check_design_run(
    run: Any,
    stages: Optional[Sequence[str]] = None,
    rule_ids: Optional[Set[str]] = None,
) -> Report:
    """Audit every artifact of a completed design run.

    ``stages`` selects a subset of :data:`CHECK_STAGES`; ``rule_ids``
    further restricts which rules may report (ids validated against the
    registry by the caller, e.g. the CLI).
    """
    selected = list(stages) if stages else list(CHECK_STAGES)
    unknown = [s for s in selected if s not in CHECK_STAGES]
    if unknown:
        raise ValueError(
            f"unknown check stage(s) {unknown} (choices: {CHECK_STAGES})"
        )
    report = Report()
    packed = getattr(run, "packed", None)

    if "netlist" in selected:
        report.extend(_relabel(
            check_netlist(run.synthesis.netlist), "synthesis"
        ))
        if packed is not None and packed.netlist is not run.synthesis.netlist:
            report.extend(_relabel(check_netlist(packed.netlist), "packed"))

    if "library" in selected:
        report.extend(check_library(run.synthesis.arch))

    if "placement" in selected:
        report.extend(check_placement(
            run.physical.netlist, run.physical.placement
        ))

    if "packing" in selected and packed is not None:
        report.extend(check_packing(packed.netlist, packed.packing))

    if "routing" in selected:
        report.extend(_relabel(
            check_routing(
                run.flow_a.routing,
                run.physical.placement.net_pin_points(run.physical.netlist),
            ),
            "flow_a",
        ))
        if packed is not None:
            report.extend(_relabel(
                check_routing(
                    run.flow_b.routing,
                    packed.packing.net_pin_points(packed.netlist),
                ),
                "flow_b",
            ))

    if "equivalence" in selected:
        reference = (
            run.synthesis.pre_compaction_netlist or run.synthesis.netlist
        )
        implementation = (
            packed.netlist if packed is not None else run.physical.netlist
        )
        report.extend(check_equivalence(reference, implementation))

    filtered = Report(filter_findings(report.findings, rule_ids))
    emit_findings(filtered.findings)
    return filtered


def rule_catalog() -> List[Rule]:
    """Every registered rule (importing ``repro.check`` registers every
    family; :mod:`repro.check.selflint` holds DT, CC and CK)."""
    return REGISTRY.all()
