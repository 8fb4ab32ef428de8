"""Findings: the structured output of every static analyzer.

A :class:`Finding` is one rule violation — rule id, severity, a
human-readable location inside the artifact being checked, the message,
and an optional fix hint.  Analyzers never print or raise; they return
findings, and callers decide (by severity) whether to report, warn, or
abort.  A :class:`Report` aggregates findings across analyzers and
renders them as text, JSON, or SARIF 2.1.0 (the interchange format CI
annotation tooling consumes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence


class Severity(enum.IntEnum):
    """Finding severity; ordering supports threshold filtering."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r} (choices: info, warning, error)"
            ) from None


#: SARIF result levels per severity.
_SARIF_LEVEL = {Severity.INFO: "note", Severity.WARNING: "warning",
                Severity.ERROR: "error"}


@dataclass(frozen=True)
class Finding:
    """One rule violation in one artifact."""

    rule_id: str
    severity: Severity
    location: str          # e.g. "net n_42", "plb (3,1)", "flow.py:120"
    message: str
    fix_hint: str = ""
    stage: str = ""        # flow stage / analyzer family that produced it

    def format(self) -> str:
        hint = f"  (fix: {self.fix_hint})" if self.fix_hint else ""
        return (
            f"[{self.severity.label:7s}] {self.rule_id} {self.location}: "
            f"{self.message}{hint}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.label,
            "stage": self.stage,
            "location": self.location,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


class Report:
    """An ordered collection of findings with severity-aware queries."""

    def __init__(self, findings: Optional[Iterable[Finding]] = None) -> None:
        self.findings: List[Finding] = list(findings or ())

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def __bool__(self) -> bool:
        return bool(self.findings)

    def at_least(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity >= severity]

    @property
    def errors(self) -> List[Finding]:
        return self.at_least(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    def counts(self) -> Dict[str, int]:
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len([f for f in self.findings
                         if f.severity == Severity.INFO]),
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format(self) -> str:
        if not self.findings:
            return "no findings"
        lines = [f.format() for f in sorted(
            self.findings,
            key=lambda f: (-int(f.severity), f.rule_id, f.location),
        )]
        counts = self.counts()
        lines.append(
            f"{len(self.findings)} findings "
            f"({counts['error']} error, {counts['warning']} warning, "
            f"{counts['info']} info)"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
        }

    def to_sarif(self, rules: Sequence[Any] = ()) -> Dict[str, Any]:
        """SARIF 2.1.0 document (one run, tool ``repro-check``).

        ``rules`` is an optional sequence of rule descriptors (anything
        with ``rule_id`` and ``description``) for the tool metadata.
        """
        rule_meta = [
            {
                "id": rule.rule_id,
                "shortDescription": {"text": rule.description},
                "defaultConfiguration": {
                    "level": _SARIF_LEVEL[rule.severity]
                },
            }
            for rule in rules
        ]
        results = [
            {
                "ruleId": f.rule_id,
                "level": _SARIF_LEVEL[f.severity],
                "message": {"text": f"{f.location}: {f.message}"},
                "properties": {
                    "stage": f.stage,
                    "fixHint": f.fix_hint,
                },
            }
            for f in self.findings
        ]
        return {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-check",
                            "informationUri":
                                "https://github.com/repro/repro",
                            "rules": rule_meta,
                        }
                    },
                    "results": results,
                }
            ],
        }


@dataclass
class CheckError(RuntimeError):
    """Raised by fail-fast callers when fatal findings exist."""

    report: Report = field(default_factory=Report)
    context: str = ""

    def __str__(self) -> str:
        errors = self.report.errors
        head = errors[0].format() if errors else "no error findings"
        where = f"{self.context}: " if self.context else ""
        return (
            f"{where}{len(errors)} fatal finding(s); first: {head}"
        )
