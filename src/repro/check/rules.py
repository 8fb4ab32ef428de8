"""The rule catalog: every static-analysis rule, in one registry.

A :class:`Rule` is the *description* of one machine-checkable invariant —
id, default severity, which flow stage's artifact it audits, what
invariant it encodes and where in the paper that invariant comes from.
Analyzer functions (:mod:`repro.check.netlist_rules` and friends) cite a
rule by id when they emit findings; registering the rule up front means
``repro check --rules`` can select by id and the SARIF export can carry
tool metadata for rules that produced no findings.

Rule id scheme: a two-letter family prefix plus a 3-digit number —
``NL`` netlist structure, ``LB`` library/realization consistency, ``PK``
packing legality, ``PL`` placement, ``RT`` routing, ``EQ`` equivalence,
``DT`` codebase determinism, ``CC`` codebase concurrency (lock
discipline), ``CK`` stage purity (cache-key coherence).  A bare
family prefix is itself a valid ``--rules`` selector and expands to
every rule in the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule."""

    rule_id: str
    severity: Severity
    stage: str             # "netlist" | "library" | "packing" | ...
    description: str       # the invariant, one line
    paper_ref: str = ""    # figure/section the invariant encodes

    @property
    def family(self) -> str:
        """The two-letter family prefix of the rule id (``NL``, ``CC``)."""
        return self.rule_id[:2]

    def finding(
        self,
        location: str,
        message: str,
        fix_hint: str = "",
        severity: Optional[Severity] = None,
    ) -> Finding:
        """A finding citing this rule (severity defaults to the rule's)."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity if severity is None else severity,
            location=location,
            message=message,
            fix_hint=fix_hint,
            stage=self.stage,
        )


class RuleRegistry:
    """Rules by id, with stage and id-subset selection."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(
                f"unknown rule id {rule_id!r} "
                f"(known: {', '.join(sorted(self._rules))})"
            ) from None

    def all(self) -> List[Rule]:
        return [self._rules[k] for k in sorted(self._rules)]

    def families(self) -> List[str]:
        """Every registered two-letter family prefix, sorted."""
        return sorted({r.family for r in self._rules.values()})

    def for_family(self, family: str) -> List[Rule]:
        return [r for r in self.all() if r.family == family]

    def validate_selection(self, rule_ids: Iterable[str]) -> Set[str]:
        """Resolve a ``--rules`` selection, raising on unknown ids.

        A selector is either a full rule id (``CC002``) or a bare
        two-letter family prefix (``CC``), which expands to every rule
        in that family.
        """
        selected = set()
        for rule_id in rule_ids:
            if rule_id in self._rules:
                selected.add(rule_id)
                continue
            family = [
                r.rule_id for r in self._rules.values()
                if r.family == rule_id
            ]
            if family:
                selected.update(family)
                continue
            self.get(rule_id)  # raises with the known-id list
        return selected


#: The process-wide registry every analyzer module registers into.
REGISTRY = RuleRegistry()


def rule(
    rule_id: str,
    severity: Severity,
    stage: str,
    description: str,
    paper_ref: str = "",
) -> Rule:
    """Register one rule in the global registry (import-time)."""
    return REGISTRY.register(
        Rule(rule_id=rule_id, severity=severity, stage=stage,
             description=description, paper_ref=paper_ref)
    )


def filter_findings(
    findings: Sequence[Finding],
    rule_ids: Optional[Set[str]] = None,
) -> List[Finding]:
    """Keep only findings whose rule id is in ``rule_ids`` (None = all)."""
    if rule_ids is None:
        return list(findings)
    return [f for f in findings if f.rule_id in rule_ids]
