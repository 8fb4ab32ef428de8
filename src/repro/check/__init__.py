"""Cross-stage static verification for the VPGA flow (``repro.check``).

Two analyzer families share one findings model:

* **Artifact checks** audit the outputs of each flow stage — netlists,
  realization tables, placements, packings, routing results — without
  re-executing the stage, plus a small-cone formal equivalence oracle.
* **Self checks** lint the ``repro`` source tree itself in one pass,
  :mod:`repro.check.selflint`: determinism hazards (``DT``), blocking
  calls under a lock and condition-variable misuse (``CC``), and
  ambient inputs in code reachable from a flow stage (``CK``).
  Cache-key coherence needs no analysis — each stage sees only the
  options slice its key hashes.

Entry points: ``repro check`` on the CLI, ``FlowOptions(check=True)``
inside the flow, or the functions re-exported here.
"""

from .findings import CheckError, Finding, Report, Severity
from .rules import REGISTRY, Rule, RuleRegistry, filter_findings, rule
from .netlist_rules import check_netlist
from .library_rules import (
    check_library,
    check_realization,
    check_realization_table,
)
from .pack_rules import check_packing
from .place_rules import check_placement
from .route_rules import check_routing
from .equiv_rules import check_equivalence
from .selflint import lint_paths, lint_source
from .runner import (
    CHECK_STAGES,
    check_design_run,
    check_stage,
    enforce,
    rule_catalog,
)

__all__ = [
    "CheckError",
    "Finding",
    "Report",
    "Severity",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "filter_findings",
    "rule",
    "check_netlist",
    "check_library",
    "check_realization",
    "check_realization_table",
    "check_packing",
    "check_placement",
    "check_routing",
    "check_equivalence",
    "lint_paths",
    "lint_source",
    "CHECK_STAGES",
    "check_design_run",
    "check_stage",
    "enforce",
    "rule_catalog",
]
