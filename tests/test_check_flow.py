"""Flow-level checks: clean shipped designs, stage guards, obs emission."""

import json

import pytest

from repro.check import (
    CHECK_STAGES,
    CheckError,
    Finding,
    Report,
    Severity,
    check_design_run,
    check_stage,
    enforce,
    lint_paths,
)
from repro.check.runner import emit_findings
from repro.flow.experiments import build_design
from repro.flow.flow import FlowOptions, run_design
from repro.obs import core as obs_core
from repro.obs import journal as obs_journal

from conftest import make_ripple_design

FAST = FlowOptions(place_effort=0.05, place_iterations=1, pack_iterations=1)

DESIGNS = ("alu", "fpu", "netswitch", "firewire")


@pytest.fixture(scope="module")
def small_run():
    src = make_ripple_design(width=5, name="checkflow")
    return run_design(src, "granular", FAST)


class TestShippedDesignsAreClean:
    """The acceptance bar: every shipped design's end-to-end flow
    produces artifacts with zero error findings on both architectures."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("arch", ["lut", "granular"])
    def test_no_error_findings(self, design, arch):
        netlist = build_design(design, scale=0.3)
        run = run_design(netlist, arch, FlowOptions(place_effort=0.2))
        report = check_design_run(run)
        assert report.errors == [], report.format()


class TestCheckDesignRun:
    def test_full_audit_is_clean(self, small_run):
        report = check_design_run(small_run)
        assert report.errors == []
        # The equivalence stage always discloses its mode.
        assert "EQ003" in {f.rule_id for f in report}

    def test_stage_subset(self, small_run):
        report = check_design_run(small_run, stages=["netlist"])
        assert all(f.stage == "netlist" for f in report)

    def test_rule_filter(self, small_run):
        report = check_design_run(small_run, rule_ids={"EQ003"})
        assert {f.rule_id for f in report} == {"EQ003"}

    def test_unknown_stage_rejected(self, small_run):
        with pytest.raises(ValueError, match="unknown check stage"):
            check_design_run(small_run, stages=["synthesis"])

    def test_check_stage_names_are_documented(self):
        assert CHECK_STAGES == (
            "netlist", "library", "placement", "packing", "routing",
            "equivalence",
        )
        with pytest.raises(ValueError):
            check_stage("bogus")


class TestFlowGuards:
    def test_flow_runs_clean_with_checks_enabled(self):
        from dataclasses import replace

        src = make_ripple_design(width=4, name="guarded")
        run = run_design(src, "granular", replace(FAST, check=True))
        assert run.flow_b.die_area > 0

    def test_enforce_raises_on_errors(self):
        report = Report([Finding(
            rule_id="NL001", severity=Severity.ERROR,
            location="net x", message="boom",
        )])
        with pytest.raises(CheckError, match="after synthesis"):
            enforce(report, "t/granular after synthesis")

    def test_enforce_passes_warnings(self):
        report = Report([Finding(
            rule_id="NL010", severity=Severity.WARNING,
            location="instance i", message="dead",
        )])
        enforce(report, "ctx")


class TestRunArtifacts:
    def test_run_carries_packed_design(self, small_run):
        assert small_run.packed is not None
        assert small_run.packed.packing.plbs_used > 0

    def test_pre_compaction_netlist_retained(self, small_run):
        pre = small_run.synthesis.pre_compaction_netlist
        assert pre is not None
        assert pre is not small_run.synthesis.netlist

    def test_synthesis_netlist_not_mutated_by_backend(self, small_run):
        """Physical synthesis and packing work on private copies, so the
        synthesis artifact never grows buffers behind the cache's back."""
        names = set(small_run.synthesis.netlist.instances)
        assert not any(n.startswith("pbuf") for n in names)
        assert set(small_run.physical.netlist.instances) >= names

    def test_packing_netlist_is_private(self, small_run):
        assert small_run.packed.netlist is not small_run.physical.netlist


class TestSelfLintOnRepo:
    def test_src_repro_is_determinism_clean(self, self_lint_findings):
        findings = list(self_lint_findings)
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_each_file_is_parsed_once_for_all_families(self, monkeypatch):
        import ast

        from repro.check.selflint import default_lint_root

        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kw):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kw)

        monkeypatch.setattr(ast, "parse", counting_parse)
        lint_paths()
        files = sorted(str(p) for p in default_lint_root().rglob("*.py"))
        assert sorted(parsed) == files


class TestObsEmission:
    def test_findings_reach_the_journal(self, tmp_path):
        obs_core.begin()
        emit_findings([Finding(
            rule_id="NL001", severity=Severity.ERROR,
            location="net x", message="boom", stage="netlist",
        )])
        path = obs_journal.finalize("checktest", directory=tmp_path)
        assert path is not None
        text = path.read_text(encoding="utf-8")
        events = [json.loads(line) for line in text.splitlines() if line]
        assert any(
            e.get("name") == "check.finding" for e in events
        ), events
