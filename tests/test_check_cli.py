"""CLI tests for ``repro check`` and the ``--check`` flow flag."""

import json

import pytest

from repro.cli import main


class TestListRules:
    def test_catalog_lists_every_family(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("NL001", "LB003", "PK005", "PL002", "RT001",
                        "EQ001", "DT001"):
            assert rule_id in out

    def test_catalog_carries_paper_refs(self, capsys):
        main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert "Figure" in out or "Section" in out


@pytest.mark.usefixtures("self_lint_once")
class TestSelfLint:
    def test_self_lint_is_clean(self, capsys):
        assert main(["-q", "check", "--self", "--fail-on", "warning"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_self_lint_json(self, capsys):
        assert main(["-q", "check", "--self", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"error": 0, "warning": 0, "info": 0}

    def test_self_lint_sarif(self, capsys):
        assert main(["-q", "check", "--self", "--sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-check"
        assert any(r["id"] == "DT001" for r in driver["rules"])


class TestArtifactCheck:
    def test_one_design_checks_clean(self, capsys):
        code = main([
            "-q", "check", "alu", "--arch", "granular",
            "--scale", "0.25", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["error"] == 0

    def test_stage_and_rule_selection(self, capsys):
        code = main([
            "-q", "check", "alu", "--arch", "granular", "--scale", "0.25",
            "--stage", "equivalence", "--rules", "EQ001,EQ002,EQ003",
            "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in doc["findings"]}
        assert rules <= {"EQ001", "EQ002", "EQ003"}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError, match="unknown rule id"):
            main(["-q", "check", "--self", "--rules", "XX999"])

    def test_unknown_design_rejected(self, capsys):
        assert main(["-q", "check", "nonesuch"]) == 2
        assert "unknown design" in capsys.readouterr().err


class TestFlowCheckFlag:
    def test_flow_check_passes_clean_design(self, capsys):
        code = main([
            "-q", "flow", "alu", "--arch", "granular",
            "--scale", "0.25", "--check", "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["design"] == "alu"
