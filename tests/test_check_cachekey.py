"""Tests for the CK stage-purity rule (CK003) of the one-pass self-lint.

A synthetic mini-flow with a seeded ambient input in stage-reachable
code (environment, wall clock, a mutable registry) that the lint must
flag, plus the clean twin it must not flag, suppression behavior, the
CLI integration (`--self --rules CK`, grouped --list-rules, SARIF), and
the guarantees on the shipped flow: it is clean, and the analysis still
reaches its real stage code.
"""

import json
import shutil

import pytest

from repro.check import REGISTRY, lint_paths, lint_source
from repro.check.selflint import default_lint_root, stage_reachable_functions
from repro.cli import main


def rules_of(findings):
    return sorted(f.rule_id for f in findings)


# A self-contained two-stage flow: each stage record names a pure
# function of its options slice as its compute function.
CLEAN = '''
def _run_alpha(options):
    return options.width * 2


def _run_beta(artifact, options):
    return artifact + options.depth


def _audit(run, *artifacts):
    run("netlist", netlist=artifacts[-1])


PIPELINE = (
    Stage("alpha", inputs=(), options=AlphaOptions,
          compute=_run_alpha, audit=_audit),
    Stage("beta", inputs=("alpha",), options=BetaOptions,
          compute=_run_beta, audit=_audit),
)
'''


class TestFixtureCoherence:
    def test_clean_fixture_has_no_findings(self):
        assert lint_source(CLEAN) == []

    def test_module_without_anchors_is_silent(self):
        assert lint_source("def helper(x):\n    return x\n") == []

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert len(findings) == 1
        assert "parse" in findings[0].message.lower()


class TestCK003Impurity:
    def test_env_read_in_stage_code_flags(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "import os\n\n\n"
            "def _run_alpha(options):\n"
            '    fudge = int(os.environ.get("FUDGE", "1"))\n'
            "    return options.width * fudge",
        )
        findings = [
            f for f in lint_source(bad) if f.rule_id == "CK003"
        ]
        assert findings and "environ" in findings[0].message

    def test_wall_clock_in_stage_code_flags(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "import time\n\n\n"
            "def _run_alpha(options):\n"
            "    return options.width * int(time.time())",
        )
        assert "CK003" in rules_of(lint_source(bad))

    def test_mutable_global_registry_flags(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "_REGISTRY = {}\n\n\n"
            "def register(name, value):\n"
            "    _REGISTRY[name] = value\n\n\n"
            "def _run_alpha(options):\n"
            '    return _REGISTRY.get("bias", 0) + options.width',
        )
        findings = [
            f for f in lint_source(bad) if f.rule_id == "CK003"
        ]
        assert findings and "_REGISTRY" in findings[0].message

    def test_unreachable_impurity_is_ignored(self):
        # The env read sits in a helper no stage entry can reach.
        ok = CLEAN + (
            "\n\nimport os\n\n\n"
            "def cli_helper():\n"
            '    return os.environ.get("COLUMNS", "80")\n'
        )
        assert rules_of(lint_source(ok)) == []

    def test_allow_comment_suppresses(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "import os\n\n\n"
            "def _run_alpha(options):\n"
            '    fudge = int(os.environ.get("FUDGE", "1"))'
            "  # check: allow(CK003)\n"
            "    return options.width * fudge",
        )
        assert rules_of(lint_source(bad)) == []


class TestHeadIsCoherent:
    def test_shipped_flow_has_no_ck_findings(self, self_lint_findings):
        assert [
            f for f in self_lint_findings if f.rule_id == "CK003"
        ] == []


class TestReachesStageCode:
    """CK003 reports nothing without ``Stage(...)`` record anchors, so
    a refactor of the pipeline records could silence it unnoticed."""

    def test_reachable_set_covers_stage_kernels(self):
        reachable = {
            qualname.split(":", 1)[1]
            for qualname in stage_reachable_functions()
        }
        assert {
            "synthesize", "run_physical_synthesis",
            "AnnealingPlacer._sweep", "run_packing_loop",
            "route_and_extract", "analyze",
        } <= reachable

    def test_injected_env_read_in_pack_stage_flags(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(
            default_lint_root(), root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        flow = root / "flow" / "flow.py"
        source = flow.read_text(encoding="utf-8")
        anchor = "    return run_packing_loop(\n"
        assert source.count(anchor) == 1
        flow.write_text(source.replace(
            anchor,
            '    os.environ.get("PACK_FUDGE")\n' + anchor,
        ), encoding="utf-8")
        findings = lint_paths([root])
        assert [
            (f.rule_id, "_pack_stage" in f.message) for f in findings
        ] == [("CK003", True)]
        assert "environ" in findings[0].message


class TestCli:
    def test_list_rules_groups_ck(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "CK  cache-key coherence" in out
        assert "CK003" in out
        for rule_id in ("CK001", "CK002", "CK004", "CK005"):
            assert rule_id not in out

    def test_self_ck_family_is_clean(self, capsys, self_lint_once):
        assert main(
            ["check", "--self", "--rules", "CK",
             "--fail-on", "warning"]
        ) == 0
        assert "cache-key coherence" in capsys.readouterr().out

    def test_self_ck_sarif(self, capsys, self_lint_once):
        assert main(
            ["-q", "check", "--self", "--rules", "CK", "--sarif"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_family_selector_expands(self):
        ids = REGISTRY.validate_selection({"CK"})
        assert ids == {"CK003"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            REGISTRY.validate_selection({"CK999"})
