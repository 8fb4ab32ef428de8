"""Tests for the CC lock-discipline rules of the one-pass self-lint.

Each rule gets a corrupted-fixture test: a synthetic module with a
seeded defect (a lock held across a subprocess launch or file I/O, a
loopless condition wait, a notify outside the lock) that the lint must
flag — plus clean twins it must not flag and suppression-comment
behavior.  The three defects the rules found in the serve queue are
re-seeded into the real ``queue.py`` source and must be flagged again;
so must file I/O in the server's critical section on the shared
Condition.  ``repro.serve`` constructs exactly one lock, and the CLI
integration (`--self --rules CC`, family selectors, grouped
--list-rules) is covered at the end.
"""

import ast
import json

import pytest

from repro.check import REGISTRY, lint_source
from repro.check.selflint import default_lint_root
from repro.cli import main


def rules_of(findings):
    return sorted(f.rule_id for f in findings)


# ----------------------------------------------------------------------
# CC002: blocking calls under a lock
# ----------------------------------------------------------------------

BLOCKING_SUBPROCESS = '''
import subprocess
import threading

class Runner:
    def __init__(self):
        self._lock = threading.Lock()

    def run(self):
        with self._lock:
            subprocess.run(["true"])
'''

BLOCKING_OPEN = '''
import threading

class Writer:
    def __init__(self):
        self._lock = threading.Lock()
        self.path = "out.txt"

    def write(self, text):
        with self._lock:
            with open(self.path, "a") as handle:
                handle.write(text)
'''


class TestBlockingUnderLock:
    def test_subprocess_under_lock(self):
        findings = lint_source(BLOCKING_SUBPROCESS, "sub.py")
        assert rules_of(findings) == ["CC002"]
        assert "subprocess.run" in findings[0].message

    def test_file_io_under_lock(self):
        findings = lint_source(BLOCKING_OPEN, "io.py")
        assert "CC002" in rules_of(findings)

    def test_blocking_outside_lock_is_clean(self):
        source = BLOCKING_SUBPROCESS.replace(
            'with self._lock:\n            subprocess.run(["true"])',
            'subprocess.run(["true"])',
        )
        assert lint_source(source, "free.py") == []

    def test_interprocedural_held_context(self):
        source = '''
import subprocess
import threading

class Runner:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self._inner()

    def _inner(self):
        subprocess.run(["true"])
'''
        findings = lint_source(source, "ctx.py")
        assert "CC002" in rules_of(findings)

    def test_allow_comment_suppresses(self):
        source = BLOCKING_SUBPROCESS.replace(
            'subprocess.run(["true"])',
            'subprocess.run(["true"])  # check: allow(CC002)',
        )
        assert lint_source(source, "ok.py") == []


# ----------------------------------------------------------------------
# CC004: condition-variable discipline
# ----------------------------------------------------------------------

WAIT_NOT_IN_LOOP = '''
import threading

class Box:
    def __init__(self):
        self._cond = threading.Condition()
        self.ready = False

    def take(self):
        with self._cond:
            if not self.ready:
                self._cond.wait()
            return self.ready
'''

NOTIFY_WITHOUT_LOCK = '''
import threading

class Box:
    def __init__(self):
        self._cond = threading.Condition()
        self.ready = False

    def put(self):
        with self._cond:
            self.ready = True
        self._cond.notify_all()
'''


class TestConditionMisuse:
    def test_wait_outside_while_is_flagged(self):
        findings = lint_source(WAIT_NOT_IN_LOOP, "wait.py")
        assert "CC004" in rules_of(findings)
        assert "while" in findings[0].message

    def test_wait_in_while_is_clean(self):
        source = WAIT_NOT_IN_LOOP.replace(
            "if not self.ready:", "while not self.ready:"
        )
        assert lint_source(source, "ok.py") == []

    def test_wait_for_is_clean(self):
        source = WAIT_NOT_IN_LOOP.replace(
            "if not self.ready:\n                self._cond.wait()",
            "self._cond.wait_for(lambda: self.ready)",
        )
        assert lint_source(source, "ok.py") == []

    def test_notify_without_lock_is_flagged(self):
        findings = lint_source(NOTIFY_WITHOUT_LOCK, "notify.py")
        assert "CC004" in rules_of(findings)
        assert "notified without its lock" in str(
            [f.message for f in findings]
        )

    def test_notify_under_lock_is_clean(self):
        source = '''
import threading

class Box:
    def __init__(self):
        self._cond = threading.Condition()
        self.ready = False

    def put(self):
        with self._cond:
            self.ready = True
            self._cond.notify_all()
'''
        assert lint_source(source, "ok.py") == []


# ----------------------------------------------------------------------
# Whole-repo + framework integration
# ----------------------------------------------------------------------

SERVE = default_lint_root() / "serve"


def reseeded(filename, old, new):
    """``serve/<filename>`` with one defect put back, as source text."""
    source = (SERVE / filename).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"anchor moved in {filename}"
    return source.replace(old, new)


def line_of(source, text):
    return next(
        n for n, line in enumerate(source.splitlines(), start=1)
        if text in line
    )


class TestServeQueueDefects:
    """The three serve-queue defects the CC rules found, re-seeded."""

    def test_shipped_queue_and_server_are_clean(self):
        for filename in ("queue.py", "server.py"):
            source = (SERVE / filename).read_text(encoding="utf-8")
            assert lint_source(source, f"serve/{filename}") == []

    def test_loopless_claim_wait_is_cc004(self):
        source = reseeded(
            "queue.py",
            "            self._cond.wait_for(lambda: bool(self._heap), "
            "timeout)\n",
            "            if not self._heap:\n"
            "                self._cond.wait(timeout)\n",
        )
        findings = lint_source(source, "serve/queue.py")
        assert [(f.rule_id, f.location) for f in findings] == [
            ("CC004",
             f"serve/queue.py:{line_of(source, '_cond.wait(timeout)')}"),
        ]

    def test_emit_writing_under_the_condition_is_cc002(self):
        source = reseeded(
            "queue.py",
            "        with path.open(\"a\", encoding=\"utf-8\") as handle:"
            "\n",
            "        with self._cond, path.open(\"a\", encoding=\"utf-8\")"
            " as handle:\n",
        )
        findings = lint_source(source, "serve/queue.py")
        assert [f.rule_id for f in findings] == ["CC002"]
        assert "emit" in findings[0].message

    def test_append_without_its_allow_comments_is_cc002_twice(self):
        source = (SERVE / "queue.py").read_text(encoding="utf-8")
        allowed = [
            line_of(source, "self.journal_path.open(\"a\""),
            line_of(source, "os.fsync("),
        ]
        bare = source.replace("  # check: allow(CC002)", "")
        findings = lint_source(bare, "serve/queue.py")
        assert [f.rule_id for f in findings] == ["CC002", "CC002"]
        assert [f.location for f in findings] == [
            f"serve/queue.py:{line}" for line in allowed
        ]

    def test_file_write_in_the_servers_metrics_section_is_cc002(self):
        source = reseeded(
            "server.py",
            "            events = self.metrics.snapshot_events(",
            "            Path(\"metrics.txt\").write_text(\"\")\n"
            "            events = self.metrics.snapshot_events(",
        )
        findings = lint_source(source, "serve/server.py")
        assert [f.rule_id for f in findings] == ["CC002"]
        assert "metrics_text" in findings[0].message


class TestOneLock:
    def test_src_repro_constructs_exactly_one_lock(self):
        kinds = {"Lock", "RLock", "Condition", "Semaphore",
                 "BoundedSemaphore"}
        root = default_lint_root()
        sites = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = getattr(fn, "attr", getattr(fn, "id", None))
                if name in kinds:
                    sites.append(f"{path.relative_to(root)}: {name}")
        # Events are signals, not mutual exclusion, and do not count.
        assert sites == ["serve/queue.py: Condition"]


class TestRepoIsClean:
    def test_repro_package_has_no_cc_findings(self, self_lint_findings):
        assert [
            f for f in self_lint_findings if f.rule_id.startswith("CC")
        ] == []


class TestFamilySelection:
    def test_family_prefix_expands(self):
        selected = REGISTRY.validate_selection({"CC"})
        assert selected == {"CC002", "CC004"}

    def test_mixed_family_and_id(self):
        selected = REGISTRY.validate_selection({"CC", "DT001"})
        assert "CC002" in selected and "DT001" in selected
        assert "DT002" not in selected

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError, match="unknown rule id"):
            REGISTRY.validate_selection({"ZZ"})

    def test_families_listed(self):
        from repro.check import rule_catalog

        rule_catalog()
        assert {"CC", "DT"} <= set(REGISTRY.families())


class TestCheckCli:
    def test_self_with_cc_family_is_clean(self, capsys, self_lint_once):
        assert main([
            "-q", "check", "--self", "--rules", "CC",
            "--fail-on", "warning",
        ]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_self_runs_both_families_clean(self, capsys, self_lint_once):
        assert main(["-q", "check", "--self", "--fail-on", "warning"]) == 0

    def test_list_rules_groups_by_family(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        cc_header = next(
            i for i, line in enumerate(lines) if line.startswith("CC ")
        )
        assert "concurrency" in lines[cc_header]
        assert lines[cc_header + 1].strip().startswith("CC002")

    def test_sarif_carries_cc_rules(self, capsys, self_lint_once):
        assert main([
            "-q", "check", "--self", "--rules", "CC", "--sarif",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        driver = doc["runs"][0]["tool"]["driver"]
        assert any(r["id"] == "CC002" for r in driver["rules"])
