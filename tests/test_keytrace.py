"""Tests for the CK005 runtime options-access tracer
(repro.check.keytrace).

Covers the recording proxy (field reads recorded, methods not, wrap
idempotence), scoped-recorder isolation, the journal round trip, the
three audit clauses of ``findings_from_keytrace_journal`` (unknown
stage, read outside the static model, read outside the key chain), and
the end-to-end contract: a real flow run under ``REPRO_KEYTRACE=1``
produces per-stage read-sets contained in the static model's.
"""

import json
from dataclasses import replace

import pytest

from conftest import make_ripple_design

from repro.check import keytrace, static_stage_model
from repro.check.keytrace import findings_from_keytrace_journal
from repro.cli import main
from repro.flow.flow import run_design
from repro.flow.options import FlowOptions


def write_events(path, events):
    path.write_text(
        "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
    )


class TestProxy:
    def test_field_reads_are_recorded(self):
        with keytrace.scoped_trace() as rec:
            opts = keytrace.traced("physical", FlowOptions())
            assert opts.seed == 0
            assert opts.period > 0
            assert opts.seed == 0
        assert rec.snapshot() == {
            "physical": {"period": 1, "seed": 2},
        }

    def test_method_lookups_are_not_recorded(self):
        with keytrace.scoped_trace() as rec:
            opts = keytrace.traced("physical", FlowOptions())
            doc = opts.to_dict()
        assert isinstance(doc, dict)
        # to_dict reads fields on the *real* object, not the proxy.
        assert rec.snapshot() == {}

    def test_wrap_is_idempotent(self):
        with keytrace.scoped_trace():
            opts = keytrace.traced("physical", FlowOptions())
            assert keytrace.traced("physical", opts) is opts

    def test_scoped_trace_isolates(self):
        ambient = keytrace.trace()
        with keytrace.scoped_trace() as rec:
            assert keytrace.trace() is rec
            assert keytrace.trace() is not ambient
        assert keytrace.trace() is ambient

    def test_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KEYTRACE", raising=False)
        assert not keytrace.enabled()
        monkeypatch.setenv("REPRO_KEYTRACE", "1")
        assert keytrace.enabled()


class TestJournal:
    def test_write_report_explicit_path(self, tmp_path):
        out = tmp_path / "kt.jsonl"
        with keytrace.scoped_trace() as rec:
            rec.record("physical", "seed")
            path = keytrace.write_report(out)
        assert path == out
        events = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert events[0]["label"] == "keytrace"
        reads = [
            e for e in events if e.get("name") == "keytrace.read"
        ]
        assert reads == [{
            "type": "point", "name": "keytrace.read",
            "stage": "physical", "field": "seed", "count": 1,
        }]
        assert events[-1]["name"] == "keytrace.summary"

    def test_write_report_env_path(self, tmp_path, monkeypatch):
        out = tmp_path / "env-kt.jsonl"
        monkeypatch.setenv("REPRO_KEYTRACE_OUT", str(out))
        with keytrace.scoped_trace():
            assert keytrace.write_report() == out
        assert out.exists()

    def test_non_journal_raises(self, tmp_path):
        bad = tmp_path / "not-keytrace.jsonl"
        write_events(bad, [{"type": "meta", "label": "other"}])
        with pytest.raises(ValueError, match="keytrace.summary"):
            findings_from_keytrace_journal(bad)


def audit_events(reads):
    """A minimal journal: one keytrace.read per (stage, field)."""
    events = [{"type": "meta", "label": "keytrace"}]
    for stage, field in reads:
        events.append({
            "type": "point", "name": "keytrace.read",
            "stage": stage, "field": field, "count": 1,
        })
    events.append({
        "type": "point", "name": "keytrace.summary",
        "stages": len({s for s, _ in reads}), "fields": len(reads),
        "reads": len(reads),
    })
    return events


class TestAudit:
    def test_faithful_reads_are_clean(self, tmp_path):
        path = tmp_path / "kt.jsonl"
        write_events(path, audit_events([
            ("physical", "seed"), ("physical", "utilization"),
            ("route_a", "arch"), ("synthesis", "opt_effort"),
        ]))
        assert findings_from_keytrace_journal(path) == []

    def test_unknown_stage_flags(self, tmp_path):
        path = tmp_path / "kt.jsonl"
        write_events(path, audit_events([("warp", "seed")]))
        (f,) = findings_from_keytrace_journal(path)
        assert f.rule_id == "CK005"
        assert "unknown stage" in f.message

    def test_read_outside_static_model_flags(self, tmp_path):
        # route_a never reads pack_headroom statically, and its key
        # chain never includes it: both audit clauses fire.
        path = tmp_path / "kt.jsonl"
        write_events(path, audit_events([("route_a", "pack_headroom")]))
        findings = findings_from_keytrace_journal(path)
        assert len(findings) == 2
        assert {"CK005"} == {f.rule_id for f in findings}
        messages = " | ".join(f.message for f in findings)
        assert "never predicted" in messages
        assert "incoherence" in messages

    def test_perf_knob_read_is_covered(self, tmp_path):
        # A stage that reads a perf knob (none does today; the model is
        # widened by hand) is covered by the knob set even though the
        # knob is excluded from its key by contract.
        model = static_stage_model()
        reads = dict(model.reads, physical=model.reads["physical"] | {"jobs"})
        model = replace(model, reads=reads)
        path = tmp_path / "kt.jsonl"
        write_events(path, audit_events([("physical", "jobs")]))
        assert findings_from_keytrace_journal(path, model) == []


class TestEndToEnd:
    def test_traced_run_matches_static_model(self, monkeypatch):
        monkeypatch.setenv("REPRO_KEYTRACE", "1")
        design = make_ripple_design()
        with keytrace.scoped_trace() as rec:
            run_design(
                design, "granular",
                FlowOptions(use_cache=False, place_iterations=1,
                            pack_iterations=1),
            )
            observed = rec.snapshot()
        model = static_stage_model()
        assert model is not None
        assert set(observed) <= set(model.stages)
        for stage, fields in observed.items():
            assert set(fields) <= set(model.reads[stage]), stage
            covered = model.keyed_chain(stage) | model.perf_knobs
            assert set(fields) <= covered, stage
        # The flow genuinely executed under the proxy.
        assert observed["physical"]["seed"] >= 1

    def test_traced_run_audits_clean_via_cli(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_KEYTRACE", "1")
        out = tmp_path / "kt.jsonl"
        design = make_ripple_design()
        with keytrace.scoped_trace():
            run_design(
                design, "granular",
                FlowOptions(use_cache=False, place_iterations=1,
                            pack_iterations=1),
            )
            keytrace.write_report(out)
        assert main(
            ["check", "--keytrace", str(out), "--fail-on", "error"]
        ) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_rejects_non_journal(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        write_events(bad, [{"type": "meta", "label": "other"}])
        assert main(["check", "--keytrace", str(bad)]) == 2
        assert "keytrace" in capsys.readouterr().err
