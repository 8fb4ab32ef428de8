"""Tests of the flow benchmark: ``pytest flowbench/test_harness.py``.

The end-to-end tests run the real harness at a tiny design scale with
one timed pass per workload (about 70 s on two CPUs).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = "0.2"


def run_harness(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), *args],
        capture_output=True, text=True, timeout=900,
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One ``run --all`` and one ``run --all --trace 1`` at the tiny scale.

    The run records its own golden file, which the corrupted-golden test
    edits.
    """
    tmp = tmp_path_factory.mktemp("flowbench")
    golden = tmp / "golden.json"
    code, _ = run_harness(
        "run", "--all", "--scale", TINY, "--seconds", "0",
        "--golden", str(golden), "--record-golden",
        "--json", str(tmp / "run.json"),
    )
    assert code == 0
    code, _ = run_harness(
        "run", "--all", "--trace", "1", "--scale", TINY,
        "--golden", str(golden), "--out", str(tmp / "spans"),
        "--json", str(tmp / "trace.json"),
    )
    assert code == 0
    return {
        "tmp": tmp,
        "golden": golden,
        "run": json.loads((tmp / "run.json").read_text()),
        "trace": json.loads((tmp / "trace.json").read_text()),
    }


def test_benchmark_json_lists_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        harness.WORKLOADS
    )


def test_every_workload_emits_every_metric(tiny):
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name in harness.WORKLOADS:
        run = tiny["run"]["workloads"][name]
        assert run["correct"] and run["failed"] == 0, run["errors"]
        assert set(run["metrics"]) == end_to_end
        assert run["metrics"]["ok_frac"] == 1.0
        trace = tiny["trace"]["workloads"][name]
        assert trace["correct"], trace["errors"]
        assert trace["golden"] == "checked"
        assert set(trace["metrics"]) == per_layer
        assert Path(trace["spans"]).is_file()


def test_provenance_is_recorded(tiny):
    prov = tiny["run"]["provenance"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc",
                "cpu_model", "loadavg_start", "loadavg_end"):
        assert key in prov


def test_corrupted_golden_fails_every_pass(tiny):
    golden = json.loads(tiny["golden"].read_text())
    for entry in golden["entries"]:
        entry["metrics_sha256"] = "0" * 64
    corrupt = tiny["tmp"] / "corrupt.json"
    corrupt.write_text(json.dumps(golden))
    out = tiny["tmp"] / "corrupt-run.json"
    code, _ = run_harness(
        "run", "--workload", "bench_warm", "--scale", TINY,
        "--seconds", "0", "--golden", str(corrupt), "--json", str(out),
    )
    record = json.loads(out.read_text())["workloads"]["bench_warm"]
    assert code != 0
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["ok_frac"] == 0.0


def test_a_run_that_fails_in_setup_still_reports_ok_frac(
    monkeypatch, tmp_path
):
    def crash(*_args):
        raise harness.PassFailed("child exited 1: boom")

    monkeypatch.setattr(harness, "spawn", crash)
    record = harness.run_workload(
        harness.WORKLOADS["bench_cold"], 7, 0, None,
        harness.Oracle(tmp_path / "golden.json"),
    )
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert not record["correct"]
    assert record["metrics"] == {"ok_frac": 0.0}
    line = json.loads(harness.contract_line(record, {"ok_frac": "frac"}))
    assert line["metrics"] == {"ok_frac": {"value": 0.0, "unit": "frac"}}


def test_layer_counts_repeat_exactly(tiny):
    out = tiny["tmp"] / "trace-again.json"
    code, _ = run_harness(
        "run", "--workload", "bench_cold", "--trace", "1", "--scale", TINY,
        "--golden", str(tiny["golden"]), "--out", str(tiny["tmp"] / "again"),
        "--json", str(out),
    )
    assert code == 0
    first = tiny["trace"]["workloads"]["bench_cold"]["metrics"]
    second = json.loads(out.read_text())["workloads"]["bench_cold"]["metrics"]
    counts = [
        m["name"] for m in BENCHMARK["per_layer"]
        if m["unit"] in ("count", "B", "um")
    ]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["synth.aig_ands"] > 0
    assert first["place.sa_evaluated"] > 0


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": 1, "cell": None, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 3.0, 6.0),   # overlaps a: union is [1, 6]
        span("c", "root", 8.0, 12.0),  # clipped to the parent's end
        span("a1", "a", 1.5, 2.0),
    ]
    selfs = harness.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["a"] == pytest.approx(3.0 - 0.5)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(0.5)


def test_compare_needs_nine_of_ten_wins():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p - 1.0 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == (
        "improved"
    )
    two_losses = faster[:8] + [p + 0.5 for p in parent[8:]]
    row = compare.verdict(parent, two_losses, "lower", 0.1)
    assert row["wins"] == 8 and row["verdict"] == "unchanged"
    assert compare.verdict(parent[:9], faster[:9], "lower", 0.1)[
        "verdict"] == "unchanged"


def test_compare_regressed_and_unresolved():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    slower = [p * 1.2 for p in parent]
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == (
        "regressed"
    )
    noisy = [10.0, 14.0, 7.0, 10.0, 13.0, 7.5, 10.0, 12.5, 8.0, 10.0]
    row = compare.verdict(parent, noisy, "lower", 0.1)
    assert row["spread"] > 0.1 and row["verdict"] == "unresolved"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == (
        "unchanged"
    )


def test_compare_flags_any_rise_in_fail_frac():
    def doc(failed):
        return {"workloads": {"bench_cold": {
            "attempted": 4, "failed": failed,
            "metrics": {"pass_s_p50": 5.0},
        }}}

    metrics = [{"name": "pass_s_p50", "better": "lower", "bound": 0.1}]
    rows = compare.compare([doc(0)] * 3, [doc(0)] * 2 + [doc(1)], metrics)
    fail_row = next(r for r in rows if r["metric"] == "fail_frac")
    assert fail_row["verdict"] == "regressed"
    rows = compare.compare([doc(0)] * 3, [doc(0)] * 3, metrics)
    assert all(r["verdict"] == "unchanged" for r in rows)


def test_compare_flags_a_run_that_measured_nothing():
    ok = {"workloads": {"bench_cold": {
        "attempted": 4, "failed": 0, "metrics": {"pass_s_p50": 5.0},
    }}}
    crashed = {"workloads": {"bench_cold": {"attempted": 1, "failed": 1}}}
    metrics = [{"name": "pass_s_p50", "better": "lower", "bound": 0.1}]
    rows = compare.compare([ok] * 3, [ok, ok, crashed], metrics)
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "pass_s_p50": "regressed", "fail_frac": "regressed",
    }
    rows = compare.compare([ok, ok, crashed], [ok] * 3, metrics)
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "pass_s_p50": "unresolved", "fail_frac": "unchanged",
    }
    assert "missing in 1 runs" in compare.format_rows(rows)
