"""Flow benchmark: the Figure-6 evaluation matrix, end to end and by layer.

Every timed pass is a fresh child process (``child.py``) with its own
temporary ``REPRO_CACHE_DIR``, ``PYTHONHASHSEED=0`` and no ``REPRO_*``
variable inherited from the caller, so a pass pays what one ``repro
tables`` invocation pays, and no in-process memo can make a cold pass
warm.  Passes run one after another from this process (closed loop, one
client); no pass uses more than ``nproc`` workers.

Run from the repository root::

    python flowbench/harness.py run --workload bench_cold --seed 7
    python flowbench/harness.py run --all --seed 7 --json out.json
    python flowbench/harness.py run --workload fpu_full --trace 1 --out DIR
    python flowbench/compare.py --parent a*.json --change b*.json

``run`` prints every end-to-end metric with its unit, checks each pass's
output digest against ``golden.json`` (or, for a seed without a golden
entry, against the other passes), and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` it
runs one plain pass and one pass recorded by ``repro.obs``, writes the
recorded spans to ``DIR/spans.json`` and puts the per-layer metrics in
the JSON line.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 25
#: ``setup_s`` is the median of at least this many set-ups per run; runs
#: with fewer passes add set-up-only children.
SETUP_SAMPLES = 5
#: A pass that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120

DESIGNS = ("alu", "firewire", "fpu", "netswitch")
ARCHES = ("granular", "lut")
STAGES = ("synthesis", "physical", "route_a", "packing", "route_b")

#: The cells and design scale of each matrix a workload can run.  The
#: bench matrix runs at ``repro tables``' default ``--scale``.
MATRICES = {
    "bench": {
        "cells": [[d, a] for d in DESIGNS for a in ARCHES],
        "scale": 0.5,
    },
    "fpu_full": {"cells": [["fpu", "granular"]], "scale": 1.0},
}

#: Every result-affecting ``FlowOptions`` field except ``seed`` (which is
#: the workload seed), spelled out so the inputs cannot drift when the
#: flow's defaults change.  ``place_effort=0.2`` is the experiment setting.
FLOW_OPTIONS = {
    "period": 0.5,
    "opt_effort": 1,
    "run_compaction": True,
    "place_iterations": 2,
    "place_effort": 0.2,
    "pack_iterations": 2,
    "pack_headroom": 1.15,
    "utilization": 0.70,
    "routing_tracks": 28,
    "routing_bins_per_side": 12,
}


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and README.md say why each exists."""

    name: str
    matrix: str
    jobs: int
    #: Timed passes start from a cache one untimed pass filled, instead
    #: of one holding only the realization tables.
    warm: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bench_cold", "bench", jobs=1, warm=False),
        Workload("bench_cold_j2", "bench", jobs=2, warm=False),
        Workload("bench_warm", "bench", jobs=1, warm=True),
        Workload("fpu_full", "fpu_full", jobs=1, warm=False),
    )
}


class PassFailed(Exception):
    """A child raised, timed out, wrote no result or the wrong output."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0))


def child_env(cache_dir, work):
    """The caller's environment minus every ``REPRO_*`` variable.

    ``REPRO_SA_ENGINE``, ``REPRO_TRACE``, ``REPRO_KEYTRACE``,
    ``REPRO_LOCKWATCH``, ``REPRO_SCALE`` and ``REPRO_NO_CACHE`` each
    silently change what runs; the cache and journal dirs point into the
    pass's own temp dir, never at ``~/.cache/repro`` or ``results/``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_JOURNAL_DIR=str(work / "journals"),
        TMPDIR=str(tmp),
    )
    return env


def spawn(spec, cache_dir, work):
    """Run ``child.py`` on ``spec``; returns its result plus ``setup_s``."""
    fd, name = tempfile.mkstemp(dir=work, suffix=".json")
    os.close(fd)
    result_path = Path(name)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec), str(result_path)],
        env=child_env(cache_dir, work), cwd=work,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"child timed out after {CHILD_TIMEOUT_S} s")
    finally:
        # Pool workers of a crashed child must not outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    text = result_path.read_text(encoding="utf-8")
    if proc.returncode != 0 or not text:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise PassFailed(
            f"child exited {proc.returncode}: " + " | ".join(tail)
        )
    result = json.loads(text)
    if "ready" in result:
        result["setup_s"] = result["ready"] - start
    return result


def pass_spec(workload, seed, scale, jobs, **extra):
    """The child's spec (see child.py)."""
    matrix = MATRICES[workload.matrix]
    return {
        "mode": "pass",
        "cells": matrix["cells"],
        "scale": matrix["scale"] if scale is None else scale,
        "options": dict(FLOW_OPTIONS, seed=seed, jobs=jobs),
        "journal": None,
        **extra,
    }


def golden_key(spec):
    """What a golden entry pins: cells, scale and every flow option."""
    options = {
        k: v for k, v in spec["options"].items()
        if k in FLOW_OPTIONS or k == "seed"
    }
    return json.dumps(
        {"cells": spec["cells"], "scale": spec["scale"], "options": options},
        sort_keys=True,
    )


class Oracle:
    """Expected output digests, keyed by :func:`golden_key`.

    Entries come from the golden file; a spec without one takes the
    digests of its first pass, so later passes and later workloads of the
    same invocation must agree with it (``golden: absent``).  With
    ``record`` the file is not consulted and :meth:`save` rewrites the
    entries this run produced.
    """

    DIGESTS = ("metrics_sha256", "tables_sha256")

    def __init__(self, path, record=False):
        self.path = Path(path)
        self.record = record
        self.golden = {}
        if self.path.exists():
            for entry in json.loads(self.path.read_text())["entries"]:
                self.golden[entry["key"]] = {
                    k: entry[k] for k in self.DIGESTS
                }
        self.expected = {} if record else dict(self.golden)

    def status(self, spec):
        """``checked``: digests compared with the golden file."""
        if self.record:
            return "recorded"
        return "checked" if golden_key(spec) in self.golden else "absent"

    def check(self, spec, result):
        """True when ``result``'s digests are the expected ones."""
        digests = {k: result[k] for k in self.DIGESTS}
        return self.expected.setdefault(golden_key(spec), digests) == digests

    def save(self):
        """Write the entries this run recorded into the golden file."""
        self.golden.update(self.expected)
        entries = [{"key": k, **self.golden[k]} for k in sorted(self.golden)]
        self.path.write_text(
            json.dumps({"entries": entries}, indent=1) + "\n",
            encoding="utf-8",
        )


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------

class Session:
    """One workload run: a private work dir and its pass bookkeeping.

    ``attempted`` counts timed passes, plus one for a seed, fill or
    set-up child that failed; ``failed`` counts the failures among them.
    """

    def __init__(self, workload, seed, scale, oracle):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.oracle = oracle
        self.jobs = workload.jobs  # main() skips workloads over nproc
        WORK.mkdir(parents=True, exist_ok=True)
        self.work = Path(
            tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
        )
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def spec(self, **extra):
        return pass_spec(self.workload, self.seed, self.scale, self.jobs,
                         **extra)

    def fresh_cache(self, source):
        self.count += 1
        target = self.work / f"cache-{self.count}"
        shutil.copytree(source, target)
        return target

    def journal(self, name):
        return str(self.work / f"{name}.jsonl")

    def seed_tables(self, journal=None):
        """Derive the realization tables into an empty template cache."""
        template = self.work / "template"
        template.mkdir()
        spawn(self.spec(mode="seed", journal=journal), template, self.work)
        return template

    def fill(self, template, journal=None):
        """The cache timed passes copy.

        For a warm workload, one untimed pass fills a copy of the
        template first; its output must match like any other pass.
        """
        if not self.workload.warm:
            return template
        spec = self.spec(journal=journal)
        cache = self.fresh_cache(template)
        if not self.oracle.check(spec, spawn(spec, cache, self.work)):
            raise PassFailed("fill pass: output digest mismatch")
        return cache

    def one_pass(self, source, **extra):
        """One timed pass on a copy of ``source``; None when it failed."""
        spec = self.spec(**extra)
        cache = self.fresh_cache(source)
        self.attempted += 1
        try:
            result = spawn(spec, cache, self.work)
        except PassFailed as exc:
            self.fail(str(exc))
            return None
        if not self.oracle.check(spec, result):
            self.fail("output digest mismatch")
        return result

    def record(self, passes, **more):
        """What every run reports, whether or not it produced metrics."""
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "jobs": self.jobs,
            "passes": passes,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.failed == 0,
            "golden": self.oracle.status(self.spec()),
            "errors": self.errors,
            **more,
        }


def tail(pass_s):
    """The highest percentile of ``pass_s`` with 10 samples beyond it.

    ``None`` below 20 samples, where no percentile above the median has
    ten samples beyond it.
    """
    if len(pass_s) < 20:
        return None
    q = int(100 * (1 - 10 / len(pass_s)))
    value = statistics.quantiles(pass_s, n=100, method="inclusive")[q - 1]
    return {"percentile": q, "value": value}


def run_workload(workload, seed, seconds, scale, oracle):
    """Timed passes for ``seconds``; the end-to-end record of the run."""
    session = Session(workload, seed, scale, oracle)
    results, setups = [], []
    try:
        source = session.fill(session.seed_tables())
        start = time.monotonic()
        while True:
            result = session.one_pass(source)
            if result is None:
                break
            results.append(result)
            # Stop unless a pass of average length still fits the window.
            elapsed = time.monotonic() - start
            if elapsed * (len(results) + 1) / len(results) > seconds:
                break
        setups = [r["setup_s"] for r in results]
        while results and len(setups) < SETUP_SAMPLES:
            cache = session.fresh_cache(source)
            spec = session.spec(mode="setup")
            setups.append(spawn(spec, cache, session.work)["setup_s"])
    except PassFailed as exc:
        session.attempted += 1
        session.fail(str(exc))
    finally:
        session.close()
    pass_s = [r["pass_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    record = session.record(len(results), pass_s_tail=tail(pass_s), samples={
        "setup_s": setups, "pass_s": pass_s, "peak_rss_mb": rss,
    })
    record["metrics"] = {
        "ok_frac": (session.attempted - session.failed) / session.attempted,
    }
    if results and setups:
        record["metrics"].update(
            setup_s=statistics.median(setups),
            pass_s_p50=statistics.median(pass_s),
            peak_rss_mb=statistics.median(rss),
        )
    return record


def trace_workload(workload, seed, scale, oracle, out_dir):
    """One plain pass, then one pass recorded by ``repro.obs``.

    The seed child is recorded too (``synth.realize_s``), and so is a warm
    workload's fill pass: a warm pass runs no synthesis or SA, so those
    layers' metrics describe the fill pass that did the work.
    """
    session = Session(workload, seed, scale, oracle)
    metrics = None
    try:
        journals = {"seed": session.journal("seed")}
        template = session.seed_tables(journal=journals["seed"])
        if workload.warm:
            journals["fill"] = session.journal("fill")
        source = session.fill(template, journal=journals.get("fill"))
        plain = session.one_pass(source)
        journals["pass"] = session.journal("pass")
        traced = session.one_pass(source, journal=journals["pass"])
        if plain is not None and traced is not None:
            spans = {k: read_spans(v) for k, v in journals.items()}
            counters = read_counters(journals.get("fill", journals["pass"]))
            metrics = layer_metrics(
                spans, counters, traced, plain["pass_s"], session.jobs
            )
    except PassFailed as exc:
        session.attempted += 1
        session.fail(str(exc))
    finally:
        session.close()
    record = session.record(session.attempted, metrics=metrics or {})
    if metrics is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "spans.json").write_text(
            json.dumps({"workload": workload.name, "seed": seed,
                        "children": spans}, indent=1) + "\n",
            encoding="utf-8",
        )
        record["spans"] = str(out_dir / "spans.json")
    return record


# ----------------------------------------------------------------------
# Journals -> per-layer metrics
# ----------------------------------------------------------------------

def read_events(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_counters(path):
    """Counter name -> total over every process of one journal."""
    totals = defaultdict(int)
    for event in read_events(path):
        if event["ev"] == "counter":
            totals[event["name"]] += event["value"]
    return totals


def read_spans(path):
    """One journal's spans, each with its cell and self time.

    A span is ``{id, parent, name, start, end, pid, cell, attrs, self_s}``;
    ``cell`` is the design (and arch) named by the span or its nearest
    ancestor that names one.  A ``synth.aig`` point's AND count becomes
    the ``aig_ands`` attribute of its enclosing ``synth.optimize`` span.
    """
    events = read_events(path)
    spans = [
        {"id": e["sid"], "parent": e.get("parent"), "name": e["name"],
         "start": e["ts"], "end": e["ts"] + e["dur"], "pid": e["pid"],
         "attrs": e.get("attrs", {})}
        for e in events if e["ev"] == "span"
    ]
    by_id = {span["id"]: span for span in spans}
    for event in events:
        if event["ev"] == "point" and event["name"] == "synth.aig":
            by_id[event["parent"]]["attrs"]["aig_ands"] = (
                event["attrs"]["ands"]
            )
    selfs = self_times(spans)
    for span in spans:
        node = span
        while node is not None and "design" not in node["attrs"]:
            node = by_id.get(node["parent"])
        attrs = node["attrs"] if node is not None else {}
        span["cell"] = "/".join(
            attrs[k] for k in ("design", "arch") if k in attrs
        ) or None
        span["self_s"] = selfs[span["id"]]
    spans.sort(key=lambda s: (s["start"], s["id"]))
    return spans


def self_times(spans):
    """Span id -> duration minus the part of it its children cover.

    Children may overlap (spans from parallel pool workers share a
    parent); the covered part is the union of their intervals, clipped
    to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, span["start"]), min(end, span["end"])
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, traced, plain_pass_s, jobs):
    """The per-layer numbers of one recorded pass (see README.md).

    ``spans`` maps each recorded child (``seed``, ``pass`` and, for a
    warm workload, ``fill``) to its spans; ``counters`` are those of the
    child that ran synthesis and SA (``fill`` if there is one, else
    ``pass``); ``traced`` is the recorded pass's result.
    """
    recorded = spans["pass"]
    root = next(s for s in recorded if s["name"] == "run_cells")
    # Pool workers' spans have no parent in this process, so "in the
    # pass" is by time: everything that started inside run_cells.
    inside = [
        s for s in recorded
        if s is not root and root["start"] <= s["start"] <= root["end"]
    ]
    worked = spans.get("fill", inside)

    def seconds(name, pool=inside):
        return sum(s["end"] - s["start"] for s in pool if s["name"] == name)

    stage = {name: seconds(f"flow.{name}") for name in STAGES}
    busy = sum(stage.values())
    wall = root["end"] - root["start"]
    evaluated = counters["sa.evaluated"]
    accepted = counters["sa.accepted"]
    cache = traced["cache"]
    counts = traced["counts"]
    return {
        "synth.total_s": stage["synthesis"],
        "synth.extract_s": seconds("synth.extract", worked),
        "synth.optimize_s": seconds("synth.optimize", worked),
        "synth.map_s": seconds("synth.map", worked),
        "synth.compact_s": seconds("synth.compact", worked),
        "synth.aig_ands": sum(
            s["attrs"].get("aig_ands", 0) for s in worked
            if s["name"] == "synth.optimize"
        ),
        "synth.mapped_instances": counts["synth.mapped_instances"],
        "synth.compacted_instances": counts["synth.compacted_instances"],
        "synth.supernodes_collapsed": counts["synth.supernodes_collapsed"],
        "synth.realize_s": sum(
            s["end"] - s["start"] for s in spans["seed"]
            if s["name"] == "realize.table" and not s["attrs"].get("loaded")
        ),
        "cells.characterize_s": seconds("cells.characterize", recorded),
        "place.physical_s": stage["physical"],
        "place.sa_evaluated": evaluated,
        "place.sa_accepted": accepted,
        "place.sa_accept_ratio": _ratio(accepted, evaluated),
        "place.sa_moves_per_s":
            _ratio(evaluated, seconds("sa.place", worked)),
        "route.flow_a_s": stage["route_a"],
        "route.flow_b_s": stage["route_b"],
        "route.iterations": counts["route.iterations"],
        "route.overused_edges": counts["route.overused_edges"],
        "route.wirelength_um": counts["route.wirelength_um"],
        "pack.packing_s": stage["packing"],
        "pack.plbs_used": counts["pack.plbs_used"],
        "pack.displacement_um": counts["pack.displacement_um"],
        "designs.build_s": seconds("designs.build"),
        "cache.key_s": seconds("cache.key"),
        "cache.io_s": seconds("cache.get") + seconds("cache.put"),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio":
            _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "cache.bytes_read": cache["bytes_read"],
        "cache.bytes_written": cache["bytes_written"],
        "sched.wall_s": wall,
        "sched.busy_s": busy,
        "sched.idle_frac": 1.0 - _ratio(busy, jobs * wall),
        "sched.tasks_run": sum(
            1 for s in inside
            if s["name"] in {f"flow.{name}" for name in STAGES}
            and not s["attrs"].get("cached")
        ),
        "obs.trace_overhead_frac": traced["pass_s"] / plain_pass_s - 1.0,
    }


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------

def _git(*args):
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance():
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def contract_line(record, units):
    """The result line: correctness, pass counts and named metrics.

    A run that failed before a metric could be measured leaves it out;
    ``ok_frac`` is always there on an end-to-end run.
    """
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items() if name in record["metrics"]
        },
    })


def report(record, units):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"jobs {record['jobs']}, passes {record['passes']}, "
          f"golden: {record['golden']})")
    for error in record["errors"]:
        print(f"   error: {error}")
    fail_frac = _ratio(record["failed"], record["attempted"])
    print(f"   fail_frac = {fail_frac:.4f} "
          f"({record['failed']}/{record['attempted']})")
    for name, unit in units.items():
        if name in record["metrics"]:
            print(f"   {name} = {record['metrics'][name]:.6g} {unit}")
    tail_s = record.get("pass_s_tail")
    if tail_s:
        print(f"   pass_s p{tail_s['percentile']} = {tail_s['value']:.6g} s "
              f"(n={record['passes']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["run"])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run timed passes (at least one) while the "
                             "next is expected to end within this window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one plain and one recorded pass; print "
                             "the per-layer metrics")
    parser.add_argument("--out", metavar="DIR",
                        help="with --trace 1: where spans.json goes "
                             "(default flowbench/_work/trace/<workload>)")
    parser.add_argument("--json", metavar="OUT",
                        help="write every record, samples and provenance")
    parser.add_argument("--scale", type=float,
                        help="override the design scale (smoke tests)")
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="golden digest file (default golden.json)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden entries of this run")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no flow sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    names = list(WORKLOADS) if args.all else [args.workload]
    oracle = Oracle(args.golden, record=args.record_golden)
    doc = {"provenance": provenance(), "workloads": {}}
    ok = True
    for name in names:
        workload = WORKLOADS[name]
        if workload.jobs > nproc():
            reason = (f"skipped: needs {workload.jobs} CPUs, "
                      f"nproc is {nproc()}")
            print(f"== {name}: {reason}")
            doc["workloads"][name] = {"workload": name, "skipped": reason}
            ok = ok and args.all
            continue
        if args.trace:
            out = Path(args.out) if args.out else WORK / "trace"
            if args.all or not args.out:
                out = out / name
            record = trace_workload(workload, args.seed, args.scale, oracle,
                                    out)
        else:
            record = run_workload(workload, args.seed, args.seconds,
                                  args.scale, oracle)
        doc["workloads"][name] = record
        report(record, units)
        ok = ok and record["correct"] and set(record["metrics"]) == set(units)
        print(contract_line(record, units), flush=True)
    doc["provenance"]["loadavg_end"] = list(os.getloadavg())
    if args.record_golden and ok:
        oracle.save()
    if args.json:
        Path(args.json).write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
