"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``
    Print the Section-2 function analysis (Figure 2/3, config coverage).
``flow DESIGN`` / ``run DESIGN``
    Run one benchmark design through both flows on one architecture.
    ``--json`` emits a machine-readable run summary; ``--trace`` records
    a run journal (see :mod:`repro.obs`).
``check [DESIGN ...]``
    Static verification: run the flow for the named designs (default:
    all shipped benchmarks) and audit every stage artifact with the
    :mod:`repro.check` rule families; ``--self`` lints the ``repro``
    source tree itself instead, in one pass (determinism ``DT``, lock
    discipline ``CC``, cache-key coherence ``CK``).
    ``--json`` / ``--sarif`` emit machine-readable findings; exit
    status reflects ``--fail-on``.
``tables``
    Regenerate the paper's Tables 1 and 2 (plus the compaction summary).
``results``
    Rewrite every generated artifact under the current directory: the
    ``results/*.txt`` files, ``results_fullscale.txt`` and the generated
    blocks of ``EXPERIMENTS.md`` (see ``repro.flow.results.ARTIFACTS``).
``explore``
    Rank candidate PLB architectures with the granularity explorer.
``vias``
    Print the via-programmability cost comparison of both PLBs.
``trace [JOURNAL]``
    Render a journal's span tree; ``--chrome`` also writes Chrome
    ``chrome://tracing`` trace-event JSON; ``--gantt`` renders the
    stage-DAG timeline (one lane per worker process).
``cache stats`` / ``cache gc``
    Inspect the content-addressed stage cache, or evict entries by age
    (``--max-age 7d``) and/or LRU order until under a size budget
    (``--max-size 500M``); ``--dry-run`` previews.
``stats [JOURNAL]``
    Print a journal's metric summaries (counters, gauges, histogram
    percentiles); ``--prometheus`` emits Prometheus exposition text.
``serve``
    Run the flow-as-a-service job server (REST API, persistent
    coalescing queue, graceful drain on SIGTERM) — see DESIGN.md §9.
``submit DESIGN`` / ``jobs``
    Thin HTTP clients for a running server: submit a job (``--wait``
    streams progress and prints the result) and list/inspect/cancel
    jobs.

All human narration goes through a shared :class:`Reporter`; the global
``--quiet`` flag silences progress text and ``--json`` mode guarantees
stdout carries nothing but the JSON payload — machine output is never
interleaved with human text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

DESIGN_CHOICES = ["alu", "fpu", "netswitch", "firewire"]


class Reporter:
    """Routes CLI output so machine payloads stay clean.

    ``info`` is progress narration (silenced by ``--quiet`` and in JSON
    mode), ``out`` is the primary human-readable result (silenced in
    JSON mode, where the payload replaces it), and ``payload`` prints
    exactly one JSON document to stdout.
    """

    def __init__(self, quiet: bool = False, json_mode: bool = False):
        self.quiet = quiet
        self.json_mode = json_mode

    def info(self, text: str = "") -> None:
        if not self.quiet and not self.json_mode:
            print(text)

    def out(self, text: str = "") -> None:
        if not self.json_mode:
            print(text)

    def payload(self, obj) -> None:
        print(json.dumps(obj, indent=2, sort_keys=True, default=str))


def _cmd_analyze(_args: argparse.Namespace, reporter: Reporter) -> int:
    from .core.configs import coverage_summary
    from .flow.experiments import run_figure2

    reporter.out(run_figure2().format())
    reporter.out("\nGranular configuration coverage (Section 2.3):")
    for name, count in coverage_summary().items():
        reporter.out(f"  {name:8s} {count:3d} / 256")
    return 0


def _cmd_flow(args: argparse.Namespace, reporter: Reporter) -> int:
    from .flow.experiments import build_design
    from .flow.flow import run_design
    from .flow.options import FlowOptions

    from .check import CheckError

    options = FlowOptions(
        arch=args.arch, seed=args.seed, place_effort=args.effort,
        use_cache=not args.no_cache,
        observe=args.trace, check=args.check,
    )
    netlist = build_design(args.design, scale=args.scale)
    reporter.info(f"Running {args.design} (scale {args.scale}) on the "
                  f"{args.arch} architecture...")
    try:
        run = run_design(netlist, args.arch, options)
    except CheckError as exc:
        print(f"fatal check findings ({exc.context}):", file=sys.stderr)
        print(exc.report.format(), file=sys.stderr)
        return 1
    if args.json:
        reporter.payload(run.metrics() if args.metrics_only else run.summary())
    else:
        st = run.synthesis.stats
        reporter.out(f"  mapped: {st.n_instances} instances "
                     f"({st.nand2_equivalents:.0f} NAND2-eq), "
                     f"compaction {run.synthesis.compaction.reduction:.1%}")
        reporter.out(f"  flow a: die {run.flow_a.die_area:8.0f} um^2, "
                     f"avg slack {run.flow_a.average_slack:7.3f} ns")
        reporter.out(f"  flow b: die {run.flow_b.die_area:8.0f} um^2, "
                     f"avg slack {run.flow_b.average_slack:7.3f} ns, "
                     f"{run.flow_b.plbs_used} PLBs "
                     f"({run.flow_b.array_side} per side)")
        reporter.out(run.performance_report())
    if run.journal_path is not None:
        reporter.info(f"journal: {run.journal_path}")
    return 0


def _cmd_check(args: argparse.Namespace, reporter: Reporter) -> int:
    from dataclasses import replace

    from .check import (
        REGISTRY,
        Report,
        Severity,
        check_design_run,
        filter_findings,
        lint_paths,
        rule_catalog,
    )

    rules = rule_catalog()
    if args.list_rules:
        family_names = {
            "NL": "netlist structure",
            "LB": "library / realization consistency",
            "PK": "packing legality",
            "PL": "placement",
            "RT": "routing",
            "EQ": "equivalence",
            "DT": "codebase determinism (--self)",
            "CC": "codebase concurrency (--self)",
            "CK": "cache-key coherence (--self)",
        }
        for family in REGISTRY.families():
            label = family_names.get(family, "")
            reporter.out(f"{family}  {label}".rstrip())
            for rule_obj in REGISTRY.for_family(family):
                ref = (
                    f"  [{rule_obj.paper_ref}]" if rule_obj.paper_ref else ""
                )
                reporter.out(
                    f"  {rule_obj.rule_id}  {rule_obj.severity.label:7s} "
                    f"{rule_obj.stage:11s} {rule_obj.description}{ref}"
                )
        return 0

    rule_ids = None
    if args.rules:
        raw_ids = {
            token.strip()
            for part in args.rules
            for token in part.split(",")
            if token.strip()
        }
        # Selection may name bare families (CC) as well as full ids.
        rule_ids = REGISTRY.validate_selection(raw_ids)

    report = Report()
    if args.self:
        reporter.info("linting src/repro in one pass (determinism, lock "
                      "discipline, cache-key coherence)...")
        report.extend(filter_findings(lint_paths(), rule_ids))
    else:
        from .flow.experiments import build_design
        from .flow.flow import run_design
        from .flow.options import FlowOptions

        designs = args.design or DESIGN_CHOICES
        unknown = [d for d in designs if d not in DESIGN_CHOICES]
        if unknown:
            print(f"unknown design(s) {unknown} "
                  f"(choices: {DESIGN_CHOICES})", file=sys.stderr)
            return 2
        arches = (
            ["lut", "granular"] if args.arch == "all" else [args.arch]
        )
        for design in designs:
            netlist = build_design(design, scale=args.scale)
            for arch in arches:
                options = FlowOptions(
                    arch=arch, seed=args.seed, place_effort=args.effort,
                    use_cache=not args.no_cache,
                )
                reporter.info(f"checking {design}/{arch}...")
                run = run_design(netlist, arch, options)
                sub = check_design_run(run, stages=args.stage,
                                       rule_ids=rule_ids)
                report.extend(
                    replace(f, location=f"{design}/{arch}: {f.location}")
                    for f in sub
                )

    if args.json:
        reporter.payload(report.to_json())
    elif args.sarif:
        reporter.payload(report.to_sarif(rules))
    else:
        reporter.out(report.format())

    threshold = Severity.parse(args.fail_on)
    return 1 if report.at_least(threshold) else 0


def _cmd_tables(args: argparse.Namespace, reporter: Reporter) -> int:
    from .flow.experiments import (
        default_options,
        run_compaction_summary,
        run_matrix,
        run_table1,
        run_table2,
    )
    from .obs import journal as obs_journal

    from dataclasses import replace

    options = replace(
        default_options(), jobs=args.jobs,
        use_cache=not args.no_cache, observe=args.trace,
    )
    matrix = run_matrix(options, scale=args.scale, jobs=args.jobs)
    reporter.out(run_table1(matrix).format())
    reporter.out()
    reporter.out(run_table2(matrix).format())
    reporter.out()
    reporter.out(run_compaction_summary(matrix).format())
    if args.timings:
        reporter.out()
        reporter.out(matrix.performance_report())
    if obs_journal.last_journal() is not None:
        reporter.info(f"journal: {obs_journal.last_journal()}")
    return 0


def _cmd_results(_args: argparse.Namespace, reporter: Reporter) -> int:
    from .flow.results import write_results

    for key in write_results(Path.cwd()):
        reporter.info(f"wrote {key}")
    return 0


def _cmd_explore(_args: argparse.Namespace, reporter: Reporter) -> int:
    from .flow.results import format_granularity_ranking

    reporter.out(format_granularity_ranking())
    return 0


def _cmd_vias(_args: argparse.Namespace, reporter: Reporter) -> int:
    from .flow.results import format_via_costs

    reporter.out(format_via_costs())
    return 0


def _cmd_cache(args: argparse.Namespace, reporter: Reporter) -> int:
    from .flow.cache import (
        collect_garbage,
        default_cache_dir,
        parse_age,
        parse_size,
        usage_summary,
    )

    root = Path(args.dir) if args.dir else default_cache_dir()
    if args.cache_command == "stats":
        summary = usage_summary(root)
        if args.json:
            reporter.payload(summary)
            return 0
        reporter.out(f"cache root: {summary['root']}")
        reporter.out(
            f"{summary['entries']} entries, {summary['bytes']} bytes"
        )
        for stage, bucket in summary["stages"].items():
            reporter.out(
                f"  {stage:10s} {bucket['entries']:6d} entries "
                f"{bucket['bytes']:12d} B"
            )
        return 0

    # gc
    max_bytes = max_age = None
    try:
        if args.max_size is not None:
            max_bytes = parse_size(args.max_size)
        if args.max_age is not None:
            max_age = parse_age(args.max_age)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if max_bytes is None and max_age is None:
        print("cache gc needs --max-size and/or --max-age "
              "(otherwise there is nothing to evict)", file=sys.stderr)
        return 2
    report = collect_garbage(
        root, max_bytes=max_bytes, max_age_seconds=max_age,
        dry_run=args.dry_run,
    )
    if args.json:
        reporter.payload({
            "root": str(root),
            "scanned": report.scanned,
            "removed": report.removed,
            "freed_bytes": report.freed_bytes,
            "kept": report.kept,
            "kept_bytes": report.kept_bytes,
            "errors": report.errors,
            "dry_run": report.dry_run,
        })
    else:
        reporter.out(report.format())
    return 0


def _resolve_journal(args: argparse.Namespace, reporter: Reporter):
    from .obs import journal as obs_journal

    if args.journal:
        path = Path(args.journal)
        if not path.exists():
            print(f"no journal at {path}", file=sys.stderr)
            return None
        return path
    path = obs_journal.latest_journal()
    if path is None:
        print(
            f"no journals under {obs_journal.journal_dir()} — record one "
            "with `repro run <design> --trace` (or REPRO_TRACE=1)",
            file=sys.stderr,
        )
    return path


def _read_journal_or_complain(path) -> Optional[list]:
    """Load a journal for trace/stats; one-line stderr on any defect."""
    from .obs import journal as obs_journal

    try:
        events = obs_journal.read_journal(path)
    except (ValueError, OSError) as exc:
        print(f"cannot read journal: {exc}", file=sys.stderr)
        return None
    if not events:
        print(f"journal {path} is empty — nothing to report",
              file=sys.stderr)
        return None
    return events


def _cmd_trace(args: argparse.Namespace, reporter: Reporter) -> int:
    from .obs import export

    path = _resolve_journal(args, reporter)
    if path is None:
        return 1
    events = _read_journal_or_complain(path)
    if events is None:
        return 1
    reporter.info(f"journal: {path}")
    if args.chrome:
        doc = export.chrome_trace(events)
        Path(args.chrome).write_text(json.dumps(doc), encoding="utf-8")
        reporter.info(
            f"chrome trace written to {args.chrome} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )
    if args.gantt:
        reporter.out(export.format_gantt(events))
    else:
        reporter.out(export.format_span_tree(events, max_depth=args.depth))
    return 0


def _cmd_stats(args: argparse.Namespace, reporter: Reporter) -> int:
    from .obs import export

    path = _resolve_journal(args, reporter)
    if path is None:
        return 1
    events = _read_journal_or_complain(path)
    if events is None:
        return 1
    reporter.info(f"journal: {path}")
    if args.prometheus:
        reporter.out(export.prometheus_text(events))
    else:
        reporter.out(export.format_stats(events))
    return 0


def _cmd_serve(args: argparse.Namespace, reporter: Reporter) -> int:
    from .serve.server import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        flow_jobs=args.flow_jobs,
        queue_limit=args.queue_limit,
        queue_dir=Path(args.queue_dir) if args.queue_dir else None,
    )
    # The listening line goes through ``out`` (not ``info``) so wrappers
    # can discover an ephemeral --port 0 even under --quiet tooling.
    return run_server(config, log=reporter.out)


def _serve_client(args: argparse.Namespace):
    from .serve.client import ServeClient

    return ServeClient(args.server)


def _cmd_submit(args: argparse.Namespace, reporter: Reporter) -> int:
    from .serve.client import ServeError

    client = _serve_client(args)
    options = {"seed": args.seed, "place_effort": args.effort}
    try:
        ticket = client.submit(
            kind=args.kind,
            design=args.design if args.kind != "tables" else None,
            arch=args.arch,
            scale=args.scale,
            options=options,
            priority=args.priority,
            timeout_seconds=args.timeout,
        )
    except ServeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    reporter.info(f"submitted {ticket['id']} (state: {ticket['state']}"
                  + (f", coalesced into {ticket['coalesced_into']}"
                     if ticket.get("coalesced_into") else "") + ")")
    if not args.wait:
        if args.json:
            reporter.payload(ticket)
        else:
            reporter.out(ticket["id"])
        return 0

    def on_event(event: dict) -> None:
        attrs = event.get("attrs") or {}
        detail = " ".join(
            f"{k}={attrs[k]}" for k in sorted(attrs) if k != "id"
        )
        reporter.info(f"  {event.get('name')}: {detail}")

    try:
        job = client.wait(ticket["id"], timeout=args.timeout_wait,
                          on_event=on_event)
    except (ServeError, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if job["state"] != "done":
        print(f"job {job['id']} {job['state']}: {job.get('error') or ''}",
              file=sys.stderr)
        return 1
    result = job.get("result") or {}
    if args.json:
        # Exactly the payload `repro run --json --metrics-only` prints
        # for kind=flow: served and direct runs are byte-comparable.
        reporter.payload(result.get("metrics", result))
    else:
        for key in ("table1", "table2"):
            if result.get(key):
                reporter.out(result[key])
                reporter.out("")
        if not result.get("table1"):
            reporter.payload(result.get("metrics", result))
    return 0


def _cmd_jobs(args: argparse.Namespace, reporter: Reporter) -> int:
    from .serve.client import ServeError

    client = _serve_client(args)
    try:
        if args.cancel:
            outcome = client.cancel(args.cancel)
            reporter.out(f"{outcome['id']}: {outcome['state']}")
            return 0
        if args.job:
            job = client.job(args.job)
            reporter.payload(job)
            return 0
        jobs = client.jobs()
    except ServeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        reporter.payload({"jobs": jobs})
        return 0
    if not jobs:
        reporter.out("no jobs")
        return 0
    for job in jobs:
        spec = job.get("spec", {})
        what = spec.get("design") or spec.get("kind")
        note = (f" -> {job['coalesced_into']}"
                if job.get("coalesced_into") else "")
        reporter.out(
            f"{job['id']}  {job['state']:9s} {spec.get('kind', '?'):6s} "
            f"{what or '?':9s} {spec.get('arch', '-'):8s} "
            f"prio={spec.get('priority', '?')}{note}"
        )
    return 0


def _scale_arg(text: str) -> float:
    """argparse ``type=`` for every ``--scale``: the rule of ``build_design``."""
    from .flow.experiments import check_scale

    try:
        return check_scale(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _effort_arg(text: str) -> float:
    """argparse ``type=`` for every ``--effort``: the rule of ``FlowOptions``."""
    from .flow.options import check_effort

    try:
        return check_effort(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_flow_arguments(flow: argparse.ArgumentParser) -> None:
    flow.add_argument("design", choices=DESIGN_CHOICES)
    flow.add_argument("--arch", choices=["lut", "granular"], default="granular")
    flow.add_argument("--scale", type=_scale_arg, default=0.5)
    flow.add_argument("--seed", type=int, default=0)
    flow.add_argument("--effort", type=_effort_arg, default=0.2,
                      help="placement effort (1.0 = full anneal)")
    flow.add_argument("--no-cache", action="store_true",
                      help="bypass the content-addressed stage cache")
    flow.add_argument("--trace", action="store_true",
                      help="record a run journal (spans, metrics, cache "
                           "events) under results/journals/")
    flow.add_argument("--json", action="store_true",
                      help="emit a machine-readable run summary on stdout")
    flow.add_argument("--metrics-only", action="store_true",
                      help="with --json: emit only the deterministic "
                           "metrics subset (no timings/cache/journal "
                           "fields) — byte-identical to a served job's "
                           "result")
    flow.add_argument("--check", action="store_true",
                      help="audit stage artifacts at every flow boundary; "
                           "a fatal finding aborts the run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploring Logic Block Granularity "
                    "for Regular Fabrics' (DATE 2004)",
    )
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress narration (results only)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", help="Section-2 function analysis")

    flow = sub.add_parser("flow", help="run one design through the flow")
    _add_flow_arguments(flow)
    run = sub.add_parser(
        "run", help="alias of `flow`: run one design through the flow"
    )
    _add_flow_arguments(run)

    check = sub.add_parser(
        "check", help="static verification of flow artifacts / source tree"
    )
    check.add_argument("design", nargs="*", default=[],
                       help=f"designs to audit (default: all of "
                            f"{', '.join(DESIGN_CHOICES)})")
    check.add_argument("--arch", choices=["lut", "granular", "all"],
                       default="all")
    check.add_argument("--scale", type=_scale_arg, default=0.5)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--effort", type=_effort_arg, default=0.2,
                       help="placement effort (1.0 = full anneal)")
    check.add_argument("--no-cache", action="store_true",
                       help="bypass the content-addressed stage cache")
    check.add_argument("--stage", action="append", default=None,
                       metavar="STAGE",
                       help="restrict to one artifact family (repeatable): "
                            "netlist, library, placement, packing, routing, "
                            "equivalence")
    check.add_argument("--rules", action="append", default=None,
                       metavar="IDS",
                       help="comma-separated rule ids to report (repeatable)")
    check.add_argument("--self", action="store_true",
                       help="lint src/repro itself (determinism DT, "
                            "concurrency CC and cache-key coherence CK "
                            "families) instead of auditing flow artifacts")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalog and exit")
    check.add_argument("--fail-on", choices=["info", "warning", "error"],
                       default="error",
                       help="lowest severity that makes the exit status "
                            "non-zero (default: error)")
    output = check.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    output.add_argument("--sarif", action="store_true",
                        help="emit findings as SARIF 2.1.0 on stdout")

    tables = sub.add_parser("tables", help="regenerate Tables 1 and 2")
    tables.add_argument("--scale", type=_scale_arg, default=0.5)
    tables.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the 8-cell matrix "
                             "(1 = in this process; -1 = all usable CPUs)")
    tables.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed stage cache")
    tables.add_argument("--timings", action="store_true",
                        help="print per-stage wall times and cache stats")
    tables.add_argument("--trace", action="store_true",
                        help="record one merged run journal for the matrix")

    sub.add_parser(
        "results", help="rewrite results/, results_fullscale.txt and "
                        "EXPERIMENTS.md's generated blocks"
    )
    sub.add_parser("explore", help="rank candidate PLB architectures")
    sub.add_parser("vias", help="via-programmability cost comparison")

    trace = sub.add_parser(
        "trace", help="render a run journal's span tree / Chrome trace"
    )
    trace.add_argument("journal", nargs="?", default=None,
                       help="journal path (default: latest in "
                            "results/journals/)")
    trace.add_argument("--chrome", metavar="PATH",
                       help="also write Chrome trace-event JSON to PATH")
    trace.add_argument("--depth", type=int, default=None,
                       help="limit the rendered span-tree depth")
    trace.add_argument("--gantt", action="store_true",
                       help="render the stage-DAG Gantt (one lane per "
                            "worker process) instead of the span tree")

    cache = sub.add_parser(
        "cache", help="inspect or garbage-collect the stage cache"
    )
    cache.add_argument("--dir", default=None, metavar="PATH",
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="per-stage entry counts and byte totals"
    )
    cache_stats.add_argument("--json", action="store_true",
                             help="emit the summary as JSON on stdout")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict entries by age and/or LRU order"
    )
    cache_gc.add_argument("--max-size", default=None, metavar="SIZE",
                          help="keep at most SIZE bytes (suffixes K/M/G/T), "
                               "evicting least-recently-used entries first")
    cache_gc.add_argument("--max-age", default=None, metavar="AGE",
                          help="evict entries unused for AGE "
                               "(suffixes s/m/h/d/w; plain number = seconds)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed, remove nothing")
    cache_gc.add_argument("--json", action="store_true",
                          help="emit the gc report as JSON on stdout")

    stats = sub.add_parser(
        "stats", help="print a run journal's metric summaries"
    )
    stats.add_argument("journal", nargs="?", default=None,
                       help="journal path (default: latest in "
                            "results/journals/)")
    stats.add_argument("--prometheus", action="store_true",
                       help="emit Prometheus exposition text instead")

    serve = sub.add_parser(
        "serve", help="run the flow-as-a-service job server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8157,
                       help="listen port (0 = ephemeral; the chosen port "
                            "is printed on startup)")
    serve.add_argument("--workers", type=int, default=1,
                       help="concurrent job executor threads")
    serve.add_argument("--flow-jobs", type=int, default=1,
                       dest="flow_jobs",
                       help="subprocess budget shared by running "
                            "'tables' jobs (1 = every job serial)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       dest="queue_limit",
                       help="max queued jobs before submissions get "
                            "429 + Retry-After (0 = reject any backlog)")
    serve.add_argument("--queue-dir", default=None, metavar="PATH",
                       help="queue journal root (default: "
                            "$REPRO_QUEUE_DIR or <cache root>/serve); "
                            "restarting on the same root resumes "
                            "unfinished jobs")

    submit = sub.add_parser(
        "submit", help="submit a job to a running repro server"
    )
    submit.add_argument("design", nargs="?", default=None,
                        help=f"design to run (one of "
                             f"{', '.join(DESIGN_CHOICES)}; omit for "
                             f"--kind tables)")
    submit.add_argument("--server", default="http://127.0.0.1:8157",
                        help="server base URL")
    submit.add_argument("--kind", choices=["flow", "tables", "check"],
                        default="flow")
    submit.add_argument("--arch", choices=["lut", "granular"],
                        default="granular")
    submit.add_argument("--scale", type=_scale_arg, default=0.5)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--effort", type=_effort_arg, default=0.2,
                        help="placement effort (1.0 = full anneal)")
    submit.add_argument("--priority", choices=["high", "normal", "low"],
                        default="normal")
    submit.add_argument("--timeout", type=float, default=None,
                        help="server-side job timeout in seconds")
    submit.add_argument("--wait", action="store_true",
                        help="stream progress and print the result")
    submit.add_argument("--timeout-wait", type=float, default=None,
                        dest="timeout_wait",
                        help="client-side limit for --wait, seconds")
    submit.add_argument("--json", action="store_true",
                        help="print the job ticket / result as JSON")

    jobs = sub.add_parser(
        "jobs", help="list, inspect, or cancel jobs on a repro server"
    )
    jobs.add_argument("job", nargs="?", default=None,
                      help="job id to show in full (default: list all)")
    jobs.add_argument("--server", default="http://127.0.0.1:8157",
                      help="server base URL")
    jobs.add_argument("--cancel", default=None, metavar="ID",
                      help="cancel the given job instead of listing")
    jobs.add_argument("--json", action="store_true",
                      help="emit the listing as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    reporter = Reporter(
        quiet=args.quiet, json_mode=bool(getattr(args, "json", False))
    )
    handlers = {
        "analyze": _cmd_analyze,
        "flow": _cmd_flow,
        "run": _cmd_flow,
        "check": _cmd_check,
        "tables": _cmd_tables,
        "results": _cmd_results,
        "explore": _cmd_explore,
        "vias": _cmd_vias,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }
    return handlers[args.command](args, reporter)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
