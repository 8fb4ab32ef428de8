"""Compare benchmark runs of a parent commit and a change.

Each input file is one ``harness.py run ... --json OUT`` result.  The
i-th parent file pairs with the i-th change file, so run the two sides
alternately (parent, change, parent, change, ...) with identical
settings::

    python flowbench/compare.py --parent p01.json ... p10.json \\
                                --change c01.json ... c10.json

One row per (workload, end-to-end metric), with each side's median and
quartiles, the change's wins over the parent (ties count for neither
side) and a verdict:

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them, and the medians differ by more than the parent's interquartile
  range;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* ``unchanged``: otherwise.

A run that failed before it measured a metric has no value for it.  When
every parent run has the metric and some change run lacks it, the row
regresses; when parent runs lack it, the row is ``unresolved``.

A ``fail_frac`` row per workload sums failed over attempted passes, for
every workload a run did not skip, with or without metrics; any rise
regresses.  The exit code is 1 when any row regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound):
    """One row's verdict and statistics for paired samples.

    ``parent[i]`` and ``change[i]`` come from the i-th pair of runs;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of
    the parent's median the change may lose before it regresses.
    """
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (cmed - pmed)
    scale = abs(pmed) or 1.0
    spread = max((p3 - p1) / scale, (c3 - c1) / (abs(cmed) or 1.0))
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and gain > p3 - p1:
        outcome = "improved"
    elif -gain > bound * scale:
        outcome = "regressed"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "pairs": n,
        "parent": {"q1": p1, "median": pmed, "q3": p3},
        "change": {"q1": c1, "median": cmed, "q3": c3},
        "wins": wins,
        "losses": losses,
        "win_frac": wins / (wins + losses) if wins + losses else 0.0,
        "spread": spread,
        "verdict": outcome,
    }


def compare(parent_docs, change_docs, metrics):
    """Rows for every workload that no run of either side skipped.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries.
    """
    rows = []
    docs = parent_docs + change_docs
    names = [
        name for name in dict.fromkeys(
            name for doc in docs for name in doc["workloads"]
        )
        if all(
            name in doc["workloads"]
            and "skipped" not in doc["workloads"][name]
            for doc in docs
        )
    ]
    for name in names:
        def side(docs):
            return [doc["workloads"][name] for doc in docs]

        parent, change = side(parent_docs), side(change_docs)
        for metric in metrics:
            def values(records):
                return [
                    r["metrics"][metric["name"]] for r in records
                    if metric["name"] in r.get("metrics", {})
                ]

            pvals, cvals = values(parent), values(change)
            if len(pvals) == len(parent) and len(cvals) == len(change):
                row = verdict(pvals, cvals, metric["better"],
                              metric["bound"])
            else:
                row = {
                    "pairs": min(len(parent), len(change)),
                    "missing": {"parent": len(parent) - len(pvals),
                                "change": len(change) - len(cvals)},
                    "verdict": ("unresolved" if len(pvals) < len(parent)
                                else "regressed"),
                }
            rows.append({"workload": name, "metric": metric["name"], **row})
        fails = [
            sum(r["failed"] for r in records)
            / max(1, sum(r["attempted"] for r in records))
            for records in (parent, change)
        ]
        rows.append({
            "workload": name, "metric": "fail_frac",
            "pairs": min(len(parent), len(change)),
            "parent": {"median": fails[0]}, "change": {"median": fails[1]},
            "verdict": "regressed" if fails[1] > fails[0] else "unchanged",
        })
    return rows


def format_rows(rows):
    lines = [
        f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'wins':>7s} verdict"
    ]
    for row in rows:
        def cell(side):
            if "missing" in row:
                return f"missing in {row['missing'][side]} runs"
            stats = row[side]
            if "q1" not in stats:
                return f"{stats['median']:.4g}"
            return (f"{stats['median']:.4g} "
                    f"[{stats['q1']:.4g}, {stats['q3']:.4g}]")

        wins = (f"{row['wins']}/{row['pairs']}" if "wins" in row else "")
        lines.append(
            f"{row['workload']:14s} {row['metric']:12s} "
            f"{cell('parent'):>30s} {cell('change'):>30s} "
            f"{wins:>7s} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--change", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="where the metric bounds come from")
    parser.add_argument("--json", metavar="OUT", help="also write the rows")
    args = parser.parse_args(argv)

    def load(paths):
        return [json.loads(Path(p).read_text()) for p in paths]

    if len(args.parent) != len(args.change):
        print(f"warning: {len(args.parent)} parent vs {len(args.change)} "
              "change runs; unmatched runs are ignored", file=sys.stderr)
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    rows = compare(load(args.parent), load(args.change), metrics)
    print(format_rows(rows))
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
