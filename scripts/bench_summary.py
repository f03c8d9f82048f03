#!/usr/bin/env python3
"""Condense paired timed benchmark runs into ``BENCH_<tag>.json`` at the repository root.

    python3 scripts/bench_summary.py PARENT CHANGE --tag simulate_render_once

PARENT and CHANGE are two checkouts, each holding the timed records
``perfbench/out/<workload>-seed<n>.json`` that ``perfbench/run.py --trace 0``
wrote there.  A run counts when both sides have its workload and seed, so
each seed is one pair.  For every workload and every end-to-end metric of
``BENCHMARK.json`` the file holds each side's median, quartiles and runs,
the ratio of the medians (change / parent) and the number of pairs the
change won in the metric's better direction (ties count for neither), and
whether a gain could be claimed: the change won at least nine pairs in ten,
and its median is better than the parent's by more than the parent's
q3 - q1.  It also records whether every call wrote the same stdout on both
sides, the seeds, the interpreter, the machine, ``nproc`` and both commits;
records that name no commit, as ``perfbench/run.py`` writes outside a git
work tree, are refused.
A per-op table, read from each record's calls, shows which call shape moved
and which call set ``peak_rss_mb``: for each op and side, the median over
the runs of the op's median call in starts (as ``op_p50_starts`` takes it),
the median and maximum ``ru_maxrss`` of all its calls, and the number of
pairs in which the change's median call took fewer starts.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)\.json")
CONTEXT = ("python", "implementation", "machine", "nproc")


class SummaryError(Exception):
    pass


def _records(checkout: Path) -> dict[tuple[str, int], dict]:
    """The timed records of one checkout by (workload, seed)."""
    out = {}
    for path in sorted((checkout / "perfbench" / "out").glob("*-seed*.json")):
        match = RECORD.fullmatch(path.name)
        if match:
            out[match["workload"], int(match["seed"])] = json.loads(path.read_text(encoding="utf-8"))
    return out


def _only(values: set, what: str):
    if len(values) != 1:
        raise SummaryError(f"the records disagree on {what}: {sorted(values, key=repr)}")
    return values.pop()


def _stdout_hashes(record: dict) -> list[str]:
    return [call["sha256"] for call in record["calls"]]


def _side(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def _ops(runs: dict[str, list[dict]]) -> dict:
    """The per-op table of one workload's runs on each side."""
    by_op = {side: [{} for _ in records] for side, records in runs.items()}
    for side, records in runs.items():
        for calls, record in zip(by_op[side], records):
            for call in record["calls"]:
                calls.setdefault(call["op"], []).append(call)
    table = {}
    # an op counts when both sides called it; a run that did not reach it has no median for it
    for op in sorted(set.intersection(*({op for calls in side for op in calls} for side in by_op.values()))):
        row, medians = {}, {}
        for side, side_runs in by_op.items():
            medians[side] = [statistics.median(c["starts"] for c in calls[op]) if op in calls else None
                             for calls in side_runs]
            rss = [c["maxrss_kb"] for calls in side_runs for c in calls.get(op, ())]
            row[side] = {
                "starts": statistics.median(m for m in medians[side] if m is not None),
                "maxrss_kb_median": statistics.median(rss),
                "maxrss_kb_max": max(rss),
            }
        row["change_wins"] = sum(None not in (a, b) and b < a for a, b in zip(medians["parent"], medians["change"]))
        table[op] = row
    return table


def summarize(parent: Path, change: Path, tag: str) -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sides = {"parent": _records(parent), "change": _records(change)}
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    if not pairs:
        raise SummaryError("no workload and seed has a timed record on both sides")
    records = [sides[side][pair] for side in sides for pair in pairs]
    context = {key: _only({r["context"][key] for r in records}, key) for key in CONTEXT}
    commits = {side: _only({sides[side][pair]["context"]["commit"] for pair in pairs}, f"the {side} commit")
               for side in sides}
    for side, commit in commits.items():
        if commit is None:  # perfbench/run.py records none outside a git work tree
            raise SummaryError(f"the {side} records name no commit")

    workloads = {}
    for name in sorted({workload for workload, _ in pairs}):
        seeds = [seed for workload, seed in pairs if workload == name]
        runs = {side: [sides[side][name, seed] for seed in seeds] for side in sides}
        same = all(_stdout_hashes(a) == _stdout_hashes(b) for a, b in zip(runs["parent"], runs["change"]))
        summary = {}
        for metric in metrics:
            key, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [r["metrics"][key] for r in runs[side]] for side in sides}
            old, new = _side(values["parent"]), _side(values["change"])
            wins = sum(sign * (b - a) > 0 for a, b in zip(values["parent"], values["change"]))
            summary[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": old,
                "change": new,
                "ratio": new["median"] / old["median"] if old["median"] else None,
                "change_wins": wins,
                "claim_holds": 10 * wins >= 9 * len(seeds)
                and sign * (new["median"] - old["median"]) > old["q3"] - old["q1"],
            }
        workloads[name] = {"seeds": seeds, "same_stdout": same, "metrics": summary, "ops": _ops(runs)}
    return {"tag": tag, "context": context, "commits": commits, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit, with perfbench/out/")
    parser.add_argument("change", type=Path, help="checkout of the change, with perfbench/out/")
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"\w+", args.tag):
        parser.error("--tag must be letters, digits and underscores")
    try:
        summary = summarize(args.parent, args.change, args.tag)
    except SummaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
