#!/usr/bin/env python3
"""gsets benchmark: end-to-end CLI calls, or a traced per-layer replay.

    python3 perfbench/run.py --workload rough --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole ``gsets`` processes: a closed loop with one client
spawns ``python -m gsets ...`` with this checkout's ``src`` on PYTHONPATH,
one call at a time, over the workload's cycle of calls, with a bare
``python -c pass`` between every two calls.  Every stdout is then checked
against the bench's own reference implementation.  ``--trace 1``
runs the separate in-process replay of ``layers.py`` instead; its wrappers
and spans never touch the timed calls.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; full records, with the run
context, the sha256 of every stdout and the spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layers
import spawn
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Cycles per 20 seconds of --seconds.  At the seed on a 2-core x86-64
# machine with Python 3.11 the calls of a run take about 20 s for fusion and
# 25 s for simulate.  rough takes 25 s too, because with two cycles its tail
# sample would sit between two ops of very different cost.  cli_small takes
# 9 s: its calls all cost about the same, so its tail is the machine's own
# noise, and with more calls the tail percentile climbs into the rare slow
# spikes of a shared machine.  The count depends on --seconds only, never on
# how fast the code is, so parent and change do the same work and the tail
# percentile always has the same sample count.  Each count puts the median
# and the tail sample inside a group of calls to one op.
CYCLES_PER_20S = {"fusion": 4, "simulate": 12, "rough": 3, "cli_small": 6}
# Set-ups per run: one before the calls and the rest spread evenly between
# them; setup_s is the fastest.  A set-up is mostly one program start, and
# on a shared machine the share of slow spells in a run moves the median
# set-up far more than the fastest (perfbench/README.md, "Seed baseline").
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# Calls stop once the loop has run this long, so a run ends within the
# 180 s it is allowed even if the program hangs; calls not made count as failed.
RUN_BUDGET_S = 150.0

# The gated end-to-end metrics.  Call times are gated in starts: a call's
# wall time divided by the mean of the two bare interpreter starts timed
# just before and just after it.  op_p50_starts is each op's median call in
# starts, geometric mean over the ops of the cycle, so every call counts.  On a shared machine whose speed moves by
# a third within seconds, the ratio moves a quarter as much as the time
# (perfbench/README.md, "Why call times are gated in starts").  The times
# in ms and s are printed and recorded as well, not gated.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_starts", "starts"),
    ("items_per_start", "1/start"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)
# Printed on the human-readable lines and recorded, not gated.
REPORTED = (
    ("call_p50_ms", "ms"),
    ("items_per_s", "1/s"),
    ("interp_ms", "ms"),
    ("failed_frac", "1"),
)


def _git_commit() -> str | None:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _context(wl, seed: int, interp_ms: float) -> dict:
    """Where and on what the numbers were measured."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
        "sizes": wl.sizes,
        "ops": {op.id: {"argv_bytes": len(" ".join(op.argv)), "items": op.items} for op in wl.ops},
        "input_bytes": {name: len(text.encode()) for name, text in wl.files.items()},
        "interp_ms": interp_ms,
    }


def _setup(name: str, seed: int, work: Path, launcher: spawn.Launcher) -> tuple[workloads.Workload, float]:
    """Generate and write the inputs, then warm up with one program start."""
    t0 = time.perf_counter()
    wl = workloads.build(name, seed)
    wl.write(work)
    warm = launcher.python(["-m", "gsets", "--help"], work)
    if warm.code != 0:
        raise SystemExit(f"error: gsets does not start: {warm.stderr()}")
    return wl, time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def op_medians(calls, values: list[float]) -> list[float]:
    """The median of `values` over the calls of each op."""
    by_op: dict[str, list[float]] = {}
    for (op, _), value in zip(calls, values):
        by_op.setdefault(op.id, []).append(value)
    return [statistics.median(v) for v in by_op.values()]


def verdict(checker: check.Checker, op, res: spawn.Result, stdout: bytes) -> str | None:
    """Why a call failed (timeout, nonzero exit, wrong output), or None if it passed."""
    if res.timed_out:
        return "timed out"
    if res.code != 0:
        return f"exit {res.code}: {res.stderr()[:200]}"
    return checker(op, stdout)


def _bare_s(launcher: spawn.Launcher, work: Path) -> float:
    return launcher.python(["-c", "pass"], work, "bare").seconds


def timed(name: str, seed: int, seconds: int, work: Path, launcher: spawn.Launcher) -> dict:
    wl, took = _setup(name, seed, work, launcher)
    setups = [took]

    cycles = max(1, round(CYCLES_PER_20S[name] * seconds / 20))
    plan = [op for _ in range(cycles) for op in wl.ops]
    setup_at = {round(k * len(plan) / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)}
    calls = []
    wall = 0.0  # time in calls, set-ups and bare starts excluded
    bare = [_bare_s(launcher, work)]  # bare[i] and bare[i + 1] bracket call i
    t0 = time.perf_counter()
    for i, op in enumerate(plan):
        if i in setup_at:
            setups.append(_setup(name, seed, work, launcher)[1])
        left = t0 + RUN_BUDGET_S - time.perf_counter()
        if left <= 0:
            break
        timeout = min(spawn.CALL_TIMEOUT_S, left)
        t_call = time.perf_counter()
        calls.append((op, launcher.python(["-m", "gsets", *op.argv], work, f"call{len(calls)}", timeout)))
        wall += time.perf_counter() - t_call
        bare.append(_bare_s(launcher, work))

    checker = check.Checker(wl)
    records, failures, items = [], [], 0
    for op, res in calls:
        stdout = res.stdout()
        reason = verdict(checker, op, res, stdout)
        if reason:
            failures.append({"op": op.id, "reason": reason})
        else:
            items += op.items
        records.append({"op": op.id, "ms": res.seconds * 1e3, "maxrss_kb": res.maxrss_kb,
                        "stdout_bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest(), "ok": reason is None})

    failures += [{"op": op.id, "reason": f"not run: the loop passed {RUN_BUDGET_S} s"} for op in plan[len(calls):]]
    times_ms = [res.seconds * 1e3 for _, res in calls]
    starts = [res.seconds * 2 / (bare[i] + bare[i + 1]) for i, (_, res) in enumerate(calls)]
    for record, n in zip(records, starts):
        record["starts"] = n
    tail_ms, tail_pct, beyond = tail(times_ms)
    interp_ms = statistics.median(bare) * 1e3
    metrics = {
        "setup_s": min(setups),
        "op_p50_starts": statistics.geometric_mean(op_medians(calls, starts)),
        "items_per_start": items / sum(starts),
        "peak_rss_mb": max(res.maxrss_kb for _, res in calls) / 1024,
        "ok_frac": 1 - len(failures) / len(plan),
    }
    reported = {
        "call_p50_ms": statistics.median(times_ms),
        "items_per_s": items / wall,
        "interp_ms": interp_ms,
        "failed_frac": len(failures) / len(plan),
    }
    return {
        "workload": name,
        "mode": "timed",
        "context": _context(wl, seed, interp_ms),
        "load": "closed loop, one client, one gsets process at a time, a bare python start between calls",
        "cycles": cycles,
        "wall_s": wall,
        "setup_s_each": setups,
        "bare_s_each": bare,
        "call_tail": {"ms": tail_ms, "percentile": tail_pct, "samples": len(times_ms), "beyond": beyond},
        "attempted": len(plan),
        "failures": failures,
        "calls": records,
        "reported": reported,
        "metrics": metrics,
    }


def traced(name: str, seed: int, seconds: int, work: Path, launcher: spawn.Launcher) -> dict:
    interp_ms = launcher.bare_ms(work)
    wl, _ = _setup(name, seed, work, launcher)
    report = layers.run(wl, work, seconds, launcher, check.Checker(wl), interp_ms)
    return {"workload": name, "mode": "traced", "context": _context(wl, seed, interp_ms), **report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (spawn.SRC / "gsets" / "__init__.py").is_file():
        print(f"error: no gsets sources under {spawn.SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with spawn.Launcher() as launcher:
            measure = traced if args.trace else timed
            report = measure(args.workload, args.seed, args.seconds, work, launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        units = {name: unit for name, unit, _ in layers.METRICS}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(report.pop("spans")))
        stem += "-trace"
    else:
        units = dict(END_TO_END)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    metrics = report["metrics"]
    failed = len(report["failures"])

    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:45s} {value:16.6g} {units[name]}")
    if not args.trace:
        for name, unit in REPORTED:
            print(f"{args.workload:10s} {name:45s} {report['reported'][name]:16.6g} {unit} (reported, not gated)")
        t = report["call_tail"]
        print(f"{args.workload:10s} {'call_tail_ms':45s} {t['ms']:16.6g} ms "
              f"(p{t['percentile']:.1f} of {t['samples']} calls, {t['beyond']} beyond; reported, not gated)")
    for failure in report["failures"][:5]:
        print(f"FAILED {failure['op']}: {failure['reason']}")
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
