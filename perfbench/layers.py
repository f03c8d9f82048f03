"""Traced in-process replay: per-layer spans, counts, memory peaks and slopes.

This pass never feeds the end-to-end numbers.  It imports the checkout's
``gsets`` into the bench process, wraps public functions at module
boundaries by patching module attributes (``src`` is never edited), and
replays every call of a workload through ``gsets.cli.main`` with its stdout
captured.  Each call is one span that carries the op id; under it, every
wrapped function the CLI reaches is a span tagged with its phase (read,
parse, compute, doc, serialize).  Spans stay in memory until the pass ends.

The layers are the modules of ``src/gsets``.  The program is
single-threaded and has no queues, so no layer ever waits: busy time is the
whole story and there is no wait time to report.
"""

from __future__ import annotations

import functools
import importlib
import io
import math
import statistics
import sys
import time
import tracemalloc
from contextlib import chdir, contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import spawn

LAYERS = ("formats", "intervals", "partitions", "infosys", "simulate")

# Span record fields.
NAME, PARENT, OP, T0, T1, CHILD, PEAK, TAG, PHASE = range(9)


def load_gsets() -> SimpleNamespace:
    """Import this checkout's gsets modules, refusing any other copy."""
    if str(spawn.SRC) not in sys.path:
        sys.path.insert(0, str(spawn.SRC))
    modules = ("formats", "intervals", "partitions", "infosys", "simulate", "cli")
    mods = {n: importlib.import_module(f"gsets.{n}") for n in modules}
    where = Path(mods["cli"].__file__).resolve()
    if spawn.SRC.resolve() not in where.parents:
        raise ImportError(f"gsets was imported from {where}, not from {spawn.SRC}")
    return SimpleNamespace(**mods)


class Tracer:
    """Spans in memory as lists ``[name, parent, op, t0, t1, child_s, peak_bytes, tag, phase]``.

    With ``memory=True`` each span also records the ``tracemalloc`` peak
    above its starting level; nested spans fold their peak into the parent's.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.op: str | None = None
        self.memory = memory
        self._stack: list[int] = []
        self._mem: list[list[int]] = []

    def enter(self, name: str, tag=None, phase=None) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            self._mem.append([current, current])
            tracemalloc.reset_peak()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), 0.0, 0.0, 0, tag, phase])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        t1 = time.perf_counter()
        span = self.spans[idx]
        span[T1] = t1
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][CHILD] += t1 - span[T0]
        if self.memory:
            start, seen = self._mem.pop()
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            span[PEAK] = peak - start
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def wrap(self, name: str, fn, tag=None, phase=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name, tag(*args, **kwargs) if tag else None, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return traced


class NullTracer:
    """The untraced replay: phases cost one no-op context manager each."""

    op = None

    def span(self, name: str):
        return nullcontext()


def _attrs_tag(table, attrs):
    return frozenset(attrs)


def _compute_names(g) -> list[str]:
    """The functions ``gsets.cli`` imports from the compute modules."""
    owners = {m.__name__ for m in (g.intervals, g.infosys, g.simulate)}
    return sorted(
        name for name, value in vars(g.cli).items()
        if callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) in owners
    )


def _targets(g):
    """Every patched boundary: (owner, attribute, phase of the CLI call or None, tag function).

    The phase functions are the ones ``gsets.cli`` reaches: its file reader,
    the ``formats`` parsers, the compute functions it imports by name, the
    ``formats`` document builders and ``dumps_canonical``.  The rest are
    module boundaries inside compute.
    """
    fmt = vars(g.formats)
    return [
        (g.cli, "_read_file", "read", None),
        *((g.formats, n, "parse", None) for n in sorted(fmt) if n.startswith("parse_")),
        *((g.cli, n, "compute", _attrs_tag if n == "indiscernibility_partition" else None)
          for n in _compute_names(g)),
        *((g.formats, n, "doc", None) for n in sorted(fmt) if n.endswith("_doc")),
        (g.formats, "dumps_canonical", "serialize", None),
        (g.intervals, "fuse", None, None),
        (g.simulate, "graded_fusion", None, None),
        (g.partitions, "refines", None, None),
        (g.partitions.Partition, "__init__", None, None),
        (g.infosys, "indiscernibility_partition", None, _attrs_tag),
        (g.infosys, "validate_granular", None, None),
        (g.infosys, "granular_from_chain", None, None),
        (g.infosys, "approximation_pair", None, None),
    ]


def span_name(fn) -> str:
    """``<defining module>.<function>``, with a constructor named after its class."""
    qualname = fn.__qualname__.removesuffix(".__init__")
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{qualname}"


@contextmanager
def patched(tracer: Tracer, g):
    saved = []
    try:
        for owner, attr, phase, tag in _targets(g):
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(span_name(fn), fn, tag, phase))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def replay(op, workdir: Path, g, tracer) -> tuple[int, bytes, str]:
    """Run one op in-process through ``gsets.cli.main``: (exit code, stdout bytes, stderr)."""
    tracer.op = op.id
    out, err = io.StringIO(), io.StringIO()
    with chdir(workdir), redirect_stdout(out), redirect_stderr(err), tracer.span("call"):
        code = g.cli.main(op.argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().strip()


# ---------------------------------------------------------------------------
# analysis of one cycle's spans


def _layer(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def summarize(spans: list[list], ops_by_id: dict) -> dict:
    """Per-name busy/self time and calls, per-phase busy time, per-layer self
    time by input size, and the counts with their bases."""
    per_name: dict[str, dict] = {}
    phases: dict[str, float] = {}
    by_size: dict[str, dict[int, float]] = {layer: {} for layer in LAYERS}
    for s in spans:
        dur = s[T1] - s[T0]
        # a phase's time is that of its outermost spans (a document builder may call another)
        if s[PHASE] and (s[PARENT] < 0 or spans[s[PARENT]][PHASE] != s[PHASE]):
            phases[s[PHASE]] = phases.get(s[PHASE], 0.0) + dur
        entry = per_name.setdefault(s[NAME], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["busy_s"] += dur
        entry["self_s"] += dur - s[CHILD]
        entry["calls"] += 1
        layer = _layer(s[NAME])
        size = ops_by_id[s[OP]].size
        if layer and size:
            by_size[layer][size] = by_size[layer].get(size, 0.0) + dur - s[CHILD]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    fuse_in_graded = sum(
        1 for s in spans if s[NAME] == "intervals.fuse" and parent_name(s) == "intervals.graded_fusion"
    )
    graded_calls = per_name.get("intervals.graded_fusion", {}).get("calls", 0)
    gf_in_sim = sum(
        s[T1] - s[T0]
        for s in spans
        if s[NAME] == "intervals.graded_fusion" and parent_name(s) == "simulate.simulate_rounds"
    )
    sim_busy = per_name.get("simulate.simulate_rounds", {}).get("busy_s", 0.0)

    per_op_sets: dict[str, set] = {}
    built = 0
    for s in spans:
        if s[NAME] == "infosys.indiscernibility_partition":
            per_op_sets.setdefault(s[OP], set()).add(s[TAG])
            built += 1
    distinct = sum(len(v) for v in per_op_sets.values())

    granulates = {s[OP] for s in spans if s[NAME] == "call" and ops_by_id[s[OP]].cmd == "granulate"}
    refines_in_granulate = sum(1 for s in spans if s[NAME] == "partitions.refines" and s[OP] in granulates)

    ratios = {
        "intervals.fuse_per_graded_fusion": (fuse_in_graded, graded_calls),
        "infosys.partition_reuse": (distinct, built),
        "partitions.refines_per_granulate": (refines_in_granulate, len(granulates)),
        "simulate.graded_fusion_share": (gf_in_sim, sim_busy),
    }
    return {"names": per_name, "phases": phases, "by_size": by_size, "ratios": ratios}


def slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(size); 0 without a doubling sweep."""
    pts = sorted((n, t) for n, t in points.items() if n > 0 and t > 0)
    if len(pts) < 2 or pts[-1][0] < 2 * pts[0][0]:
        return 0.0
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(t) for _, t in pts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ratio(pair: tuple) -> float:
    num, base = pair
    return num / base if base else 0.0


# ---------------------------------------------------------------------------
# the traced pass

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("cli.import_ms", "ms", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("formats.parse_intervals.busy_ms", "ms", "lower"),
    ("formats.parse_table.busy_ms", "ms", "lower"),
    ("formats.parse_graded_family.busy_ms", "ms", "lower"),
    ("formats.doc.busy_ms", "ms", "lower"),
    ("formats.dumps_canonical.busy_ms", "ms", "lower"),
    ("formats.out_bytes", "B", "lower"),
    ("formats.slope", "1", "lower"),
    ("intervals.graded_fusion.busy_ms", "ms", "lower"),
    ("intervals.random_graded.busy_ms", "ms", "lower"),
    ("intervals.fuse.calls", "count", "lower"),
    ("intervals.fuse_per_graded_fusion", "1", "lower"),
    ("intervals.slope", "1", "lower"),
    ("partitions.Partition.busy_ms", "ms", "lower"),
    ("partitions.Partition.peak_kb", "KiB", "lower"),
    ("partitions.refines.calls", "count", "lower"),
    ("partitions.refines_per_granulate", "1", "lower"),
    ("partitions.validate_granular.busy_ms", "ms", "lower"),
    ("partitions.slope", "1", "lower"),
    ("infosys.indiscernibility_partition.busy_ms", "ms", "lower"),
    ("infosys.indiscernibility_partition.calls", "count", "lower"),
    ("infosys.partition_reuse", "1", "higher"),
    ("infosys.granular_from_chain.busy_ms", "ms", "lower"),
    ("infosys.sensitivity_profile.busy_ms", "ms", "lower"),
    ("infosys.graded_approximations.busy_ms", "ms", "lower"),
    ("infosys.approximation_pair.busy_ms", "ms", "lower"),
    ("infosys.slope", "1", "lower"),
    ("simulate.simulate_rounds.busy_ms", "ms", "lower"),
    ("simulate.graded_fusion_share", "1", "lower"),
    ("simulate.peak_kb", "KiB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gsets.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)


def _peaks_by_size(spans, ops_by_id) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    for s in spans:
        per = out.setdefault(s[NAME], {})
        size = ops_by_id[s[OP]].size
        per[size] = max(per.get(size, 0.0), s[PEAK] / 1024)
    return out


def run(wl, work: Path, seconds: int, launcher: spawn.Launcher, checker, interp_ms: float) -> dict:
    """Replay whole cycles of `wl` for about `seconds`, traced and untraced in turn,
    then one cycle under ``tracemalloc``; return metrics and the full record."""
    g = load_gsets()
    ops_by_id = {op.id: op for op in wl.ops}
    failures: list[dict] = []
    attempted = 0

    def cycle(tracer) -> tuple[float, int]:
        nonlocal attempted
        out_bytes = 0
        t0 = time.perf_counter()
        for op in wl.ops:
            code, out, err = replay(op, work, g, tracer)
            attempted += 1
            out_bytes += len(out)
            reason = f"exit {code}: {err[:200]}" if code else checker(op, out)
            if reason:
                failures.append({"op": op.id, "reason": reason})
        return time.perf_counter() - t0, out_bytes

    # Traced and untraced cycles alternate, so drift in machine speed
    # affects both sides of the overhead estimate alike.
    summaries, traced_s, untraced_s = [], [], []
    first_spans: list[list] = []
    t_start = time.perf_counter()
    while not summaries or time.perf_counter() - t_start < seconds:
        tracer = Tracer()
        with patched(tracer, g):
            took, out_bytes = cycle(tracer)
        traced_s.append(took)
        summaries.append(summarize(tracer.spans, ops_by_id))
        first_spans = first_spans or tracer.spans
        untraced_s.append(cycle(NullTracer())[0])

    # Memory pass: a cycle of its own, so tracemalloc slows no timing above.
    mem = Tracer(memory=True)
    tracemalloc.start()
    try:
        with patched(mem, g):
            cycle(mem)
    finally:
        tracemalloc.stop()
    peaks_by_size = _peaks_by_size(mem.spans, ops_by_id)

    import_ms = statistics.median(
        float(launcher.python(["-c", IMPORT_PROBE], work).stdout()) for _ in range(spawn.BASELINE_REPEATS)
    )

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def busy(span):
        return med(lambda s: s["names"].get(span, {}).get("busy_s", 0.0) * 1e3)

    def calls(span):
        return med(lambda s: s["names"].get(span, {}).get("calls", 0))

    def share(key):
        return med(lambda s: ratio(s["ratios"][key]))

    def layer_slope(layer):
        return med(lambda s: slope(s["by_size"][layer]))

    def peak(span):
        return max(peaks_by_size.get(span, {0: 0.0}).values())

    values = {
        "cli.import_ms": import_ms,
        "cli.interp_ms": interp_ms,
        "formats.parse_intervals.busy_ms": busy("formats.parse_intervals"),
        "formats.parse_table.busy_ms": busy("formats.parse_table"),
        "formats.parse_graded_family.busy_ms": busy("formats.parse_graded_family"),
        "formats.doc.busy_ms": med(lambda s: s["phases"].get("doc", 0.0) * 1e3),
        "formats.dumps_canonical.busy_ms": busy("formats.dumps_canonical"),
        "formats.out_bytes": out_bytes,
        "formats.slope": layer_slope("formats"),
        "intervals.graded_fusion.busy_ms": busy("intervals.graded_fusion"),
        "intervals.random_graded.busy_ms": busy("intervals.random_graded"),
        "intervals.fuse.calls": calls("intervals.fuse"),
        "intervals.fuse_per_graded_fusion": share("intervals.fuse_per_graded_fusion"),
        "intervals.slope": layer_slope("intervals"),
        "partitions.Partition.busy_ms": busy("partitions.Partition"),
        "partitions.Partition.peak_kb": peak("partitions.Partition"),
        "partitions.refines.calls": calls("partitions.refines"),
        "partitions.refines_per_granulate": share("partitions.refines_per_granulate"),
        "partitions.validate_granular.busy_ms": busy("partitions.validate_granular"),
        "partitions.slope": layer_slope("partitions"),
        "infosys.indiscernibility_partition.busy_ms": busy("infosys.indiscernibility_partition"),
        "infosys.indiscernibility_partition.calls": calls("infosys.indiscernibility_partition"),
        "infosys.partition_reuse": share("infosys.partition_reuse"),
        "infosys.granular_from_chain.busy_ms": busy("infosys.granular_from_chain"),
        "infosys.sensitivity_profile.busy_ms": busy("infosys.sensitivity_profile"),
        "infosys.graded_approximations.busy_ms": busy("infosys.graded_approximations"),
        "infosys.approximation_pair.busy_ms": busy("infosys.approximation_pair"),
        "infosys.slope": layer_slope("infosys"),
        "simulate.simulate_rounds.busy_ms": busy("simulate.simulate_rounds"),
        "simulate.graded_fusion_share": share("simulate.graded_fusion_share"),
        "simulate.peak_kb": peak("simulate.simulate_rounds"),
        "trace.overhead_pct": 100 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1),
    }
    metrics = {name: values[name] for name, _, _ in METRICS}
    first = summaries[0]
    t_first = first_spans[0][T0]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "wait": "none: gsets is single-threaded and has no queues, so no layer ever waits",
        "cycles": len(summaries),
        "cycle_s": {"traced": traced_s, "untraced": untraced_s},
        "counts": {
            key: {"value": ratio(pair), "numerator": pair[0], "base": pair[1]}
            for key, pair in first["ratios"].items()
        },
        "phases_ms": {phase: t * 1e3 for phase, t in sorted(first["phases"].items())},
        "spans_by_name": {
            name: {"busy_ms": v["busy_s"] * 1e3, "self_ms": v["self_s"] * 1e3, "calls": v["calls"]}
            for name, v in sorted(first["names"].items())
        },
        "self_ms_by_size": {
            layer: {str(n): t * 1e3 for n, t in sorted(points.items())}
            for layer, points in first["by_size"].items()
        },
        "slopes": {layer: slope(first["by_size"][layer]) for layer in LAYERS},
        "tracemalloc_peak_kb": {
            name: {str(n): kb for n, kb in sorted(per.items())} for name, per in sorted(peaks_by_size.items())
        },
        "tracemalloc_peak_slopes": {name: slope(per) for name, per in sorted(peaks_by_size.items())},
        # [name, phase, parent index, op id, start s, duration s, self s] of the first traced cycle
        "spans": [
            [s[NAME], s[PHASE], s[PARENT], s[OP], s[T0] - t_first, s[T1] - s[T0], s[T1] - s[T0] - s[CHILD]]
            for s in first_spans
        ],
    }
