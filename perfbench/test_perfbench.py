"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import check
import layers
import run
import spawn
import workloads

ROOT = workloads.ROOT
TINY = {
    "fusion": {"sizes": (4, 9)},
    "simulate": {"shapes": ((3, 2), (7, 3))},
    "rough": {"sizes": (6, 15)},
    "cli_small": {},
}


@pytest.fixture(scope="module")
def launcher():
    with spawn.Launcher() as launcher:
        yield launcher


def _graded_op(wl):
    return next(op for op in wl.ops if op.cmd == "graded")


def _reference_stdout(wl, op) -> bytes:
    levels = check.order_statistics(wl.data[op.flag("--input")])
    return (check.dumps({"f_min": 0, "levels": levels}) + "\n").encode()


def test_checker_accepts_the_reference():
    wl = workloads.build("cli_small", 1)
    op = _graded_op(wl)
    check.check(wl, op, _reference_stdout(wl, op))


def test_checker_rejects_a_corrupted_document():
    wl = workloads.build("cli_small", 1)
    op = _graded_op(wl)
    doc = json.loads(_reference_stdout(wl, op))
    doc["levels"][0] = [doc["levels"][0][0] - 1, doc["levels"][0][1]]
    with pytest.raises(check.CheckError, match="differs"):
        check.check(wl, op, (check.dumps(doc) + "\n").encode())


def test_checker_rejects_a_non_canonical_document():
    wl = workloads.build("cli_small", 1)
    op = _graded_op(wl)
    doc = json.loads(_reference_stdout(wl, op))
    with pytest.raises(check.CheckError, match="canonical"):
        check.check(wl, op, (json.dumps(doc) + "\n").encode())


def test_a_nonzero_exit_fails_the_call(launcher, tmp_path):
    wl = workloads.build("cli_small", 1)
    op = _graded_op(wl)
    wl.write(tmp_path)
    res = launcher.python(["-m", "gsets", "graded", "--input", "missing.csv", "--fmin", "0", "--fmax", "0"], tmp_path)
    assert res.code == 2
    reason = run.verdict(check.Checker(wl), op, res, res.stdout())
    assert reason.startswith("exit 2: error:")


def test_a_call_that_outlives_its_timeout_is_killed_and_fails(launcher, tmp_path):
    wl = workloads.build("cli_small", 1)
    res = launcher.python(["-c", "import time; time.sleep(30)"], tmp_path, timeout=0.5)
    assert res.timed_out and res.seconds < 10
    assert run.verdict(check.Checker(wl), _graded_op(wl), res, res.stdout()) == "timed out"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_tiny_and_replays_byte_for_byte(launcher, tmp_path, name):
    wl = workloads.build(name, 7, **TINY[name])
    wl.write(tmp_path)
    checker = check.Checker(wl)
    g = layers.load_gsets()
    tracer = layers.Tracer()
    for op in wl.ops:
        res = launcher.python(["-m", "gsets", *op.argv], tmp_path)
        stdout = res.stdout()
        assert run.verdict(checker, op, res, stdout) is None, op.id
        with layers.patched(tracer, g):
            assert layers.replay(op, tmp_path, g, tracer) == (0, stdout, ""), op.id
        assert layers.replay(op, tmp_path, g, layers.NullTracer()) == (0, stdout, ""), op.id
    assert {s[layers.OP] for s in tracer.spans if s[layers.NAME] == "call"} == {op.id for op in wl.ops}
    # simulate reads no file and parses nothing but its flags
    for op in wl.ops:
        phases = {s[layers.PHASE] for s in tracer.spans if s[layers.OP] == op.id} - {None}
        expected = {"compute", "doc", "serialize"} | (set() if op.cmd == "simulate" else {"read", "parse"})
        assert phases == expected, op.id


def test_tracer_records_parents_self_time_and_peaks():
    import tracemalloc

    tracer = layers.Tracer(memory=True)
    tracer.op = "op"

    def inner():
        return bytearray(1 << 20)

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        traced_inner()
        return len(bytearray(1 << 18))

    tracemalloc.start()
    try:
        tracer.wrap("m.outer", outer)()
    finally:
        tracemalloc.stop()
    outer_span, inner_span = tracer.spans
    assert (outer_span[layers.NAME], outer_span[layers.PARENT]) == ("m.outer", -1)
    assert (inner_span[layers.NAME], inner_span[layers.PARENT]) == ("m.inner", 0)
    assert outer_span[layers.PEAK] >= inner_span[layers.PEAK] >= 1 << 20
    assert outer_span[layers.CHILD] == inner_span[layers.T1] - inner_span[layers.T0]


def test_slope_of_a_quadratic_sweep():
    assert layers.slope({500: 1.0, 1000: 4.0, 2000: 16.0}) == pytest.approx(2.0)
    assert layers.slope({500: 1.0, 900: 2.0}) == 0.0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)


def test_op_medians_take_each_ops_median():
    a, b = workloads.Op("a", "fuse", (), 1), workloads.Op("b", "fuse", (), 1)
    calls = [(a, None), (b, None), (a, None), (a, None), (b, None)]
    assert run.op_medians(calls, [1.0, 10.0, 3.0, 2.0, 30.0]) == [2.0, 20.0]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_command_prints_one_result_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "3", "--seconds", "1",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in names}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
