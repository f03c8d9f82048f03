"""scripts/bench_summary.py condenses paired timed bench records into BENCH_<tag>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = [
    {"name": "op_p50_starts", "unit": "starts", "better": "lower", "bound": 0.25},
    {"name": "items_per_start", "unit": "1/start", "better": "higher", "bound": 0.25},
]


@pytest.fixture
def script(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "scripts" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return module


def record(checkout: Path, workload: str, seed: int, commit: str, starts: float, items: float,
           hashes=("h1", "h2"), python="3.11.7", calls=None) -> None:
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    context = {"python": python, "implementation": "CPython", "machine": "x86_64", "nproc": 2,
               "commit": commit, "seed": seed}
    doc = {
        "workload": workload,
        "mode": "timed",
        "context": context,
        "calls": calls or [{"op": "op", "starts": starts, "maxrss_kb": 1000, "sha256": h} for h in hashes],
        "metrics": {"op_p50_starts": starts, "items_per_start": items},
    }
    (out / f"{workload}-seed{seed}.json").write_text(json.dumps(doc))


def test_medians_quartiles_and_wins_per_metric(script, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (old, new) in zip((5, 6, 7, 8), [(4.6, 4.2), (4.7, 4.3), (4.65, 4.8), (4.5, 4.5)]):
        record(parent, "simulate", seed, "p" * 40, old, 10 / old)
        record(change, "simulate", seed, "c" * 40, new, 10 / new)
    record(parent, "simulate", 9, "p" * 40, 1.0, 1.0)  # no change run: not a pair
    (parent / "perfbench" / "out" / "simulate-seed5-trace.json").write_text("{}")  # traced: not read

    assert script.main([str(parent), str(change), "--tag", "demo"]) == 0
    out = tmp_path / "BENCH_demo.json"
    assert capsys.readouterr().out.strip() == str(out)
    bench = json.loads(out.read_text())
    assert bench["tag"] == "demo"
    assert bench["context"] == {"python": "3.11.7", "implementation": "CPython", "machine": "x86_64", "nproc": 2}
    assert bench["commits"] == {"parent": "p" * 40, "change": "c" * 40}
    sim = bench["workloads"]["simulate"]
    assert sim["seeds"] == [5, 6, 7, 8] and sim["same_stdout"] is True
    starts = sim["metrics"]["op_p50_starts"]
    assert (starts["unit"], starts["better"]) == ("starts", "lower")
    assert starts["parent"]["runs"] == [4.6, 4.7, 4.65, 4.5]
    assert starts["parent"]["median"] == pytest.approx(4.625)
    assert starts["change"]["median"] == pytest.approx(4.4)
    assert starts["ratio"] == pytest.approx(4.4 / 4.625)
    assert starts["parent"]["q1"] <= starts["parent"]["median"] <= starts["parent"]["q3"]
    # lower is better: two wins, one loss, and a tie that counts for neither side
    assert starts["change_wins"] == 2
    # higher is better: the same pairs, mirrored
    assert sim["metrics"]["items_per_start"]["change_wins"] == 2


def test_a_changed_stdout_is_reported(script, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    record(parent, "fusion", 1, "p", 2.0, 1.0, hashes=("h1", "h2"))
    record(change, "fusion", 1, "c", 1.9, 1.1, hashes=("h1", "h3"))
    assert script.summarize(parent, change, "t")["workloads"]["fusion"]["same_stdout"] is False


@pytest.mark.parametrize("mixed", [True, False], ids=["two-interpreters", "no-pairs"])
def test_records_that_cannot_be_compared_exit_2(script, tmp_path, capsys, mixed):
    parent, change = tmp_path / "parent", tmp_path / "change"
    record(parent, "rough", 1, "p", 2.0, 1.0)
    record(change, "rough", 1 if mixed else 2, "c", 1.9, 1.1, python="3.12.1")
    assert script.main([str(parent), str(change), "--tag", "t"]) == 2
    error = capsys.readouterr().err
    assert error.startswith("error: ") and ("python" if mixed else "no workload") in error
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_records_with_no_commit_exit_2(script, tmp_path, capsys, side):
    parent, change = tmp_path / "parent", tmp_path / "change"
    record(parent, "rough", 1, None if side == "parent" else "p", 2.0, 1.0)
    record(change, "rough", 1, None if side == "change" else "c", 1.9, 1.1)
    assert script.main([str(parent), str(change), "--tag", "t"]) == 2
    assert capsys.readouterr().err == f"error: the {side} records name no commit\n"
    assert not (tmp_path / "BENCH_t.json").exists()


PARENT_STARTS = [2.0, 2.01, 2.02, 2.03, 2.04, 2.05, 2.06, 2.07, 2.08, 2.09]


@pytest.mark.parametrize(
    "parent_starts, change_starts, holds",
    [
        # nine wins, and the medians differ by 0.2 against a spread of 0.045
        (PARENT_STARTS, [x - 0.2 for x in PARENT_STARTS[:9]] + [2.1], True),
        # the same medians, but only eight wins
        (PARENT_STARTS, [x - 0.2 for x in PARENT_STARTS[:8]] + [2.1, 2.1], False),
        # ten wins, but by 0.5 against a spread of 4.5
        ([float(x) for x in range(1, 11)], [x - 0.5 for x in range(1, 11)], False),
    ],
    ids=["meets-both", "too-few-wins", "within-the-spread"],
)
def test_the_claim_rule(script, tmp_path, parent_starts, change_starts, holds):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (old, new) in enumerate(zip(parent_starts, change_starts)):
        record(parent, "cli_small", seed, "p", old, 10 / old)
        record(change, "cli_small", seed, "c", new, 10 / new)
    metrics = script.summarize(parent, change, "t")["workloads"]["cli_small"]["metrics"]
    assert metrics["op_p50_starts"]["claim_holds"] is holds
    # higher is better: the mirrored metric gives the same verdict
    assert metrics["items_per_start"]["claim_holds"] is holds


@pytest.mark.parametrize(
    "old, new, within",
    [
        # (op_p50_starts, items_per_start) per side, both metrics with a bound of 0.25:
        # a quarter worse is at the bound, a little more is past it
        ((2.0, 8.0), (2.5, 6.0), (True, True)),
        ((2.0, 8.0), (2.6, 5.9), (False, False)),
        # better by any amount is within
        ((2.0, 8.0), (1.0, 16.0), (True, True)),
        # a zero parent median leaves no room: equal or better is within, any worse is not
        ((0.0, 0.0), (0.0, 0.1), (True, True)),
        ((0.0, 0.0), (0.1, 0.0), (False, True)),
    ],
    ids=["at-the-bound", "past-the-bound", "better", "zero-parent-within", "zero-parent-worse"],
)
def test_the_bound_check(script, tmp_path, old, new, within):
    record(tmp_path / "parent", "fusion", 1, "p", *old)
    record(tmp_path / "change", "fusion", 1, "c", *new)
    metrics = script.summarize(tmp_path / "parent", tmp_path / "change", "t")["workloads"]["fusion"]["metrics"]
    assert (metrics["op_p50_starts"]["within_bound"], metrics["items_per_start"]["within_bound"]) == within


def test_the_per_op_table(script, tmp_path):
    # (op, starts, maxrss_kb) per call; two calls of "a" and one of "b" a run, "c" only on one side
    parent_runs = [[("a", 3.0, 100), ("a", 3.2, 140), ("b", 1.5, 90), ("c", 1.0, 10)],
                   [("a", 3.1, 120), ("a", 3.3, 110), ("b", 1.4, 95)]]
    change_runs = [[("a", 2.8, 130), ("a", 3.0, 100), ("b", 1.6, 99)],
                   [("a", 3.4, 160), ("a", 3.6, 105), ("b", 1.3, 91)]]
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for seed, calls in enumerate(runs):
            record(tmp_path / side, "simulate", seed, side, 1.0, 1.0,
                   calls=[{"op": op, "starts": n, "maxrss_kb": kb, "sha256": op} for op, n, kb in calls])
    ops = script.summarize(tmp_path / "parent", tmp_path / "change", "t")["workloads"]["simulate"]["ops"]
    assert sorted(ops) == ["a", "b"]
    # each run's median call of "a": parent 3.1 and 3.2, change 2.9 and 3.5; the change won the first pair
    assert ops["a"]["parent"] == {"starts": pytest.approx(3.15), "maxrss_kb_median": 115, "maxrss_kb_max": 140}
    assert ops["a"]["change"] == {"starts": pytest.approx(3.2), "maxrss_kb_median": 117.5, "maxrss_kb_max": 160}
    assert ops["a"]["change_wins"] == 1
    assert ops["b"]["change"]["maxrss_kb_max"] == 99 and ops["b"]["change_wins"] == 1
