import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_CASES, HASH_SEEDS, agreed_run, closed_after, fill, gsets_process, traced
from gsets import GranularSet, InformationTable, Interval, Partition, infosys
from gsets.cli import main
from gsets.formats import dumps_canonical

CHAIN = '[["P1"],["P1","P2"],["P1","P2","P3"],["P1","P2","P3","P4"],["P1","P2","P3","P4","P5"]]'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _traced_main(argv: list[str], out=None, warm=None) -> tuple[int, int, int]:
    """The traced (code, held, peak) of ``main(argv)`` with stdout on the path
    `out`, or the null device, after a warm-up call of `warm` (default `argv`)
    has filled the import and regex caches of a first call.  The warm-up's text
    is dropped from `out`."""
    with open(out or os.devnull, "w", encoding="utf-8") as stream, contextlib.redirect_stdout(stream):
        main(warm or argv)
        if out:
            stream.seek(0)
            stream.truncate()
        return traced(lambda: main(argv))


@pytest.fixture
def intervals_csv(fixtures_dir):
    return str(fixtures_dir / "three_intervals.csv")


@pytest.fixture
def table_csv(fixtures_dir):
    return str(fixtures_dir / "sample_table.csv")


@pytest.fixture
def chain_json(fixtures_dir):
    return str(fixtures_dir / "attr_chain.json")


class TestFuse:
    def test_fixture_budget_one(self, capsys, intervals_csv):
        code, out, err = run_cli(capsys, "fuse", "--input", intervals_csv, "--faults", "1")
        assert code == 0 and err == ""
        assert out == "[2,10]\n"

    def test_budget_too_large_is_domain_error(self, capsys, intervals_csv):
        code, out, err = run_cli(capsys, "fuse", "--input", intervals_csv, "--faults", "3")
        assert code == 1
        assert out == ""
        assert err == "error: fault count exceeds measurement count\n"

    def test_missing_file_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "fuse", "--input", "no-such.csv", "--faults", "0")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("path", ["./missing.csv", ""])
    def test_missing_file_is_named_as_typed(self, capsys, monkeypatch, tmp_path, path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "fuse", "--input", path, "--faults", "0")
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_malformed_csv_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lo,hi\n5,1\n")
        code, out, err = run_cli(capsys, "fuse", "--input", str(bad), "--faults", "0")
        assert code == 2 and "line 2" in err

    def test_json_input(self, capsys, tmp_path):
        src = tmp_path / "iv.json"
        src.write_text("[[0,10],[2,8],[4,12]]")
        code, out, _ = run_cli(
            capsys, "fuse", "--input", str(src), "--format", "json", "--faults", "0"
        )
        assert code == 0 and out == "[4,8]\n"

    def test_empty_fusion_prints_null(self, capsys, tmp_path):
        src = tmp_path / "iv.csv"
        src.write_text("lo,hi\n0,1\n5,6\n")
        code, out, _ = run_cli(capsys, "fuse", "--input", str(src), "--faults", "0")
        assert code == 0 and out == "null\n"


class TestGraded:
    def test_full_range(self, capsys, intervals_csv):
        code, out, _ = run_cli(
            capsys, "graded", "--input", intervals_csv, "--fmin", "0", "--fmax", "2"
        )
        assert code == 0
        assert out == '{"f_min":0,"levels":[[4,8],[2,10],[0,12]]}\n'

    def test_invalid_range(self, capsys, intervals_csv):
        code, _, err = run_cli(
            capsys, "graded", "--input", intervals_csv, "--fmin", "2", "--fmax", "1"
        )
        assert code == 1 and err == "error: invalid fault range\n"


class TestRandom:
    def test_distribution_output(self, capsys, intervals_csv):
        code, out, _ = run_cli(
            capsys, "random", "--input", intervals_csv,
            "--dist", '{"0":0.5,"1":0.3,"2":0.2}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["atoms"] == [
            {"p": 0.2, "result": [0, 12]},
            {"p": 0.3, "result": [2, 10]},
            {"p": 0.5, "result": [4, 8]},
        ]

    def test_sampling_is_deterministic(self, capsys, intervals_csv):
        argv = [
            "random", "--input", intervals_csv,
            "--dist", '{"0":0.5,"1":0.5}', "--sample", "20", "--seed", "9",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0 and out1 == out2
        assert len(json.loads(out1)["samples"]) == 20

    def test_dist_from_file(self, capsys, intervals_csv, tmp_path):
        pmf = tmp_path / "pmf.json"
        pmf.write_text('{"0":1.0}')
        code, out, _ = run_cli(
            capsys, "random", "--input", intervals_csv, "--dist", str(pmf)
        )
        assert code == 0 and json.loads(out)["atoms"] == [{"p": 1, "result": [4, 8]}]

    def test_out_of_range_support(self, capsys, intervals_csv):
        code, _, err = run_cli(
            capsys, "random", "--input", intervals_csv, "--dist", '{"5":1.0}'
        )
        assert code == 1 and "exceeds measurement count" in err

    @pytest.mark.parametrize(
        "masses, total",
        [([0.1] * 10 + [0.3], "1.3"), ([1.7e308, 1.7e308], "inf")],
        ids=["ten-tenths-and-three-tenths", "past-the-largest-float"],
    )
    def test_a_sum_off_one_prints_the_correctly_rounded_total(self, capsys, intervals_csv, masses, total):
        # a plain float sum gives 1.2999999999999998 before Python 3.12 and 1.3
        # after; the correctly rounded sum is 1.3 on each, and inf past the largest float
        dist = json.dumps({str(f): p for f, p in enumerate(masses)})
        code, out, err = run_cli(capsys, "random", "--input", intervals_csv, "--dist", dist)
        assert (code, out, err) == (1, "", f"error: probabilities sum to {total}, expected 1\n")

    def test_nonpositive_sample_count(self, capsys, intervals_csv):
        code, _, err = run_cli(
            capsys, "random", "--input", intervals_csv,
            "--dist", '{"0":1.0}', "--sample", "0",
        )
        assert code == 1 and "at least one sample" in err

    @pytest.mark.parametrize("key", ["\u00b2", "\u0661"], ids=["superscript-2", "arabic-indic-1"])
    def test_non_ascii_digit_key_is_usage_error(self, capsys, intervals_csv, key):
        # both pass str.isdigit, but neither is an ASCII decimal integer
        code, out, err = run_cli(
            capsys, "random", "--input", intervals_csv, "--dist", json.dumps({key: 1.0})
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_range_past_64_bits_is_domain_error(self, capsys, intervals_csv):
        code, out, err = run_cli(
            capsys, "random", "--input", intervals_csv, "--dist", '{"0":1.0}',
            "--seed", str(2**64 - 2), "--sample", "3",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --seed through --seed + --sample - 1 must lie in")
        assert err.count("\n") == 1

    def test_seed_range_ending_at_64_bit_maximum(self, capsys, intervals_csv):
        code, out, err = run_cli(
            capsys, "random", "--input", intervals_csv, "--dist", '{"0":1.0}',
            "--seed", str(2**64 - 3), "--sample", "3",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["samples"] == [[4, 8]] * 3

    def test_sample_memory_does_not_grow_with_the_count(self, intervals_csv):
        # the draws are written as they are made; 10^5 of them are over 500 KB of text
        argv = ["random", "--input", intervals_csv, "--dist", '{"0":0.5,"1":0.3,"2":0.2}', "--sample"]
        code, _, peak = _traced_main(argv + ["100000"], warm=argv + ["1"])
        assert code == 0
        assert peak <= 384 * 1024

    def test_reader_closing_early_is_one_error_line(self, intervals_csv):
        # 2**64 draws pass the seed check, so only the closed pipe can end the call
        code, err = closed_after(
            100, ["random", "--input", intervals_csv, "--dist", '{"0":1.0}', "--sample", str(2**64), "--seed", "0"]
        )
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _uniform_inputs(directory, n: int, seed: int) -> tuple[str, str]:
    """n uniform random intervals and a pmf over every fault budget, drawn as the
    benchmark's fusion workload draws them; fsum makes the pmf the same on every Python."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        lo = rng.uniform(-100.0, 100.0)
        rows.append(f"{lo!r},{lo + rng.uniform(0.0, 60.0)!r}\n")
    weights = [rng.random() + 0.01 for _ in range(n)]
    total = math.fsum(weights)
    src, dist = directory / "intervals.csv", directory / "pmf.json"
    src.write_text("lo,hi\n" + "".join(rows), encoding="utf-8")
    dist.write_text(json.dumps({str(f): w / total for f, w in enumerate(weights)}), encoding="utf-8")
    return str(src), str(dist)


def _peak_per_input_byte(argv: list[str], inputs: list[str]) -> float:
    """The traced peak of a second call of `argv`, per byte of its input files."""
    code, _, peak = _traced_main(argv)
    assert code == 0
    return peak / sum(os.path.getsize(path) for path in inputs)


class TestIntervalCommandsAtScale:
    @pytest.fixture(scope="class")
    def bench_inputs(self, tmp_path_factory):
        return _uniform_inputs(tmp_path_factory.mktemp("n2000"), 2000, 18)

    @pytest.fixture(scope="class")
    def large_inputs(self, tmp_path_factory):
        return _uniform_inputs(tmp_path_factory.mktemp("n20000"), 20_000, 20)

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (["graded", "--input", "{input}", "--fmin", "0", "--fmax", "1999"],
             "9914e8d9b2f04ed0ac791e76f77b1a434c4bc67d14b45458d19331bca0c6d089"),
            (["random", "--input", "{input}", "--dist", "{dist}", "--sample", "16", "--seed", "1818"],
             "1334407835186d4c33ebd9ce6da7db25b5fa697df712612b1e23b889d74e13fa"),
            (["random", "--input", "{input}", "--dist", "{dist}"],
             "8261c240c06e84848e6add64ef68890f64fabe8b378bee49dd42e0377b1be0dd"),
        ],
        ids=["graded", "random-sample-16", "random"],
    )
    def test_bench_scale_outputs_keep_their_bytes(self, capsys, bench_inputs, argv, sha256):
        # the benchmark's largest size, with every fault budget graded or weighted
        src, dist = bench_inputs
        code, out, err = run_cli(capsys, *(a.format(input=src, dist=dist) for a in argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["fuse", "--input", "{input}", "--faults", "10"], 5.0),
            (["graded", "--input", "{input}", "--fmin", "0", "--fmax", "19999"], 6.0),
            (["random", "--input", "{input}", "--dist", "{dist}", "--sample", "16"], 6.75),
        ],
        ids=["fuse", "graded", "random"],
    )
    def test_memory_per_input_byte(self, large_inputs, argv, bound):
        # the CSV is split into lines a block at a time and the documents are written a batch at a
        # time; with every line of the file held and the whole document built, each call took over
        # 6.3x (fuse, graded) or 7.7x (random) its input
        src, dist = large_inputs
        argv = [a.format(input=src, dist=dist) for a in argv]
        assert _peak_per_input_byte(argv, [a for a in argv if a in (src, dist)]) <= bound


class TestPartition:
    def test_single_attribute(self, capsys, table_csv):
        code, out, _ = run_cli(capsys, "partition", "--table", table_csv, "--attrs", "P1")
        assert code == 0
        assert json.loads(out) == {
            "blocks": [["O1", "O2"], ["O3", "O5", "O7", "O9", "O10"], ["O4", "O6", "O8"]]
        }

    def test_unknown_attribute(self, capsys, table_csv):
        code, _, err = run_cli(capsys, "partition", "--table", table_csv, "--attrs", "P9")
        assert code == 1 and "unknown attribute" in err

    def test_empty_attribute_list(self, capsys, table_csv):
        code, out, _ = run_cli(capsys, "partition", "--table", table_csv, "--attrs", "")
        assert code == 0
        assert json.loads(out)["blocks"] == [[f"O{i}" for i in range(1, 11)]]

    def test_memory_per_input_byte(self, tmp_path):
        # the table's lines are split a block at a time; with every line held the call took about 8x its input
        rng = random.Random(20000)
        rows = "".join(f"o{i}," + ",".join(str(rng.randrange(c)) for c in (2, 3, 4, 5) * 3) + "\n"
                       for i in range(20_000))
        table = tmp_path / "table.csv"
        table.write_text("object," + ",".join(f"A{j}" for j in range(12)) + "\n" + rows, encoding="utf-8")
        assert _peak_per_input_byte(["partition", "--table", str(table), "--attrs", "A0"], [str(table)]) <= 6.5


class TestGranulate:
    def test_sample_tower(self, capsys, table_csv, chain_json):
        code, out, _ = run_cli(capsys, "granulate", "--table", table_csv, "--chain", chain_json)
        assert code == 0
        doc = json.loads(out)
        assert doc["granular"] is True
        levels = doc["levels"]
        assert len(levels) == 5
        assert levels[0]["blocks"] == [
            ["O1", "O2"], ["O3", "O7", "O10"], ["O4"], ["O5"], ["O6"], ["O8"], ["O9"],
        ]
        assert levels[4]["blocks"] == [
            ["O1", "O2"], ["O3", "O5", "O7", "O9", "O10"], ["O4", "O6", "O8"],
        ]
        assert levels[1] == levels[2] == levels[3]

    def test_inline_chain(self, capsys, table_csv):
        code, out, _ = run_cli(capsys, "granulate", "--table", table_csv, "--chain", CHAIN)
        assert code == 0 and json.loads(out)["granular"] is True

    def test_non_nested_chain(self, capsys, table_csv):
        code, _, err = run_cli(
            capsys, "granulate", "--table", table_csv, "--chain", '[["P1"],["P2"]]'
        )
        assert code == 1 and "not nested" in err

    def test_bad_chain_json(self, capsys, table_csv):
        code, _, err = run_cli(capsys, "granulate", "--table", table_csv, "--chain", '[["P1"]')
        assert code == 2 and "invalid JSON" in err

    def test_table_error_is_reported_before_a_chain_error(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("object,P1\nO1,\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "granulate", "--table", str(table), "--chain", '[["P1"]')
        assert code == 2 and out == ""
        assert err == "error: line 2: empty cell\n"

    def test_non_string_universe_is_a_parse_error(self, capsys, monkeypatch, table_csv, chain_json):
        def numbered(table, chain):
            return GranularSet([Partition([0, 1, 2], [[0, 1], [2]]), Partition([0, 1, 2], [[0, 1, 2]])])

        monkeypatch.setattr("gsets.cli.granular_from_chain", numbered)
        code, out, err = run_cli(capsys, "granulate", "--table", table_csv, "--chain", chain_json)
        assert code == 2 and out == ""
        assert err == "error: partition block: expected an array of name strings\n"

    @pytest.fixture(scope="class")
    def seeded_argv(self, tmp_path_factory):
        # a seeded 4000 x 12 table and its 12-level chain: about 415 KB of output
        rng = random.Random(4000)
        attrs = [f"A{j}" for j in range(12)]
        rows = "".join(f"o{i}," + ",".join(str(rng.randrange(c)) for c in (2, 3, 4, 5) * 3) + "\n" for i in range(4000))
        table = tmp_path_factory.mktemp("n4000") / "table.csv"
        table.write_text("object," + ",".join(attrs) + "\n" + rows, encoding="utf-8")
        return ["granulate", "--table", str(table), "--chain", json.dumps([attrs[: k + 1] for k in range(12)])]

    def test_each_level_is_written_before_the_next_is_grouped(self, monkeypatch, table_csv, chain_json):
        # the levels stream: when a level is grouped, every level before it is already on stdout
        out, group, seen = io.StringIO(), Partition._groups, []
        monkeypatch.setattr(Partition, "_groups", lambda p: seen.append(out.getvalue().count('"blocks"')) or group(p))
        with contextlib.redirect_stdout(out):
            assert main(["granulate", "--table", table_csv, "--chain", chain_json]) == 0
        assert seen == [0, 1, 2, 3, 4]

    def test_reader_closing_early_is_one_error_line(self, seeded_argv):
        # the document is larger than the pipe holds, so a level's write meets the closed pipe
        code, err = closed_after(100, seeded_argv)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_memory_is_bounded_by_the_output(self, tmp_path, seeded_argv):
        # one level's blocks are held at a time and written as they render, after the parsed table
        # is freed: about 4.1x the output, against 4.3x with every level's text held, 13x for the tree
        out_path = tmp_path / "granular.json"
        code, _, peak = _traced_main(seeded_argv, out_path)
        size = out_path.stat().st_size
        assert code == 0 and size > 400_000
        assert peak <= 8 * size, f"peak {peak / size:.1f}x the output"


class TestApprox:
    def test_fixture_target(self, capsys, table_csv):
        code, out, _ = run_cli(
            capsys, "approx", "--table", table_csv,
            "--attrs", "P1,P2,P3,P4,P5", "--target", "O1,O2,O3",
        )
        assert code == 0
        assert json.loads(out) == {
            "lower": ["O1", "O2"],
            "upper": ["O1", "O2", "O3", "O7", "O10"],
        }

    def test_unknown_object(self, capsys, table_csv):
        code, _, err = run_cli(
            capsys, "approx", "--table", table_csv, "--attrs", "P1", "--target", "O99"
        )
        assert code == 1 and "unknown object" in err

    def test_bad_token_in_list(self, capsys, table_csv):
        code, _, err = run_cli(
            capsys, "approx", "--table", table_csv, "--attrs", "P1, P2", "--target", "O1"
        )
        assert code == 2 and "bad token" in err


class TestGradedApprox:
    def test_nested_targets(self, capsys, table_csv):
        code, out, _ = run_cli(
            capsys, "graded-approx", "--table", table_csv,
            "--attrs", "P1,P2,P3,P4,P5", "--targets", '[["O1"],["O1","O2"]]',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == [[], ["O1", "O2"]]
        assert doc["upper"] == [["O1", "O2"], ["O1", "O2"]]

    def test_non_nested_targets(self, capsys, table_csv):
        code, _, err = run_cli(
            capsys, "graded-approx", "--table", table_csv,
            "--attrs", "P1", "--targets", '[["O1"],["O2"]]',
        )
        assert code == 1 and "not nested" in err


class TestSensitivity:
    def test_profile_over_chain(self, capsys, table_csv, chain_json):
        code, out, _ = run_cli(
            capsys, "sensitivity", "--table", table_csv,
            "--chain", chain_json, "--target", "O1,O2,O3",
        )
        assert code == 0
        records = json.loads(out)
        assert [r["attribute_count"] for r in records] == [1, 2, 3, 4, 5]
        assert records[0]["lower_size"] == 2 and records[0]["upper_size"] == 7
        assert records[-1]["upper_size"] == 5


class TestSimulate:
    ARGS = ["simulate", "--sensors", "6", "--faulty", "2", "--rounds", "3", "--seed", "11"]

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS)
        code2, out2, _ = run_cli(capsys, *self.ARGS)
        assert code1 == code2 == 0 and out1 == out2

    def test_report_shape_and_guarantee(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["sensors"] == 6 and doc["config"]["seed"] == 11
        assert len(doc["rounds"]) == 3
        for entry in doc["rounds"]:
            assert len(entry["faulty"]) == 2
            assert len(entry["intervals"]) == 6
            assert all(entry["contains_truth"][f] for f in range(2, 6))

    def test_bad_config(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--sensors", "3", "--faulty", "3", "--rounds", "1"
        )
        assert code == 1 and "less than num_sensors" in err

    def test_zero_rounds_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--sensors", "3", "--faulty", "0", "--rounds", "0"
        )
        assert code == 1 and "at least one round" in err

    def test_fault_geometry_lost_to_rounding_is_domain_error(self, capsys):
        # at 1e20 a float step is 16384, so the faulty centre rounds back onto the truth
        code, out, err = run_cli(
            capsys, "simulate", "--sensors", "3", "--faulty", "1", "--rounds", "1", "--truth", "1e20"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: round 0: faulty sensor") and err.count("\n") == 1
        assert "contains the truth" in err

    def test_an_overflowing_round_names_its_sensor(self, capsys):
        # the faulty sensor is drawn at least 1e308 above a truth of 1e308, past the largest float
        code, out, err = run_cli(
            capsys, "simulate", "--sensors", "3", "--faulty", "1", "--rounds", "1", "--truth", "1e308",
            "--offset", "1e308",
        )
        assert code == 1 and out == ""
        assert err == "error: round 0: faulty sensor 1: interval endpoints must be finite\n"

    def test_late_round_failure_leaves_stdout_empty(self, capsys):
        # at 2**55 a float step is 8; rounds 0-4 keep their faulty sensors off the truth, round 5 does not
        code, out, err = run_cli(
            capsys, "simulate", "--sensors", "3", "--faulty", "1", "--rounds", "6", "--seed", "1",
            "--truth", str(2**55),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: round 5: ") and err.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "write-through"])
    def test_running_out_of_memory_is_one_error_line(self, unbuffered):
        # a round of 10**9 sensors asks for gigabytes at once: run it only under this address-space cap
        resource = pytest.importorskip("resource")

        def cap():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = 10**9 if hard == resource.RLIM_INFINITY else min(10**9, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        run = gsets_process(["-m", "gsets", "simulate", "--sensors", "1000000000", "--faulty", "500000000",
                             "--rounds", "1"], unbuffered=unbuffered, preexec_fn=cap)
        assert (run.returncode, run.stderr) == (1, b"error: out of memory\n")
        # the report streams, so its head may already be out
        assert run.stdout in (b"", b'{"config":{"faulty":500000000,"halfwidth":1,"offset":2.5,"seed":0,'
                                   b'"sensors":1000000000,"truth":0},"rounds":[')

    @pytest.mark.parametrize(
        "flags, sha256",
        [
            (["--sensors", "9", "--faulty", "3", "--rounds", "2000", "--seed", "17"],
             "8672d86e56d3d943d322907ffea0b4cd3911cd7e158ed790c104122a3d7e5606"),
            (["--sensors", "31", "--faulty", "10", "--rounds", "800", "--seed", "18"],
             "2e834d2c5f56e8e8b0cef99a54ff179feb17c281b33c4e996cc8a81e33d486d8"),
            (["--sensors", "101", "--faulty", "33", "--rounds", "200", "--seed", "19", "--truth", "-40",
              "--halfwidth", "2", "--offset", "5"],
             "d4c9c58d734a275f9374fbaf8a2a26573892e0f97c31dad1c6146e0b4b9d91fd"),
            # a config the bound declines, so every round is checked before the first write, with
            # reals past 2**53 that keep their real form
            (["--sensors", "9", "--faulty", "3", "--rounds", "300", "--seed", "21", "--truth", "1e16"],
             "6200ada3228e94a91cda61cab58f84ec9ec84d0049d1bbf80a56126deb4c6d03"),
            # a config the bound clears at truth 2**52, where every round has an integral endpoint and
            # is re-rendered
            (["--sensors", "9", "--faulty", "3", "--rounds", "300", "--seed", "21", "--truth", "4503599627370496"],
             "40ad56ed4661cda9bd1ddc97524b4d4a2481dc8a27b8bf256398856add4dc058"),
            # the bench shapes draw the faulty set from random.sample's pool of indices; these draw
            # from its set of indices taken, with k <= 5 (set size 21) and with k > 5 (set size 85),
            # the last with an index drawn again in some rounds
            (["--sensors", "200", "--faulty", "3", "--rounds", "50"],
             "c3f70f3cb6dc4209059d570d039218523f05d6c66c06da2f66ce07a788cec360"),
            (["--sensors", "2000", "--faulty", "7", "--rounds", "5"],
             "a6b3048373153200f28f641f715fa08abf27eac79d2144a4a2c3273dcb97a172"),
            (["--sensors", "86", "--faulty", "7", "--rounds", "100", "--seed", "5"],
             "6a538671e490b942098e293572bd683d60ae616a481e36e96555cbdbb82cc0f1"),
        ],
        ids=["9x2000", "31x800", "101x200", "9x300-truth-1e16", "9x300-truth-2**52", "200x50-set-branch",
             "2000x5-set-branch", "86x100-set-branch-redraws"],
    )
    def test_bench_scale_reports_keep_their_bytes(self, capsys, flags, sha256):
        # the three shapes the benchmark runs, a third of the sensors faulty, and two truths far out
        code, out, err = run_cli(capsys, "simulate", *flags)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize("rounds", [2000, 20_000])
    def test_a_streamed_report_holds_the_same_memory_at_any_round_count(self, rounds):
        # no round of this config can fail, so each batch is written as it renders: a 2000-round
        # report peaked at 0.7 MB and a 2*10**4-round one at 6.5 MB when the whole text was held
        argv = ["simulate", "--sensors", "3", "--faulty", "1", "--rounds", str(rounds)]
        code, _, peak = _traced_main(argv, warm=argv[:-1] + ["1"])
        assert code == 0
        assert peak <= 256 * 1024

    @pytest.mark.parametrize("rounds", [2000, 8000])
    def test_a_declined_config_holds_the_same_memory_at_any_round_count(self, rounds):
        # at truth 1e16 the bound declines the config, so every round is drawn once before the
        # first write and again as it is written: peaks were 558 and 1894 KiB when the text was held
        argv = ["simulate", "--sensors", "3", "--faulty", "1", "--truth", "1e16", "--rounds", str(rounds)]
        code, _, peak = _traced_main(argv, warm=argv[:-1] + ["1"])
        assert code == 0
        assert peak <= 256 * 1024

    @pytest.mark.parametrize("sensors, faulty, rounds", [(9, 2, 2000), (31, 10, 800)])
    def test_memory_is_bounded_by_the_output(self, tmp_path, sensors, faulty, rounds):
        # the report is never held whole, as outcomes, a document tree or text; the bound by its size is loose
        argv = ["simulate", "--sensors", str(sensors), "--faulty", str(faulty), "--rounds", str(rounds)]
        out_path = tmp_path / "report.json"
        code, _, peak = _traced_main(argv, out_path, warm=argv[:-1] + ["1"])
        size = out_path.stat().st_size
        assert code == 0 and size > 1_000_000
        assert peak <= 1.25 * size + 512 * 1024


class TestGoldenBytes:
    """Exact stdout of every subcommand on the fixtures, byte for byte."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_stdout_matches_golden(self, capsys, fixtures_dir, case):
        code, out, err = run_cli(capsys, *fill(GOLDEN_CASES[case]))
        assert code == 0 and err == ""
        assert out.encode("utf-8") == (fixtures_dir / "cli_golden" / f"{case}.json").read_bytes()

    def test_one_golden_file_per_case(self, fixtures_dir):
        # a golden file with no case, or a case with no golden file, is stale
        assert sorted(path.stem for path in (fixtures_dir / "cli_golden").glob("*.json")) == sorted(GOLDEN_CASES)


class TestWholeDocuments:
    @pytest.mark.parametrize("case", ["fuse", "partition", "approx", "graded-approx", "sensitivity"])
    def test_rendered_after_the_inputs_are_freed(self, monkeypatch, capsys, case):
        # the handler returns its document and main renders it, so the parsed table or intervals
        # are freed before the encoder runs
        events = []
        gc.collect()  # no value of an earlier test is left to be freed during the call
        for cls in (InformationTable, Interval):
            monkeypatch.setattr(cls, "__del__", lambda self: events.append("freed"), raising=False)

        def render(doc):
            events.append("render")
            return dumps_canonical(doc)

        monkeypatch.setattr("gsets.formats.dumps_canonical", render)
        assert main(fill(GOLDEN_CASES[case])) == 0
        first_render = events.index("render")
        assert "freed" in events[:first_render]
        assert "freed" not in events[first_render:]


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuse", "--input", "{bad}", "--faults", "0"],
            ["partition", "--table", "{bad}", "--attrs", "P1"],
            ["granulate", "--table", "{table}", "--chain", "{bad}"],
        ],
    )
    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"lo,hi\n\xff\xfe,1\n")
        code, out, err = run_cli(capsys, *fill(argv, bad=bad))
        assert code == 2 and out == ""
        assert err == f"error: {bad}: not UTF-8 text (byte 6)\n"


DEEP_ARRAY = "[" * 100000
DEEP_OBJECT = '{"a":' * 100000


class TestDeeplyNestedJson:
    """JSON nested past the decoder's recursion limit is unparseable input."""

    @pytest.mark.parametrize(
        "argv, deep",
        [
            (["granulate", "--table", "@table", "--chain", "@inline"], DEEP_ARRAY),
            (
                ["graded-approx", "--table", "@table", "--attrs", "P1", "--targets", "@inline"],
                DEEP_ARRAY,
            ),
            (["random", "--input", "@intervals", "--dist", "@file"], DEEP_OBJECT),
            (["fuse", "--input", "@file", "--format", "json", "--faults", "0"], DEEP_ARRAY),
        ],
        ids=["chain", "targets", "dist", "input"],
    )
    def test_exits_2_with_one_error_line(
        self, capsys, tmp_path, intervals_csv, table_csv, argv, deep
    ):
        deep_file = tmp_path / "deep.json"
        deep_file.write_text(deep)
        values = {
            "@table": table_csv, "@intervals": intervals_csv,
            "@inline": deep, "@file": str(deep_file),
        }
        code, out, err = run_cli(capsys, *(values.get(a, a) for a in argv))
        assert code == 2 and out == ""
        assert err == "error: invalid JSON: arrays or objects nested too deeply\n"


class TestComputeInvariantFailure:
    def test_granulate_levels_that_do_not_refine_exit_1(
        self, capsys, monkeypatch, table_csv, chain_json
    ):
        def crossing_levels(table, chain):
            # block labels of {O1,O2}|rest and {O1}|rest: neither partition refines the other
            n = len(table.objects)
            for i in range(len(chain.levels)):
                yield (0, 0) + (1,) * (n - 2) if i % 2 else (0,) + (1,) * (n - 1)

        monkeypatch.setattr(infosys, "_chain_labels", crossing_levels)
        code, out, err = run_cli(capsys, "granulate", "--table", table_csv, "--chain", chain_json)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not refinement-related" in err


# each subcommand's flags in help order, with their help texts (None: no help text)
SUBCOMMAND_FLAGS = {
    "fuse": [
        ("--input", "interval file (CSV 'lo,hi' or JSON)"), ("--format", None), ("--faults", None),
    ],
    "graded": [
        ("--input", "interval file (CSV 'lo,hi' or JSON)"), ("--format", None), ("--fmin", None), ("--fmax", None),
    ],
    "random": [
        ("--input", "interval file (CSV 'lo,hi' or JSON)"),
        ("--format", None),
        ("--dist", "JSON pmf over fault counts (path or inline)"),
        ("--sample", "also draw this many results"),
        ("--seed", None),
    ],
    "partition": [("--table", "information table CSV"), ("--attrs", "comma-separated attribute names")],
    "granulate": [("--table", "information table CSV"), ("--chain", "JSON attribute chain (path or inline)")],
    "approx": [
        ("--table", "information table CSV"),
        ("--attrs", "comma-separated attribute names"),
        ("--target", "comma-separated object ids"),
    ],
    "graded-approx": [
        ("--table", "information table CSV"),
        ("--attrs", "comma-separated attribute names"),
        ("--targets", "JSON nested target sets (path or inline)"),
    ],
    "sensitivity": [
        ("--table", "information table CSV"),
        ("--chain", "JSON attribute chain (path or inline)"),
        ("--target", "comma-separated object ids"),
    ],
    "simulate": [
        ("--sensors", None),
        ("--faulty", None),
        ("--rounds", None),
        ("--seed", None),
        ("--truth", None),
        ("--halfwidth", "max half-width of correct intervals"),
        ("--offset", "min center displacement of faulty intervals"),
    ],
}

REQUIRED_FLAGS = {
    "fuse": "--input, --faults",
    "graded": "--input, --fmin, --fmax",
    "random": "--input, --dist",
    "partition": "--table, --attrs",
    "granulate": "--table, --chain",
    "approx": "--table, --attrs, --target",
    "graded-approx": "--table, --attrs, --targets",
    "sensitivity": "--table, --chain, --target",
    "simulate": "--sensors, --faulty, --rounds",
}


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", REQUIRED_FLAGS)
    def test_missing_required_flags_are_named_in_order(self, capsys, command):
        code, out, err = run_cli(capsys, command)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"gsets {command}: error: the following arguments are required: {REQUIRED_FLAGS[command]}"]

    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_subcommand_help_names_each_flag_with_its_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0 and err == ""
        # an option's entry runs from its flag to the next option, with lines rejoined
        entries = {
            m[1]: " ".join(m[2].split()) for m in re.finditer(r"^  (--[\w-]+)(.*?)(?=^  -|\Z)", out, re.M | re.S)
        }
        assert list(entries) == [flag for flag, _ in SUBCOMMAND_FLAGS[command]]
        for flag, text in SUBCOMMAND_FLAGS[command]:
            if text is not None:
                assert entries[flag].endswith(" " + text), flag

    def test_unknown_flag(self, capsys, intervals_csv):
        assert main(["fuse", "--input", intervals_csv, "--bogus", "1"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["fuse", "--faults", "1"]) == 2

    def test_non_integer_flag_value(self, capsys, intervals_csv):
        assert main(["fuse", "--input", intervals_csv, "--faults", "x"]) == 2

    def test_errors_keep_stdout_clean(self, capsys, table_csv):
        code, out, err = run_cli(
            capsys, "partition", "--table", table_csv, "--attrs", "P9"
        )
        assert code == 1 and out == "" and err != ""

    def test_help_returns_in_process(self, capsys):
        # main returns its code and never exits; the process exit is __main__'s
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gsets ")

    def test_read_error_leaves_stdout_alone(self, capsys, monkeypatch, tmp_path):
        # only a failed write to stdout points its descriptor at the null device
        redirects = []
        monkeypatch.setattr(os, "dup2", lambda *args: redirects.append(args))
        code, out, err = run_cli(capsys, "fuse", "--input", str(tmp_path), "--faults", "0")
        monkeypatch.undo()  # the capture of the test's own output uses dup2 too
        assert redirects == []
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 21] ") and err.count("\n") == 1


class TestProcessDeterminism:
    def test_granulate_bytes_stable_across_hash_seeds(self, golden_run):
        assert golden_run("granulate").returncode == 0

    def test_simulate_fault_check_survives_optimized_mode(self):
        # the fault geometry check must not be an assert, which -O strips
        argv = ["simulate", "--sensors", "3", "--faulty", "1", "--rounds", "1", "--truth", "1e20"]
        proc = gsets_process(["-m", "gsets", *argv], PYTHONOPTIMIZE="1")
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    def test_reader_closing_early_is_one_error_line(self):
        # the report is far larger than the pipe, so the writer meets a closed pipe
        code, err = closed_after(10, ["simulate", "--sensors", "9", "--faulty", "3", "--rounds", "2000"])
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_reader_closing_early_on_a_held_report_is_one_error_line(self):
        # at truth 1e16 a faulty centre may round onto the truth, so every round is drawn before the
        # first write, and only then does the 1.0 MB report meet the closed pipe
        argv = ["simulate", "--sensors", "9", "--faulty", "3", "--rounds", "2000", "--truth", "1e16"]
        code, err = closed_after(10, argv)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_simulate_bytes_stable_across_hash_seeds(self):
        argv = ["simulate", "--sensors", "5", "--faulty", "1", "--rounds", "2", "--seed", "3"]
        seeds = ({"PYTHONHASHSEED": "101"}, {"PYTHONHASHSEED": "202"})
        assert agreed_run(["-m", "gsets", *argv], seeds).returncode == 0


# Error cases whose message names one of several defects held in a set, and
# the expected stderr (or stdout of a library call), which must not depend on
# the hash seed.  The args go through `fill`, so a literal brace is doubled.
HASH_SEED_CASES = {
    "approx-unknown-objects": (
        ["-m", "gsets", "approx", "--table", "{table}", "--attrs", "P1", "--target", "O1,X1,X2,X3"],
        1, "", "error: unknown object: 'X1'\n",
    ),
    "granulate-unknown-attributes": (
        ["-m", "gsets", "granulate", "--table", "{table}", "--chain", '[["Q2","P1","Q1"]]'],
        1, "", "error: unknown attribute: 'Q1'\n",
    ),
    "partition-foreign-elements": (
        ["-c", "from gsets import DomainError, Partition\ntry:\n"
               "    Partition(['a', 'b', 'c'], [['a', 'b'], ['x', 'y', 'z']])\n"
               "except DomainError as exc:\n    print(exc)"],
        0, "block element 'x' is not in the universe\n", "",
    ),
    # a set block is walked least repr first
    "partition-set-block-foreign-elements": (
        ["-c", "from gsets import DomainError, Partition\ntry:\n"
               "    Partition(['a'], [{{'x1', 'x2', 'x3'}}])\n"
               "except DomainError as exc:\n    print(exc)"],
        0, "block element 'x1' is not in the universe\n", "",
    ),
    # blocks that arrive from a generator are walked in their own order
    "partition-generator-block-foreign-elements": (
        ["-c", "from gsets import DomainError, Partition\ntry:\n"
               "    Partition(['a'], (block for block in [['x1', 'x2', 'x3']]))\n"
               "except DomainError as exc:\n    print(exc)"],
        0, "block element 'x1' is not in the universe\n", "",
    ),
    # a set universe names its least uncovered element by repr
    "partition-set-universe-uncovered": (
        ["-c", "from gsets import DomainError, Partition\ntry:\n"
               "    Partition({{'x1', 'x2', 'x3', 'x4'}}, [['x1']])\n"
               "except DomainError as exc:\n    print(exc)"],
        0, "blocks do not cover the universe: 'x2' unassigned\n", "",
    ),
    "object-set-missing-identifier": (
        ["-c", "from gsets import ApproximationPair, ParseError\nfrom gsets.formats import approximation_pair_doc\n"
               "try:\n    approximation_pair_doc(ApproximationPair(set(), {{'x1', 'x2', 'x3'}}), order=['a'])\n"
               "except ParseError as exc:\n    print(exc)"],
        0, "identifier 'x1' is not in the supplied order\n", "",
    ),
}


# Hangs an object on sys whose finaliser writes to fd 2 if the interpreter is
# torn down, registers an atexit handler that prints to the (buffered) stdout,
# then runs gsets as ``python -m gsets`` would.
_EXIT_PROBE = r"""
import atexit, os, runpy, sys
class Sentinel:
    def __del__(self, write=os.write):
        write(2, b"torn down\n")
sys.sentinel = Sentinel()
atexit.register(print, "atexit ran")
if sys.argv[1] == "profiled":
    sys.setprofile(lambda frame, event, arg: None)
sys.argv[:2] = ["gsets"]
runpy.run_module("gsets", run_name="__main__", alter_sys=True)
"""

# Runs gsets as ``python -m gsets`` would, with an uncaught exception reported
# on stdout, where a test sees it even when stderr cannot be written.
_TRACEBACK_PROBE = r"""
import os, runpy, sys
sys.excepthook = lambda *exc: os.write(1, b"Traceback\n")
sys.argv[:1] = ["gsets"]
runpy.run_module("gsets", run_name="__main__", alter_sys=True)
"""


# variants for agreed_run: stdout buffered and write-through
BOTH_MODES = ({}, {"unbuffered": True})


def _with_closed(fd, args):
    """The args that run ``python <args>`` with descriptor `fd` closed from the start."""
    return ["-c", f"import os, sys; os.close({fd}); os.execv(sys.argv[1], sys.argv[1:])", sys.executable, *args]


class TestHashSeedIndependence:
    """Every golden case and every listed error case gives the same bytes on
    both streams under three hash seeds, with stdout buffered and write-through."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_golden_case(self, fixtures_dir, golden_run, case):
        golden = (fixtures_dir / "cli_golden" / f"{case}.json").read_bytes()
        run = golden_run(case)
        assert (run.returncode, run.stdout, run.stderr) == (0, golden, b"")

    @pytest.mark.parametrize("case", sorted(HASH_SEED_CASES))
    def test_error_case(self, case):
        args, code, out, err = HASH_SEED_CASES[case]
        run = agreed_run(fill(args), HASH_SEEDS)
        assert (run.returncode, run.stdout, run.stderr) == (code, out.encode(), err.encode())


class TestProcessExit:
    """``python -m gsets`` ends without interpreter teardown once its output is
    flushed, except under a profiler, tracer or debugger; streams, messages
    and exit codes are those of a normal exit."""

    @pytest.mark.parametrize("mode", ["plain", "profiled"])
    def test_teardown_is_skipped_and_atexit_handlers_run(self, fixtures_dir, intervals_csv, mode):
        proc = gsets_process(
            ["-c", _EXIT_PROBE, mode, "fuse", "--input", intervals_csv, "--faults", "1"], unbuffered=False
        )
        assert proc.returncode == 0
        assert proc.stdout == (fixtures_dir / "cli_golden" / "fuse.json").read_bytes() + b"atexit ran\n"
        # a profiled process exits normally, so its finalisers run
        assert proc.stderr == (b"torn down\n" if mode == "profiled" else b"")

    def test_cprofile_prints_the_document_then_its_stats(self, fixtures_dir, intervals_csv):
        proc = gsets_process(
            ["-m", "cProfile", "-m", "gsets", "fuse", "--input", intervals_csv, "--faults", "1"], unbuffered=False
        )
        assert proc.returncode == 0 and proc.stderr == b""
        golden = (fixtures_dir / "cli_golden" / "fuse.json").read_bytes()
        assert proc.stdout.startswith(golden)
        assert b" function calls " in proc.stdout[len(golden):]

    def test_pdb_gets_control_back(self):
        # `continue` with no breakpoint set stops pdb's tracing before gsets runs; gsets
        # gets no arguments, because pdb 3.13.0 takes any option after -m module as its own
        proc = gsets_process(["-m", "pdb", "-m", "gsets"], input=b"continue\nquit\n")
        assert proc.returncode == 0
        assert b"The program exited via sys.exit(). Exit status: 2" in proc.stdout

    @pytest.mark.parametrize("via", ["pipe", "file"])
    def test_help_arrives(self, tmp_path, via):
        if via == "pipe":
            text = agreed_run(["-m", "gsets", "--help"], BOTH_MODES).stdout
        else:
            outputs = []
            for unbuffered in (False, True):
                path = tmp_path / f"help-{unbuffered}.txt"
                with open(path, "wb") as out:
                    proc = gsets_process(["-m", "gsets", "--help"], unbuffered=unbuffered, stdout=out)
                assert proc.returncode == 0 and proc.stderr == b""
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1]
            text = outputs[0]
        assert text.startswith(b"usage: gsets ") and b"simulate" in text

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["fuse", "--input", "{intervals}", "--faults", "3"], 1, "error: "),
            (["fuse", "--input", "missing.csv", "--faults", "1"], 2, "error: [Errno 2] "),
            (["fuse", "--faults", "1"], 2, "usage: gsets fuse "),
        ],
        ids=["domain", "unreadable", "usage"],
    )
    def test_error_exit_codes(self, argv, code, err):
        run = agreed_run(["-m", "gsets", *fill(argv)], BOTH_MODES)
        assert run.returncode == code and run.stdout == b""
        assert run.stderr.decode().startswith(err) and b"Traceback" not in run.stderr

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--help"], 2, b"error: [Errno 9] Bad file descriptor\n"),
            (["fuse", "--help"], 2, b"error: [Errno 9] Bad file descriptor\n"),
            (["fuse", "--input", "missing.csv", "--faults", "1"], 2, b"error: [Errno 2] "),
            (["fuse", "--input", "{intervals}", "--faults", "1"], 2, b"error: [Errno 9] Bad file descriptor\n"),
        ],
        ids=["help", "fuse-help", "unreadable", "document"],
    )
    def test_closed_stdout(self, argv, code, err):
        # with fd 1 closed, sys.stdout is None: a help text, like a document, cannot be written and exits 2
        proc = agreed_run(_with_closed(1, ["-m", "gsets", *fill(argv)]), BOTH_MODES)
        assert proc.returncode == code
        assert proc.stderr.startswith(err) and b"Traceback" not in proc.stderr
        assert proc.stderr.count(b"error: ") == (code != 0)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    @pytest.mark.parametrize(
        "argv, code",
        [(["fuse", "--input", "missing.csv", "--faults", "1"], 2),
         (["fuse", "--input", "{intervals}", "--faults", "3"], 1)],
        ids=["parse", "domain"],
    )
    def test_stderr_that_cannot_take_the_error_line(self, argv, code, stderr):
        # the line is dropped and the code still tells; stdout carries the document or nothing
        args = ["-c", _TRACEBACK_PROBE, *fill(argv)]
        if stderr == "closed":
            run = agreed_run(_with_closed(2, args), BOTH_MODES)
        else:
            with open("/dev/full", "wb") as full:
                run = agreed_run(args, BOTH_MODES, stderr=full)
        assert (run.returncode, run.stdout) == (code, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuse", "--input", "{intervals}", "--faults", "1"],
            ["granulate", "--table", "{table}", "--chain", "{chain}"],
            ["--help"],
        ],
        ids=["fuse", "granulate", "help"],
    )
    def test_stdout_on_a_full_disk_is_one_error_line(self, argv):
        with open("/dev/full", "wb") as full:
            run = agreed_run(["-m", "gsets", *fill(argv)], BOTH_MODES, stdout=full)
        assert run.returncode == 2 and run.stderr == b"error: [Errno 28] No space left on device\n"


def test_only_simulate_loads_a_hash_module_and_never_openssl(module_record):
    loaded, round_imports = module_record
    hashing = {"hashlib", "_hashlib", "_md5", "_sha1", "_sha2", "_sha256", "_sha512", "_sha3", "_blake2"}
    # the hash modules each case loaded beyond those of the import (random's own SHA-512 module);
    # simulate runs last, so each other case must add nothing
    added = {case: hashing & loaded[case] - loaded["import"] for case in GOLDEN_CASES}
    assert {case: names for case, names in added.items() if case != "simulate" and names} == {}
    # the SHA-256 constructor is resolved once, on round 0
    assert round_imports == []
    # hashlib (OpenSSL) is only the fallback when neither built-in module exists
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert not {"hashlib", "_hashlib"} & added["simulate"]


def test_a_call_loads_neither_typing_nor_pathlib(module_record):
    loaded, _ = module_record
    # the record's last step holds every module loaded at any step
    assert not {"typing", "pathlib"} & loaded["rounds"]


# ---------------------------------------------------------------------------
# hostile argv, each case written out

SIM = ["simulate", "--sensors", "5", "--faulty", "2", "--rounds", "3"]


@pytest.mark.parametrize("argv, code", [
    pytest.param([*SIM, "--truth", "nan"], 1, id="simulate-nan-truth"),
    pytest.param([*SIM, "--halfwidth", "5e-324", "--offset", "1e-323"], 0, id="simulate-subnormal-widths"),
    pytest.param([*SIM, "--halfwidth", "1e308", "--offset", "1.5e308"], 1, id="simulate-overflowing-offset"),
    pytest.param([*SIM, "--seed", str(2**64)], 1, id="simulate-seed-2**64"),
    # int() takes digits grouped by underscores
    pytest.param(["simulate", "--sensors", "1_0", "--faulty", "2", "--rounds", "3"], 0, id="simulate-sensors-1_0"),
    pytest.param(["fuse", "--input", "{intervals}", "--faults", "1" * 23], 1, id="fuse-23-digit-fault-count"),
    pytest.param(["random", "--input", "{intervals}", "--dist", '{{"%s":1}}' % ("1" * 23)], 1,
                 id="random-23-digit-fault-count"),
    pytest.param(["graded", "--input", "{intervals}", "--fmin", "2", "--fmax", "1"], 1, id="graded-inverted-range"),
    pytest.param(["random", "--input", "{intervals}", "--dist", '{{"0":1e-400,"1":1}}'], 1,
                 id="random-underflowing-mass"),
    pytest.param(["random", "--input", "{intervals}", "--dist", '{{"0":0.5,"0":0.5}}'], 1, id="random-duplicate-key"),
    pytest.param(["random", "--input", "{intervals}", "--dist", '{{"0":0.5,"0":1}}'], 1,
                 id="random-duplicate-key-last-wins"),
    pytest.param(["partition", "--table", "{table}", "--attrs", "P1,P1"], 0, id="partition-repeated-attributes"),
    pytest.param(["approx", "--table", "{table}", "--attrs", "P1", "--target", "O1,,O2"], 2,
                 id="approx-empty-target-token"),
    pytest.param(["graded-approx", "--table", "{table}", "--attrs", "P1", "--targets", '[["O1"],["O1"]]'], 0,
                 id="graded-approx-repeated-target-level"),
    pytest.param(["graded-approx", "--table", "{table}", "--attrs", "P1", "--targets", "[]"], 2,
                 id="graded-approx-empty-target-chain"),
    pytest.param(["granulate", "--table", "{table}", "--chain", "[]"], 2, id="granulate-empty-attribute-chain"),
    pytest.param(["fuse", "--input", "/dev/null", "--faults", "0"], 2, id="fuse-dev-null"),
    pytest.param(["fuse", "--input", "/proc/self/status", "--faults", "0"], 2, id="fuse-proc-self-status"),
    pytest.param(["fuse", "--input", "{directory}", "--faults", "0"], 2, id="fuse-directory"),
    # the sample table as a spreadsheet exports it, after a UTF-8 byte-order mark
    pytest.param(["partition", "--table", "{directory}/bom_table.csv", "--attrs", "P1"], 2, id="partition-bom-header"),
])
def test_hostile_argv_keeps_the_exit_code_contract(fixtures_dir, argv, code):
    # 0 with one canonical document and nothing on stderr, or 1 or 2 with nothing on stdout and one error line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(fill(argv, directory=str(fixtures_dir))) == code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out == dumps_canonical(json.loads(out)) + "\n"
    else:
        assert out == "" and err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzed contents under well-formed argv


def _mostly(valid, hostile):
    """Draw from `valid` three times in four and from `hostile` otherwise, so
    that both the success paths and the error paths are reached."""
    return st.integers(0, 3).flatmap(lambda k: hostile if k == 0 else valid)


NAMES = ["P1", "P2", "P3", "P4", "P5", "O1", "O2", "O3", "O7", "O10"]
HOSTILE_INTS = st.one_of(
    st.integers(-3, 12), st.sampled_from([-(2**64), -1, 2**63, 2**64 - 1, 2**64, 10**30])
)
HOSTILE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0]),
)
# integers past a real's range and past the interpreter's digit limit, which json.dumps cannot write
LONG_INTEGERS = st.sampled_from([400, 5000]).map(lambda digits: "9" * digits)
LONG_NUMBER_JSON = st.builds(
    str.format, st.sampled_from(["[[{0},1]]", '{{"0":{0}}}', '{{"{0}":1}}', '[["{0}"],[{0}]]']), LONG_INTEGERS
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
# inline JSON starts with [ or {, so it is never read as a path
HOSTILE_JSON = st.one_of(
    LONG_NUMBER_JSON,
    st.lists(JSON_VALUES, max_size=5).map(json.dumps),
    st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4).map(json.dumps),
    st.lists(st.lists(st.sampled_from(NAMES), max_size=6), min_size=1, max_size=5).map(json.dumps),
    st.dictionaries(
        st.one_of(st.integers(-1, 4).map(str), st.text(max_size=3)),
        st.one_of(st.floats(), st.integers(-2, 2)),
        max_size=4,
    ).map(json.dumps),
)


def _nested(names):
    """Chains of growing prefixes of a shuffled name list, inline JSON."""
    return st.tuples(
        st.permutations(names), st.lists(st.integers(0, len(names)), min_size=1, max_size=5)
    ).map(lambda p: json.dumps([p[0][:k] for k in sorted(p[1])]))


ATTR_CHAINS = _nested(NAMES[:5])
TARGET_CHAINS = _nested([f"O{i}" for i in range(1, 11)])
DISTS = st.sampled_from(['{"0":1}', '{"0":0.5,"1":0.3,"2":0.2}', '{"1":0.25,"2":0.75}'])
def _name_lists(names):
    return _mostly(st.lists(st.sampled_from(names), max_size=6).map(",".join), st.text(max_size=12))


ATTR_LISTS = _name_lists(NAMES[:5])
OBJECT_LISTS = _name_lists(NAMES[5:])
# numeric flags are passed as --flag=value, so a value such as -inf is never read as a flag
SIM_FLAGS = {
    "sensors": _mostly(st.integers(1, 40), st.sampled_from([-(2**64), -1, 0])),
    "faulty": _mostly(st.integers(0, 6), HOSTILE_INTS),
    "rounds": _mostly(st.integers(1, 5), st.sampled_from([-(2**64), -1, 0])),  # capped: run time
    "seed": _mostly(st.integers(0, 99), HOSTILE_INTS),
    "truth": _mostly(st.sampled_from([0.0, 0.1, 3.0, -7.25, 1e6]), HOSTILE_FLOATS).map(repr),
    "halfwidth": _mostly(st.sampled_from([0.5, 1.0, 1.5]), HOSTILE_FLOATS).map(repr),
    "offset": _mostly(st.sampled_from([2.5, 3.0, 10.0]), HOSTILE_FLOATS).map(repr),
}


def _edited(base: bytes):
    """`base` with up to four random splices: delete a few bytes, insert random ones."""

    def apply(edits):
        data = base
        for at, cut, insert in edits:
            at %= len(data) + 1
            data = data[:at] + insert + data[at + cut:]
        return data

    edit = st.tuples(st.integers(0, 1 << 16), st.integers(0, 4), st.binary(max_size=4))
    return st.lists(edit, min_size=1, max_size=4).map(apply)


def _contents(base: bytes):
    """File contents: `base` as is, with random splices, or random bytes."""
    return _mostly(st.just(base), st.one_of(_edited(base), st.binary(max_size=200)))


class TestFuzzedContents:
    """Each subcommand with its real flags: exit 0, 1 or 2, and either one
    canonical document on stdout or one error line on stderr."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=600)
    @given(data=st.data())
    def test_exit_code_and_streams(self, workdir, fixtures_dir, data):
        draw = data.draw

        def file(name, base: bytes):
            path = workdir / name
            path.write_bytes(draw(_contents(base)))
            return str(path)

        def structured(flag, valid):
            # inline JSON, good or hostile, or a file whose contents may be damaged
            value = draw(_mostly(valid, HOSTILE_JSON))
            return f"--{flag}={value if draw(st.booleans()) else file(flag, value.encode())}"

        def interval_input():
            fmt = draw(st.sampled_from(["csv", "json"]))
            if fmt == "csv":
                base = (fixtures_dir / "three_intervals.csv").read_bytes()
            else:
                base = draw(_mostly(st.just("[[0,10],[2,8],[4,12]]"), LONG_NUMBER_JSON)).encode()
            return [f"--input={file('intervals', base)}", f"--format={fmt}"]

        def table():
            return f"--table={file('table.csv', (fixtures_dir / 'sample_table.csv').read_bytes())}"

        def ints(*flags):
            return [f"--{flag}={draw(_mostly(st.integers(0, 3), HOSTILE_INTS))}" for flag in flags]

        command = draw(st.sampled_from(sorted(GOLDEN_CASES)))
        if command == "fuse":
            argv = [*interval_input(), *ints("faults")]
        elif command == "graded":
            argv = [*interval_input(), *ints("fmin", "fmax")]
        elif command == "random":
            argv = [*interval_input(), structured("dist", DISTS)]
            if draw(st.booleans()):
                # capped: a count past 2**64 is rejected before any sample is drawn, whatever the seed
                argv += [f"--sample={draw(_mostly(st.integers(1, 20), st.sampled_from([-1, 0, 2**64 + 1])))}"]
                argv += ints("seed")
        elif command == "partition":
            argv = [table(), f"--attrs={draw(ATTR_LISTS)}"]
        elif command == "granulate":
            argv = [table(), structured("chain", ATTR_CHAINS)]
        elif command == "approx":
            argv = [table(), f"--attrs={draw(ATTR_LISTS)}", f"--target={draw(OBJECT_LISTS)}"]
        elif command == "graded-approx":
            argv = [table(), f"--attrs={draw(ATTR_LISTS)}", structured("targets", TARGET_CHAINS)]
        elif command == "sensitivity":
            argv = [table(), structured("chain", ATTR_CHAINS), f"--target={draw(OBJECT_LISTS)}"]
        else:
            argv = [f"--{flag}={draw(values)}" for flag, values in SIM_FLAGS.items()]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *argv])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
            assert out == dumps_canonical(json.loads(out)) + "\n"
        else:
            assert out == ""
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
