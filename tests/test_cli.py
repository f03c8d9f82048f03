import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsets import GranularSet, Partition, infosys
from gsets.cli import main
from gsets.formats import dumps_canonical

CHAIN = '[["P1"],["P1","P2"],["P1","P2","P3"],["P1","P2","P3","P4"],["P1","P2","P3","P4","P5"]]'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        with open(os.devnull, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            main(argv + ["1"])  # fills the import and regex caches of a first call
            tracemalloc.start()
            try:
                code = main(argv + ["100000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= 384 * 1024

    def test_reader_closing_early_is_one_error_line(self, intervals_csv):
        # 2**64 draws pass the seed check, so only the closed pipe can end the call
        proc = subprocess.Popen(
            [sys.executable, "-m", "gsets", "random", "--input", intervals_csv, "--dist", '{"0":1.0}',
             "--sample", str(2**64), "--seed", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


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
    with open(os.devnull, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        main(argv)  # fills the import and regex caches of a first call
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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

    def test_memory_is_bounded_by_the_output(self, tmp_path):
        # one level's blocks are held at a time, and the parsed table is freed before
        # the first level renders: about 6x the output, against about 13x for the whole tree
        rng = random.Random(4000)
        attrs = [f"A{j}" for j in range(12)]
        rows = "".join(f"o{i}," + ",".join(str(rng.randrange(c)) for c in (2, 3, 4, 5) * 3) + "\n" for i in range(4000))
        table = tmp_path / "table.csv"
        table.write_text("object," + ",".join(attrs) + "\n" + rows, encoding="utf-8")
        argv = ["granulate", "--table", str(table), "--chain", json.dumps([attrs[: k + 1] for k in range(12)])]
        out_path = tmp_path / "granular.json"
        with out_path.open("w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            main(argv)  # fills the import and regex caches of a first call
            out.seek(0)
            out.truncate()
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
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

    def test_late_round_failure_leaves_stdout_empty(self, capsys):
        # at 2**55 a float step is 8; rounds 0-4 keep their faulty sensors off the truth, round 5 does not
        code, out, err = run_cli(
            capsys, "simulate", "--sensors", "3", "--faulty", "1", "--rounds", "6", "--seed", "1",
            "--truth", str(2**55),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: round 5: ") and err.count("\n") == 1

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
        ],
        ids=["9x2000", "31x800", "101x200"],
    )
    def test_bench_scale_reports_keep_their_bytes(self, capsys, flags, sha256):
        # the three shapes the benchmark runs, a third of the sensors faulty
        code, out, err = run_cli(capsys, "simulate", *flags)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize("sensors, faulty, rounds", [(9, 2, 2000), (31, 10, 800)])
    def test_memory_is_bounded_by_the_output(self, tmp_path, sensors, faulty, rounds):
        # the report is held only as its own text, never as outcomes or a document tree
        argv = ["simulate", "--sensors", str(sensors), "--faulty", str(faulty), "--rounds", str(rounds)]
        out_path = tmp_path / "report.json"
        with out_path.open("w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            main(argv[:-1] + ["1"])  # fills the import and regex caches of a first call
            out.seek(0)
            out.truncate()
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = out_path.stat().st_size
        assert code == 0 and size > 1_000_000
        assert peak <= 1.25 * size + 512 * 1024


GOLDEN_CASES = {
    "fuse": ["fuse", "--input", "{intervals}", "--faults", "1"],
    "graded": ["graded", "--input", "{intervals}", "--fmin", "0", "--fmax", "2"],
    "random": [
        "random", "--input", "{intervals}", "--dist", '{{"0":0.5,"1":0.3,"2":0.2}}',
        "--sample", "5", "--seed", "3",
    ],
    "partition": ["partition", "--table", "{table}", "--attrs", "P1,P2"],
    "granulate": ["granulate", "--table", "{table}", "--chain", "{chain}"],
    "approx": ["approx", "--table", "{table}", "--attrs", "P1,P2,P3,P4,P5", "--target", "O1,O2,O3"],
    "graded-approx": [
        "graded-approx", "--table", "{table}", "--attrs", "P1,P2,P3,P4,P5",
        "--targets", '[["O1"],["O1","O2"],["O1","O2","O3"]]',
    ],
    "sensitivity": [
        "sensitivity", "--table", "{table}", "--chain", "{chain}", "--target", "O1,O2,O3",
    ],
    # a non-integral truth takes the float branch of the config's real rendering
    "simulate": [
        "simulate", "--sensors", "6", "--faulty", "2", "--rounds", "3", "--seed", "11",
        "--truth", "0.1",
    ],
}


class TestGoldenBytes:
    """Exact stdout of every subcommand on the fixtures, byte for byte."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_stdout_matches_golden(self, capsys, fixtures_dir, intervals_csv, table_csv, chain_json, case):
        argv = [
            a.format(intervals=intervals_csv, table=table_csv, chain=chain_json)
            for a in GOLDEN_CASES[case]
        ]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.encode("utf-8") == (fixtures_dir / "cli_golden" / f"{case}.json").read_bytes()


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuse", "--input", "{bad}", "--faults", "0"],
            ["partition", "--table", "{bad}", "--attrs", "P1"],
            ["granulate", "--table", "{table}", "--chain", "{bad}"],
        ],
    )
    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path, table_csv, argv):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"lo,hi\n\xff\xfe,1\n")
        argv = [a.format(bad=bad, table=table_csv) for a in argv]
        code, out, err = run_cli(capsys, *argv)
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


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

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


def _run_process(argv, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "gsets", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestProcessDeterminism:
    def test_granulate_bytes_stable_across_hash_seeds(self, table_csv, chain_json):
        argv = ["granulate", "--table", table_csv, "--chain", chain_json]
        a = _run_process(argv, "0")
        b = _run_process(argv, "424242")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_simulate_fault_check_survives_optimized_mode(self):
        # the fault geometry check must not be an assert, which -O strips
        argv = ["simulate", "--sensors", "3", "--faulty", "1", "--rounds", "1", "--truth", "1e20"]
        env = dict(os.environ, PYTHONOPTIMIZE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "gsets", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_reader_closing_early_is_one_error_line(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gsets", "simulate", "--sensors", "9", "--faulty", "3", "--rounds", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()  # the report is far larger than the pipe, so the writer meets a closed pipe
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_simulate_bytes_stable_across_hash_seeds(self):
        argv = ["simulate", "--sensors", "5", "--faulty", "1", "--rounds", "2", "--seed", "3"]
        a = _run_process(argv, "101")
        b = _run_process(argv, "202")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


# Error cases whose message names one of several defects held in a set, and
# the expected stderr (or stdout of a library call), which must not depend on
# the hash seed.
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
               "    Partition(['a'], [{'x1', 'x2', 'x3'}])\n"
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
    "object-set-missing-identifier": (
        ["-c", "from gsets import ApproximationPair, ParseError\nfrom gsets.formats import approximation_pair_doc\n"
               "try:\n    approximation_pair_doc(ApproximationPair(set(), {'x1', 'x2', 'x3'}), order=['a'])\n"
               "except ParseError as exc:\n    print(exc)"],
        0, "identifier 'x1' is not in the supplied order\n", "",
    ),
}


class TestHashSeedIndependence:
    """Every golden case and every listed error case gives the same bytes on
    both streams under three hash seeds."""

    @staticmethod
    def _streams(args):
        runs = set()
        for hashseed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, *args], capture_output=True, timeout=60,
                env=dict(os.environ, PYTHONHASHSEED=hashseed),
            )
            runs.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(runs) == 1
        return runs.pop()

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_golden_case(self, fixtures_dir, intervals_csv, table_csv, chain_json, case):
        argv = [a.format(intervals=intervals_csv, table=table_csv, chain=chain_json) for a in GOLDEN_CASES[case]]
        golden = (fixtures_dir / "cli_golden" / f"{case}.json").read_bytes()
        assert self._streams(["-m", "gsets", *argv]) == (0, golden, b"")

    @pytest.mark.parametrize("case", sorted(HASH_SEED_CASES))
    def test_error_case(self, table_csv, case):
        args, code, out, err = HASH_SEED_CASES[case]
        args = [a.replace("{table}", table_csv) for a in args]
        assert self._streams(args) == (code, out.encode(), err.encode())


# Runs the golden cases in order in one interpreter and prints, per case, the
# hash modules it loaded beyond those loaded at import (random's own SHA-512
# module), then the imports that rounds 1..50 ran after round 0.
_HASH_MODULE_PROBE = r"""
import builtins, contextlib, io, json, sys
from gsets.cli import main
from gsets.simulate import SimConfig, simulate_round

hashing = {"hashlib", "_hashlib", "_md5", "_sha1", "_sha2", "_sha256", "_sha512", "_sha3", "_blake2"}
at_import = hashing & set(sys.modules)
added = {}
for case, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, case
    added[case] = sorted(hashing & set(sys.modules) - at_import)
config = SimConfig(num_sensors=5, truth=0.0, correct_halfwidth_max=1.0, num_faulty=1, fault_offset_min=2.5, seed=7)
simulate_round(config, 0)
imports = []
real_import = builtins.__import__
builtins.__import__ = lambda name, *args, **kwargs: imports.append(name) or real_import(name, *args, **kwargs)
for k in range(1, 51):
    simulate_round(config, k)
builtins.__import__ = real_import
print(json.dumps({"added": added, "round_imports": imports}))
"""


def test_only_simulate_loads_a_hash_module_and_never_openssl(fixtures_dir, intervals_csv, table_csv, chain_json):
    # simulate last, so each other case must add nothing
    cases = [
        (case, [a.format(intervals=intervals_csv, table=table_csv, chain=chain_json) for a in GOLDEN_CASES[case]])
        for case in sorted(GOLDEN_CASES, key=lambda case: case == "simulate")
    ]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_MODULE_PROBE, json.dumps(cases)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    added = result["added"]
    assert added.keys() == GOLDEN_CASES.keys()
    assert {case: loaded for case, loaded in added.items() if case != "simulate" and loaded} == {}
    # the SHA-256 constructor is resolved once, on round 0
    assert result["round_imports"] == []
    # hashlib (OpenSSL) is only the fallback when neither built-in module exists
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert not {"hashlib", "_hashlib"} & set(added["simulate"])


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
