import json
import os
import subprocess
import sys

import pytest

from gsets.cli import main

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

    def test_simulate_bytes_stable_across_hash_seeds(self):
        argv = ["simulate", "--sensors", "5", "--faulty", "1", "--rounds", "2", "--seed", "3"]
        a = _run_process(argv, "101")
        b = _run_process(argv, "202")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
