"""The README's library quick start, experiment claims and public surface hold as written."""

import importlib.util
import io
import re
from pathlib import Path

import gsets
from gsets import Interval, cli, formats, infosys, intervals, partitions, simulate

ROOT = Path(__file__).resolve().parent.parent


def quick_start_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # the block reads the fixtures by relative path
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md", "exec"), namespace)
    assert namespace["fuse"](namespace["measurements"], 1) == Interval(2, 10)
    assert f"# {Interval(2, 10)!r}\n" in quick_start_block()  # the comment shows the real repr
    assert len(namespace["tower"].levels) == 5
    pair = namespace["pair"]
    assert pair.lower == {"O1", "O2"}
    assert pair.upper == {"O1", "O2", "O3", "O7", "O10"}


def fusion_experiment():
    path = ROOT / "scripts" / "fusion_experiment.py"
    spec = importlib.util.spec_from_file_location("fusion_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_fusion_experiment_reaches_full_containment_at_the_fault_count(capsys):
    # README: the containment rate reaches 1.0 exactly at the injected fault
    # count, read off the report of the pipe's first half
    assert cli.main(["simulate", "--sensors", "9", "--faulty", "3", "--rounds", "200", "--seed", "7"]) == 0
    report = capsys.readouterr().out
    assert fusion_experiment().main(io.StringIO(report)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sensors=9 faulty=3 rounds=200 seed=7"
    contain = {int(row.split()[0]): row.split()[1] for row in lines[2:]}
    assert sorted(contain) == list(range(9))
    assert all(contain[f] == "1.000" for f in range(3, 9))
    assert all(float(contain[f]) < 1.0 for f in range(3))
    assert lines[2 + 3].endswith("<- guarantee kicks in")


def test_fusion_experiment_on_a_failed_pipe_is_one_error_line(capsys):
    # a failed gsets simulate leaves stdin empty
    assert fusion_experiment().main(io.StringIO("")) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


PUBLIC = [
    "GradedFamily", "is_rough_family",
    "DomainError", "ParseError",
    "ApproximationPair", "InformationTable", "SensitivityRecord", "approximation_pair", "graded_approximations",
    "granular_from_chain", "indiscernibility_partition", "sensitivity_profile",
    "FaultDistribution", "FusionResult", "GradedIntervals", "Interval", "IntervalDistribution", "as_rough_pair",
    "fuse", "fused_subset", "graded_fusion", "random_graded", "sample",
    "GranularSet", "Partition", "refines", "validate_granular",
    "SimConfig", "SimOutcome", "simulate_round", "simulate_rounds",
]


def test_the_public_names_are_exactly_the_listed_ones():
    assert gsets.__all__ == PUBLIC
    assert all(hasattr(gsets, name) for name in PUBLIC)


def test_each_document_builder_has_its_parser():
    # one writer per kind, X_doc for a document rendered whole or X_chunks for one that streams, and one
    # parse_X; the table is only read, and the simulation report only written
    public = [name for name in vars(formats) if not name.startswith("_")]
    built = {name.removesuffix("_doc") for name in public if name.endswith("_doc")}
    streamed = {name.removesuffix("_chunks") for name in public if name.endswith("_chunks")}
    parsers = {name.removeprefix("parse_") for name in public if name.startswith("parse_")}
    writers = built | streamed
    assert not built & streamed
    assert parsers - writers == {"table"}
    assert writers - parsers == {"simulation"}


def test_the_names_the_traced_replay_patches_exist():
    # the bench's traced replay wraps these by name; a trim that drops one breaks it
    for owner, name in [
        (cli, "_read_file"), (formats, "dumps_canonical"), (intervals, "fuse"), (simulate, "graded_fusion"),
        (partitions, "refines"), (partitions.Partition, "__init__"), (infosys, "indiscernibility_partition"),
        (infosys, "validate_granular"), (infosys, "granular_from_chain"), (infosys, "approximation_pair"),
    ]:
        assert callable(getattr(owner, name, None)), name
    # and the compute functions the CLI imports by name from the compute modules
    for name in [
        "approximation_pair", "graded_approximations", "granular_from_chain", "indiscernibility_partition",
        "sensitivity_profile", "fuse", "graded_fusion", "random_graded", "sample", "_draw_rounds",
    ]:
        assert getattr(cli, name).__module__ in {"gsets.infosys", "gsets.intervals", "gsets.simulate"}, name
