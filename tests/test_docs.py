"""The README's library quick start and experiment claims hold as written."""

import importlib.util
import io
import re
from pathlib import Path

from gsets import Interval, cli

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
