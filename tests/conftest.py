"""Fixtures and helpers shared by the test modules, which import the helpers
from here and never from one another.  The brute-force oracles, the
refinement oracle `refines_by_definition` among them, are in
`references.py`.  Here are:

- `traced`, the one place the tests start tracemalloc;
- `GOLDEN_CASES`, the CLI cases of ``fixtures/cli_cases.json``, and `fill`,
  which puts the fixture paths into an argv;
- the one child launcher, and the only import of subprocess: `gsets_process`
  runs ``python <args>`` on this checkout's src, `closed_after` closes a
  child's stdout part way through, and `agreed_run` runs one argv under
  several variants that must give the same bytes;
- `golden_run`, the record of each golden case's one `agreed_run` under
  `HASH_SEEDS`, made once a session and read by every test that compares a
  golden run's bytes;
- `module_record`, the modules one ``python -S`` child has loaded after each
  golden case.
"""

import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import acceptance_report
from gsets import InformationTable, Partition
from gsets.formats import parse_table

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.lines:
            terminalreporter.write_line(line)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# one argv per subcommand, each with its golden stdout in fixtures/cli_golden;
# the simulate case's non-integral truth takes the float branch of the
# config's real rendering
GOLDEN_CASES = json.loads((FIXTURES / "cli_cases.json").read_text(encoding="utf-8"))
FIXTURE_PATHS = {
    "intervals": str(FIXTURES / "three_intervals.csv"),
    "table": str(FIXTURES / "sample_table.csv"),
    "chain": str(FIXTURES / "attr_chain.json"),
}


def fill(argv, **paths):
    """`argv` with ``{intervals}``, ``{table}``, ``{chain}`` and the fields of
    `paths` filled in by `str.format`, so ``{{`` stands for one brace."""
    return [a.format(**FIXTURE_PATHS, **paths) for a in argv]


def traced(call):
    """``call()`` under tracemalloc: its result, the bytes still held when it
    returns, and the peak.  The one place the tests start tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def _child_env(unbuffered=False, **env):
    """The environment of a child: this checkout's src first on the path, stdout
    buffered (PYTHONUNBUFFERED dropped) or write-through (set), and `env` added."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def gsets_process(args, *, unbuffered=False, input=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                  preexec_fn=None, **env):
    """Run ``python <args>`` in `_child_env`, calling `preexec_fn` in the child before it starts."""
    env = _child_env(unbuffered, **env)
    return subprocess.run([sys.executable, *args], input=input, stdout=stdout, stderr=stderr, env=env, timeout=60,
                          preexec_fn=preexec_fn)


def closed_after(n: int, argv: list[str]) -> tuple[int, str]:
    """Start ``python -m gsets <argv>``, read `n` bytes of its stdout and close
    it, so the writer meets a closed pipe: the exit code and the stderr text."""
    with subprocess.Popen(
        [sys.executable, "-m", "gsets", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()
    ) as proc:
        assert len(proc.stdout.read(n)) == n
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err


def agreed_run(args, variants, **kwargs):
    """Run ``python <args>`` once per variant (keyword arguments of
    `gsets_process`, such as ``unbuffered`` or ``PYTHONHASHSEED``), assert
    that every run gave the same exit code, stdout and stderr, and return the
    first run."""
    runs = [gsets_process(args, **kwargs, **variant) for variant in variants]
    assert len({(run.returncode, run.stdout, run.stderr) for run in runs}) == 1
    return runs[0]


# variants for agreed_run: three hash seeds, stdout write-through under the second
HASH_SEEDS = ({"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "1", "unbuffered": True}, {"PYTHONHASHSEED": "2"})


@pytest.fixture(scope="session")
def golden_run():
    """``golden_run(case)``: the golden case run as ``python -m gsets`` once per
    `HASH_SEEDS` variant, every run giving the same bytes (`agreed_run`).  Each
    case runs at its first call and is kept for the session."""
    return functools.cache(lambda case: agreed_run(["-m", "gsets", *fill(GOLDEN_CASES[case])], HASH_SEEDS))


# Imports gsets.cli, runs the golden cases in the order given, then rounds
# 1..50 of one simulation after its round 0, and prints the modules loaded
# after each step, with the names that those rounds imported.
_MODULE_PROBE = r"""
import builtins, contextlib, io, json, sys
from gsets.cli import main
from gsets.simulate import SimConfig, simulate_round

loaded = {"import": sorted(sys.modules)}
for case, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, case
    loaded[case] = sorted(sys.modules)
config = SimConfig(num_sensors=5, truth=0.0, correct_halfwidth_max=1.0, num_faulty=1, fault_offset_min=2.5, seed=7)
simulate_round(config, 0)
imports = []
real_import = builtins.__import__
builtins.__import__ = lambda name, *args, **kwargs: imports.append(name) or real_import(name, *args, **kwargs)
for k in range(1, 51):
    simulate_round(config, k)
builtins.__import__ = real_import
loaded["rounds"] = sorted(sys.modules)
print(json.dumps({"loaded": loaded, "round_imports": imports}))
"""


@pytest.fixture(scope="session")
def module_record():
    """One ``python -S`` child, so no start-up hook preloads a module: the set
    of modules it has loaded after importing gsets.cli (step "import"), after
    each golden case (simulate last) and after the rounds ("rounds"), and the
    names those rounds imported."""
    cases = [(case, fill(GOLDEN_CASES[case])) for case in sorted(GOLDEN_CASES, key=lambda case: case == "simulate")]
    proc = gsets_process(["-S", "-c", _MODULE_PROBE, json.dumps(cases)])
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    return {step: set(names) for step, names in record["loaded"].items()}, record["round_imports"]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def sample_table() -> InformationTable:
    return parse_table((FIXTURES / "sample_table.csv").read_text())


@pytest.fixture(scope="session")
def sample_chain_levels() -> list[list[str]]:
    return [["P1"], ["P1", "P2"], ["P1", "P2", "P3"], ["P1", "P2", "P3", "P4"],
            ["P1", "P2", "P3", "P4", "P5"]]


def _p(*blocks):
    return Partition.from_blocks([list(b) for b in blocks])


@pytest.fixture(scope="session")
def expected_classes() -> dict[str, Partition]:
    """The expected equivalence classes C_1..C_5 of the sample table."""
    c1 = _p(["O1", "O2"], ["O3", "O5", "O7", "O9", "O10"], ["O4", "O6", "O8"])
    c2 = _p(["O1", "O2"], ["O3", "O7", "O10"], ["O4", "O6"], ["O5", "O9"], ["O8"])
    c5 = _p(["O1", "O2"], ["O3", "O7", "O10"], ["O4"], ["O5"], ["O6"], ["O8"], ["O9"])
    return {"C1": c1, "C2": c2, "C3": c2, "C4": c2, "C5": c5}
