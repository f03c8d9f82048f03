import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import acceptance_report
from gsets import InformationTable, Interval, Partition
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


def refines_by_definition(finer, coarser) -> bool:
    """The brute-force refinement oracle: the two universes hold the same
    elements, and every finer block lies inside one coarser block."""
    coarse_block = {x: i for i, block in enumerate(coarser.blocks) for x in block}
    return set(finer.universe) == coarse_block.keys() and all(
        len({coarse_block[x] for x in block}) == 1 for block in finer.blocks
    )


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


@pytest.fixture(scope="session")
def three_intervals() -> list[Interval]:
    return [Interval(0, 10), Interval(2, 8), Interval(4, 12)]
