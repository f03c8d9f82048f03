"""Seeded inputs and the call list of every workload.

A workload is one cycle of ``gsets`` calls over inputs generated from the
seed.  Each call is an :class:`Op`: the subcommand, its flags, the number of
input items it processes and the size coordinate it contributes to the
workload's size sweep.  The generated data stay in memory next to the files
written for the program, so the checker never has to parse them back.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

FUSION_SIZES = (500, 1000, 2000)
FUSION_SAMPLES = 16
# (sensors, rounds): few sensors over many rounds, many sensors over few,
# and one shape in between whose calls cost between the other two, so the
# median call falls in the middle of its calls, not at the edge of a group.
SIMULATE_SHAPES = ((9, 2000), (31, 800), (101, 200))
ROUGH_SIZES = (1000, 2000, 4000)
# A0 is binary on purpose: its two blocks of n/2 objects are what the
# per-element block index pays for quadratically.
ROUGH_CARDS = (2, 3, 4, 5, 2, 3, 4, 5, 2, 3, 4, 5)
ROUGH_APPROX_ATTRS = ("A1", "A2", "A3")
ROUGH_TARGET_LEVELS = 4


@dataclass(frozen=True)
class Op:
    """One ``gsets`` call of a workload."""

    id: str
    cmd: str
    flags: tuple[tuple[str, str], ...]
    items: int
    size: int = 0

    @property
    def argv(self) -> list[str]:
        return [self.cmd, *(x for pair in self.flags for x in pair)]

    def flag(self, name: str) -> str:
        return dict(self.flags)[name]


@dataclass
class Workload:
    """The ops of one cycle, the files they read and the data behind them."""

    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    data: dict[str, object] = field(default_factory=dict)

    def add_file(self, name: str, text: str, value: object) -> str:
        self.files[name] = text
        self.data[name] = value
        return name

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")

    @property
    def sizes(self) -> list[int]:
        return sorted({op.size for op in self.ops if op.size})


def _intervals_csv(intervals: list[tuple[float, float]]) -> str:
    return "lo,hi\n" + "".join(f"{lo!r},{hi!r}\n" for lo, hi in intervals)


def _pmf(rng: random.Random, budgets: int) -> dict[int, float]:
    weights = [rng.random() + 0.01 for _ in range(budgets)]
    total = sum(weights)
    return {f: w / total for f, w in enumerate(weights)}


def _pmf_json(pmf: dict[int, float]) -> str:
    return json.dumps({str(f): p for f, p in pmf.items()})


def fusion(seed: int, sizes=FUSION_SIZES) -> Workload:
    """Uniform random intervals; graded over every budget, random, one fuse.

    The largest size runs a second fuse, at f = 0.  The four cheap fuse calls
    then balance the four calls of the two larger sizes, so the median call
    falls in the middle of the smallest size's graded and random calls, not
    at the edge between two groups of very different cost.
    """
    rng = random.Random(f"fusion:{seed}")
    wl = Workload()
    for n in sizes:
        intervals = []
        for _ in range(n):
            lo = rng.uniform(-100.0, 100.0)
            intervals.append((lo, lo + rng.uniform(0.0, 60.0)))
        src = wl.add_file(f"intervals_{n}.csv", _intervals_csv(intervals), intervals)
        pmf = _pmf(rng, n)
        dist = wl.add_file(f"pmf_{n}.json", _pmf_json(pmf), pmf)
        wl.ops += [
            Op(f"fuse/n{n}", "fuse", (("--input", src), ("--faults", str(rng.randrange(n)))), n, n),
            Op(f"graded/n{n}", "graded", (("--input", src), ("--fmin", "0"), ("--fmax", str(n - 1))), n, n),
            Op(
                f"random/n{n}",
                "random",
                (("--input", src), ("--dist", dist), ("--sample", str(FUSION_SAMPLES)),
                 ("--seed", str(rng.randrange(2**32)))),
                n,
                n,
            ),
        ]
        if n == sizes[-1]:
            wl.ops.append(Op(f"fuse/n{n}/f0", "fuse", (("--input", src), ("--faults", "0")), n, n))
    return wl


def simulate(seed: int, shapes=SIMULATE_SHAPES) -> Workload:
    """Seeded fault-injection runs; the program gets only flags."""
    rng = random.Random(f"simulate:{seed}")
    wl = Workload()
    for sensors, rounds in shapes:
        flags = (
            ("--sensors", str(sensors)),
            ("--faulty", str(sensors // 3)),
            ("--rounds", str(rounds)),
            ("--seed", str(rng.randrange(2**32))),
        )
        wl.ops.append(Op(f"simulate/{sensors}x{rounds}", "simulate", flags, sensors * rounds, sensors * rounds))
    return wl


@dataclass(frozen=True)
class Table:
    """Generated information table: object ids, attribute names, rows."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def csv(self) -> str:
        lines = [",".join(("object", *self.attributes))]
        lines += [",".join((obj, *row)) for obj, row in zip(self.objects, self.rows)]
        return "\n".join(lines) + "\n"


def _table(rng: random.Random, n: int, cards=ROUGH_CARDS) -> Table:
    attributes = tuple(f"A{j}" for j in range(len(cards)))
    objects = tuple(f"o{i}" for i in range(1, n + 1))
    rows = tuple(tuple(str(rng.randrange(card)) for card in cards) for _ in range(n))
    return Table(objects, attributes, rows)


def rough(seed: int, sizes=ROUGH_SIZES) -> Workload:
    """Tables with a 12-level nested chain; every table runs all five ops."""
    rng = random.Random(f"rough:{seed}")
    wl = Workload()
    for n in sizes:
        table = _table(rng, n)
        col = {a: j for j, a in enumerate(table.attributes)}
        src = wl.add_file(f"table_{n}.csv", table.csv(), table)
        chain_levels = [list(table.attributes[: k + 1]) for k in range(len(table.attributes))]
        chain = wl.add_file(f"chain_{n}.json", json.dumps(chain_levels), chain_levels)
        # A target that follows A1 with a little noise, so lower and upper
        # approximations are both nontrivial.
        target = [
            obj
            for obj, row in zip(table.objects, table.rows)
            if (row[col["A1"]] == "0") != (rng.random() < 0.01)
        ]
        in_target = set(target)
        target_levels = [
            [obj for obj, row in zip(table.objects, table.rows) if obj in in_target and int(row[col["A2"]]) <= k]
            for k in range(ROUGH_TARGET_LEVELS)
        ]
        targets = wl.add_file(f"targets_{n}.json", json.dumps(target_levels), target_levels)
        attrs = ",".join(ROUGH_APPROX_ATTRS)
        levels = len(chain_levels)
        wl.ops += [
            Op(f"partition/n{n}", "partition", (("--table", src), ("--attrs", "A0")), n, n),
            Op(f"granulate/n{n}", "granulate", (("--table", src), ("--chain", chain)), n * levels, n),
            Op(f"approx/n{n}", "approx", (("--table", src), ("--attrs", attrs), ("--target", ",".join(target))), n, n),
            Op(
                f"graded-approx/n{n}",
                "graded-approx",
                (("--table", src), ("--attrs", attrs), ("--targets", targets)),
                n * ROUGH_TARGET_LEVELS,
                n,
            ),
            Op(
                f"sensitivity/n{n}",
                "sensitivity",
                (("--table", src), ("--chain", chain), ("--target", ",".join(target))),
                n * levels,
                n,
            ),
        ]
    return wl


def _read_fixture_table(text: str) -> Table:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return Table(tuple(c[0] for c in cells), tuple(header[1:]), tuple(tuple(c[1:]) for c in cells))


def cli_small(seed: int) -> Workload:
    """Every subcommand once on the repository's fixture files."""
    rng = random.Random(f"cli_small:{seed}")
    wl = Workload()
    iv_text = (FIXTURES / "three_intervals.csv").read_text(encoding="utf-8")
    intervals = [tuple(float(x) for x in line.split(",")) for line in iv_text.splitlines()[1:]]
    ivs = wl.add_file("three_intervals.csv", iv_text, intervals)
    tb_text = (FIXTURES / "sample_table.csv").read_text(encoding="utf-8")
    table = _read_fixture_table(tb_text)
    tb = wl.add_file("sample_table.csv", tb_text, table)
    ch_text = (FIXTURES / "attr_chain.json").read_text(encoding="utf-8")
    ch = wl.add_file("attr_chain.json", ch_text, json.loads(ch_text))

    n = len(intervals)
    pmf = _pmf(rng, n)
    # Inline JSON values go to the program as argv; the checker reads them
    # back from `data` under the same key.
    wl.data[_pmf_json(pmf)] = pmf
    attrs = ",".join(sorted(rng.sample(table.attributes, rng.randint(1, 3)), key=table.attributes.index))
    target = [obj for obj in table.objects if rng.random() < 0.5] or [table.objects[0]]
    targets = [target[: len(target) // 2], target]
    wl.data[json.dumps(targets)] = targets
    wl.ops = [
        Op("fuse", "fuse", (("--input", ivs), ("--faults", str(rng.randrange(n)))), 1),
        Op("graded", "graded", (("--input", ivs), ("--fmin", "0"), ("--fmax", str(n - 1))), 1),
        Op("random", "random", (("--input", ivs), ("--dist", _pmf_json(pmf)), ("--sample", "3"),
                                ("--seed", str(rng.randrange(2**32)))), 1),
        Op("partition", "partition", (("--table", tb), ("--attrs", attrs)), 1),
        Op("granulate", "granulate", (("--table", tb), ("--chain", ch)), 1),
        Op("approx", "approx", (("--table", tb), ("--attrs", attrs), ("--target", ",".join(target))), 1),
        Op("graded-approx", "graded-approx", (("--table", tb), ("--attrs", attrs), ("--targets", json.dumps(targets))), 1),
        Op("sensitivity", "sensitivity", (("--table", tb), ("--chain", ch), ("--target", ",".join(target))), 1),
        Op("simulate", "simulate", (("--sensors", "5"), ("--faulty", "1"), ("--rounds", "3"),
                                    ("--seed", str(rng.randrange(2**32)))), 1),
    ]
    return wl


WORKLOADS = {"fusion": fusion, "simulate": simulate, "rough": rough, "cli_small": cli_small}


def build(name: str, seed: int, **sizes) -> Workload:
    return WORKLOADS[name](seed, **sizes)
