"""Acceptance gate: nine criteria, one test and one printed verdict line each.

Every randomized criterion runs a fixed-seed generator, so the suite is
reproducible run to run.  Expected values are computed by independent
brute-force oracles, never by the code under test: counting-based endpoint
selection, intersection/hull, nesting and block containment are the
references of `tests/references.py`, shared with the unit tests.  Verdict
lines are emitted through the terminal-summary hook so they survive pytest's
capture.
"""

import functools
import json
import math
import random
import time

import acceptance_report
from references import ends, fused_ends, hull, meet, nested, refines_by_definition, same_blocks

from gsets import (
    ApproximationPair,
    FaultDistribution,
    GradedFamily,
    Interval,
    Partition,
    fuse,
    graded_approximations,
    graded_fusion,
    granular_from_chain,
    indiscernibility_partition,
    random_graded,
    sample,
    validate_granular,
)
from gsets.formats import (
    approximation_pair_doc,
    dumps_canonical,
    fault_distribution_doc,
    fusion_result_doc,
    graded_family_doc,
    graded_intervals_chunks,
    granular_set_chunks,
    interval_distribution_chunks,
    intervals_doc,
    parse_approximation_pair,
    parse_fault_distribution,
    parse_fusion_result,
    parse_graded_family,
    parse_graded_intervals,
    parse_granular_set,
    parse_interval_distribution,
    parse_intervals,
    parse_partition,
    parse_sensitivity_profile,
    partition_doc,
    sensitivity_profile_doc,
)
from gsets.infosys import InformationTable, sensitivity_profile


def criterion(number, label, budget_seconds):
    """Time the test, then record one `[criterion N] PASS/FAIL` line."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_seconds, (
                    f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
                )
            except BaseException:
                acceptance_report.record(number, "FAIL", label)
                raise
            acceptance_report.record(number, "PASS", label, elapsed)

        return wrapper

    return decorate


def rand_interval(rng):
    a = rng.randint(-40, 40) / 2.0
    b = rng.randint(-40, 40) / 2.0
    return Interval(min(a, b), max(a, b))


def rand_intervals(rng, max_len=50):
    return [rand_interval(rng) for _ in range(rng.randint(1, max_len))]


def rand_table(rng, max_objects=12, max_attrs=6, alphabet=4):
    n = rng.randint(1, max_objects)
    m = rng.randint(1, max_attrs)
    objects = tuple(f"o{i}" for i in range(n))
    attributes = tuple(f"a{j}" for j in range(m))
    rows = tuple(
        tuple(str(rng.randrange(alphabet)) for _ in range(m)) for _ in range(n)
    )
    return InformationTable(objects, attributes, rows)


def rand_nested_chain(rng, names, allow_empty=True):
    order = list(names)
    rng.shuffle(order)
    lo = 0 if allow_empty else 1
    cuts = sorted(rng.randint(lo, len(names)) for _ in range(rng.randint(1, 5)))
    return [order[:k] for k in cuts]


@criterion(1, "sample-table classes C1..C5 reproduced exactly", 1.0)
def test_criterion_1_table_reproduction(sample_table, sample_chain_levels, expected_classes):
    for k, attrs in enumerate(sample_chain_levels, 1):
        assert same_blocks(indiscernibility_partition(sample_table, attrs), expected_classes[f"C{k}"])


@criterion(2, "chain granulation yields the expected tower, finest C5 to coarsest C1", 1.0)
def test_criterion_2_granular_fixture(sample_table, sample_chain_levels, expected_classes):
    g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
    assert len(g) == 5
    for level, name in zip(g.levels, ["C5", "C4", "C3", "C2", "C1"]):
        assert same_blocks(level, expected_classes[name])


@criterion(3, "nesting of fused intervals: 1000 random lists, 0 violations", 10.0)
def test_criterion_3_nesting_property():
    rng = random.Random(1003)
    violations = 0
    for _ in range(1000):
        items = rand_intervals(rng)
        results = [fuse(items, f) for f in range(len(items))]
        for inner, outer in zip(results, results[1:]):
            if not nested(inner, outer):
                violations += 1
    assert violations == 0


@criterion(4, "containment guarantee: 1000 random cases, truth recovered in all", 10.0)
def test_criterion_4_containment_guarantee():
    rng = random.Random(1004)
    for _ in range(1000):
        n = rng.randint(1, 40)
        f = rng.randint(0, n - 1)
        truth = rng.randint(-20, 20) / 2.0
        excluders = rng.randint(0, f)
        items = []
        for _ in range(excluders):
            # displaced past the truth on a random side
            gap = rng.randint(1, 10) / 2.0
            width = rng.randint(0, 10) / 2.0
            if rng.random() < 0.5:
                items.append(Interval(truth + gap, truth + gap + width))
            else:
                items.append(Interval(truth - gap - width, truth - gap))
        for _ in range(n - excluders):
            u = rng.randint(0, 10) / 2.0
            v = rng.randint(0, 10) / 2.0
            items.append(Interval(truth - u, truth + v))
        rng.shuffle(items)
        result = fuse(items, f)
        assert result is not None and result.contains_point(truth)


@criterion(5, "extreme budgets equal intersection / convex hull on 1000 random lists", 10.0)
def test_criterion_5_extreme_budget_oracles():
    rng = random.Random(1005)
    for _ in range(1000):
        items = rand_intervals(rng)
        assert ends(fuse(items, 0)) == meet(items)
        assert ends(fuse(items, len(items) - 1)) == hull(items)
        # general budgets against the counting oracle
        f = rng.randint(0, len(items) - 1)
        assert ends(fuse(items, f)) == fused_ends(items, f)


@criterion(6, "granulation of 1000 random tables with nested chains validates", 30.0)
def test_criterion_6_granulation_property():
    rng = random.Random(1006)
    for _ in range(1000):
        table = rand_table(rng)
        chain = rand_nested_chain(rng, table.attributes)
        g = granular_from_chain(table, GradedFamily(chain))
        assert len(g) == len(chain)
        for finer, coarser in zip(g.levels, g.levels[1:]):
            assert refines_by_definition(finer, coarser)


@criterion(7, "graded approximations nest and sandwich on 1000 random cases", 30.0)
def test_criterion_7_graded_approximations():
    rng = random.Random(1007)
    for _ in range(1000):
        table = rand_table(rng)
        attrs = [a for a in table.attributes if rng.random() < 0.5]
        targets = rand_nested_chain(rng, table.objects)
        lowers, uppers = graded_approximations(table, attrs, GradedFamily(targets))
        for a, b in zip(lowers.levels, lowers.levels[1:]):
            assert a <= b
        for a, b in zip(uppers.levels, uppers.levels[1:]):
            assert a <= b
        for target, low, up in zip(targets, lowers.levels, uppers.levels):
            assert low <= set(target) <= up


@criterion(8, "pushforward pmf exact on the three-interval fixture; sampling within 0.01", 5.0)
def test_criterion_8_random_graded_set(fixtures_dir):
    items = parse_intervals((fixtures_dir / "three_intervals.csv").read_text())
    dist = random_graded(items, FaultDistribution({0: 0.5, 1: 0.3, 2: 0.2}.items()))
    expected = {
        Interval(4, 8): 0.5,
        Interval(2, 10): 0.3,
        Interval(0, 12): 0.2,
    }
    assert {r: p for r, p in dist.atoms} == expected
    assert abs(sum(p for _, p in dist.atoms) - 1.0) <= 1e-9
    draws = 100000
    counts = {result: 0 for result in expected}
    for seed in range(draws):
        counts[sample(dist, seed)] += 1
    for result, p in expected.items():
        assert abs(counts[result] / draws - p) <= 0.01


@criterion(9, "parse/serialize identity on 500 random values per kind; CLI byte-stable", 10.0)
def test_criterion_9_round_trips(golden_run):
    rng = random.Random(1009)

    for _ in range(500):
        items = rand_intervals(rng, max_len=8)
        assert parse_intervals(dumps_canonical(intervals_doc(items)), "json") == items

        result = None if rng.random() < 0.3 else rand_interval(rng)
        assert parse_fusion_result(dumps_canonical(fusion_result_doc(result))) == result

        f_hi = rng.randint(0, len(items) - 1)
        f_lo = rng.randint(0, f_hi)
        g = graded_fusion(items, f_lo, f_hi)
        assert parse_graded_intervals("".join(graded_intervals_chunks(g))) == g

        support = rng.sample(range(len(items)), rng.randint(1, len(items)))
        weights = [rng.random() + 0.1 for _ in support]
        total = math.fsum(weights)
        fd = FaultDistribution(tuple((f, w / total) for f, w in zip(support, weights)))
        assert parse_fault_distribution(dumps_canonical(fault_distribution_doc(fd))) == fd

        idist = random_graded(items, fd)
        assert parse_interval_distribution("".join(interval_distribution_chunks(idist))) == idist

        universe = [f"e{i}" for i in range(rng.randint(1, 8))]
        labels = [rng.randrange(3) for _ in universe]
        blocks: dict[int, list] = {}
        for x, lab in zip(universe, labels):
            blocks.setdefault(lab, []).append(x)
        part = Partition(universe, list(blocks.values()))
        assert parse_partition(dumps_canonical(partition_doc(part))) == part

        # coarsen step by step: each level merges two blocks of the previous
        levels = [part]
        while len(levels[-1].blocks) > 1 and rng.random() < 0.7:
            prev = [list(b) for b in levels[-1].blocks]
            i, j = rng.sample(range(len(prev)), 2)
            merged = [b for k, b in enumerate(prev) if k not in (i, j)]
            merged.append(prev[i] + prev[j])
            levels.append(Partition(universe, merged))
        granular = validate_granular(levels)
        assert parse_granular_set("".join(granular_set_chunks(granular))) == granular

        family = GradedFamily(rand_nested_chain(rng, tuple(universe)))
        assert parse_graded_family(dumps_canonical(graded_family_doc(family))) == family

        upper = frozenset(x for x in universe if rng.random() < 0.6)
        lower = frozenset(x for x in upper if rng.random() < 0.6)
        pair = ApproximationPair(lower, upper)
        assert parse_approximation_pair(dumps_canonical(approximation_pair_doc(pair))) == pair

        table = rand_table(rng, max_objects=6, max_attrs=4)
        chain = GradedFamily(rand_nested_chain(rng, table.attributes))
        target = [o for o in table.objects if rng.random() < 0.5]
        profile = sensitivity_profile(table, chain, target)
        text = dumps_canonical(sensitivity_profile_doc(profile))
        assert parse_sensitivity_profile(text) == profile

    # byte-identical CLI runs on the repository fixtures
    for case in ("fuse", "granulate", "sensitivity"):
        run = golden_run(case)
        assert run.returncode == 0
        assert dumps_canonical(json.loads(run.stdout.decode())) == run.stdout.decode().rstrip("\n")
