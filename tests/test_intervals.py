import enum
import math
import pickle
import random
import sys
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced
from gsets import intervals as intervals_module
from gsets import (
    DomainError,
    FaultDistribution,
    GradedIntervals,
    Interval,
    IntervalDistribution,
    as_rough_pair,
    fuse,
    fused_subset,
    graded_fusion,
    random_graded,
    sample,
)
from references import atom_at, ends, fused_ends, hull, is_left_end, is_right_end, meet, nested
from strategies import grid_values, intervals

FIX = [Interval(0, 10), Interval(2, 8), Interval(4, 12)]


class TestInterval:
    def test_point_interval_is_allowed(self):
        iv = Interval(3, 3)
        assert iv.contains_point(3.0)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(DomainError, match="exceeds upper endpoint"):
            Interval(2, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoints_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            Interval(bad, 1)
        with pytest.raises(DomainError, match="finite"):
            Interval(0, bad)

    def test_endpoints_coerced_to_float(self):
        iv = Interval(1, 2)
        assert isinstance(iv.lo, float) and isinstance(iv.hi, float)

    def test_containment(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert not Interval(2, 8).contains_interval(Interval(0, 10))
        assert Interval(0, 10).contains_point(0) and Interval(0, 10).contains_point(10)
        assert not Interval(0, 10).contains_point(10.5)


class TestFusedSubset:
    def test_empty_is_subset_of_everything(self):
        assert fused_subset(None, None)
        assert fused_subset(None, Interval(0, 1))

    def test_nonempty_never_fits_in_empty(self):
        assert not fused_subset(Interval(0, 1), None)

    def test_interval_containment(self):
        assert fused_subset(Interval(2, 8), Interval(0, 10))
        assert not fused_subset(Interval(0, 10), Interval(2, 8))


class TestFuse:
    def test_budget_zero_is_common_intersection(self):
        assert fuse(FIX, 0) == Interval(4, 8)

    def test_budget_one_takes_second_order_statistics(self):
        assert fuse(FIX, 1) == Interval(2, 10)

    def test_budget_two_is_convex_hull(self):
        assert fuse(FIX, 2) == Interval(0, 12)

    def test_single_interval_identity(self):
        assert fuse([Interval(0, 1)], 0) == Interval(0, 1)

    def test_disjoint_intervals_fuse_to_empty(self):
        assert fuse([Interval(0, 1), Interval(5, 6)], 0) is None

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError, match="no measurements"):
            fuse([], 0)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            fuse(FIX, -1)

    def test_budget_at_list_length_rejected(self):
        with pytest.raises(DomainError, match="fault count exceeds measurement count"):
            fuse(FIX, 3)

    @pytest.mark.parametrize("f", [1.0, True, "1"])
    def test_budget_must_be_an_int(self, f):
        with pytest.raises(DomainError, match="^fault count must be an integer$"):
            fuse(FIX, f)

    @given(intervals(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, items, rng):
        f = rng.randrange(len(items))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert fuse(shuffled, f) == fuse(items, f)

    @given(intervals(max_size=6), st.integers(0, 5))
    def test_repeated_intervals_do_not_diverge(self, items, reps):
        # duplicates enter the endpoint multisets with multiplicity
        doubled = items + items[: reps % (len(items) + 1)]
        for f in range(len(doubled)):
            result = fuse(doubled, f)
            if f == 0:
                assert ends(result) == meet(doubled)
            if f == len(doubled) - 1:
                assert ends(result) == hull(doubled)

    @given(intervals())
    def test_extreme_budgets_match_oracles(self, items):
        assert ends(fuse(items, 0)) == meet(items)
        assert ends(fuse(items, len(items) - 1)) == hull(items)

    @given(intervals())
    def test_adjacent_budgets_nest(self, items):
        results = [fuse(items, f) for f in range(len(items))]
        for inner, outer in zip(results, results[1:]):
            assert nested(inner, outer)

    @given(intervals(), grid_values)
    def test_containment_guarantee(self, items, truth):
        excluded = sum(1 for iv in items if not iv.contains_point(truth))
        if excluded >= len(items):
            return
        result = fuse(items, excluded)
        assert result is not None and result.contains_point(truth)


class TestGradedFusion:
    def test_full_range_fixture(self):
        g = graded_fusion(FIX, 0, 2)
        assert g.levels == (Interval(4, 8), Interval(2, 10), Interval(0, 12))
        assert g.f_min == 0 and g.f_max == 2

    def test_single_point_range(self):
        g = graded_fusion(FIX, 0, 0)
        assert g.levels == (fuse(FIX, 0),)

    def test_chain_may_start_empty(self):
        g = graded_fusion([Interval(0, 1), Interval(5, 6)], 0, 1)
        assert g.levels == (None, Interval(0, 6))

    @pytest.mark.parametrize("fmin,fmax", [(-1, 1), (2, 1), (0, 3), (3, 3)])
    def test_bad_ranges_rejected(self, fmin, fmax):
        with pytest.raises(DomainError, match="invalid fault range"):
            graded_fusion(FIX, fmin, fmax)

    @pytest.mark.parametrize("fmin, fmax, name", [(0.0, 1, "f_min"), (True, 2, "f_min"), (0, 2.0, "f_max")])
    def test_budgets_must_be_ints(self, fmin, fmax, name):
        # a bool f_min would be written as "f_min":true, which parse_graded_intervals rejects
        with pytest.raises(DomainError, match=f"^{name} must be an integer$"):
            graded_fusion(FIX, fmin, fmax)

    @pytest.mark.parametrize("f_min", [0.5, 0.0, True])
    def test_constructor_takes_an_int_f_min(self, f_min):
        with pytest.raises(DomainError, match="^f_min must be an integer$"):
            GradedIntervals(f_min, (Interval(0, 1),))

    @pytest.mark.parametrize("f", [1.0, 0.5, True])
    def test_level_takes_an_int_fault_count(self, f):
        with pytest.raises(DomainError, match="^fault count must be an integer$"):
            graded_fusion(FIX, 0, 2).level(f)

    def test_level_lookup_by_fault_count(self):
        g = graded_fusion(FIX, 1, 2)
        assert g.level(1) == Interval(2, 10)
        assert g.level(2) == Interval(0, 12)
        with pytest.raises(DomainError, match="outside range"):
            g.level(0)

    def test_constructor_asserts_nesting(self):
        with pytest.raises(DomainError, match="not nested"):
            GradedIntervals(0, (Interval(0, 10), Interval(2, 8)))

    def test_constructor_rejects_empty_chain(self):
        with pytest.raises(DomainError, match="at least one level"):
            GradedIntervals(0, ())


class TestRoughPair:
    def test_two_levels_become_lower_and_upper(self):
        g = GradedIntervals(0, (Interval(4, 8), Interval(0, 12)))
        assert as_rough_pair(g) == (Interval(4, 8), Interval(0, 12))

    def test_degenerate_pair_allowed(self):
        g = GradedIntervals(0, (Interval(1, 2), Interval(1, 2)))
        assert as_rough_pair(g) == (Interval(1, 2), Interval(1, 2))

    @pytest.mark.parametrize("fmax", [0, 2])
    def test_other_level_counts_rejected(self, fmax):
        g = graded_fusion(FIX, 0, fmax)
        with pytest.raises(DomainError, match="not a rough pair"):
            as_rough_pair(g)


def _reference_support(support):
    """FaultDistribution's checks written out one by one, as they stood before
    its class check came first, with the mass check after the count check:
    the support it keeps, or the error it raises."""
    support = list(support)
    if any(not isinstance(f, int) or isinstance(f, bool) for f, _ in support):
        raise DomainError("fault count must be an integer")
    if any(not isinstance(p, (int, float)) or isinstance(p, bool) for _, p in support):
        raise DomainError("probability must be an int or a float")
    support = sorted((int(f), float(p)) for f, p in support)
    if not support:
        raise DomainError("fault distribution has empty support")
    counts = [f for f, _ in support]
    if len(set(counts)) != len(counts):
        raise DomainError("duplicate fault count in distribution")
    if counts[0] < 0:
        raise DomainError("fault counts must be nonnegative")
    masses = [p for _, p in support]
    if any(not (p > 0) for p in masses):
        raise DomainError("probabilities must be positive")
    if abs(sum(masses) - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {sum(masses)!r}, expected 1")
    return tuple(support)


def _outcome(make, support):
    """``("", repr(support))`` made by `make`, so an int mass or an enum count
    kept unconverted shows, or the type and text of what it raised."""
    try:
        return "", repr(make(support))
    except Exception as exc:
        return type(exc), str(exc)


class _Count(enum.IntEnum):
    TWO = 2


_counts = st.one_of(st.integers(-2, 6), st.booleans(), st.just(_Count.TWO), st.sampled_from([1.0, 1.5, "3"]))
_masses = st.one_of(
    st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 0.0, -0.5, math.nan, 1.7e308, 1, "0.5", True]), st.floats()
)
_items = st.one_of(
    st.tuples(_counts, _masses),
    st.tuples(_counts, _masses).map(list),
    st.tuples(_counts),
    st.tuples(_counts, _masses, _masses),
    _counts,
)
# pmfs that pass or fail only on their counts: one mass of 1/k for each of k counts
_uniform = st.lists(st.one_of(st.integers(-2, 6), st.just(_Count.TWO)), min_size=1, max_size=6).map(
    lambda counts: [(f, 1 / len(counts)) for f in counts]
)
_supports = st.one_of(st.lists(_items, max_size=6), _uniform)


class TestFaultDistribution:
    def test_support_is_sorted_by_fault_count(self):
        d = FaultDistribution(((2, 0.2), (0, 0.5), (1, 0.3)))
        assert d.support == ((0, 0.5), (1, 0.3), (2, 0.2))

    def test_empty_support_rejected(self):
        with pytest.raises(DomainError, match="empty support"):
            FaultDistribution(())

    def test_duplicate_fault_count_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            FaultDistribution(((0, 0.5), (0, 0.5)))

    def test_negative_fault_count_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            FaultDistribution(((-1, 1.0),))

    @pytest.mark.parametrize("p", [0.0, -0.1])
    def test_nonpositive_probability_rejected(self, p):
        with pytest.raises(DomainError, match="positive"):
            FaultDistribution(((0, p), (1, 1.0 - p)))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(DomainError, match="sum"):
            FaultDistribution(((0, 0.5), (1, 0.6)))

    def test_tolerance_absorbs_rounding(self):
        FaultDistribution(((0, 0.1 + 0.2), (1, 0.7)))

    @pytest.mark.parametrize("count", [1.5, 1.0, True, "3"])
    def test_a_count_that_is_not_an_int_is_rejected_not_truncated(self, count):
        with pytest.raises(DomainError, match="^fault count must be an integer$"):
            FaultDistribution(((count, 1.0),))

    @given(_supports)
    @example([(0, 0.5), (1, 0.5, 0.0)])  # a triple among pairs the class check keeps
    @example([(0, 0.5), (1,)])  # a single after such a pair
    @example([(0, 1)])  # an int mass
    @example([(0, True)])  # a bool mass
    @example([(0, "0.5"), (1, 0.5)])  # a str mass
    @example([(_Count.TWO, 1.0)])  # an int subclass count
    @example([(f, 0.1) for f in range(10)] + [(10, 0.3)])  # a plain sum is 1.2999999999999998 before 3.12
    @example([(0, 1.7e308), (1, 1.7e308)])  # the sum is past the largest float
    def test_checks_agree_with_the_one_by_one_reference(self, support):
        expected = _outcome(_reference_support, support)
        got = _outcome(lambda s: FaultDistribution(s).support, support)
        if expected[0] is DomainError and expected[1].startswith("probabilities sum to "):
            # the one change: the printed total is the correctly rounded sum
            try:
                total = math.fsum(float(p) for _, p in support)
            except OverflowError:
                total = math.inf
            expected = (DomainError, f"probabilities sum to {total!r}, expected 1")
        assert got == expected

    @pytest.mark.parametrize("make", [
        lambda: FaultDistribution([(0, "1.0")]),
        lambda: FaultDistribution([(0, True)]),
        lambda: IntervalDistribution([(None, " 1 ")]),
    ], ids=["str-mass", "bool-mass", "str-atom-mass"])
    def test_a_mass_the_parser_rejects_is_rejected(self, make):
        # parse_fault_distribution and parse_interval_distribution take only a JSON number
        with pytest.raises(DomainError, match="^probability must be an int or a float$"):
            make()

    def test_peak_bytes_per_entry_of_a_parsed_support(self):
        # the (int, float) pairs that parse_fault_distribution builds, in a seeded
        # order: they are sorted and kept, with no list or set of their counts
        n = 20_000
        rng = random.Random(n)
        weights = [rng.random() + 0.01 for _ in range(n)]
        total = math.fsum(weights)
        support = [(f, w / total) for f, w in enumerate(weights)]
        rng.shuffle(support)
        dist, _, peak = traced(lambda: FaultDistribution(support))
        assert len(dist.support) == n
        assert peak < 32 * n, f"{peak / n:.1f} B per entry"


UNIFORM_OVER_FOUR = FaultDistribution(dict.fromkeys(range(4), 0.25).items())


@pytest.mark.parametrize(
    "read",
    [
        lambda items: [fuse(items, f) for f in range(len(items))],
        lambda items: graded_fusion(items, 0, len(items) - 1).levels,
        lambda items: [result for result, _ in random_graded(items, UNIFORM_OVER_FOUR).atoms],
    ],
    ids=["fuse", "graded_fusion", "random_graded"],
)
def test_fused_levels_are_plain_intervals(read):
    # the levels are built unchecked off the sorts; they must be indistinguishable from checked ones
    items = [Interval(0, 10), Interval(2, 8), Interval(4, 12), Interval(-0.0, 3)]
    levels = [level for level in read(items) if level is not None]
    assert len(levels) == 3
    for level in levels:
        twin = Interval(level.lo, level.hi)
        assert type(level) is Interval and type(level.lo) is float and type(level.hi) is float
        assert level == twin and hash(level) == hash(twin) and repr(level) == repr(twin)
        assert pickle.dumps(level) == pickle.dumps(twin) and pickle.loads(pickle.dumps(level)) == twin


@given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 1.0]), st.sampled_from([-0.0, 0.0, 1.0])), min_size=1,
                max_size=8))
def test_signed_zero_ties_give_the_stable_sorts_endpoint(ends):
    # -0.0 and 0.0 compare equal, so only a stable sort fixes which one a tied level takes: the first
    # in input order among the tied lower ends, and among the tied upper ends; repr tells the two apart
    items = [Interval(min(a, b), max(a, b)) for a, b in ends]
    lows = sorted([iv.lo for iv in items], reverse=True)
    highs = sorted([iv.hi for iv in items])
    expected = [repr((lo, hi)) if lo <= hi else "None" for lo, hi in zip(lows, highs)]

    def shown(level):
        return "None" if level is None else repr((level.lo, level.hi))

    n = len(items)
    assert [shown(fuse(items, f)) for f in range(n)] == expected
    assert [shown(level) for level in graded_fusion(items, 0, n - 1).levels] == expected
    assert [shown(random_graded(items, FaultDistribution([(f, 1.0)])).atoms[0][0]) for f in range(n)] == expected


class TestRandomGraded:
    def test_fixture_distribution(self):
        d = FaultDistribution({0: 0.5, 1: 0.3, 2: 0.2}.items())
        out = random_graded(FIX, d)
        assert out.atoms == (
            (Interval(0, 12), 0.2),
            (Interval(2, 10), 0.3),
            (Interval(4, 8), 0.5),
        )

    def test_identical_intervals_merge_to_point_mass(self):
        d = FaultDistribution({0: 0.4, 1: 0.6}.items())
        out = random_graded([Interval(0, 10), Interval(0, 10)], d)
        assert len(out.atoms) == 1
        result, p = out.atoms[0]
        assert result == Interval(0, 10) and p == pytest.approx(1.0)

    def test_point_mass_passes_through(self):
        d = FaultDistribution({0: 1.0}.items())
        out = random_graded(FIX, d)
        assert out.atoms == ((fuse(FIX, 0), 1.0),)

    def test_out_of_range_support_rejected(self):
        d = FaultDistribution({0: 0.5, 3: 0.5}.items())
        with pytest.raises(DomainError, match="fault count exceeds measurement count"):
            random_graded(FIX, d)

    @given(intervals(), st.randoms(use_true_random=False))
    def test_mass_is_preserved(self, items, rng):
        support = rng.sample(range(len(items)), rng.randint(1, len(items)))
        weights = [rng.random() + 0.05 for _ in support]
        total = math.fsum(weights)
        d = FaultDistribution(tuple((f, w / total) for f, w in zip(support, weights)))
        out = random_graded(items, d)
        assert sum(p for _, p in out.atoms) == pytest.approx(1.0)


class TestIntervalDistribution:
    def test_atoms_sorted_empty_first_then_endpoints(self):
        d = IntervalDistribution(((Interval(2, 10), 0.3), (None, 0.2), (Interval(0, 12), 0.5)))
        assert d.atoms == ((None, 0.2), (Interval(0, 12), 0.5), (Interval(2, 10), 0.3))

    def test_duplicate_results_merge(self):
        d = IntervalDistribution(((Interval(0, 1), 0.5), (Interval(0, 1), 0.5)))
        assert d.atoms == ((Interval(0, 1), 1.0),)

    def test_sample_point_mass(self):
        d = IntervalDistribution(((Interval(1, 2), 1.0),))
        assert sample(d, 0) == Interval(1, 2)
        assert sample(d, 12345) == Interval(1, 2)

    def test_sample_is_deterministic_per_seed(self):
        d = random_graded(FIX, FaultDistribution({0: 0.5, 1: 0.3, 2: 0.2}.items()))
        assert sample(d, 7) == sample(d, 7)

    def test_sample_rejects_out_of_range_seed(self):
        d = IntervalDistribution(((Interval(1, 2), 1.0),))
        with pytest.raises(DomainError, match="seed"):
            sample(d, -1)
        with pytest.raises(DomainError, match="seed"):
            sample(d, 2**64)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_sample_takes_only_an_int_seed(self, seed):
        d = IntervalDistribution(((Interval(1, 2), 1.0),))
        with pytest.raises(DomainError, match="seed must be an integer"):
            sample(d, seed)

    def test_sample_hits_every_atom(self):
        d = random_graded(FIX, FaultDistribution({0: 0.5, 1: 0.3, 2: 0.2}.items()))
        seen = {sample(d, s) for s in range(200)}
        assert seen == {Interval(4, 8), Interval(2, 10), Interval(0, 12)}

    def test_sample_falls_back_to_the_last_atom_past_the_summed_mass(self, monkeypatch):
        # the masses sum to 1 - 5e-10, within the tolerance, so a draw in [0, 1) can land past the sum
        d = IntervalDistribution(((Interval(0, 1), 0.5), (Interval(2, 3), 0.5 - 5e-10)))
        draw = 1.0 - 2.5e-10
        assert 0.5 + (0.5 - 5e-10) <= draw < 1.0
        rng = SimpleNamespace(random=lambda: draw)
        monkeypatch.setattr(intervals_module, "random", SimpleNamespace(Random=lambda seed: rng))
        assert sample(d, 0) == Interval(2, 3)

    def test_sample_frequencies_track_probabilities(self):
        d = IntervalDistribution(((Interval(0, 1), 0.9), (None, 0.1)))
        draws = 100000
        hits = sum(sample(d, s) == Interval(0, 1) for s in range(draws))
        assert 0.89 <= hits / draws <= 0.91


@st.composite
def _short_pmfs(draw):
    """Masses of one to eight atoms, with some too small to move a running sum (1e-20), and with
    the total shaved by up to 5e-10 below 1, within PROB_TOLERANCE."""
    weights = draw(st.lists(st.one_of(st.just(1e-20), st.floats(0.01, 1.0)), min_size=1, max_size=8))
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    largest = masses.index(max(masses))
    masses[largest] -= draw(st.floats(0.0, 5e-10))
    return masses


@given(_short_pmfs(), st.integers(0, intervals_module.MAX_SEED))
@settings(max_examples=300)
def test_sample_draws_the_atom_of_the_scan(masses, seed):
    d = IntervalDistribution((Interval(i, i + 1), p) for i, p in enumerate(masses))
    assert sample(d, seed) == atom_at(d.atoms, random.Random(seed).random())
    # a seeded draw seldom lands on a running mass or past the total, so draw there too
    sums, acc = {0.0}, 0.0
    for p in masses:
        acc += p
        sums |= {acc, math.nextafter(acc, 0.0), math.nextafter(acc, 1.0)}
    for x in sorted(x for x in sums if x < 1.0):
        rng = SimpleNamespace(random=lambda: x)
        with patch.object(intervals_module, "random", SimpleNamespace(Random=lambda seed: rng)):
            assert sample(d, seed) == atom_at(d.atoms, x)


@given(intervals(max_size=50), st.data())
@settings(max_examples=300)
def test_all_budget_pairs_nest(items, data):
    f1 = data.draw(st.integers(0, len(items) - 1), label="f1")
    f2 = data.draw(st.integers(f1, len(items) - 1), label="f2")
    assert nested(fuse(items, f1), fuse(items, f2))


def test_nesting_on_adversarial_seeded_lists():
    rng = random.Random(20240817)
    for _ in range(200):
        items = []
        for _ in range(rng.randint(1, 50)):
            a, b = sorted((rng.randint(-10, 10), rng.randint(-10, 10)))
            items.append(Interval(a, b))
        chain = graded_fusion(items, 0, len(items) - 1)
        for inner, outer in zip(chain.levels, chain.levels[1:]):
            assert nested(inner, outer)


def _endpoint_sorts(monkeypatch, call) -> list[int]:
    """The length of every list of measurements `call` sorts inside the intervals module."""
    seen = []

    def counting_sorted(iterable, **kwargs):
        values = list(iterable)
        if values and all(type(v) is Interval for v in values):
            seen.append(len(values))
        return sorted(values, **kwargs)

    monkeypatch.setattr(intervals_module, "sorted", counting_sorted, raising=False)
    call()
    return seen


@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("entry", ["fuse", "graded_fusion", "random_graded"])
def test_each_entry_point_sorts_the_endpoints_once(monkeypatch, entry, n):
    rng = random.Random(n)
    items = [Interval(a, a + rng.random()) for a in (rng.uniform(-5, 5) for _ in range(n))]
    weights = [rng.random() + 0.05 for _ in range(n)]
    total = math.fsum(weights)
    every_budget = FaultDistribution(tuple((f, w / total) for f, w in enumerate(weights)))
    call = {
        "fuse": lambda: fuse(items, n // 2),
        "graded_fusion": lambda: graded_fusion(items, 0, n - 1),
        "random_graded": lambda: random_graded(items, every_budget),
    }[entry]
    # one descending sort of the lower endpoints, one ascending of the upper
    assert _endpoint_sorts(monkeypatch, call) == [n, n]


def test_large_seeded_chain_matches_counting_characterization():
    rng = random.Random(20261018)
    items = []
    for _ in range(1200):
        # endpoints on a grid of quarters, so some of them tie
        a, b = sorted((rng.randint(-2000, 2000) / 4, rng.randint(-2000, 2000) / 4))
        items.append(Interval(a, b))
    n = len(items)
    lows = [iv.lo for iv in items]
    highs = [iv.hi for iv in items]

    chain = graded_fusion(items, 0, n - 1)
    first = next(f for f, level in enumerate(chain.levels) if level is not None)
    assert 0 < first < n - 1
    for f in range(first, n):
        level = chain.levels[f]
        # counted, not sorted: the (f+1)-th largest lower end and the (f+1)-th smallest upper end
        assert level is not None and is_left_end(lows, level.lo, f) and is_right_end(highs, level.hi, f), f
    # c falls and d rises with f, so the levels below `first` are empty
    # exactly when the one just below it is.
    assert fused_ends(items, first - 1) is None
    assert all(level is None for level in chain.levels[:first])
    for inner, outer in zip(chain.levels, chain.levels[1:]):
        assert nested(inner, outer)

    weights = [rng.random() + 0.05 for _ in range(n)]
    total = math.fsum(weights)
    dist = FaultDistribution(tuple((f, w / total) for f, w in enumerate(weights)))
    pooled: dict = {}
    for f, p in dist.support:
        result = fuse(items, f)
        pooled[result] = pooled.get(result, 0.0) + p
    assert random_graded(items, dist).atoms == IntervalDistribution(tuple(pooled.items())).atoms


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("n", [101, 1001])
def test_containment_is_tight_at_scale(n, side):
    # k of n sensors are faulty, all displaced to one side of the truth (above
    # for side 1): every budget f >= k contains the truth, and f = k - 1 misses it
    rng = random.Random(f"containment {n} {side}")
    for k in sorted({1, 2, n // 10, n // 2, n - 1}):
        truth = rng.uniform(-100, 100)
        items = [Interval(truth - rng.uniform(1e-3, 5), truth + rng.uniform(1e-3, 5)) for _ in range(n - k)]
        for _ in range(k):
            near = truth + side * rng.uniform(1e-3, 10)
            far = near + side * rng.uniform(0, 5)
            items.append(Interval(min(near, far), max(near, far)))
        rng.shuffle(items)
        levels = graded_fusion(items, 0, n - 1).levels
        assert all(level is not None and level.contains_point(truth) for level in levels[k:]), k
        assert levels[k - 1] is None or not levels[k - 1].contains_point(truth), k


# The fault-minority bound: if at most f of n intervals miss the truth and
# n > 2f, the fused interval at budget f holds the truth and lies inside the
# hull of the intervals that hold it.  The faulty intervals are drawn to do
# the most harm: touching the truth's neighbouring float, of zero width, at
# +-0.0 or magnitudes near 1e308, and all on one side of the truth.
MAX = sys.float_info.max
ADVERSARIAL_TRUTHS = (0.0, -0.0, 5e-324, -5e-324, 1.0, 1e308, -1e308)


def _assert_minority_bound(truth, correct, results):
    lo, hi = min(iv.lo for iv in correct), max(iv.hi for iv in correct)
    for result in results:
        assert result is not None and result.contains_point(truth) and lo <= result.lo and result.hi <= hi


@st.composite
def minority_faults(draw, max_size: int = 12):
    """A truth, the intervals that hold it, those plus the faulty ones in
    some order, and a budget f at least the fault count with 2f < n."""
    truth = draw(st.sampled_from(ADVERSARIAL_TRUTHS) | st.floats(-1e308, 1e308))
    n = draw(st.integers(1, max_size))
    f = draw(st.integers(0, (n - 1) // 2))
    k = draw(st.integers(0, f))
    correct = [Interval(draw(st.floats(-MAX, truth)), draw(st.floats(truth, MAX))) for _ in range(n - k)]
    one_side = draw(st.sampled_from([1.0, -1.0, None]))
    faulty = []
    for _ in range(k):
        side = one_side or draw(st.sampled_from([1.0, -1.0]))
        near = math.nextafter(truth, side * math.inf)
        a = draw(st.just(near) | st.floats(*sorted((near, side * MAX))))
        b = draw(st.just(a) | st.floats(*sorted((a, side * MAX))))
        faulty.append(Interval(min(a, b), max(a, b)))
    return truth, correct, draw(st.permutations(correct + faulty)), f


@given(minority_faults())
def test_minority_faults_stay_inside_the_correct_hull(case):
    truth, correct, items, f = case
    _assert_minority_bound(truth, correct, [fuse(items, f)])


@pytest.mark.parametrize("n", [101, 1001])
def test_minority_faults_stay_inside_the_correct_hull_at_scale(n):
    rng = random.Random(f"minority {n}")

    def toward(x, side, spread):
        return min(MAX, max(-MAX, x + side * spread * rng.random()))

    for truth in (*ADVERSARIAL_TRUTHS, rng.uniform(-100, 100)):
        for k in sorted({0, 1, n // 4, (n - 1) // 2}):
            for one_side in (1.0, -1.0, None):
                spread = rng.choice([0.0, 1e-9, 1.0, MAX])
                correct = [Interval(toward(truth, -1, spread), toward(truth, 1, spread)) for _ in range(n - k)]
                items = list(correct)
                for _ in range(k):
                    side = one_side or rng.choice([1.0, -1.0])
                    near = math.nextafter(truth, side * math.inf)
                    a = near if rng.random() < 0.3 else toward(near, side, spread)
                    b = a if rng.random() < 0.3 else toward(a, side, spread)
                    items.append(Interval(min(a, b), max(a, b)))
                rng.shuffle(items)
                # every budget from the fault count up to the largest minority
                levels = graded_fusion(items, k, (n - 1) // 2).levels
                assert fuse(items, k) == levels[0]
                _assert_minority_bound(truth, correct, levels)


@st.composite
def drawn_measurements(draw):
    """2**4 to 2**12 seeded intervals whose ends tie often: quarters up to a drawn bound, scaled by a
    power of two, or else anywhere in the range, with 0.0 and -0.0 among them.  Every end
    lies within +-1e6 and none is subnormal, so negating and doubling it are exact."""
    n = 2 ** draw(st.integers(4, 12), label="log2 intervals")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    grid, scale = rng.choice((2, 8, 64, 4000)), 2.0 ** rng.randint(-8, 9)

    def end():
        if rng.random() < 0.1:
            return rng.uniform(-1e6, 1e6)
        x = rng.randint(-grid, grid) / 4 * scale
        return rng.choice((0.0, -0.0)) if x == 0 else x

    return [Interval(*sorted((end(), end()))) for _ in range(n)]


@settings(max_examples=30)
@given(drawn_measurements())
def test_negating_and_doubling_map_every_level(items):
    # -[lo, hi] is [-hi, -lo] and 2[lo, hi] is [2lo, 2hi], exactly, so the (f+1)-th largest lower end
    # of the negated intervals is minus the (f+1)-th smallest upper end, and doubling keeps every order
    n = len(items)
    levels = [ends(level) for level in graded_fusion(items, 0, n - 1).levels]
    negated = graded_fusion([Interval(-iv.hi, -iv.lo) for iv in items], 0, n - 1).levels
    doubled = graded_fusion([Interval(2 * iv.lo, 2 * iv.hi) for iv in items], 0, n - 1).levels
    assert [ends(level) for level in negated] == [None if e is None else (-e[1], -e[0]) for e in levels]
    assert [ends(level) for level in doubled] == [None if e is None else (2 * e[0], 2 * e[1]) for e in levels]
