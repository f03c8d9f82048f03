import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsets import DomainError, GradedFamily, is_rough_family
from strategies import nested_prefixes

NAMES = tuple(f"n{i}" for i in range(6))


class TestValidateGraded:
    """The nesting check `GradedFamily` runs on construction from any iterable of levels."""

    def test_growing_chain_is_valid(self):
        family = GradedFamily([{1}, {1, 2}, {1, 2, 3}])
        assert family.levels == (frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3}))

    def test_constant_chain_is_valid(self):
        family = GradedFamily([{1}, {1}, {1}])
        assert len(family) == 3

    def test_non_nested_chain_names_the_offending_pair(self):
        with pytest.raises(DomainError, match=r"not nested at pair \(0, 1\)"):
            GradedFamily([{1, 2}, {1, 3}])

    def test_violation_reported_at_first_bad_pair(self):
        with pytest.raises(DomainError, match=r"pair \(1, 2\)"):
            GradedFamily([{1}, {1, 2}, {2}])

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError, match="at least one level"):
            GradedFamily([])

    def test_single_level_is_valid(self):
        assert len(GradedFamily([{"a", "b"}])) == 1

    def test_empty_level_is_a_valid_start(self):
        family = GradedFamily([set(), {"a"}])
        assert family.levels[0] == frozenset()

    def test_levels_are_frozen(self):
        family = GradedFamily([["a"], ["a", "b"]])
        assert all(isinstance(level, frozenset) for level in family.levels)

    @given(nested_prefixes(NAMES))
    def test_shuffled_prefix_chains_always_validate(self, levels):
        family = GradedFamily(levels)
        assert len(family) == len(levels)

    @given(st.lists(st.frozensets(st.integers(0, 4)), min_size=1, max_size=6))
    def test_acceptance_matches_adjacent_subset_oracle(self, levels):
        ok = all(a <= b for a, b in zip(levels, levels[1:]))
        if ok:
            GradedFamily(levels)
        else:
            with pytest.raises(DomainError):
                GradedFamily(levels)

    @given(nested_prefixes(NAMES, allow_empty=False))
    def test_chain_condition_implies_all_pairs_nesting(self, levels):
        family = GradedFamily(levels)
        n = len(family.levels)
        for i in range(n):
            for j in range(i, n):
                assert family.levels[i] <= family.levels[j]


class TestGradedFamily:
    def test_direct_construction_validates(self):
        with pytest.raises(DomainError, match="not nested"):
            GradedFamily((frozenset({1, 2}), frozenset({2})))

    def test_len(self):
        assert len(GradedFamily((frozenset(), frozenset({1})))) == 2


class TestIsRoughFamily:
    def test_two_levels(self):
        assert is_rough_family(GradedFamily([{1}, {1, 2}]))

    def test_one_level(self):
        assert not is_rough_family(GradedFamily([{1}]))

    def test_three_levels(self):
        assert not is_rough_family(GradedFamily([{1}, {1, 2}, {1, 2, 3}]))
