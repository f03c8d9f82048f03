import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced
from gsets import (
    ApproximationPair,
    DomainError,
    GradedFamily,
    InformationTable,
    Partition,
    approximation_pair,
    graded_approximations,
    granular_from_chain,
    indiscernibility_partition,
    refines,
    sensitivity_profile,
)
from gsets.formats import dumps_canonical, granular_set_chunks, parse_granular_set, parse_table
from references import approximations, granular_set_document, refines_by_definition, signature_blocks
from strategies import table_with_attr_chain, table_with_target_chain, tables

ALL = [f"O{i}" for i in range(1, 11)]
PE = ["P1", "P2", "P3", "P4", "P5"]


class TestInformationTable:
    def test_value_lookup(self, sample_table):
        assert sample_table.value("O5", "P2") == "1"
        assert sample_table.value("O10", "P5") == "0"

    def test_unknown_object_or_attribute(self, sample_table):
        with pytest.raises(DomainError, match="unknown object"):
            sample_table.value("O99", "P1")
        with pytest.raises(DomainError, match="unknown attribute"):
            sample_table.value("O1", "P9")

    def test_duplicate_object_rejected(self):
        with pytest.raises(DomainError, match="duplicate object"):
            InformationTable(("a", "a"), ("p",), (("0",), ("1",)))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(DomainError, match="duplicate attribute"):
            InformationTable(("a",), ("p", "p"), (("0", "1"),))

    def test_ragged_row_rejected(self):
        with pytest.raises(DomainError, match="cells"):
            InformationTable(("a",), ("p", "q"), (("0",),))

    def test_empty_cell_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            InformationTable(("a",), ("p",), (("",),))

    @pytest.mark.parametrize(
        "objects, attributes, message",
        [
            ([1, 2], ["p"], "object id must be a nonempty string, got 1"),
            (["a", "b"], [""], "attribute name must be a nonempty string, got ''"),
            (["a", ["b"]], ["p"], "object id must be a nonempty string, got ['b']"),
            # ids are checked before names
            (["a", ""], [3], "object id must be a nonempty string, got ''"),
        ],
        ids=["int-id", "empty-name", "list-id", "id-before-name"],
    )
    def test_ids_and_names_must_be_nonempty_strings(self, objects, attributes, message):
        with pytest.raises(DomainError) as info:
            InformationTable(objects, attributes, [["x"] * len(attributes)] * len(objects))
        assert str(info.value) == message


class TestIndiscernibility:
    def test_single_attribute_classes(self, sample_table, expected_classes):
        assert indiscernibility_partition(sample_table, ["P1"]) == expected_classes["C1"]

    def test_middle_chain_classes_coincide(self, sample_table, expected_classes):
        for attrs in (["P1", "P2"], ["P1", "P2", "P3"], ["P1", "P2", "P3", "P4"]):
            assert indiscernibility_partition(sample_table, attrs) == expected_classes["C2"]

    def test_all_attribute_classes(self, sample_table, expected_classes):
        assert indiscernibility_partition(sample_table, PE) == expected_classes["C5"]

    def test_attribute_order_is_irrelevant(self, sample_table):
        a = indiscernibility_partition(sample_table, ["P2", "P1"])
        b = indiscernibility_partition(sample_table, ["P1", "P2"])
        assert a == b

    def test_distinct_rows_give_singletons(self):
        t = InformationTable(("a", "b"), ("p",), (("0",), ("1",)))
        p = indiscernibility_partition(t, ["p"])
        assert p == Partition.from_blocks([["a"], ["b"]])

    def test_empty_attribute_set_gives_one_block(self, sample_table):
        p = indiscernibility_partition(sample_table, [])
        assert p.blocks == (tuple(ALL),)

    def test_unknown_attribute_rejected(self, sample_table):
        with pytest.raises(DomainError, match="unknown attribute"):
            indiscernibility_partition(sample_table, ["P9"])

    def test_universe_follows_table_order(self, sample_table):
        p = indiscernibility_partition(sample_table, ["P1"])
        assert p.universe == tuple(ALL)

    @given(tables())
    @settings(max_examples=100)
    def test_blocks_agree_on_all_chosen_attributes(self, table):
        attrs = table.attributes[: max(1, len(table.attributes) // 2)]
        p = indiscernibility_partition(table, attrs)
        for block in p.blocks:
            rows = {tuple(table.value(o, a) for a in attrs) for o in block}
            assert len(rows) == 1


class TestGranularFromChain:
    def test_sample_chain_produces_expected_tower(
        self, sample_table, sample_chain_levels, expected_classes
    ):
        chain = GradedFamily(sample_chain_levels)
        g = granular_from_chain(sample_table, chain)
        expected = [
            expected_classes["C5"],
            expected_classes["C4"],
            expected_classes["C3"],
            expected_classes["C2"],
            expected_classes["C1"],
        ]
        assert list(g.levels) == expected

    def test_single_level_chain(self, sample_table, expected_classes):
        g = granular_from_chain(sample_table, GradedFamily([["P1"]]))
        assert list(g.levels) == [expected_classes["C1"]]

    def test_chain_starting_empty(self, sample_table, expected_classes):
        g = granular_from_chain(sample_table, GradedFamily([[], ["P1"]]))
        assert list(g.levels) == [
            expected_classes["C1"],
            Partition.from_blocks([ALL]),
        ]

    @given(table_with_attr_chain())
    @settings(max_examples=200)
    def test_nested_chains_always_granulate(self, case):
        table, chain_levels = case
        g = granular_from_chain(table, GradedFamily(chain_levels))
        assert len(g) == len(chain_levels)

    @given(tables())
    @settings(max_examples=100)
    def test_refinement_monotone_in_attributes(self, table):
        half = table.attributes[: max(1, len(table.attributes) // 2)]
        finer = indiscernibility_partition(table, table.attributes)
        coarser = indiscernibility_partition(table, half)
        assert refines(finer, coarser)


class TestApproximations:
    def test_lower_of_small_target(self, sample_table):
        assert approximation_pair(sample_table, PE, ["O1", "O2", "O3"]).lower == {"O1", "O2"}

    def test_upper_of_small_target(self, sample_table):
        assert approximation_pair(sample_table, PE, ["O1", "O2", "O3"]).upper == {
            "O1", "O2", "O3", "O7", "O10",
        }

    def test_full_universe_is_exact(self, sample_table):
        assert approximation_pair(sample_table, PE, ALL).lower == set(ALL)
        assert approximation_pair(sample_table, PE, ALL).upper == set(ALL)

    def test_empty_target_is_exact(self, sample_table):
        assert approximation_pair(sample_table, PE, []).lower == set()
        assert approximation_pair(sample_table, PE, []).upper == set()

    def test_unknown_target_object_rejected(self, sample_table):
        with pytest.raises(DomainError, match="unknown object"):
            approximation_pair(sample_table, PE, ["O99"])

    def test_pair_combines_both_sides(self, sample_table):
        pair = approximation_pair(sample_table, PE, ["O1", "O2", "O3"])
        assert pair.lower == {"O1", "O2"}
        assert pair.upper == {"O1", "O2", "O3", "O7", "O10"}
        assert pair.boundary == {"O3", "O7", "O10"}

    @given(table_with_target_chain())
    @settings(max_examples=200)
    def test_rough_sandwich(self, case):
        table, attrs, targets = case
        for target in targets:
            pair = approximation_pair(table, attrs, target)
            assert pair.lower <= set(target) <= pair.upper

    @given(table_with_target_chain())
    @settings(max_examples=200)
    def test_target_monotonicity(self, case):
        table, attrs, targets = case
        pairs = [approximation_pair(table, attrs, t) for t in targets]
        for a, b in zip(pairs, pairs[1:]):
            assert a.lower <= b.lower and a.upper <= b.upper

    @given(table_with_attr_chain())
    @settings(max_examples=200)
    def test_attribute_monotonicity(self, case):
        table, chain_levels = case
        target = table.objects[: len(table.objects) // 2]
        pairs = [approximation_pair(table, attrs, target) for attrs in chain_levels]
        for small, large in zip(pairs, pairs[1:]):
            assert small.lower <= large.lower
            assert large.upper <= small.upper

    @given(table_with_target_chain())
    @settings(max_examples=100)
    def test_approximations_are_unions_of_blocks(self, case):
        table, attrs, targets = case
        part = indiscernibility_partition(table, attrs)
        for target in targets:
            pair = approximation_pair(table, attrs, target)
            for side in (pair.lower, pair.upper):
                touched = [b for b in part.blocks if set(b) & side]
                covered = frozenset().union(*touched) if touched else frozenset()
                assert side == covered


class TestComputeReadsLabelsOnly:
    def test_no_blocks_are_grouped(self, monkeypatch, sample_table, sample_chain_levels):
        def group(self):
            raise AssertionError("blocks grouped in compute")

        monkeypatch.setattr(Partition, "_groups", group)
        chain = GradedFamily(sample_chain_levels)
        targets = GradedFamily([["O1"], ["O1", "O2", "O3"]])
        granular_from_chain(sample_table, chain)
        assert approximation_pair(sample_table, PE, ["O1", "O3"]).upper == {"O1", "O2", "O3", "O7", "O10"}
        graded_approximations(sample_table, PE, targets)
        sensitivity_profile(sample_table, chain, ["O1", "O3"])


class TestGradedApproximations:
    def test_two_level_fixture(self, sample_table):
        targets = GradedFamily([["O1"], ["O1", "O2"]])
        lowers, uppers = graded_approximations(sample_table, PE, targets)
        assert lowers.levels == (frozenset(), frozenset({"O1", "O2"}))
        assert uppers.levels == (frozenset({"O1", "O2"}), frozenset({"O1", "O2"}))

    def test_constant_targets_give_constant_chains(self, sample_table):
        targets = GradedFamily([["O1", "O2"], ["O1", "O2"]])
        lowers, uppers = graded_approximations(sample_table, PE, targets)
        assert lowers.levels[0] == lowers.levels[1]
        assert uppers.levels[0] == uppers.levels[1]

    def test_empty_to_full_targets(self, sample_table):
        targets = GradedFamily([[], ALL])
        lowers, uppers = graded_approximations(sample_table, PE, targets)
        assert lowers.levels == (frozenset(), frozenset(ALL))
        assert uppers.levels == (frozenset(), frozenset(ALL))

    @given(table_with_target_chain())
    @settings(max_examples=200)
    def test_output_chains_always_validate(self, case):
        table, attrs, targets = case
        lowers, uppers = graded_approximations(table, attrs, GradedFamily(targets))
        assert len(lowers) == len(targets) and len(uppers) == len(targets)


class TestSensitivityProfile:
    def test_sample_profile_sizes(self, sample_table, sample_chain_levels):
        chain = GradedFamily(sample_chain_levels)
        records = sensitivity_profile(sample_table, chain, ["O1", "O2", "O3"])
        assert [r.attribute_count for r in records] == [1, 2, 3, 4, 5]
        assert records[0].lower_size == 2 and records[0].upper_size == 7
        lower_sizes = [r.lower_size for r in records]
        upper_sizes = [r.upper_size for r in records]
        assert lower_sizes == sorted(lower_sizes)
        assert upper_sizes == sorted(upper_sizes, reverse=True)

    def test_full_target_has_accuracy_one(self, sample_table, sample_chain_levels):
        chain = GradedFamily(sample_chain_levels)
        for r in sensitivity_profile(sample_table, chain, ALL):
            assert r.accuracy == 1.0 and r.boundary_size == 0

    def test_empty_target_uses_empty_upper_convention(self, sample_table, sample_chain_levels):
        chain = GradedFamily(sample_chain_levels)
        for r in sensitivity_profile(sample_table, chain, []):
            assert r.lower_size == 0 and r.upper_size == 0
            assert r.accuracy == 1.0

    def test_level_indices_run_in_chain_order(self, sample_table, sample_chain_levels):
        chain = GradedFamily(sample_chain_levels)
        records = sensitivity_profile(sample_table, chain, ["O4"])
        assert [r.level_index for r in records] == [0, 1, 2, 3, 4]

    @given(table_with_attr_chain())
    @settings(max_examples=100)
    def test_accuracy_is_monotone_along_the_chain(self, case):
        table, chain_levels = case
        target = table.objects[: len(table.objects) // 2]
        chain = GradedFamily(chain_levels)
        records = sensitivity_profile(table, chain, target)
        accuracies = [r.accuracy for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(accuracies, accuracies[1:]))


def _seeded_case(n=2000, cards=(2, 3, 4, 5) * 3, target_levels=4):
    rng = random.Random(2000)
    attributes = tuple(f"A{j}" for j in range(len(cards)))
    objects = tuple(f"o{i}" for i in range(n))
    rows = tuple(tuple(str(rng.randrange(c)) for c in cards) for _ in range(n))
    table = InformationTable(objects, attributes, rows)
    chain = [list(attributes[: k + 1]) for k in range(len(attributes))]
    target = [o for o, row in zip(objects, rows) if (row[1] == "0") != (rng.random() < 0.01)]
    targets = [[o for o in target if int(table.value(o, "A2")) <= k] for k in range(target_levels)]
    return table, chain, target, targets


def _check_chain_levels(table, chain_levels):
    g = granular_from_chain(table, GradedFamily(chain_levels))
    # stored finest first, so reversed chain order
    for level, incremental in zip(chain_levels, reversed(g.levels)):
        reference = indiscernibility_partition(table, level)
        assert incremental == reference
        # the oracle groups and orders its blocks by its own code path, so this
        # pins the block order independently of the chain and reference kernels
        assert incremental.blocks == reference.blocks == signature_blocks(table, level)


def _check_graded(table, attrs, targets):
    lowers, uppers = graded_approximations(table, attrs, GradedFamily(targets))
    for level, low, up in zip(targets, lowers.levels, uppers.levels):
        pair = approximation_pair(table, attrs, level)
        assert (low, up) == (pair.lower, pair.upper)


def _check_sensitivity(table, chain_levels, target):
    records = sensitivity_profile(table, GradedFamily(chain_levels), target)
    assert len(records) == len(chain_levels)
    for i, (attrs, r) in enumerate(zip(chain_levels, records)):
        pair = approximation_pair(table, attrs, target)
        assert (r.level_index, r.attribute_count) == (i, len(set(attrs)))
        assert (r.lower_size, r.upper_size) == (len(pair.lower), len(pair.upper))


class TestIncrementalChainsMatchReference:
    """Chain levels are split incrementally; each must equal the from-scratch result."""

    @given(table_with_attr_chain())
    @settings(max_examples=200)
    def test_chain_levels_equal_indiscernibility_partitions(self, case):
        table, chain_levels = case
        _check_chain_levels(table, chain_levels)

    @given(table_with_target_chain())
    @settings(max_examples=200)
    def test_graded_approximations_equal_pairs_level_by_level(self, case):
        _check_graded(*case)

    @given(table_with_attr_chain(), st.data())
    @settings(max_examples=200)
    def test_sensitivity_equals_pairs_level_by_level(self, case, data):
        table, chain_levels = case
        target = data.draw(st.lists(st.sampled_from(table.objects), unique=True))
        _check_sensitivity(table, chain_levels, target)

    def test_seeded_2000_by_12(self):
        table, chain, target, targets = _seeded_case()
        _check_chain_levels(table, chain)
        _check_graded(table, ["A1", "A2", "A3"], targets)
        _check_sensitivity(table, chain, target)

    def test_chain_peak_memory_per_object(self):
        # label vectors, not a name-to-block dict per level: about 400 B per
        # object measured, against about 2.2 KB with one dict per level
        table, chain, _, _ = _seeded_case(n=20_000)
        chain = GradedFamily(chain)
        _, _, peak = traced(lambda: granular_from_chain(table, chain))
        assert peak <= 1200 * len(table.objects), f"{peak / len(table.objects):.0f} bytes per object"


def _check_against_oracle(table, chain_levels, target):
    """Every partition, approximation pair and the granular set of the chain
    equal the ones read off the signatures."""
    _check_chain_levels(table, chain_levels)
    for attrs in chain_levels:
        pair = approximation_pair(table, attrs, target)
        assert (pair.lower, pair.upper) == approximations(signature_blocks(table, attrs), target)


def _csv(objects, attributes, rows):
    return "\n".join([",".join(["object", *attributes]), *(",".join([o, *r]) for o, r in zip(objects, rows))]) + "\n"


class TestColumnCodes:
    """The per-column codes at their edges, parsed a batch of rows at a time
    and built from rows, against the signature oracle."""

    def _both(self, objects, attributes, rows):
        built = InformationTable(objects, attributes, rows)
        parsed = parse_table(_csv(objects, attributes, rows))
        assert parsed == built and parsed.rows == tuple(map(tuple, rows))
        return built, parsed

    def test_column_of_300_values_crosses_to_wide_codes(self):
        # value k first appears at row 2k: with batches of 256 rows the 257th
        # value opens the third batch, so the parsed column turns wide there
        n = 700
        objects = [f"o{i}" for i in range(n)]
        rows = [(f"v{min(i // 2, 299)}" if i < 600 else f"v{i % 300}", str(i % 3)) for i in range(n)]
        for table in self._both(objects, ("wide", "narrow"), rows):
            assert len(table._values[0]) == 300 and type(table._codes[0]) is tuple
            assert len(table._values[1]) == 3 and type(table._codes[1]) is bytes
            assert table.value("o598", "wide") == "v299" and table.value("o699", "wide") == "v99"
            _check_against_oracle(table, [["narrow"], ["narrow", "wide"]], objects[::3])

    @pytest.mark.parametrize("width, kind", [(256, bytes), (257, tuple)])
    def test_a_column_is_bytes_up_to_256_values(self, width, kind):
        rows = [(f"v{i}",) for i in range(width)]
        for table in self._both([f"o{i}" for i in range(width)], ("p",), rows):
            assert type(table._codes[0]) is kind and table.value(f"o{width - 1}", "p") == f"v{width - 1}"

    def test_keys_past_a_machine_word(self):
        # nine attributes of about 260 values: the keys of a from-scratch
        # partition grow past 2**62 and must still tell the classes apart
        rng = random.Random(9)
        attributes = [f"a{j}" for j in range(9)]
        objects = [f"o{i}" for i in range(600)]
        rows = [[f"v{rng.randrange(300)}" for _ in attributes] for _ in objects]
        rows[599] = rows[0]  # one class of two objects
        table = InformationTable(objects, attributes, rows)
        assert math.prod(map(len, table._values)) > 2**62
        _check_against_oracle(table, [attributes[:7], attributes], objects[:300])
        assert indiscernibility_partition(table, attributes).block_of("o0") == {"o0", "o599"}

    def test_value_first_seen_after_the_first_batch(self):
        n = 1200
        objects = [f"o{i}" for i in range(n)]
        rows = [("late" if i in (900, 1100) else str(i % 2), str(i % 5)) for i in range(n)]
        for table in self._both(objects, ("p", "q"), rows):
            assert table.value("o900", "p") == table.value("o1100", "p") == "late"
            _check_against_oracle(table, [["p"], ["p", "q"]], objects[:600])
            assert indiscernibility_partition(table, ["p"]).block_of("o900") == {"o900", "o1100"}

    def test_table_with_no_rows(self):
        table = InformationTable((), ("p",), ())
        assert table.rows == () and table == InformationTable([], ["p"], [])
        _check_against_oracle(table, [[], ["p"]], [])
        assert granular_from_chain(table, GradedFamily([["p"]])).levels == (Partition((), ()),)
        with pytest.raises(DomainError, match="unknown object"):
            table.value("a", "p")

    @pytest.mark.parametrize("objects", [("a",), ("a", "b")])
    def test_table_with_no_attributes(self, objects):
        table = InformationTable(objects, (), ((),) * len(objects))
        assert table.rows == ((),) * len(objects)
        _check_against_oracle(table, [[]], ["a"])
        assert indiscernibility_partition(table, []).blocks == (objects,)
        # one block holding every object: inside the target only when it is just "a"
        lower = objects if objects == ("a",) else ()
        assert approximation_pair(table, [], ["a"]) == ApproximationPair(lower, objects)
        with pytest.raises(DomainError, match="unknown attribute"):
            table.value("a", "p")


@pytest.fixture(scope="module")
def large_case():
    return _seeded_case(n=10_000)


@pytest.fixture(scope="module")
def large_granular(large_case):
    table, chain, _, _ = large_case
    return granular_from_chain(table, GradedFamily(chain))


class TestLargeTableInvariants:
    """The rough-set invariants on a seeded 10^4 x 12 table, far beyond the
    sizes the property strategies draw."""

    def test_chain_levels_are_the_reference_partitions(self, large_case, large_granular):
        table, chain, _, _ = large_case
        for level, incremental in zip(chain, reversed(large_granular.levels)):
            reference = indiscernibility_partition(table, level)
            assert incremental.blocks == reference.blocks

    def test_each_level_refines_the_next(self, large_granular):
        levels = large_granular.levels
        assert len({len(p.blocks) for p in levels}) > 2
        for finer, coarser in zip(levels, levels[1:]):
            assert refines_by_definition(finer, coarser)
        assert not refines_by_definition(levels[-1], levels[0])

    def test_refines_across_permuted_universes(self, large_granular):
        # a level rebuilt over a shuffled universe order takes refines'
        # by-element path, which must agree with the definition both ways
        levels = large_granular.levels
        rng = random.Random(5)

        def permuted(p):
            universe = list(p.universe)
            rng.shuffle(universe)
            return Partition(universe, p.blocks)

        for finer, coarser in zip(levels, levels[1:]):
            for a, b in ((finer, coarser), (coarser, finer)):
                b_permuted = permuted(b)
                assert b_permuted.universe != a.universe
                assert refines(a, b_permuted) == refines_by_definition(a, b)
                assert refines(permuted(a), b) == refines_by_definition(a, b)
        with pytest.raises(DomainError, match="universe mismatch"):
            refines(levels[0], Partition.from_blocks(levels[1].blocks[1:]))

    def test_approximations_monotone_in_targets(self, large_case):
        table, _, _, targets = large_case
        pairs = [approximation_pair(table, ["A1", "A2", "A3"], t) for t in targets]
        for target, pair in zip(targets, pairs):
            assert pair.lower <= set(target) <= pair.upper
        for small, large in zip(pairs, pairs[1:]):
            assert small.lower <= large.lower and small.upper <= large.upper
        assert pairs[0].lower != pairs[-1].lower and pairs[0].lower != pairs[0].upper

    def test_approximations_monotone_in_attributes(self, large_case):
        table, chain, target, _ = large_case
        pairs = [approximation_pair(table, attrs, target) for attrs in chain]
        for small, large in zip(pairs, pairs[1:]):
            assert small.lower <= large.lower and large.upper <= small.upper
        records = sensitivity_profile(table, GradedFamily(chain), target)
        assert [(r.lower_size, r.upper_size) for r in records] == [(len(p.lower), len(p.upper)) for p in pairs]
        assert pairs[0].lower != pairs[-1].lower and pairs[0].upper != pairs[-1].upper

    def test_granular_set_document_round_trips(self, large_granular):
        # parsing rebuilds all 12 levels from blocks, 12 x 10^4 elements
        g = large_granular
        parsed = parse_granular_set("".join(granular_set_chunks(g)))
        assert parsed == g
        # the same normalised blocks, so the same document bytes
        assert [p.blocks for p in parsed.levels] == [p.blocks for p in g.levels]
        assert "".join(granular_set_chunks(parsed)) == dumps_canonical(granular_set_document(g))

    def test_granulate_text_is_the_marked_document(self, large_granular):
        # the level-at-a-time text of granulate, 12 levels of 10^4 objects
        g = large_granular
        text = "".join(granular_set_chunks(g))
        assert text == dumps_canonical(granular_set_document(g))


@st.composite
def drawn_tables(draw):
    """A seeded tie-heavy table of 2**4 to 2**11 rows by 1 to 12 attributes of 1 to 5 values, at times
    with one column of 257 or more values, past the byte codes, from 512 rows on; a nested attribute
    chain, an attribute set, a target X and a nested target chain inside it.  X is the objects of some
    values of one column, with a drawn share of the objects flipped in or out, so that some classes
    lie inside it, some meet it and some miss it."""
    n, m = 2 ** draw(st.integers(4, 11), label="log2 rows"), draw(st.integers(1, 12), label="attributes")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = [[str(rng.randrange(card)) for _ in range(n)] for card in (rng.randint(1, 5) for _ in range(m))]
    wide = n >= 512 and draw(st.booleans(), label="wide")
    if wide:
        # every value of 0..width-1 appears and the rest repeat, in a shuffled order
        width = rng.randint(257, n - 1)
        column = [str(i % width) for i in range(n)]
        rng.shuffle(column)
        columns[rng.randrange(m)] = column
    objects = tuple(f"o{i}" for i in range(n))
    attributes = tuple(f"A{j}" for j in range(m))
    table = InformationTable(objects, attributes, zip(*columns))
    assert wide == any(isinstance(codes, tuple) for codes in table._codes)
    order = rng.sample(attributes, m)
    chain = [order[:k] for k in sorted(rng.choices(range(m + 1), k=rng.randint(1, 4)))]
    attrs = order[: rng.randint(0, m)]
    on, off = rng.randrange(m), rng.randrange(m)
    chosen, flip = {v for v in sorted(set(columns[on])) if rng.random() < 0.5}, rng.choice((0.0, 0.01, 0.1, 0.5))
    target = [o for o, v in zip(objects, columns[on]) if (v in chosen) != (rng.random() < flip)]
    in_target = set(target)
    # nested: X's objects whose value on another column is at most k, for a few k, then X itself
    cuts = sorted(rng.choices(range(max(map(int, columns[off])) + 1), k=3))
    targets = [[o for o, v in zip(objects, columns[off]) if o in in_target and int(v) <= k] for k in cuts]
    return table, chain, attrs, target, targets + [target]


class TestDuality:
    """Pawlak's duality at drawn sizes, a relation between two runs that needs no reference: with U
    the objects, lower(X) = U \\ upper(U \\ X) and upper(X) = U \\ lower(U \\ X)."""

    @staticmethod
    def _complement(table, names):
        names = set(names)
        return [o for o in table.objects if o not in names]

    @given(drawn_tables())
    @settings(max_examples=20)
    def test_approximation_pair(self, case):
        table, _, attrs, target, _ = case
        universe = frozenset(table.objects)
        pair = approximation_pair(table, attrs, target)
        dual = approximation_pair(table, attrs, self._complement(table, target))
        assert pair.lower == universe - dual.upper and pair.upper == universe - dual.lower

    @given(drawn_tables())
    @settings(max_examples=20)
    def test_graded_approximations_against_the_reversed_complements(self, case):
        table, _, attrs, _, targets = case
        universe = frozenset(table.objects)
        lowers, uppers = graded_approximations(table, attrs, GradedFamily(targets))
        complements = GradedFamily([self._complement(table, level) for level in reversed(targets)])
        dual_lowers, dual_uppers = graded_approximations(table, attrs, complements)
        assert len(lowers.levels) == len(dual_lowers.levels) == len(targets)
        for lower, upper, dual_lower, dual_upper in zip(
            lowers.levels, uppers.levels, reversed(dual_lowers.levels), reversed(dual_uppers.levels)
        ):
            assert lower == universe - dual_upper and upper == universe - dual_lower

    @given(drawn_tables())
    @settings(max_examples=20)
    def test_sensitivity_profile_sizes(self, case):
        table, chain, _, target, _ = case
        n = len(table.objects)
        records = sensitivity_profile(table, GradedFamily(chain), target)
        duals = sensitivity_profile(table, GradedFamily(chain), self._complement(table, target))
        assert len(records) == len(duals) == len(chain)
        for record, dual in zip(records, duals):
            assert (record.lower_size, record.upper_size) == (n - dual.upper_size, n - dual.lower_size)
