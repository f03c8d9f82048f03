import json
from functools import partial

import pytest
from hypothesis import given, settings

from gsets import (
    ApproximationPair,
    DomainError,
    FaultDistribution,
    GradedFamily,
    Interval,
    ParseError,
    Partition,
    SensitivityRecord,
    graded_fusion,
    granular_from_chain,
    random_graded,
    sensitivity_profile,
)
from gsets.formats import (
    approximation_pair_doc,
    dumps_canonical,
    fault_distribution_doc,
    fusion_result_doc,
    graded_family_doc,
    graded_intervals_doc,
    granular_set_doc,
    interval_distribution_doc,
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
    parse_table,
    partition_doc,
    sensitivity_profile_doc,
)
from strategies import intervals, table_with_attr_chain, tables

FIX = [Interval(0, 10), Interval(2, 8), Interval(4, 12)]


class TestParseIntervalsCsv:
    def test_basic_file(self):
        assert parse_intervals("lo,hi\n0,10\n2,8\n") == [Interval(0, 10), Interval(2, 8)]

    def test_reversed_row_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_intervals("lo,hi\n5,1\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_intervals("0,10\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_intervals("lo,hi\n0,1\n0,1,2\n")

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_intervals("lo,hi\nx,1\n")

    def test_whitespace_token_rejected(self):
        with pytest.raises(ParseError, match="whitespace"):
            parse_intervals("lo,hi\n 0,1\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_intervals("lo,hi\n-inf,1\n")

    def test_empty_file_has_no_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_intervals("")

    def test_header_only_gives_empty_list(self):
        assert parse_intervals("lo,hi\n") == []


class TestParseIntervalsJson:
    def test_basic(self):
        assert parse_intervals("[[4,8]]", "json") == [Interval(4, 8)]

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1, column"):
            parse_intervals("[[4,8]", "json")

    def test_non_array_top_level(self):
        with pytest.raises(ParseError, match="array"):
            parse_intervals("{}", "json")

    def test_bad_item_shape(self):
        with pytest.raises(ParseError, match="item 1"):
            parse_intervals("[[1,2,3]]", "json")

    def test_reversed_pair(self):
        with pytest.raises(ParseError, match="item 2"):
            parse_intervals("[[1,2],[5,1]]", "json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ParseError, match="unknown interval format"):
            parse_intervals("lo,hi\n", "tsv")


class TestParseTable:
    def test_fixture_table(self, fixtures_dir):
        table = parse_table((fixtures_dir / "sample_table.csv").read_text())
        assert len(table.objects) == 10 and len(table.attributes) == 5
        assert table.objects[0] == "O1" and table.objects[-1] == "O10"
        assert table.value("O9", "P5") == "2"

    def test_header_only_means_no_objects(self):
        with pytest.raises(ParseError, match="no objects"):
            parse_table("object,P1\n")

    def test_missing_cell_reported_at_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_table("object,P1,P2\nO1,0,1\nO2,0\n")

    def test_duplicate_attribute(self):
        with pytest.raises(ParseError, match="duplicate attribute"):
            parse_table("object,P1,P1\nO1,0,1\n")

    def test_duplicate_object(self):
        with pytest.raises(ParseError, match="duplicate object"):
            parse_table("object,P1\nO1,0\nO1,1\n")

    def test_first_header_field_pinned(self):
        with pytest.raises(ParseError, match="object"):
            parse_table("id,P1\nO1,0\n")

    def test_attributes_required(self):
        with pytest.raises(ParseError, match="no attributes"):
            parse_table("object\nO1\n")

    def test_whitespace_cell_rejected(self):
        with pytest.raises(ParseError, match="whitespace"):
            parse_table("object,P1\nO1, 0\n")

    def test_empty_cell_rejected(self):
        with pytest.raises(ParseError, match="empty cell"):
            parse_table("object,P1\nO1,\n")


class TestParseChain:
    def test_two_level_chain(self):
        chain = parse_graded_family('[["P_1"],["P_1","P_2"]]')
        assert chain.levels == (frozenset({"P_1"}), frozenset({"P_1", "P_2"}))

    def test_non_nested_rejected(self):
        with pytest.raises(DomainError, match="not nested"):
            parse_graded_family('[["P_1"],["P_2"]]')

    def test_single_empty_level_is_valid(self):
        chain = parse_graded_family("[[]]")
        assert chain.levels == (frozenset(),)

    def test_non_string_names_rejected(self):
        with pytest.raises(ParseError, match="name strings"):
            parse_graded_family("[[1]]")

    def test_empty_array_rejected(self):
        with pytest.raises(ParseError, match="nonempty"):
            parse_graded_family("[]")


class TestParseFaultDistribution:
    def test_basic(self):
        d = parse_fault_distribution('{"0":0.5,"1":0.5}')
        assert d.support == ((0, 0.5), (1, 0.5))

    def test_non_integer_key_rejected(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_fault_distribution('{"-1":1.0}')

    @pytest.mark.parametrize(
        "key", ["\u00b2", "\u0661", "\uff11"], ids=["superscript-2", "arabic-indic-1", "fullwidth-1"]
    )
    def test_non_ascii_digit_key_rejected(self, key):
        # str.isdigit accepts these; fault counts are ASCII decimal integers
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_fault_distribution(json.dumps({key: 1.0}))

    def test_bad_mass_is_a_domain_error(self):
        with pytest.raises(DomainError, match="sum"):
            parse_fault_distribution('{"0":0.5,"1":0.6}')

    def test_empty_object_rejected(self):
        with pytest.raises(ParseError, match="nonempty"):
            parse_fault_distribution("{}")


class TestCanonicalForm:
    def test_partition_example(self):
        p = Partition.from_blocks([["O1", "O2"], ["O3"]])
        assert dumps_canonical(partition_doc(p)) == '{"blocks":[["O1","O2"],["O3"]]}'

    def test_empty_level_renders_as_null(self):
        g = graded_fusion([Interval(0, 1), Interval(5, 6)], 0, 1)
        assert dumps_canonical(graded_intervals_doc(g)) == '{"f_min":0,"levels":[null,[0,6]]}'

    def test_distribution_atoms_sorted_by_endpoints(self):
        d = random_graded(FIX, FaultDistribution.from_dict({0: 0.5, 1: 0.3, 2: 0.2}))
        text = dumps_canonical(interval_distribution_doc(d))
        assert text.index("[0,12]") < text.index("[2,10]") < text.index("[4,8]")

    def test_integral_reals_render_as_integers(self):
        assert dumps_canonical(intervals_doc([Interval(4.0, 8.5)])) == "[[4,8.5]]"

    def test_block_presentation_order_does_not_matter(self):
        universe = ["O1", "O2", "O3"]
        a = Partition(universe, [["O3"], ["O1", "O2"]])
        b = Partition(universe, [["O2", "O1"], ["O3"]])
        assert dumps_canonical(partition_doc(a)) == dumps_canonical(partition_doc(b))

    def test_object_sets_follow_supplied_order(self):
        pair = ApproximationPair(frozenset({"O10", "O2"}), frozenset({"O10", "O2", "O9"}))
        order = [f"O{i}" for i in range(1, 11)]
        assert dumps_canonical(approximation_pair_doc(pair, order)) == (
            '{"lower":["O2","O10"],"upper":["O2","O9","O10"]}'
        )

    def test_object_sets_fall_back_to_lexicographic(self):
        pair = ApproximationPair(frozenset({"b", "a"}), frozenset({"b", "a", "c"}))
        assert dumps_canonical(approximation_pair_doc(pair)) == (
            '{"lower":["a","b"],"upper":["a","b","c"]}'
        )

    def test_unknown_id_in_supplied_order_rejected(self):
        pair = ApproximationPair(frozenset({"zz"}), frozenset({"zz"}))
        with pytest.raises(ParseError, match="not in the supplied order"):
            dumps_canonical(approximation_pair_doc(pair, ["O1"]))

    def test_no_insignificant_whitespace_and_sorted_keys(self):
        g = graded_fusion(FIX, 0, 1)
        text = dumps_canonical(graded_intervals_doc(g))
        assert " " not in text
        doc = json.loads(text)
        assert list(doc) == sorted(doc)


class TestRoundTrips:
    def test_fusion_result(self):
        for result in (None, Interval(2, 10), Interval(-1.5, 3.25)):
            assert parse_fusion_result(dumps_canonical(fusion_result_doc(result))) == result

    def test_graded_intervals(self):
        g = graded_fusion(FIX, 0, 2)
        assert parse_graded_intervals(dumps_canonical(graded_intervals_doc(g))) == g

    def test_interval_distribution(self):
        d = random_graded(FIX, FaultDistribution.from_dict({0: 0.25, 2: 0.75}))
        assert parse_interval_distribution(dumps_canonical(interval_distribution_doc(d))) == d

    def test_fault_distribution(self):
        d = FaultDistribution.from_dict({0: 0.5, 3: 0.5})
        assert parse_fault_distribution(dumps_canonical(fault_distribution_doc(d))) == d

    def test_partition(self):
        p = Partition.from_blocks([["O1", "O3"], ["O2"]])
        assert parse_partition(dumps_canonical(partition_doc(p))) == p

    def test_granular_set(self, sample_table, sample_chain_levels):
        g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
        assert parse_granular_set(dumps_canonical(granular_set_doc(g))) == g

    def test_graded_family(self):
        family = GradedFamily([{"b"}, {"a", "b"}])
        assert parse_graded_family(dumps_canonical(graded_family_doc(family))) == family

    def test_approximation_pair(self):
        pair = ApproximationPair(frozenset({"x"}), frozenset({"x", "y"}))
        assert parse_approximation_pair(dumps_canonical(approximation_pair_doc(pair))) == pair

    def test_sensitivity_profile(self, sample_table, sample_chain_levels):
        chain = GradedFamily(sample_chain_levels)
        records = sensitivity_profile(sample_table, chain, ["O1", "O2", "O3"])
        text = dumps_canonical(sensitivity_profile_doc(records))
        assert parse_sensitivity_profile(text) == records

    def test_intervals_via_json(self):
        items = [Interval(0, 10), Interval(2, 8), Interval(2, 8)]
        assert parse_intervals(dumps_canonical(intervals_doc(items)), "json") == items

    def test_serialized_bytes_are_stable_under_reparse(self, sample_table, sample_chain_levels):
        g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
        text = dumps_canonical(granular_set_doc(g))
        assert dumps_canonical(granular_set_doc(parse_granular_set(text))) == text

    @given(intervals())
    @settings(max_examples=100)
    def test_random_graded_chains(self, items):
        g = graded_fusion(items, 0, len(items) - 1)
        assert parse_graded_intervals(dumps_canonical(graded_intervals_doc(g))) == g

    @given(tables())
    @settings(max_examples=100)
    def test_random_partitions(self, table):
        from gsets import indiscernibility_partition

        p = indiscernibility_partition(table, table.attributes[:1])
        assert parse_partition(dumps_canonical(partition_doc(p))) == p

    @given(table_with_attr_chain())
    @settings(max_examples=100)
    def test_random_granular_sets(self, case):
        table, chain_levels = case
        g = granular_from_chain(table, GradedFamily(chain_levels))
        assert parse_granular_set(dumps_canonical(granular_set_doc(g))) == g


class TestParseRejections:
    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_intervals, "lo,hi\n5,1\n", "line 2: lower endpoint exceeds upper endpoint"),
            (parse_intervals, "lo,hi\n5\n", "line 2: expected 2 fields, got 1"),
            (
                partial(parse_intervals, fmt="json"), "[[5,1]]",
                "item 1: lower endpoint exceeds upper endpoint",
            ),
            (partial(parse_intervals, fmt="json"), "[[5]]", "item 1: expected [lo, hi]"),
            (parse_fusion_result, "[5,1]", "value: lower endpoint exceeds upper endpoint"),
            (parse_fusion_result, "[5]", "value: expected null or [lo, hi]"),
            (
                parse_graded_intervals, '{"f_min":0,"levels":[true]}',
                "level 1: expected null or [lo, hi]",
            ),
        ],
    )
    def test_interval_messages_name_the_source(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_graded_intervals_requires_exact_keys(self):
        with pytest.raises(ParseError, match="f_min"):
            parse_graded_intervals('{"levels":[]}')

    def test_interval_distribution_requires_atoms(self):
        with pytest.raises(ParseError, match="atoms"):
            parse_interval_distribution('{"weights":[]}')

    def test_partition_requires_blocks(self):
        with pytest.raises(ParseError, match="blocks"):
            parse_partition('{"cells":[]}')

    def test_granular_set_requires_levels(self):
        with pytest.raises(ParseError, match="levels"):
            parse_granular_set('{"blocks":[]}')

    def test_approximation_pair_requires_both_sides(self):
        with pytest.raises(ParseError, match="lower"):
            parse_approximation_pair('{"lower":[]}')

    def test_sensitivity_profile_field_types(self):
        record = SensitivityRecord(0, 1, 2, 4, 2, 0.5)
        doc = json.loads(dumps_canonical(sensitivity_profile_doc([record])))
        doc[0]["lower_size"] = "2"
        with pytest.raises(ParseError, match="integer"):
            parse_sensitivity_profile(dumps_canonical(doc))

    def test_invalid_lower_upper_pair_is_domain_error(self):
        with pytest.raises(DomainError, match="inside the upper"):
            parse_approximation_pair('{"lower":["a"],"upper":["b"]}')
