import json
import random
from functools import partial
from itertools import groupby
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced
from gsets import (
    ApproximationPair,
    DomainError,
    FaultDistribution,
    GradedFamily,
    GranularSet,
    Interval,
    IntervalDistribution,
    ParseError,
    Partition,
    SensitivityRecord,
    SimConfig,
    SimOutcome,
    graded_fusion,
    granular_from_chain,
    random_graded,
    sensitivity_profile,
    simulate_rounds,
)
from gsets import formats, simulate
from gsets.formats import (
    _token,
    approximation_pair_doc,
    dumps_canonical,
    fault_distribution_doc,
    fusion_result_doc,
    graded_family_doc,
    granular_set_chunks,
    graded_intervals_chunks,
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
    parse_table,
    partition_doc,
    sensitivity_profile_doc,
    simulation_chunks,
)
from references import (
    graded_intervals_document,
    granular_set_document,
    interval_distribution_document,
    simulation_report,
)
from strategies import block_labelings, grid_values, intervals, table_with_attr_chain, tables

FIX = [Interval(0, 10), Interval(2, 8), Interval(4, 12)]
GRANULAR_SHAPE = "expected an object with 'granular': true and a 'levels' array"


# every line boundary of str.splitlines, with "\r\n" as one
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLines:
    @given(
        text=st.lists(st.sampled_from(_LINE_BREAKS) | st.text("ab,", max_size=3), max_size=12).map("".join),
        block=st.integers(1, 8),
    )
    @settings(max_examples=500)
    @example(text="", block=1)
    @example(text="a\r\n\r\nb", block=2)
    @example(text="\n\n\n", block=1)
    @example(text="no final newline", block=3)
    def test_blocks_split_as_splitlines(self, text, block):
        # blocks of 1-8 characters put "\r\n" pairs and empty lines on block edges
        with patch.object(formats, "_BLOCK", block):
            assert list(formats._lines(text)) == text.splitlines()


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

    @pytest.mark.parametrize("text, fmt", [("lo,hi\n-0,4\n4,4e0\n", "csv"), ("[[-0.0,4],[4,4e0]]", "json")])
    def test_parsed_intervals_hold_floats_like_checked_ones(self, text, fmt):
        # the parser checks each pair itself and builds the interval unchecked
        for parsed, twin in zip(parse_intervals(text, fmt), [Interval(-0.0, 4), Interval(4, 4)], strict=True):
            assert type(parsed.lo) is float and type(parsed.hi) is float
            assert repr(parsed) == repr(twin) and hash(parsed) == hash(twin)


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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("O2,,1", "line 3: empty cell"),
            ("O2,0,1 ", "line 3: token '1 ' has surrounding whitespace"),
            ("O2,\t0,1", "line 3: token '\\t0' has surrounding whitespace"),
            ("O2,0\u00a0,1", "line 3: token '0\\xa0' has surrounding whitespace"),
            ("\u00a0O2,0,1", "line 3: token '\\xa0O2' has surrounding whitespace"),
            # the first defect of the row is named, not the first kind of defect
            ("O2, 0,", "line 3: token ' 0' has surrounding whitespace"),
        ],
        ids=["empty", "ascii-space", "tab", "nbsp-after", "nbsp-before", "first-defect"],
    )
    def test_cell_defect_message(self, row, message):
        with pytest.raises(ParseError) as info:
            parse_table(f"object,P1,P2\nO1,0,1\n{row}\n")
        assert str(info.value) == message

    def test_internal_whitespace_is_part_of_the_token(self):
        table = parse_table("object,P1,P2\nO 1,a b,c\u00a0d\n")
        assert table.objects == ("O 1",)
        assert table.rows == (("a b", "c\u00a0d"),)

    @settings(max_examples=300)
    @given(st.lists(st.lists(st.sampled_from(["", "a", "b c", " a", "a ", "\u00a0", "x\u00a0y"]),
                             min_size=2, max_size=2), min_size=1, max_size=6))
    def test_matches_a_per_cell_scan(self, cells):
        # reference: every cell of every row through the one token check, in
        # order; with three fields a line and distinct ids no other defect arises
        lines = ["object,P1,P2"] + [",".join([f"O{i}", *row]) for i, row in enumerate(cells)]
        text = "\n".join(lines) + "\n"
        expected = _table_error_by_line(lines)
        if expected is None:
            assert parse_table(text).rows == tuple(map(tuple, cells))
        else:
            with pytest.raises(ParseError) as info:
                parse_table(text)
            assert str(info.value) == expected


def _table_error_by_line(lines):
    """The first defect of a table body, checking line by line in order: the
    field count, then each cell, then the object id (None when there is none)."""
    width, seen = len(lines[0].split(",")), set()
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != width:
                raise ParseError(f"line {n}: expected {width} fields, got {len(fields)}")
            for field in fields:
                _token(field, f"line {n}")
        except ParseError as exc:
            return str(exc)
        if fields[0] in seen:
            return f"line {n}: duplicate object id {fields[0]!r}"
        seen.add(fields[0])
    return None


class TestParseTableBatches:
    """Rows are coded a batch at a time; the first defect in line order is
    still the one named, wherever the batches break."""

    N = 1300  # lines 2..1301: six batches of up to 256 rows

    def _lines(self):
        return ["object,P1,P2"] + [f"o{i},{i % 2},{i % 7}" for i in range(self.N)]

    @pytest.mark.parametrize(
        "edits",
        [
            {700: "o5,1,1"},  # a duplicate of an object of the first batch
            {700: "o5,1,1", 701: "o701,1"},  # the duplicate comes first
            {701: "o701,1", 702: "o5,1,1"},  # the short line comes first
            {514: "o512,,1"},  # the first line of the third batch
            {513: "o511,1, 2", 514: "o512"},  # the last line of the second batch
            {1000: "o998,1,1", 1200: "o1198,0 ,1"},
            {1301: "o1299,1,2,3"},  # the last line
            {600: "o 598,1,1", 900: "o\u00a0898,1,x y"},  # inner whitespace only: no defect
        ],
    )
    def test_first_defect_in_line_order(self, edits):
        lines = self._lines()
        for n, line in edits.items():
            lines[n - 1] = line
        text = "\n".join(lines) + "\n"
        expected = _table_error_by_line(lines)
        if expected is None:
            table = parse_table(text)
            assert table.rows == tuple(tuple(line.split(",")[1:]) for line in lines[1:])
            assert table.objects == tuple(line.split(",")[0] for line in lines[1:])
        else:
            with pytest.raises(ParseError) as info:
                parse_table(text)
            assert str(info.value) == expected

    def test_held_and_peak_bytes_per_cell(self):
        # 20000 x 12 cells of two characters: the codes take one byte a cell,
        # and the rest is per object.  A table of one str per cell in a tuple
        # per row held about 72 B a cell here and peaked at about 100 B.
        n, cards = 20_000, (2, 3, 4, 5) * 3
        rng = random.Random(7)
        tokens = [[f"{chr(97 + j)}{v}" for v in range(card)] for j, card in enumerate(cards)]
        header = ",".join(["object", *(f"A{j}" for j in range(len(cards)))])
        text = "\n".join([header, *(",".join([f"o{i}", *map(rng.choice, tokens)]) for i in range(n))]) + "\n"
        table, held, peak = traced(lambda: parse_table(text))
        cells = n * len(cards)
        assert len(table.objects) == n
        assert held <= 16 * cells, f"{held / cells:.1f} bytes held per cell"
        assert peak <= 32 * cells, f"{peak / cells:.1f} bytes peak per cell"


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

    @pytest.mark.parametrize("text", ['{"0":0.5,"0":1}', '{"0":0.5,"0":0.5}', '{"0":0.5,"00":0.5}'],
                             ids=["last-would-win", "masses-sum-to-one", "leading-zero"])
    def test_a_repeated_fault_count_is_rejected(self, text):
        # json.loads alone keeps the last of two equal keys and drops the first mass
        with pytest.raises(DomainError, match="^duplicate fault count in distribution$"):
            parse_fault_distribution(text)

    @pytest.mark.parametrize("text, message", [
        ('{"0":{"a":1}}', "fault count 0: expected a number, got {'a': 1}"),
        ('{"0":{"a":1,"a":2}}', "fault count 0: expected a number, got {'a': 2}"),
        ('{"0":0.5,"0":1', "line 1, column 15: invalid JSON: Expecting ',' delimiter"),
    ], ids=["nested-object", "nested-repeated-key", "syntax-error-after-a-repeat"])
    def test_repeats_leave_the_other_messages_as_they_were(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_fault_distribution(text)
        assert str(info.value) == message


class TestCanonicalForm:
    def test_partition_example(self):
        p = Partition.from_blocks([["O1", "O2"], ["O3"]])
        assert dumps_canonical(partition_doc(p)) == '{"blocks":[["O1","O2"],["O3"]]}'

    def test_empty_level_renders_as_null(self):
        g = graded_fusion([Interval(0, 1), Interval(5, 6)], 0, 1)
        assert "".join(graded_intervals_chunks(g)) == '{"f_min":0,"levels":[null,[0,6]]}'

    def test_distribution_atoms_sorted_by_endpoints(self):
        d = random_graded(FIX, FaultDistribution({0: 0.5, 1: 0.3, 2: 0.2}.items()))
        text = "".join(interval_distribution_chunks(d))
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

    def test_non_string_names_rejected(self):
        p = Partition([1, 2], [[1], [2]])
        with pytest.raises(ParseError) as info:
            partition_doc(p)
        assert str(info.value) == "partition block: expected an array of name strings"
        # a universe that mixes a name string with a number, over two levels
        g = GranularSet([Partition(["a", 1], [["a"], [1]]), Partition(["a", 1], [["a", 1]])])
        # granulate's text, before its first chunk
        with pytest.raises(ParseError) as info:
            next(granular_set_chunks(g))
        assert str(info.value) == "partition block: expected an array of name strings"
        with pytest.raises(ParseError) as info:
            approximation_pair_doc(ApproximationPair({1, 2}, {1, 2}))
        assert str(info.value) == "object set: expected an array of name strings"

    def test_rough_documents_check_names_once_per_universe(self, monkeypatch, sample_table, sample_chain_levels):
        calls = []
        monkeypatch.setattr(formats, "_names", lambda value, where: calls.append(where) or value)
        g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
        partition_doc(g.levels[0])
        list(granular_set_chunks(g))
        assert calls == ["partition block"] * 2

    def test_one_position_map_per_document(self):
        class Order(tuple):
            reads = 0

            def __iter__(self):
                Order.reads += 1
                return super().__iter__()

        order = Order(f"O{i}" for i in range(1, 11))
        family = GradedFamily([{"O2"}, {"O2", "O1"}, {"O3", "O2", "O1"}])
        assert graded_family_doc(family, order) == [["O2"], ["O1", "O2"], ["O1", "O2", "O3"]]
        assert Order.reads == 1
        pair = ApproximationPair(frozenset({"O10"}), frozenset({"O10", "O9"}))
        assert approximation_pair_doc(pair, order) == {"lower": ["O10"], "upper": ["O9", "O10"]}
        assert Order.reads == 2

    def test_no_insignificant_whitespace_and_sorted_keys(self):
        g = graded_fusion(FIX, 0, 1)
        text = "".join(graded_intervals_chunks(g))
        assert " " not in text
        doc = json.loads(text)
        assert list(doc) == sorted(doc)


class TestRoundTrips:
    def test_fusion_result(self):
        for result in (None, Interval(2, 10), Interval(-1.5, 3.25)):
            assert parse_fusion_result(dumps_canonical(fusion_result_doc(result))) == result

    def test_graded_intervals(self):
        g = graded_fusion(FIX, 0, 2)
        assert parse_graded_intervals("".join(graded_intervals_chunks(g))) == g

    def test_interval_distribution(self):
        d = random_graded(FIX, FaultDistribution({0: 0.25, 2: 0.75}.items()))
        assert parse_interval_distribution("".join(interval_distribution_chunks(d))) == d

    def test_fault_distribution(self):
        d = FaultDistribution({0: 0.5, 3: 0.5}.items())
        assert parse_fault_distribution(dumps_canonical(fault_distribution_doc(d))) == d

    def test_partition(self):
        p = Partition.from_blocks([["O1", "O3"], ["O2"]])
        assert parse_partition(dumps_canonical(partition_doc(p))) == p

    def test_granular_set(self, sample_table, sample_chain_levels):
        g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
        assert parse_granular_set("".join(granular_set_chunks(g))) == g

    def test_granular_set_parse_builds_no_element_index(self, sample_table, sample_chain_levels):
        # each parsed level has its own universe order, so the refinement
        # check reads coarser labels by element; it builds no frozenset per block
        g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
        parsed = parse_granular_set("".join(granular_set_chunks(g)))
        assert len({level.universe for level in parsed.levels}) > 1
        assert all("_index" not in level.__dict__ for level in parsed.levels)

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
        text = "".join(granular_set_chunks(g))
        assert "".join(granular_set_chunks(parse_granular_set(text))) == text

    @given(intervals())
    @settings(max_examples=100)
    def test_random_graded_chains(self, items):
        g = graded_fusion(items, 0, len(items) - 1)
        assert parse_graded_intervals("".join(graded_intervals_chunks(g))) == g

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
        assert parse_granular_set("".join(granular_set_chunks(g))) == g


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
            (partial(parse_intervals, fmt="json"), '[["a",1]]', "item 1: expected a number, got 'a'"),
            (parse_graded_intervals, '{"f_min":"0","levels":[]}', "'f_min' must be an integer"),
            (parse_graded_intervals, '{"f_min":0,"levels":{}}', "'levels' must be an array"),
            (parse_interval_distribution, '{"atoms":[{"p":1}]}', "atom 1: expected an object with keys 'p' and 'result'"),
        ],
        # the ids pytest built from the texts and messages before they were written out, so a
        # reworded message keeps them
        ids=[
            "parse_intervals-lo,hi\n5,1\n-line 2: lower endpoint exceeds upper endpoint",
            "parse_intervals-lo,hi\n5\n-line 2: expected 2 fields, got 1",
            "parse2-[[5,1]]-item 1: lower endpoint exceeds upper endpoint",
            "parse3-[[5]]-item 1: expected [lo, hi]",
            "parse_fusion_result-[5,1]-value: lower endpoint exceeds upper endpoint",
            "parse_fusion_result-[5]-value: expected null or [lo, hi]",
            'parse_graded_intervals-{"f_min":0,"levels":[true]}-level 1: expected null or [lo, hi]',
            "parse7-[[\"a\",1]]-item 1: expected a number, got 'a'",
            'parse_graded_intervals-{"f_min":"0","levels":[]}-\'f_min\' must be an integer',
            'parse_graded_intervals-{"f_min":0,"levels":{}}-\'levels\' must be an array',
            'parse_interval_distribution-{"atoms":[{"p":1}]}-atom 1: expected an object with keys \'p\' and \'result\'',
        ],
    )
    def test_interval_messages_name_the_source(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            # a spreadsheet export's UTF-8 byte-order mark
            (parse_intervals, "\ufefflo,hi\n0,1\n", "line 1: header must be 'lo,hi', got '\\ufefflo,hi'"),
            (parse_intervals, "lo,hi," + "x" * 60 + "\n", "line 1: header must be 'lo,hi', got 'lo,hi," + "x" * 33),
            (parse_intervals, "", "line 1: header must be 'lo,hi'"),
            (
                parse_table, "\ufeffobject,P1\nO1,0\n",
                "line 1: first header field must be 'object', got '\\ufeffobject'",
            ),
            (parse_table, "o" * 60 + ",P1\nO1,0\n", "line 1: first header field must be 'object', got '" + "o" * 39),
        ],
        ids=["intervals-bom", "intervals-long", "intervals-empty", "table-bom", "table-long"],
    )
    def test_header_messages_show_what_was_read(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

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

    @pytest.mark.parametrize(
        "text, message",
        [
            # the shape granulate writes, and the only one read
            ('{"granular":true,"levels":[{"blocks":[["a"]]}]}', None),
            # the unmarked shape of earlier versions
            ('{"levels":[{"blocks":[["a"]]}]}', GRANULAR_SHAPE),
            ('{"levels":[{"blocks":[["a"]]}],"junk":1}', GRANULAR_SHAPE),
            ('{"granular":false,"levels":[{"blocks":[["a"]]}]}', GRANULAR_SHAPE),
            ('{"granular":1,"levels":[{"blocks":[["a"]]}]}', GRANULAR_SHAPE),
            ('{"granular":true,"junk":1,"levels":[]}', GRANULAR_SHAPE),
            ('{"granular":true}', GRANULAR_SHAPE),
            ('{"granular":true,"levels":{}}', GRANULAR_SHAPE),
            ('[]', GRANULAR_SHAPE),
        ],
        ids=[
            "levels-granular", "levels", "extra-key", "granular-false", "granular-one", "both-and-extra", "no-levels",
            "levels-not-array", "not-an-object",
        ],
    )
    def test_granular_set_keys_are_levels_and_the_granulate_marker(self, text, message):
        if message is None:
            assert parse_granular_set(text) == GranularSet([Partition.from_blocks([["a"]])])
        else:
            with pytest.raises(ParseError) as info:
                parse_granular_set(text)
            assert str(info.value) == message

    def test_approximation_pair_requires_both_sides(self):
        with pytest.raises(ParseError, match="lower"):
            parse_approximation_pair('{"lower":[]}')

    def test_sensitivity_profile_field_types(self):
        record = SensitivityRecord(0, 1, 2, 4, 2, 0.5)
        doc = json.loads(dumps_canonical(sensitivity_profile_doc([record])))
        doc[0]["lower_size"] = "2"
        with pytest.raises(ParseError, match="integer"):
            parse_sensitivity_profile(dumps_canonical(doc))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{}", "expected an array of sensitivity records"),
            (
                '[{"level_index":0}]',
                "record 1: expected keys accuracy, attribute_count, boundary_size, level_index, lower_size, upper_size",
            ),
        ],
        ids=["not-an-array", "wrong-keys"],
    )
    def test_sensitivity_profile_shape(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_sensitivity_profile(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (partial(parse_intervals, fmt="json"), "[[1e999999,2]]", "item 1: non-finite value"),
            (
                partial(parse_intervals, fmt="json"), "[[" + "9" * 400 + ",2]]",
                "item 1: integer out of the range of a real",
            ),
            (parse_fault_distribution, '{"0":' + "9" * 400 + "}", "fault count 0: integer out of the range of a real"),
            (parse_fault_distribution, '{"' + "9" * 5000 + '":1}', "fault count has too many digits (5000)"),
            (parse_graded_family, "[[" + "9" * 5000 + "]]", "invalid JSON: integer with too many digits"),
        ],
        ids=["float-overflow", "int-overflow", "pmf-int-overflow", "long-count", "long-int"],
    )
    def test_numbers_past_a_real_or_the_digit_limit(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (
                parse_approximation_pair, '{"lower":["a"],"upper":["a"],"upper":["a","b"]}',
                "expected an object with keys 'lower' and 'upper'",
            ),
            (
                parse_graded_intervals, '{"f_min":0,"levels":[null],"f_min":1}',
                "expected an object with keys 'f_min' and 'levels'",
            ),
            (
                parse_interval_distribution, '{"atoms":[{"p":0.5,"p":1,"result":[0,1]}]}',
                "atom 1: expected an object with keys 'p' and 'result'",
            ),
            (parse_partition, '{"blocks":[["a"]],"blocks":[["b"]]}', "value: expected an object with a 'blocks' array"),
            (
                parse_granular_set, '{"granular":true,"levels":[{"blocks":[["a"]]}],"granular":true}',
                GRANULAR_SHAPE,
            ),
            (
                parse_sensitivity_profile,
                '[{"accuracy":1,"attribute_count":1,"boundary_size":0,"level_index":0,"lower_size":2,"upper_size":2,'
                '"lower_size":1}]',
                "record 1: expected keys accuracy, attribute_count, boundary_size, level_index, lower_size, upper_size",
            ),
        ],
        ids=["approximation-pair", "graded-intervals", "interval-distribution", "partition", "granular-set",
             "sensitivity-profile"],
    )
    def test_a_repeated_key_is_rejected(self, parse, text, message):
        # json.loads alone keeps the last of two equal keys without a word
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_invalid_lower_upper_pair_is_domain_error(self):
        with pytest.raises(DomainError, match="inside the upper"):
            parse_approximation_pair('{"lower":["a"],"upper":["b"]}')


class TestGranularSetChunks:
    @given(table_with_attr_chain())
    @settings(max_examples=200)
    def test_chunks_join_to_the_marked_document(self, case):
        table, chain_levels = case
        g = granular_from_chain(table, GradedFamily(chain_levels))
        chunks = list(granular_set_chunks(g))
        assert "".join(chunks) == dumps_canonical(granular_set_document(g))
        # the opening, one chunk per level, the close
        assert len(chunks) == len(g.levels) + 2

    @given(block_labelings(max_size=12), st.data())
    @settings(max_examples=100)
    def test_levels_over_a_universe_in_any_order(self, case, data):
        universe, blocks = case
        order = data.draw(st.permutations(universe))
        g = GranularSet([Partition(order, blocks), Partition(order, [universe])])
        assert "".join(granular_set_chunks(g)) == dumps_canonical(granular_set_document(g))

    def test_one_level_is_grouped_at_a_time(self, monkeypatch, sample_table, sample_chain_levels):
        g = granular_from_chain(sample_table, GradedFamily(sample_chain_levels))
        events = []
        groups = Partition._groups
        dumps = formats.dumps_canonical
        monkeypatch.setattr(Partition, "_groups", lambda self: events.append("group") or groups(self))
        monkeypatch.setattr(formats, "dumps_canonical", lambda doc: events.append("render") or dumps(doc))
        text = "".join(granular_set_chunks(g))
        assert events == ["group", "render"] * len(g.levels)
        monkeypatch.undo()
        assert text == dumps_canonical(granular_set_document(g))


# -0.0 and its twin 0.0, integral reals on both sides of 2**53, and an empty result
_edge_intervals = st.lists(
    st.sampled_from([-0.0, 0.0, 0.5, -3.0, 2.0**53, 2.0**53 + 2, -(2.0**53) - 2, 2.0**60, 1e300]) | grid_values,
    min_size=2,
    max_size=2,
).map(lambda ends: Interval(min(ends), max(ends)))
_edge_results = st.one_of(st.none(), _edge_intervals)


class TestIntervalDistributionChunks:
    @pytest.mark.parametrize("count", [0, 1, 40])
    @given(results=st.lists(_edge_results, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=60)
    def test_chunks_join_to_the_document_with_its_samples(self, count, results, data):
        d = IntervalDistribution([(r, 1 / len(results)) for r in results])
        atoms = [r for r, _ in d.atoms]
        # a draw equal to an atom is written as the atom is, -0.0 as 0
        draws = data.draw(st.lists(st.sampled_from(atoms + results), min_size=count, max_size=count))
        chunks = list(interval_distribution_chunks(d, draws))
        assert "".join(chunks) == dumps_canonical(interval_distribution_document(d, draws))
        # the opening, the atoms, the samples' opening, the draws (a batch of up to 256), the close
        assert len(chunks) == 4 + (count > 0)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    @given(results=st.lists(_edge_results, min_size=1, max_size=12), draws=st.integers(0, 11))
    @settings(max_examples=40)
    def test_batches_join_to_the_document(self, batch, results, draws):
        d = IntervalDistribution([(r, 1 / len(results)) for r in results])
        drawn = results[:draws]
        with patch.object(formats, "_BATCH", batch):
            assert "".join(interval_distribution_chunks(d)) == dumps_canonical(interval_distribution_document(d))
            text = "".join(interval_distribution_chunks(d, drawn))
            assert text == dumps_canonical(interval_distribution_document(d, drawn))


class TestGradedIntervalsChunks:
    @pytest.mark.parametrize("batch", [1, 3, formats._BATCH])
    @given(items=st.lists(_edge_intervals, min_size=1, max_size=10), data=st.data())
    @settings(max_examples=60)
    def test_chunks_join_to_the_document(self, batch, items, data):
        f_min = data.draw(st.integers(0, len(items) - 1))
        g = graded_fusion(items, f_min, data.draw(st.integers(f_min, len(items) - 1)))
        with patch.object(formats, "_BATCH", batch):
            chunks = list(graded_intervals_chunks(g))
        assert "".join(chunks) == dumps_canonical(graded_intervals_document(g))
        # the opening, one chunk per batch of levels, the close
        assert len(chunks) == -(-len(g.levels) // batch) + 2


def _drawn(config: SimConfig, rounds: int):
    """The writer's input: the simulator's rounds in plain floats."""
    return simulate._draw_rounds(config, range(rounds))


def _float_round(items, faulty, truth):
    """A round of given measurements in the writer's input form, and as a SimOutcome."""
    los, his = [iv.lo for iv in items], [iv.hi for iv in items]
    lo_order = sorted(range(len(items)), key=los.__getitem__, reverse=True)
    hi_order = sorted(range(len(items)), key=his.__getitem__)
    containment = [los[i] <= truth <= his[j] for i, j in zip(lo_order, hi_order)]
    empty = [los[i] > his[j] for i, j in zip(lo_order, hi_order)]
    outcome = SimOutcome(tuple(items), frozenset(faulty), graded_fusion(items, 0, len(items) - 1), tuple(containment))
    # the sorts put the levels that miss the truth first, and the empty ones first among those
    return (los, his, sorted(faulty), lo_order, hi_order, containment.count(False), empty.count(True)), outcome


def _permute_ties(order, ends, data):
    """`order` with the indices of each run of equal endpoints (-0.0 and 0.0 alike) in a drawn order."""
    out = []
    for _, run in groupby(order, key=ends.__getitem__):
        out += data.draw(st.permutations(list(run)))
    return out


# few distinct ends, so that ties are common: -0.0 against 0.0, and integral reals on both sides of 2**53
_tied_intervals = st.lists(
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 2.0**53, 2.0**53 + 2, 1e300]), min_size=2, max_size=2
).map(lambda ends: Interval(min(ends), max(ends)))


class TestSimulationChunks:
    @pytest.mark.parametrize("rounds", [0, 1, 4])
    # integral reals are rendered as integers
    @pytest.mark.parametrize("truth, rendered", [(0.1, 0.1), (3.0, 3), (-1e6, -1000000)])
    def test_chunks_join_to_the_canonical_report(self, rounds, truth, rendered):
        config = SimConfig(5, truth, 1.5, 2, 2.5, 9)
        report = simulation_report(config, simulate_rounds(config, rounds))
        assert report["config"] == {
            "sensors": 5, "truth": rendered, "halfwidth": 1.5, "faulty": 2, "offset": 2.5, "seed": 9,
        }
        chunks = list(simulation_chunks(config, _drawn(config, rounds)))
        assert "".join(chunks) == dumps_canonical(report)
        # the configuration, one batch of up to 21 rounds with its separator, the close
        assert len(chunks) == 1 + (rounds > 0) + 1

    @pytest.mark.parametrize(
        "rounds, numbers",
        [(lambda b: b - 1, formats._BATCH), (lambda b: b, formats._BATCH), (lambda b: b + 1, formats._BATCH),
         (lambda b: 2 * b + 1, formats._BATCH), (lambda b: 2 * b + 1, 64)],
        ids=["b-1", "b", "b+1", "2b+1", "2b+1-batch64"],
    )
    def test_batches_join_to_the_canonical_report(self, rounds, numbers):
        config = SimConfig(9, 0.25, 1.0, 3, 2.5, 5)
        # 12 rounds of 18 endpoints and 3 faulty indices, or 3 under a 64-number batch
        batch = numbers // (2 * 9 + 3)
        rounds = rounds(batch)
        with patch.object(formats, "_BATCH", numbers):
            chunks = list(simulation_chunks(config, _drawn(config, rounds)))
        assert "".join(chunks) == dumps_canonical(simulation_report(config, simulate_rounds(config, rounds)))
        # the configuration, one chunk per batch, each after its separator, the close
        assert len(chunks) == 2 + -(-rounds // batch)
        assert all(chunk.startswith(',{"contains_truth":') for chunk in chunks[2:-1])

    # 235 numbers a round, so one fits in a batch; 352, past the batch, so the floor of one round holds
    @pytest.mark.parametrize("sensors, faulty", [(101, 33), (151, 50)])
    def test_a_round_of_many_numbers_is_a_chunk_of_its_own(self, sensors, faulty):
        config = SimConfig(sensors, 0.0, 1.0, faulty, 2.5, 3)
        chunks = list(simulation_chunks(config, _drawn(config, 3)))
        assert "".join(chunks) == dumps_canonical(simulation_report(config, simulate_rounds(config, 3)))
        # the configuration, one chunk per round, the close
        assert len(chunks) == 2 + 3

    def test_fused_endpoints_render_as_the_measurements_do(self):
        # each fused endpoint's text is the rendered measurement of the sensor the sort orders name:
        # ties, -0.0 against 0.0, and integral reals on both sides of 2**53 must all come out
        # as the document builders render them; a round whose raw text has a ".0" is re-rendered
        big = 2.0**53
        rounds = [
            _float_round(
                (Interval(-0.0, 0.0), Interval(0.0, 2.0), Interval(-0.0, big), Interval(2.0, big + 2.0),
                 Interval(0.5, big + 2.0), Interval(-3.5, 0.0), Interval(1e300, 1e300), Interval(-0.0, 1e300)),
                {6, 0}, 0.0,
            ),
            # no integral endpoint: the raw text stands
            _float_round((Interval(0.25, 0.75), Interval(-1.5, 0.5), Interval(2.5e-300, 0.25)), {1}, 0.5),
            # integral only past 1e16, whose shortest form has no ".0"
            _float_round((Interval(-(2.0**60), 1e300), Interval(2.0**60, 2.0**60)), set(), 0.0),
            _float_round((Interval(-0.0, -0.0),), set(), 0.0),
            # the one integral endpoint is the round's last, before its faulty index
            _float_round((Interval(0.25, 0.5), Interval(0.5, 2.0)), {0}, 1.0),
            # the one integral endpoint is an upper end inside the round
            _float_round((Interval(0.25, 2.0), Interval(0.5, 2.5)), set(), 1.0),
        ]
        config = SimConfig(8, -0.0, 1.0, 2, 2.5, 0)
        chunks = list(simulation_chunks(config, [drawn for drawn, _ in rounds]))
        # one batch holds rounds of other sizes than the configuration's, re-rendered or not
        assert len(chunks) == 3
        text = "".join(chunks)
        assert text == dumps_canonical(simulation_report(config, [outcome for _, outcome in rounds]))
        assert '"fused":{"f_min":0,"levels":[null,' in text and "[0,9007199254740994.0]" in text
        assert '"intervals":[[0.25,0.75],[-1.5,0.5],[2.5e-300,0.25]]' in text
        assert '"intervals":[[0.25,0.5],[0.5,2]]' in text and '"intervals":[[0.25,2],[0.5,2.5]]' in text
        assert '"intervals":[[-1.152921504606847e+18,1e+300],[1.152921504606847e+18,1.152921504606847e+18]]' in text

    def test_an_integral_last_number_alone_is_re_rendered(self):
        # the last upper endpoint ends the round's measurements, so its ".0" is followed by no comma
        # and no bracket
        drawn, outcome = _float_round((Interval(0.25, 0.5), Interval(0.5, 2.0)), set(), 1.0)
        config = SimConfig(2, 1.0, 1.0, 0, 2.5, 0)
        text = "".join(simulation_chunks(config, [drawn]))
        assert text == dumps_canonical(simulation_report(config, [outcome]))
        assert '"intervals":[[0.25,0.5],[0.5,2]]' in text

    @settings(max_examples=200)
    @given(st.lists(st.lists(_edge_intervals, min_size=1, max_size=8), min_size=1, max_size=5), st.floats(-10.0, 10.0))
    def test_edge_endpoints_match_the_reference_report(self, rounds, truth):
        # up to five rounds of any size in one batch, each with every other sensor faulty
        rounds = [_float_round(items, set(range(0, len(items), 2)), truth) for items in rounds]
        config = SimConfig(8, truth, 1.0, 0, 2.5, 0)
        text = "".join(simulation_chunks(config, [drawn for drawn, _ in rounds]))
        assert text == dumps_canonical(simulation_report(config, [outcome for _, outcome in rounds]))

    @settings(max_examples=200)
    @given(st.lists(st.lists(_tied_intervals, min_size=1, max_size=8), min_size=1, max_size=4),
           st.sampled_from([-0.0, 0.0, 0.5, 2.0]), st.data())
    def test_tie_order_does_not_change_the_bytes(self, rounds, truth, data):
        # the kernel's sorts are stable, but the writer must not lean on it: any order among sensors
        # with equal endpoints names equal reals, and equal reals render alike
        rounds = [_float_round(items, set(range(1, len(items), 2)), truth) for items in rounds]
        permuted = [(los, his, faulty, _permute_ties(lo_order, los, data), _permute_ties(hi_order, his, data), missing,
                     empty)
                    for (los, his, faulty, lo_order, hi_order, missing, empty), _ in rounds]
        config = SimConfig(8, truth, 1.0, 0, 2.5, 0)
        text = "".join(simulation_chunks(config, permuted))
        assert text == dumps_canonical(simulation_report(config, [outcome for _, outcome in rounds]))

    @settings(max_examples=30, deadline=None)
    @given(
        sensors=st.integers(1, 150),
        truth=st.integers(-(10**6), 10**6),
        halfwidth=st.integers(1, 4),
        data=st.data(),
    )
    def test_seeded_rounds_match_the_reference_report(self, sensors, truth, halfwidth, data):
        config = SimConfig(
            sensors, float(truth), float(halfwidth), data.draw(st.integers(0, sensors - 1)),
            float(halfwidth + data.draw(st.integers(1, 10))), data.draw(st.integers(0, 2**64 - 1)),
        )
        text = "".join(simulation_chunks(config, _drawn(config, 3)))
        assert text == dumps_canonical(simulation_report(config, simulate_rounds(config, 3)))
