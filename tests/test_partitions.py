import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import traced
from gsets import (
    DomainError,
    GranularSet,
    InformationTable,
    Partition,
    indiscernibility_partition,
    refines,
    validate_granular,
)
from references import refines_by_definition
from strategies import block_labelings


def part(*blocks):
    return Partition.from_blocks([list(b) for b in blocks])


class TestPartitionConstruction:
    def test_blocks_normalized_to_universe_order(self):
        p = Partition(["b", "a", "c"], [["c"], ["a", "b"]])
        assert p.universe == ("b", "a", "c")
        # within a block: universe order; blocks: by first element position
        assert p.blocks == (("b", "a"), ("c",))

    def test_from_blocks_takes_universe_from_appearance_order(self):
        p = part(["x", "y"], ["z"])
        assert p.universe == ("x", "y", "z")

    def test_duplicate_universe_element_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            Partition(["a", "a"], [["a", "a"]])

    def test_empty_block_rejected(self):
        with pytest.raises(DomainError, match="empty block"):
            Partition(["a"], [["a"], []])

    def test_unknown_block_element_rejected(self):
        with pytest.raises(DomainError, match="not in the universe"):
            Partition(["a"], [["a", "b"]])

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(DomainError, match="more than one block"):
            Partition(["a", "b"], [["a", "b"], ["b"]])

    def test_uncovered_universe_rejected(self):
        with pytest.raises(DomainError, match="do not cover"):
            Partition(["a", "b"], [["a"]])

    def test_first_defect_in_input_order_is_reported(self):
        # blocks are checked in order: block 1's foreign element comes before
        # the empty block 2, and an empty block 1 before block 2's foreign one
        with pytest.raises(DomainError, match="^block element 'zz' is not in the universe$"):
            Partition(["a"], [["a"], ["zz", "a"], []])
        with pytest.raises(DomainError, match="^empty block$"):
            Partition(["a"], [["a"], [], ["zz"]])
        # an element repeated inside one block is not in two blocks
        assert Partition(["a", "b"], [["a", "a"], ["b"]]).blocks == (("a",), ("b",))

    def test_block_of(self):
        p = part(["a", "b"], ["c"])
        assert p.block_of("b") == frozenset({"a", "b"})
        with pytest.raises(DomainError, match="not in the universe"):
            p.block_of("zz")

    def test_equality_ignores_presentation_order(self):
        assert part(["a", "b"], ["c"]) == part(["c"], ["b", "a"])
        assert hash(part(["a", "b"], ["c"])) == hash(part(["c"], ["b", "a"]))

    def test_inequality_on_different_blocks(self):
        assert part(["a", "b"], ["c"]) != part(["a"], ["b", "c"])

    def test_equality_with_another_kind_is_left_to_the_other_operand(self):
        p = part(["a"], ["b"])
        assert p.__eq__((("a",), ("b",))) is NotImplemented
        assert p != (("a",), ("b",))

    def test_partitions_of_different_universes_are_unequal(self):
        assert part(["a", "b"]).__eq__(part(["a", "c"])) is False
        assert part(["a"]) != part(["a"], ["b"])

    def test_block_of_shares_one_set_per_block(self):
        p = part(["a", "b", "c"], ["d"])
        assert p.block_of("a") is p.block_of("b") is p.block_of("c")

    def test_equality_and_hash_keep_no_element_index(self):
        # An element index kept for equality and hashing holds about 75 bytes
        # per object and partition; comparing the labels keeps nothing.
        n = 20000
        objects = [f"o{i}" for i in range(n)]
        rows = [(str(i % 7), str(i % 7)) for i in range(n)]
        p = indiscernibility_partition(InformationTable(objects, ["A", "B"], rows), ["A"])
        q = indiscernibility_partition(InformationTable(objects[::-1], ["A", "B"], rows[::-1]), ["B"])
        equal, retained, _ = traced(lambda: (p == q, hash(p) == hash(q)))
        assert equal == (True, True)
        assert retained <= 2 * n, f"{retained / n:.1f} bytes per object retained"

    def test_one_block_peak_memory_is_linear(self):
        # A frozenset per element instead of per block makes a one-block
        # partition quadratic (about 130 KB per element at n = 2000), so the
        # small size fails fast before the large one could exhaust memory.
        for n in (2000, 20000):
            universe = [f"x{i}" for i in range(n)]
            _, _, peak = traced(lambda: Partition(universe, [universe]))
            assert peak <= 1024 * n, f"n={n}: {peak / n:.0f} bytes per element"


class TestRefines:
    def test_singletons_refine_everything(self):
        assert refines(part(["1"], ["2"], ["3"]), part(["1", "2"], ["3"]))

    def test_incomparable_partitions(self):
        assert not refines(part(["1", "2"], ["3"]), part(["1", "3"], ["2"]))

    def test_reflexive(self):
        p = part(["1", "2"], ["3"])
        assert refines(p, p)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(DomainError, match="universe mismatch"):
            refines(part(["1"]), part(["2"]))

    @given(block_labelings(), block_labelings())
    def test_matches_brute_force_oracle(self, fine, coarse):
        universe, fine_blocks = fine
        _, coarse_blocks = coarse
        p = Partition(universe, fine_blocks)
        # reuse the same universe for the second labeling
        labels = {x: i for i, block in enumerate(coarse_blocks) for x in block}
        q_blocks: dict[int, list] = {}
        for x in universe:
            q_blocks.setdefault(labels.get(x, -1), []).append(x)
        q = Partition(universe, list(q_blocks.values()))
        assert refines(p, q) == refines_by_definition(p, q)

    @pytest.mark.parametrize("order", [tuple, lambda universe: universe[::-1]], ids=["equal-universe", "permuted-universe"])
    def test_a_violation_at_the_last_element_alone_is_seen(self, order):
        # 10^4 elements in pairs, inside blocks of four but for the last element, split off alone
        universe = [f"x{i}" for i in range(10**4)]
        finer = Partition(universe, [universe[i:i + 2] for i in range(0, len(universe), 2)])
        quads = [universe[i:i + 4] for i in range(0, len(universe), 4)]
        coarser = Partition(order(universe), quads[:-1] + [universe[-4:-1], universe[-1:]])
        assert not refines(finer, coarser) and not refines_by_definition(finer, coarser)
        assert refines(finer, Partition(order(universe), quads))

    @given(block_labelings())
    def test_reflexive_and_transitive_on_random_partitions(self, labeled):
        universe, blocks = labeled
        p = Partition(universe, blocks)
        singletons = Partition(universe, [[x] for x in universe])
        one_block = Partition(universe, [list(universe)])
        assert refines(p, p)
        assert refines(singletons, p) and refines(p, one_block)
        # transitivity along the chain singletons <= p <= one_block
        assert refines(singletons, one_block)


class TestValidateGranular:
    def test_finest_first_chain_validates(self):
        g = validate_granular([part(["1"], ["2"], ["3"]), part(["1", "2"], ["3"])])
        assert isinstance(g, GranularSet)
        assert len(g) == 2

    def test_single_partition_is_granular(self):
        assert len(validate_granular([part(["1", "2"])])) == 1

    def test_non_refinement_pair_reported_by_index(self):
        with pytest.raises(DomainError, match=r"partitions \(0, 1\)|partitions 0 and 1"):
            validate_granular([part(["1", "2"], ["3"]), part(["1", "3"], ["2"])])

    def test_first_bad_pair_in_input_order_is_reported(self):
        fine = part(["1"], ["2"], ["3"])
        coarse = part(["1", "2"], ["3"])
        cross = part(["1", "3"], ["2"])
        # pairs 1 and 2 both fail; pair 0 is a refinement
        with pytest.raises(DomainError, match="partitions 1 and 2 are not refinement-related"):
            validate_granular([fine, coarse, cross, fine])

    def test_universe_mismatch_rejected(self):
        with pytest.raises(DomainError, match="universe mismatch"):
            validate_granular([part(["1"], ["2"]), part(["1", "3"])])

    @pytest.mark.parametrize(
        "build", [lambda: validate_granular([]), lambda: GranularSet(())], ids=["validate_granular", "GranularSet"]
    )
    def test_empty_list_rejected(self, build):
        with pytest.raises(DomainError, match="^no partitions$"):
            build()

    @given(block_labelings())
    def test_refinement_tower_always_validates(self, labeled):
        universe, blocks = labeled
        tower = [
            Partition(universe, [[x] for x in universe]),
            Partition(universe, blocks),
            Partition(universe, [list(universe)]),
        ]
        g = validate_granular(tower)
        assert g.universe == tuple(universe)

    def test_acceptance_iff_adjacent_refines(self):
        a = part(["1"], ["2"], ["3", "4"])
        b = part(["1", "2"], ["3", "4"])
        c = part(["1", "2", "3", "4"])
        validate_granular([a, b, c])
        assert refines(a, b) and refines(b, c)
        with pytest.raises(DomainError):
            validate_granular([b, a, c])
        assert not refines(b, a)


class TestGranularSet:
    def test_constructor_validates_universe_agreement(self):
        with pytest.raises(DomainError, match="universe mismatch"):
            GranularSet((part(["1"]), part(["2"])))

    def test_constructor_validates_refinement(self):
        with pytest.raises(DomainError, match="not refinement-related"):
            GranularSet((part(["1", "2"], ["3"]), part(["1", "3"], ["2"])))

    def test_universe_exposed(self):
        g = validate_granular([part(["1"], ["2"]), part(["1", "2"])])
        assert g.universe == ("1", "2")
