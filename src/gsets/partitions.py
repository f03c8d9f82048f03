"""Partitions of a finite universe and refinement-ordered families of them.

A granular set is a sequence of partitions, stored finest first, in which
every block of a coarser level is a union of blocks of the finer level
below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import DomainError


class Partition:
    """Partition of a finite universe into disjoint nonempty blocks.

    The universe keeps the order in which the elements first appeared in the
    source data; blocks are normalised to that order (elements within a block
    by universe position, blocks by the position of their first element),
    which makes serialisation deterministic.  Equality and hashing ignore the
    ordering and compare the blocks as sets.

    Construction validates its input (no duplicate universe element, no
    empty, overlapping or foreign block, full cover) and builds one frozenset
    per block, shared by every element of that block in the element-to-block
    index, so time and memory are linear in the universe size.
    """

    __slots__ = ("universe", "blocks", "_block_index")

    def __init__(self, universe: Iterable[Hashable], blocks: Iterable[Iterable[Hashable]]):
        universe = tuple(universe)
        members = set(universe)
        if len(members) != len(universe):
            seen: set = set()
            duplicate = next(x for x in universe if x in seen or seen.add(x))
            raise DomainError(f"duplicate element in universe: {duplicate!r}")
        sets = [frozenset(raw) for raw in blocks]
        index = {x: block for block in sets for x in block}
        # nonempty, pairwise disjoint (no element indexed twice), inside the
        # universe and as many elements as the universe: an exact cover
        if not (all(sets) and len(index) == sum(map(len, sets)) == len(universe) and members.issuperset(index)):
            _reject_blocks(universe, members, sets)
        # one scan of the universe lists each block's elements in universe
        # order, and the blocks in the order of their first element
        grouped: dict[frozenset, list] = {}
        for x in universe:
            block = index[x]
            in_order = grouped.get(block)
            if in_order is None:
                grouped[block] = [x]
            else:
                in_order.append(x)
        self.universe = universe
        self.blocks = tuple(map(tuple, grouped.values()))
        self._block_index = index

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[Hashable]]) -> Partition:
        """Build a partition whose universe order is the flattened block order."""
        blocks = [tuple(block) for block in blocks]
        return cls((x for block in blocks for x in block), blocks)

    def block_of(self, x: Hashable) -> frozenset:
        try:
            return self._block_index[x]
        except KeyError:
            raise DomainError(f"element {x!r} is not in the universe") from None

    def _block_set(self) -> frozenset[frozenset]:
        # the blocks determine the universe (their union), so they alone
        # decide equality
        return frozenset(self._block_index.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._block_set() == other._block_set()

    def __hash__(self) -> int:
        return hash(self._block_set())

    def __repr__(self) -> str:
        return f"Partition({[list(block) for block in self.blocks]!r})"


def _reject_blocks(universe: tuple, members: set, blocks: list[frozenset]) -> None:
    """Raise for the first defect, in block order, that keeps `blocks` from partitioning `universe`."""
    assigned: set = set()
    for block in blocks:
        if not block:
            raise DomainError("empty block")
        for x in block:
            if x not in members:
                raise DomainError(f"block element {x!r} is not in the universe")
            if x in assigned:
                raise DomainError(f"element {x!r} appears in more than one block")
            assigned.add(x)
    missing = next(x for x in universe if x not in assigned)
    raise DomainError(f"blocks do not cover the universe: {missing!r} unassigned")


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every block of `finer` lies inside one block of `coarser`."""
    target = coarser._block_index
    if finer._block_index.keys() != target.keys():
        raise DomainError("universe mismatch")
    return all(target[block[0]].issuperset(block) for block in finer.blocks)


class _NotRefinement(DomainError):
    """Adjacent levels, finest first, that are not refinement-related."""

    def __init__(self, pairs: list[int]):
        super().__init__(f"levels {pairs[0]} and {pairs[0] + 1} are not refinement-related")
        self.pairs = pairs


@dataclass(frozen=True)
class GranularSet:
    """Partitions of one universe ordered finest first, adjacent levels refinement-related.

    Construction checks each adjacent pair once with `refines`, which also
    checks that the pair shares one universe.
    """

    levels: tuple[Partition, ...]

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise DomainError("granular set needs at least one level")
        pairs = [i for i in range(len(levels) - 1) if not refines(levels[i], levels[i + 1])]
        if pairs:
            raise _NotRefinement(pairs)

    @property
    def universe(self) -> tuple:
        return self.levels[0].universe

    def __len__(self) -> int:
        return len(self.levels)


def validate_granular(partitions: Sequence[Partition], coarsest_first: bool = False) -> GranularSet:
    """Build a GranularSet, normalising to finest-first storage.

    The refinement check is the one `GranularSet` runs; a failure reports
    the first offending pair in the order the partitions were given, by
    input index.
    """
    parts = list(partitions)
    if not parts:
        raise DomainError("no partitions")
    ordered = tuple(reversed(parts)) if coarsest_first else tuple(parts)
    try:
        return GranularSet(ordered)
    except _NotRefinement as exc:
        # stored pair j is input pair len(parts) - 2 - j when the input is coarsest first
        i = len(parts) - 2 - exc.pairs[-1] if coarsest_first else exc.pairs[0]
        raise DomainError(f"partitions {i} and {i + 1} are not refinement-related") from None
