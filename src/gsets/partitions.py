"""Partitions of a finite universe and refinement-ordered families of them.

A partition is stored as its universe and one block label per element,
counted from 0 in order of first appearance: an exact cover by
construction.  Block input is checked in one pass, in input order, a set
block least repr first.  A granular set lists partitions finest first, as
they are given, each coarser block a union of blocks of the level below.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Sequence
from functools import cached_property

from ._value import Value
from .errors import DomainError


def _dense(keys: Collection[Hashable], ints: Iterable[int]) -> tuple[int, ...]:
    """Block labels for one key per element: equal keys share a label, and
    labels count up from 0 in order of first appearance, taken from `ints`
    (0, 1, 2, ...).  C-level passes over one dict; `keys` is read twice."""
    ids = dict.fromkeys(keys)
    ids.update(zip(ids, ints))  # sets values only, so the iteration over `ids` stays valid
    return tuple(map(ids.__getitem__, keys))


class Partition:
    """Partition of a finite universe into disjoint nonempty blocks.

    The universe keeps the order in which the elements first appeared in the
    source data; blocks are normalised to that order (elements within a block
    by universe position, blocks by the position of their first element),
    which makes serialisation deterministic.  Equality and hashing ignore the
    ordering: two partitions are equal when they share a universe and each
    refines the other.

    Construction from blocks is one pass in input order that gives each
    universe element its block index and raises at the first defect: a
    duplicate universe element, then per block a foreign element, an
    element of an earlier block or an empty block, then an uncovered one.
    An element repeated in one block is accepted; a set block is walked
    least repr first, and of a set universe the least uncovered element by
    repr is named.  Compute, equality and hashing read the labels alone,
    and the documents and `blocks` group them with `_groups`.  Only
    `block_of` keeps an element index (one frozenset per block), built on
    first use.
    """

    def __init__(self, universe: Iterable[Hashable], blocks: Iterable[Iterable[Hashable]]):
        unordered = isinstance(universe, (set, frozenset))
        universe = tuple(universe)
        # block index per universe element, -1 while unassigned
        index = dict.fromkeys(universe, -1)
        if len(index) != len(universe):
            seen: set = set()
            duplicate = next(x for x in universe if x in seen or seen.add(x))
            raise DomainError(f"duplicate element in universe: {duplicate!r}")
        covered = 0
        for i, block in enumerate(blocks):
            if isinstance(block, (set, frozenset)):
                # a set iterates in hash-seed order; walk it least repr first
                block = sorted(block, key=repr)
            first = covered
            for x in block:
                j = index.get(x)
                if j != i:
                    if j is None:
                        raise DomainError(f"block element {x!r} is not in the universe")
                    if j >= 0:
                        raise DomainError(f"element {x!r} appears in more than one block")
                    index[x] = i
                    covered += 1
            if covered == first:
                raise DomainError("empty block")
        if covered != len(universe):
            unassigned = [x for x, j in index.items() if j < 0]
            # a set universe iterates in hash-seed order; name its least by repr
            missing = min(unassigned, key=repr) if unordered else unassigned[0]
            raise DomainError(f"blocks do not cover the universe: {missing!r} unassigned")
        self.universe = universe
        self._labels = _dense(index.values(), range(len(universe)))

    @classmethod
    def _from_labels(cls, universe: tuple, labels: tuple[int, ...]) -> Partition:
        """The partition with these dense block labels, one per universe
        element; a label vector is a cover by construction, so nothing is checked."""
        self = cls.__new__(cls)
        self.universe = universe
        self._labels = labels
        return self

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[Hashable]]) -> Partition:
        """Build a partition whose universe order is the flattened block order."""
        blocks = [tuple(block) for block in blocks]
        return cls((x for block in blocks for x in block), blocks)

    def _groups(self) -> list[list]:
        """The one grouping of labels into blocks: each label's elements in universe order."""
        groups: list[list] = [[] for _ in range(max(self._labels, default=-1) + 1)]
        for x, label in zip(self.universe, self._labels):
            groups[label].append(x)
        return groups

    @property
    def blocks(self) -> tuple[tuple, ...]:
        return tuple(map(tuple, self._groups()))

    @cached_property
    def _index(self) -> dict:
        sets = tuple(map(frozenset, self._groups()))
        return dict(zip(self.universe, map(sets.__getitem__, self._labels)))

    def block_of(self, x: Hashable) -> frozenset:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"element {x!r} is not in the universe") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        try:
            return refines(self, other) and refines(other, self)
        except DomainError:  # universe mismatch
            return False

    def __hash__(self) -> int:
        return hash(frozenset(map(frozenset, self._groups())))

    def __repr__(self) -> str:
        return f"Partition({[list(block) for block in self.blocks]!r})"


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every block of `finer` lies inside one block of `coarser`,
    that is, when no finer label meets two coarser labels."""
    coarse = coarser._labels
    if finer.universe != coarser.universe:
        # read the coarser labels by element instead of by position
        label_of = dict(zip(coarser.universe, coarse))
        if label_of.keys() != set(finer.universe):
            raise DomainError("universe mismatch")
        coarse = map(label_of.__getitem__, finer.universe)
    return len(set(zip(finer._labels, coarse))) == len(set(finer._labels))


class GranularSet(Value):
    """Partitions of one universe ordered finest first, adjacent levels refinement-related.

    Construction checks adjacent pairs in order with `refines`, which also
    checks that a pair shares one universe, and raises at the first failure.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: Iterable[Partition]) -> None:
        levels = tuple(levels)
        self._init(levels)
        if not levels:
            raise DomainError("no partitions")
        for i in range(len(levels) - 1):
            if not refines(levels[i], levels[i + 1]):
                raise DomainError(f"partitions {i} and {i + 1} are not refinement-related")

    @property
    def universe(self) -> tuple:
        return self.levels[0].universe

    def __len__(self) -> int:
        return len(self.levels)


def validate_granular(partitions: Sequence[Partition]) -> GranularSet:
    """Build a GranularSet from a nonempty list of partitions given finest
    first; every check is the one `GranularSet` runs."""
    return GranularSet(partitions)
