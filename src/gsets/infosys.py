"""Information tables, indiscernibility partitions, and rough approximations.

Objects are rows, attributes are columns, and cells hold categorical tokens
compared by exact string equality.  Choosing an attribute set induces an
indiscernibility partition; a nested chain of attribute sets induces a
granular set; a target set of objects gets lower/upper approximations that
respond monotonically to growing targets and growing attribute sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .chains import GradedFamily
from .errors import DomainError
from .partitions import GranularSet, Partition, validate_granular


@dataclass(frozen=True)
class InformationTable:
    """Immutable objects-by-attributes table of categorical tokens."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        objects = tuple(self.objects)
        attributes = tuple(self.attributes)
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "rows", rows)
        if len(set(objects)) != len(objects):
            raise DomainError("duplicate object id")
        if len(set(attributes)) != len(attributes):
            raise DomainError("duplicate attribute name")
        if len(rows) != len(objects):
            raise DomainError(f"expected {len(objects)} rows, got {len(rows)}")
        for obj, row in zip(objects, rows):
            if len(row) != len(attributes):
                raise DomainError(f"row for {obj!r} has {len(row)} cells, expected {len(attributes)}")
            for cell in row:
                if not isinstance(cell, str) or not cell:
                    raise DomainError(f"row for {obj!r} has an empty or non-string cell")
        object.__setattr__(self, "_obj_pos", {o: i for i, o in enumerate(objects)})
        object.__setattr__(self, "_attr_pos", {a: j for j, a in enumerate(attributes)})

    def value(self, obj: str, attr: str) -> str:
        try:
            i = self._obj_pos[obj]
        except KeyError:
            raise DomainError(f"unknown object: {obj!r}") from None
        try:
            j = self._attr_pos[attr]
        except KeyError:
            raise DomainError(f"unknown attribute: {attr!r}") from None
        return self.rows[i][j]


@dataclass(frozen=True)
class ApproximationPair:
    """Lower and upper approximations of a target set of objects."""

    lower: frozenset[str]
    upper: frozenset[str]

    def __post_init__(self) -> None:
        lower = frozenset(self.lower)
        upper = frozenset(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not lower <= upper:
            raise DomainError("lower approximation must be inside the upper approximation")

    @property
    def boundary(self) -> frozenset[str]:
        return self.upper - self.lower


@dataclass(frozen=True)
class SensitivityRecord:
    """Approximation sizes and accuracy at one level of an attribute chain.

    Accuracy is |lower| / |upper|, taken to be 1 when the upper approximation
    is empty.
    """

    level_index: int
    attribute_count: int
    lower_size: int
    upper_size: int
    boundary_size: int
    accuracy: float

    def __post_init__(self) -> None:
        if self.boundary_size != self.upper_size - self.lower_size:
            raise DomainError("boundary size must be upper size minus lower size")
        if self.boundary_size < 0:
            raise DomainError("boundary size must be nonnegative")
        if not 0.0 <= self.accuracy <= 1.0:
            raise DomainError("accuracy must lie in [0, 1]")


def _attrs_in_table_order(table: InformationTable, attrs: Iterable[str]) -> tuple[str, ...]:
    wanted = set()
    for name in attrs:
        if name not in table._attr_pos:
            raise DomainError(f"unknown attribute: {name!r}")
        wanted.add(name)
    return tuple(a for a in table.attributes if a in wanted)


def _target_rows(table: InformationTable, target: Iterable[str]) -> frozenset[int]:
    """Row positions of the target objects, rejecting an object not in the table."""
    try:
        return frozenset(map(table._obj_pos.__getitem__, frozenset(target)))
    except KeyError as exc:
        raise DomainError(f"unknown object: {exc.args[0]!r}") from None


def _split(table: InformationTable, blocks: list[list[int]], names: tuple[str, ...]) -> list[list[int]]:
    """Split blocks of row positions by the rows' values on `names`.

    Each sub-block keeps its rows in table order.  Singleton blocks cannot
    split and are passed through unread.
    """
    if not names:
        return blocks
    signature = itemgetter(*(table._attr_pos[a] for a in names))
    rows = table.rows
    out: list[list[int]] = []
    for block in blocks:
        if len(block) == 1:
            out.append(block)
            continue
        groups: dict = {}
        for i in block:
            key = signature(rows[i])
            group = groups.get(key)
            if group is None:
                groups[key] = [i]
            else:
                group.append(i)
        out.extend(groups.values())
    return out


def _whole(table: InformationTable) -> list[list[int]]:
    """Every row position in one block (no block for a table without rows)."""
    return [list(range(len(table.objects)))] if table.objects else []


def _blocks(table: InformationTable, attrs: Iterable[str]) -> list[list[int]]:
    """Indiscernibility classes of `attrs` as blocks of row positions, built from scratch."""
    return _split(table, _whole(table), _attrs_in_table_order(table, attrs))


def _chain_blocks(table: InformationTable, chain: GradedFamily) -> Iterator[list[list[int]]]:
    """Indiscernibility classes of each chain level, smallest attribute set first.

    Level k+1 splits the blocks of level k on the attributes it adds, so a
    chain reads each cell of its largest attribute set at most once rather
    than once per level.
    """
    blocks = _whole(table)
    before: frozenset = frozenset()
    for level in chain.levels:
        names = _attrs_in_table_order(table, level)
        blocks = _split(table, blocks, tuple(a for a in names if a not in before))
        before = level
        yield blocks


def _partition(table: InformationTable, blocks: list[list[int]]) -> Partition:
    objects = table.objects
    return Partition(objects, (map(objects.__getitem__, block) for block in blocks))


def _block_scan(table: InformationTable, blocks: list[list[int]], target: frozenset[int]) -> ApproximationPair:
    """The one approximation kernel: blocks meeting the target make up the
    upper approximation, and those inside it the lower."""
    lower: list[int] = []
    upper: list[int] = []
    for block in blocks:
        if target.isdisjoint(block):
            continue
        upper.extend(block)
        if target.issuperset(block):
            lower.extend(block)
    objects = table.objects
    return ApproximationPair(
        frozenset(map(objects.__getitem__, lower)), frozenset(map(objects.__getitem__, upper))
    )


def indiscernibility_partition(table: InformationTable, attrs: Iterable[str]) -> Partition:
    """Group objects that agree on every attribute in `attrs`.

    An empty attribute set discerns nothing and yields the one-block
    partition.  The partition is built from scratch, which makes it the
    reference that the incremental chain levels must agree with.
    """
    return _partition(table, _blocks(table, attrs))


def granular_from_chain(table: InformationTable, chain: GradedFamily) -> GranularSet:
    """Indiscernibility partitions of a nested attribute chain, finest first.

    Each level's partition is built by splitting the blocks of the level
    before it in the chain on the attributes the level adds, so the chain
    reads each cell at most once rather than once per level.  Larger
    attribute sets discern at least as much, so the partitions are
    refinement-ordered; that is still checked by `validate_granular`, which
    checks each adjacent pair once and raises `DomainError` on a failure.
    """
    parts = [_partition(table, blocks) for blocks in _chain_blocks(table, chain)]
    return validate_granular(parts, coarsest_first=True)


def lower_approx(table: InformationTable, attrs: Iterable[str], target: Iterable[str]) -> frozenset[str]:
    """Union of the indiscernibility blocks fully contained in the target."""
    return approximation_pair(table, attrs, target).lower


def upper_approx(table: InformationTable, attrs: Iterable[str], target: Iterable[str]) -> frozenset[str]:
    """Union of the indiscernibility blocks that intersect the target."""
    return approximation_pair(table, attrs, target).upper


def approximation_pair(table: InformationTable, attrs: Iterable[str], target: Iterable[str]) -> ApproximationPair:
    """Lower and upper approximations computed from one shared partition."""
    rows = _target_rows(table, target)
    return _block_scan(table, _blocks(table, attrs), rows)


def graded_approximations(
    table: InformationTable, attrs: Iterable[str], targets: GradedFamily
) -> tuple[GradedFamily, GradedFamily]:
    """Approximate every level of a nested target chain.

    The indiscernibility classes of `attrs` are built once and block-scanned
    for every level.  Each level's pair is checked (lower inside upper), and
    both output chains are checked to nest as graded families, raising
    `DomainError` on a failure.
    """
    blocks = _blocks(table, attrs)
    pairs = [_block_scan(table, blocks, _target_rows(table, level)) for level in targets.levels]
    return GradedFamily([p.lower for p in pairs]), GradedFamily([p.upper for p in pairs])


def sensitivity_profile(
    table: InformationTable, chain: GradedFamily, target: Iterable[str]
) -> list[SensitivityRecord]:
    """How approximation quality responds as the attribute set grows.

    One record per chain level, in chain order (smallest attribute set
    first).  The levels' indiscernibility classes are built incrementally
    along the chain, as in `granular_from_chain`, and each level gets one
    block scan whose pair is checked (lower inside upper).
    """
    rows = _target_rows(table, target)
    records = []
    for i, (attrs, blocks) in enumerate(zip(chain.levels, _chain_blocks(table, chain))):
        pair = _block_scan(table, blocks, rows)
        lower_size, upper_size = len(pair.lower), len(pair.upper)
        accuracy = lower_size / upper_size if upper_size else 1.0
        records.append(
            SensitivityRecord(
                level_index=i,
                attribute_count=len(attrs),
                lower_size=lower_size,
                upper_size=upper_size,
                boundary_size=upper_size - lower_size,
                accuracy=accuracy,
            )
        )
    return records
