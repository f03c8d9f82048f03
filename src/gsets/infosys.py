"""Information tables, indiscernibility partitions, and rough approximations.

Objects are rows, attributes are columns, and cells hold categorical tokens
compared by exact string equality.  A table stores each column as its
distinct values, in order of first appearance, and one code per object: a
byte per cell while the column has at most 256 values, a tuple of ints
(eight bytes per cell) for a wider one.  Choosing an attribute set induces an
indiscernibility partition; a nested chain of attribute sets induces a
granular set; a target set of objects gets lower/upper approximations that
respond monotonically to growing targets and growing attribute sets.
Classes are kept as the block labels of `partitions`: one kernel refines
labels on the codes of added attributes, and one label scan, with class
sizes counted on the labels, reads off approximations as the objects of the
labels it picks.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from operator import add, mul

from ._value import Value
from .chains import GradedFamily
from .errors import DomainError
from .partitions import GranularSet, Partition, _dense, validate_granular

_BATCH = 256


class InformationTable(Value):
    """Immutable objects-by-attributes table of categorical tokens, stored as
    per-column codes.  `value` and `rows` decode; the fields, and so equality,
    hashing, the repr and pickling, are ``(objects, attributes, rows)``.
    `_obj_pos` maps each object to its row, in row order.
    """

    __slots__ = ("objects", "attributes", "_values", "_codes", "_obj_pos", "_attr_pos")
    _fields = ("objects", "attributes", "rows")

    def __init__(self, objects: Iterable[str], attributes: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
        objects = tuple(objects)
        attributes = tuple(attributes)
        for what, names in (("object id", objects), ("attribute name", attributes)):
            for name in names:
                if not isinstance(name, str) or not name:
                    raise DomainError(f"{what} must be a nonempty string, got {name!r}")
        rows = tuple(map(tuple, rows))  # a tuple row is kept, not copied
        obj_pos = {o: i for i, o in enumerate(objects)}
        attr_pos = {a: j for j, a in enumerate(attributes)}
        if len(obj_pos) != len(objects):
            raise DomainError("duplicate object id")
        if len(attr_pos) != len(attributes):
            raise DomainError("duplicate attribute name")
        if len(rows) != len(objects):
            raise DomainError(f"expected {len(objects)} rows, got {len(rows)}")
        # one cell at a time: parse_table codes its rows without this constructor
        for obj, row in zip(objects, rows):
            if len(row) != len(attributes):
                raise DomainError(f"row for {obj!r} has {len(row)} cells, expected {len(attributes)}")
            for cell in row:
                if not isinstance(cell, str) or not cell:
                    raise DomainError(f"row for {obj!r} has an empty or non-string cell")
        self._store(obj_pos, attr_pos, iter(rows))

    @classmethod
    def _coded(
        cls, obj_pos: dict[str, int], attr_pos: dict[str, int], rows: Iterator[Sequence[str]]
    ) -> InformationTable:
        """The table of `rows`, with `obj_pos` filled as they are read; nothing is checked."""
        self = cls.__new__(cls)
        self._store(obj_pos, attr_pos, rows)
        return self

    def _store(self, obj_pos: dict[str, int], attr_pos: dict[str, int], rows: Iterator[Sequence[str]]) -> None:
        """Code the columns `_BATCH` rows at a time: a `defaultdict` hands each
        new value the next code, so a cell costs one C-level lookup."""
        ids = [defaultdict(itertools.count().__next__) for _ in attr_pos]
        chunks: list[list] = [[] for _ in attr_pos]
        for batch in iter(lambda: list(itertools.islice(rows, _BATCH)), []):
            for known, chunk, column in zip(ids, chunks, zip(*batch)):
                coded = tuple(map(known.__getitem__, column))
                chunk.append(bytes(coded) if len(known) <= 256 else coded)
        values = tuple(map(tuple, ids))
        codes = tuple(
            b"".join(chunk) if len(column) <= 256 else tuple(itertools.chain.from_iterable(chunk))
            for column, chunk in zip(values, chunks)
        )
        self._init(tuple(obj_pos), tuple(attr_pos), values, codes, obj_pos, attr_pos)

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """The cells row by row, decoded."""
        if not self._codes:
            return ((),) * len(self.objects)
        return tuple(zip(*(map(values.__getitem__, codes) for values, codes in zip(self._values, self._codes))))

    def value(self, obj: str, attr: str) -> str:
        try:
            i = self._obj_pos[obj]
        except KeyError:
            raise DomainError(f"unknown object: {obj!r}") from None
        try:
            j = self._attr_pos[attr]
        except KeyError:
            raise DomainError(f"unknown attribute: {attr!r}") from None
        return self._values[j][self._codes[j][i]]


class ApproximationPair(Value):
    """Lower and upper approximations of a target set of objects: the unions of
    the indiscernibility blocks fully contained in the target and of those that meet it."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Iterable[str], upper: Iterable[str]) -> None:
        lower, upper = frozenset(lower), frozenset(upper)
        if not lower <= upper:
            raise DomainError("lower approximation must be inside the upper approximation")
        self._init(lower, upper)

    @property
    def boundary(self) -> frozenset[str]:
        return self.upper - self.lower


class SensitivityRecord(Value):
    """Approximation sizes and accuracy at one level of an attribute chain.

    Accuracy is |lower| / |upper|, taken to be 1 when the upper approximation
    is empty.
    """

    __slots__ = ("level_index", "attribute_count", "lower_size", "upper_size", "boundary_size", "accuracy")

    def __init__(self, level_index: int, attribute_count: int, lower_size: int, upper_size: int,
                 boundary_size: int, accuracy: float) -> None:
        if boundary_size != upper_size - lower_size:
            raise DomainError("boundary size must be upper size minus lower size")
        if boundary_size < 0:
            raise DomainError("boundary size must be nonnegative")
        if not 0.0 <= accuracy <= 1.0:
            raise DomainError("accuracy must lie in [0, 1]")
        self._init(level_index, attribute_count, lower_size, upper_size, boundary_size, accuracy)


def _positions(names: Iterable[str], pos: dict[str, int], what: str) -> frozenset[int]:
    """Table positions of `names`, rejecting the first one `pos` lacks in input
    order or, for a set, whose order follows the hash seed, the least by repr."""
    try:
        return frozenset(map(pos.__getitem__, names))
    except KeyError as exc:
        unknown = exc.args[0]
        if isinstance(names, (set, frozenset)):
            unknown = min((x for x in names if x not in pos), key=repr)
        raise DomainError(f"unknown {what}: {unknown!r}") from None


def _refine(table: InformationTable, labels: tuple[int, ...] | None, attrs: Iterable[str]) -> tuple[int, ...]:
    """The one refinement kernel: split the classes `labels` (None for one
    class holding every object) by the rows' values on `attrs`.

    Each row is keyed ``key * card + code`` one attribute at a time and the
    keys are relabelled densely, so the result refines `labels` by
    construction.  The labels are the ints of the table's object positions,
    so the levels of a chain share them.
    """
    columns = _positions(attrs, table._attr_pos, "attribute")
    if not columns:
        return (0,) * len(table.objects) if labels is None else labels
    if labels and labels[-1] == len(labels) - 1:
        return labels  # dense labels ending at n - 1 are all distinct, and one object cannot split
    keys = labels
    for j in columns:
        codes, card = table._codes[j], len(table._values[j])
        keys = codes if keys is None else list(map(add, map(mul, keys, itertools.repeat(card)), codes))
    return _dense(keys, table._obj_pos.values())


def _chain_labels(table: InformationTable, chain: GradedFamily) -> Iterator[tuple[int, ...]]:
    """Indiscernibility classes of each chain level as block labels, smallest attribute set first.

    Level k+1 refines the labels of level k on the attributes it adds, so a
    chain reads each cell of its largest attribute set once rather than once
    per level.
    """
    labels = None
    before: frozenset = frozenset()
    for level in chain.levels:
        labels = _refine(table, labels, level - before)
        before = level
        yield labels


def _label_scan(labels: tuple[int, ...], sizes: dict[int, int], target: frozenset[int]) -> tuple[set, set]:
    """The one approximation kernel: the labels of the classes the target
    holds whole (lower) and of those it meets (upper), given class sizes by label."""
    hits = Counter(map(labels.__getitem__, target))
    return {label for label, hit in hits.items() if hit == sizes[label]}, set(hits)


def _pair(part: Partition, sizes: dict[int, int], target: frozenset[int]) -> ApproximationPair:
    """The approximations as the objects whose labels the scan returns, given
    the partition's class sizes by label.  The lower approximation lies inside
    the target, so it is read off the target rows; the upper one takes one
    pass over the universe."""
    labels, universe = part._labels, part.universe
    lower, upper = _label_scan(labels, sizes, target)
    in_lower = itertools.compress(target, map(lower.__contains__, map(labels.__getitem__, target)))
    return ApproximationPair(
        frozenset(map(universe.__getitem__, in_lower)),
        frozenset(itertools.compress(universe, map(upper.__contains__, labels))),
    )


def indiscernibility_partition(table: InformationTable, attrs: Iterable[str]) -> Partition:
    """Group objects that agree on every attribute in `attrs`.

    An empty attribute set discerns nothing and yields the one-block
    partition.  The partition is built from scratch, which makes it the
    reference that the incremental chain levels must agree with.
    """
    return Partition._from_labels(table.objects, _refine(table, None, attrs))


def granular_from_chain(table: InformationTable, chain: GradedFamily) -> GranularSet:
    """Indiscernibility partitions of a nested attribute chain, finest first.

    Each level's block labels are refined from the level before it in the
    chain on the attributes the level adds, so the chain reads each cell at
    most once rather than once per level.  Larger attribute sets discern at
    least as much, so the partitions are refinement-ordered; that is still
    checked by `validate_granular`, which checks each adjacent pair once and
    raises `DomainError` on a failure.
    """
    parts = [Partition._from_labels(table.objects, labels) for labels in _chain_labels(table, chain)]
    return validate_granular(parts[::-1])


def approximation_pair(table: InformationTable, attrs: Iterable[str], target: Iterable[str]) -> ApproximationPair:
    """Lower and upper approximations computed from one shared partition."""
    rows = _positions(target, table._obj_pos, "object")
    part = indiscernibility_partition(table, attrs)
    return _pair(part, Counter(part._labels), rows)


def graded_approximations(
    table: InformationTable, attrs: Iterable[str], targets: GradedFamily
) -> tuple[GradedFamily, GradedFamily]:
    """Approximate every level of a nested target chain.

    The indiscernibility classes of `attrs` are labelled and counted once
    and scanned for every level.  Each level's pair is checked (lower inside
    upper), and both output chains are checked to nest as graded families,
    raising `DomainError` on a failure.
    """
    part = indiscernibility_partition(table, attrs)
    sizes = Counter(part._labels)
    pairs = [_pair(part, sizes, _positions(level, table._obj_pos, "object")) for level in targets.levels]
    return GradedFamily([p.lower for p in pairs]), GradedFamily([p.upper for p in pairs])


def sensitivity_profile(
    table: InformationTable, chain: GradedFamily, target: Iterable[str]
) -> list[SensitivityRecord]:
    """How approximation quality responds as the attribute set grows.

    One record per chain level, in chain order (smallest attribute set
    first).  The levels' block labels are refined along the chain, as in
    `granular_from_chain`, and each level gets one label scan; the sizes are
    counted on the labels, and the record checks lower inside upper.
    """
    rows = _positions(target, table._obj_pos, "object")
    records = []
    for i, (attrs, labels) in enumerate(zip(chain.levels, _chain_labels(table, chain))):
        sizes = Counter(labels)
        lower, upper = _label_scan(labels, sizes, rows)
        lower_size, upper_size = sum(map(sizes.__getitem__, lower)), sum(map(sizes.__getitem__, upper))
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
