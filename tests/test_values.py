"""The shared value base: equality, hashing, repr, immutability and pickling
for every value kind, the constructors' field checks, and an import path free
of the heavy stdlib modules."""

import copy
import itertools
import pickle

import pytest

from gsets import (
    ApproximationPair,
    DomainError,
    FaultDistribution,
    GradedFamily,
    GradedIntervals,
    GranularSet,
    InformationTable,
    Interval,
    IntervalDistribution,
    Partition,
    SensitivityRecord,
    SimConfig,
    SimOutcome,
    simulate_round,
)
from gsets.formats import parse_table

CONFIG = dict(num_sensors=4, truth=0.5, correct_halfwidth_max=1.0, num_faulty=1, fault_offset_min=2.5, seed=7)

# kind -> (a function making a fresh value, its field names in order)
KINDS = {
    Interval: (lambda: Interval(2, 10), ("lo", "hi")),
    GradedIntervals: (lambda: GradedIntervals(1, (None, Interval(4, 8), Interval(2, 10))), ("f_min", "levels")),
    FaultDistribution: (lambda: FaultDistribution(((1, 0.25), (0, 0.75))), ("support",)),
    IntervalDistribution: (lambda: IntervalDistribution(((Interval(0, 1), 0.5), (None, 0.5))), ("atoms",)),
    GradedFamily: (lambda: GradedFamily([["a"], ["a", "b"]]), ("levels",)),
    InformationTable: (
        lambda: InformationTable(["O1", "O2"], ["P1", "P2"], [["x", "y"], ("x", "z")]),
        ("objects", "attributes", "rows"),
    ),
    ApproximationPair: (lambda: ApproximationPair({"O1"}, {"O1", "O2"}), ("lower", "upper")),
    SensitivityRecord: (
        lambda: SensitivityRecord(level_index=0, attribute_count=2, lower_size=1, upper_size=4, boundary_size=3, accuracy=0.25),
        ("level_index", "attribute_count", "lower_size", "upper_size", "boundary_size", "accuracy"),
    ),
    GranularSet: (
        lambda: GranularSet([Partition.from_blocks([["a"], ["b"], ["c"]]), Partition.from_blocks([["a", "b"], ["c"]])]),
        ("levels",),
    ),
    SimConfig: (
        lambda: SimConfig(**CONFIG),
        ("num_sensors", "truth", "correct_halfwidth_max", "num_faulty", "fault_offset_min", "seed"),
    ),
    SimOutcome: (
        lambda: simulate_round(SimConfig(**CONFIG), 2),
        ("intervals", "faulty_indices", "fused", "truth_containment"),
    ),
}

kinds = pytest.mark.parametrize("kind", list(KINDS), ids=lambda kind: kind.__name__)


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


@kinds
def test_equal_values_hash_equal(kind):
    make, names = KINDS[kind]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a, names))


@kinds
def test_never_equal_to_another_class(kind):
    make, names = KINDS[kind]
    value = make()
    assert value != _fields(value, names)
    assert value.__eq__(object()) is NotImplemented
    for other_kind, (other_make, _) in KINDS.items():
        if other_kind is not kind:
            assert value != other_make() and not value == other_make()


def test_equal_fields_in_another_class_are_not_equal():
    # the same six numbers make a valid SimConfig and a valid SensitivityRecord
    config, record = SimConfig(5, 0, 1, 4, 3, 0), SensitivityRecord(5, 0, 1, 4, 3, 0)
    assert _fields(config, KINDS[SimConfig][1]) == _fields(record, KINDS[SensitivityRecord][1])
    assert config != record and not config == record


@kinds
def test_repr_names_every_field(kind):
    make, names = KINDS[kind]
    value = make()
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{kind.__name__}({fields})"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: InformationTable(["O1", "O2"], ["P1"], [["x"]]), "expected 2 rows, got 1"),
        (lambda: InformationTable(["O1"], ["P1"], [[0]]), "row for 'O1' has an empty or non-string cell"),
        (lambda: SensitivityRecord(0, 1, 1, 4, 2, 0.25), "boundary size must be upper size minus lower size"),
        (lambda: SensitivityRecord(0, 1, 4, 2, -2, 1.0), "boundary size must be nonnegative"),
        (lambda: SensitivityRecord(0, 1, 1, 4, 3, 1.5), "accuracy must lie in [0, 1]"),
        (lambda: GradedIntervals(-1, [None]), "f_min must be nonnegative"),
        (lambda: IntervalDistribution((((0, 1), 1.0),)), "not a fusion result: (0, 1)"),
        (lambda: IntervalDistribution(()), "interval distribution has no atoms"),
        (lambda: IntervalDistribution(((None, 0.0), (Interval(0, 1), 1.0))), "probabilities must be positive"),
        (lambda: IntervalDistribution(((None, 0.5),)), "probabilities sum to 0.5, expected 1"),
    ],
    ids=[
        "table-row-count", "table-non-string-cell", "record-boundary-sum", "record-negative-boundary",
        "record-accuracy", "graded-negative-f_min", "dist-not-a-result", "dist-no-atoms", "dist-zero-p", "dist-sum",
    ],
)
def test_constructor_rejects_invalid_fields(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_interval_repr():
    assert repr(Interval(2, 10)) == "Interval(lo=2.0, hi=10.0)"


@kinds
def test_fields_cannot_be_set_or_deleted(kind):
    make, names = KINDS[kind]
    value = make()
    before = _fields(value, names)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields(value, names) == before


@kinds
def test_pickle_and_deepcopy_round_trip(kind):
    make, names = KINDS[kind]
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is kind and twin == value and hash(twin) == hash(value)
        assert _fields(twin, names) == _fields(value, names)


def test_restored_table_keeps_its_lookups():
    make, _ = KINDS[InformationTable]
    table = pickle.loads(pickle.dumps(make()))
    assert table.value("O2", "P2") == "z"
    assert "_obj_pos" not in repr(table)


def test_parsed_table_is_the_value_of_its_rows():
    # the table stores codes, but its fields stay (objects, attributes, rows)
    rows = [["x", "y"], ["x", "z"], ["w", "y"]]
    built = InformationTable(["O1", "O2", "O3"], ["P1", "P2"], rows)
    parsed = parse_table("object,P1,P2\nO1,x,y\nO2,x,z\nO3,w,y\n")
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    for twin in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed), copy.copy(parsed)):
        assert twin == built and hash(twin) == hash(built)
        assert twin.rows == tuple(map(tuple, rows)) and twin.value("O3", "P1") == "w"
    assert "_codes" not in repr(parsed) and "_values" not in repr(parsed)


def test_interval_order_is_endpoint_tuple_order():
    items = [Interval(lo, hi) for lo, hi in [(0, 1), (0, 2), (-1, 5), (0, 1), (3, 3), (-1, -1)]]
    for a, b in itertools.product(items, repeat=2):
        pa, pb = (a.lo, a.hi), (b.lo, b.hi)
        assert (a < b, a <= b, a > b, a >= b) == (pa < pb, pa <= pb, pa > pb, pa >= pb)
    assert [(iv.lo, iv.hi) for iv in sorted(items)] == sorted((iv.lo, iv.hi) for iv in items)
    with pytest.raises(TypeError):
        Interval(0, 1) < (0, 1)


def test_cli_import_skips_heavy_modules(module_record):
    loaded, _ = module_record
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib", "_hashlib"} & loaded["import"]
