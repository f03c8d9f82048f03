"""Parsing and canonical JSON serialisation for every value kind.

Input formats
-------------
* intervals: CSV with header ``lo,hi``, one interval per row, or a JSON
  array of two-element ``[lo, hi]`` arrays.
* information tables: CSV with header ``object,<attr1>,<attr2>,...``.
* chains and graded families: JSON array of arrays of name strings.
* fault distributions: JSON object mapping fault counts to probabilities;
  a repeated key is a repeated fault count.  Every other reader rejects an
  object with a repeated key.

The CSV dialect is deliberately strict: comma separated, no quoting,
tokens must be nonempty and carry no surrounding whitespace.  Anything
else is rejected with a 1-based location.

Output
------
Each value kind X has one writer and one parser ``parse_X`` of its text (a
table is read only, and the simulation report written only).  A kind whose
document may be large streams it: ``X_chunks`` for the granular set, graded
intervals, interval distribution and simulation yields the canonical JSON
text a part at a time, so memory does not grow with the output, and
``granular_set_chunks`` checks the names before its first chunk.  Each streamed
array goes through one writer, ``_array_items``: a granular set is written one
level per chunk, a simulation report by whole rounds, and every other array in
about ``_BATCH`` items per chunk.  Every other kind has a builder ``X_doc`` of
plain JSON data, rendered by ``dumps_canonical``, the only encoder.  Canonical
JSON has its keys sorted and no insignificant whitespace; blocks and objects
are ordered by the partition's universe order (or lexicographically where no
universe context exists), integral reals up to 2**53 in magnitude are rendered
as integers and all other reals in shortest round-trip form, and the empty
fused result is rendered as ``null``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, starmap

from .chains import GradedFamily
from .errors import ParseError
from .infosys import ApproximationPair, InformationTable, SensitivityRecord
from .intervals import (
    FaultDistribution,
    FusionResult,
    GradedIntervals,
    Interval,
    IntervalDistribution,
    _is_int,
)
from .partitions import GranularSet, Partition, validate_granular
from .simulate import SimConfig

_INT_RENDER_LIMIT = 2**53
_float_text = float.__repr__  # the encoder's own rendering of a finite float
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_BLOCK = 1 << 14  # characters of CSV text split into lines at a time
_BATCH = 256  # array items per encoder call of a chunked writer


def dumps_canonical(doc) -> str:
    """Serialise a JSON-ready document deterministically."""
    return _encode(doc)


def _array_items(docs: Iterable, size: int | None = None, render=None) -> Iterator[str]:
    """The items of the JSON array of `docs`, comma-separated canonical JSON text, one chunk per
    batch of `size` documents (``_BATCH`` if not given), so one batch is held at a time.  A batch is
    rendered by `render`, a call of its own whose temporaries are freed before its text is
    yielded, or else by one encoder call."""
    docs = iter(docs)
    sep = ""
    while batch := list(islice(docs, size or _BATCH)):
        yield sep + (render(batch) if render else dumps_canonical(batch)[1:-1])
        sep = ","


def _real(x: float):
    x = float(x)
    if x.is_integer() and abs(x) <= _INT_RENDER_LIMIT:
        return int(x)
    return x


class _RepeatedKeys(tuple):
    """A decoded JSON object that repeats a key, as its (key, value) pairs: neither a dict nor a
    list, so every shape check rejects it, shown as the dict that keeps each key's last value."""

    def __repr__(self) -> str:
        return repr(dict(self))


def _object(pairs: list):
    """The one ``object_pairs_hook``: an object's dict, or `_RepeatedKeys` where a key repeats.  It
    raises nothing, so a syntax error later in the text is still the one reported."""
    data = dict(pairs)
    return data if len(data) == len(pairs) else _RepeatedKeys(pairs)


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:
        # an integer past the interpreter's digit limit for str-to-int conversion
        raise ParseError("invalid JSON: integer with too many digits") from None


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer out of the range of a real") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite value")
    return value


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split about ``_BLOCK`` characters at a time, so only
    one block's lines are held.  Each block ends just after a ``\\n``, which ends
    every line break it is part of (``\\r\\n`` too), so the lines are the same."""

    def blocks() -> Iterator[list[str]]:
        start = 0
        while start < len(text):
            end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
            yield text[start:end].splitlines()
            start = end

    return chain.from_iterable(blocks())


def _token(field: str, where: str) -> str:
    if not field:
        raise ParseError(f"{where}: empty cell")
    if field != field.strip():
        raise ParseError(f"{where}: token {field!r} has surrounding whitespace")
    return field


def _csv_real(field: str, where: str) -> float:
    token = _token(field, where)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite value {token!r}")
    return value


def _got(text: str) -> str:
    """The header text read, as its repr cut to 40 characters, so a byte-order mark shows."""
    return f", got {repr(text)[:40]}"


def _names(value, where: str) -> list[str]:
    """The one name-string-array check, for graded levels, partition blocks,
    approximation sets, object sets and the universe of a partition document."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where}: expected an array of name strings")
    return value


# ---------------------------------------------------------------------------
# intervals


def _interval(pair: Sequence, where: str, number=_number) -> Interval:
    """The one ``[lo, hi]`` reader, for CSV rows, JSON items and fused results.

    The caller has checked that `pair` has two entries, since the message
    for a wrong shape depends on the source.
    """
    lo = number(pair[0], where)
    hi = number(pair[1], where)
    if lo > hi:
        raise ParseError(f"{where}: lower endpoint exceeds upper endpoint")
    return Interval._unchecked(lo, hi)


def _is_pair(data) -> bool:
    return isinstance(data, list) and len(data) == 2


def parse_intervals(text: str, fmt: str = "csv") -> list[Interval]:
    """Read interval measurements from CSV (header ``lo,hi``) or JSON."""
    if fmt == "csv":
        lines = _lines(text)
        header = next(lines, None)
        if header != "lo,hi":
            raise ParseError("line 1: header must be 'lo,hi'" + ("" if header is None else _got(header)))
        out = []
        for n, line in enumerate(lines, start=2):
            fields = line.split(",")
            if len(fields) != 2:
                raise ParseError(f"line {n}: expected 2 fields, got {len(fields)}")
            try:
                out.append(_interval(fields, "", _csv_real))
            except ParseError:
                _interval(fields, f"line {n}", _csv_real)  # the same row raises again, now located
        return out
    if fmt == "json":
        data = _load_json(text)
        if not isinstance(data, list):
            raise ParseError("top-level value must be an array of [lo, hi] pairs")
        out = []
        for i, item in enumerate(data, start=1):
            if not _is_pair(item):
                raise ParseError(f"item {i}: expected [lo, hi]")
            out.append(_interval(item, f"item {i}"))
        return out
    raise ParseError(f"unknown interval format: {fmt!r}")


def intervals_doc(intervals: Iterable[Interval]) -> list:
    return [[_real(iv.lo), _real(iv.hi)] for iv in intervals]


def fusion_result_doc(result: FusionResult):
    return None if result is None else [_real(result.lo), _real(result.hi)]


def _fusion_result_from(data, where: str) -> FusionResult:
    if data is None:
        return None
    if not _is_pair(data):
        raise ParseError(f"{where}: expected null or [lo, hi]")
    return _interval(data, where)


def parse_fusion_result(text: str) -> FusionResult:
    return _fusion_result_from(_load_json(text), "value")


def graded_intervals_chunks(graded: GradedIntervals) -> Iterator[str]:
    """The graded intervals' ``f_min`` and fused ``levels`` as canonical JSON
    text, a batch of levels per chunk."""
    yield '{"f_min":' + dumps_canonical(graded.f_min) + ',"levels":['
    yield from _array_items(map(fusion_result_doc, graded.levels))
    yield "]}"


def parse_graded_intervals(text: str) -> GradedIntervals:
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"f_min", "levels"}:
        raise ParseError("expected an object with keys 'f_min' and 'levels'")
    if not _is_int(data["f_min"]):
        raise ParseError("'f_min' must be an integer")
    if not isinstance(data["levels"], list):
        raise ParseError("'levels' must be an array")
    levels = tuple(
        _fusion_result_from(item, f"level {i}") for i, item in enumerate(data["levels"], start=1)
    )
    return GradedIntervals(data["f_min"], levels)


# ---------------------------------------------------------------------------
# distributions


def fault_distribution_doc(dist: FaultDistribution) -> dict:
    return {str(f): _real(p) for f, p in dist.support}


def parse_fault_distribution(text: str) -> FaultDistribution:
    data = _load_json(text)
    # every pair, so FaultDistribution meets a repeated key as a duplicate count
    pairs = data if isinstance(data, _RepeatedKeys) else data.items() if isinstance(data, dict) else ()
    if not pairs:
        raise ParseError("expected a nonempty object mapping fault counts to probabilities")
    support = []
    for key, value in pairs:
        if not (key.isascii() and key.isdigit()):
            raise ParseError(f"fault count {key!r} is not a nonnegative integer")
        try:
            count = int(key)
        except ValueError:
            # past the interpreter's digit limit for integer conversion
            raise ParseError(f"fault count has too many digits ({len(key)})") from None
        support.append((count, _number(value, f"fault count {key}")))
    del data, pairs  # the decoded object goes before the support is sorted
    return FaultDistribution(support)


def _atom_doc(result: FusionResult, p: float) -> dict:
    return {"p": _real(p), "result": fusion_result_doc(result)}


def parse_interval_distribution(text: str) -> IntervalDistribution:
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"atoms"} or not isinstance(data["atoms"], list):
        raise ParseError("expected an object with an 'atoms' array")
    atoms = []
    for i, item in enumerate(data["atoms"], start=1):
        where = f"atom {i}"
        if not isinstance(item, dict) or set(item) != {"p", "result"}:
            raise ParseError(f"{where}: expected an object with keys 'p' and 'result'")
        atoms.append((_fusion_result_from(item["result"], where), _number(item["p"], where)))
    return IntervalDistribution(tuple(atoms))


def interval_distribution_chunks(
    dist: IntervalDistribution, draws: Iterable[FusionResult] | None = None
) -> Iterator[str]:
    """The atoms' masses and results as canonical JSON text, a batch of atoms per
    chunk, then the `draws`, atoms of `dist`, if given, under ``"samples"``
    (which sorts last), a batch of draws per chunk.  Each draw is rendered as
    it is written, so memory does not grow with the draws."""
    yield '{"atoms":['
    yield from _array_items(starmap(_atom_doc, dist.atoms))
    if draws is not None:
        yield '],"samples":['
        yield from _array_items(map(fusion_result_doc, draws))
    yield "]}"


# ---------------------------------------------------------------------------
# tables


def parse_table(text: str) -> InformationTable:
    """Read an information table from CSV with header ``object,<attrs...>``.

    Each line is checked as it is read and handed to the table's coder, so
    no per-row table is held.
    """
    lines = _lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError("line 1: missing header")
    header = [_token(field, "line 1") for field in first.split(",")]
    if header[0] != "object":
        raise ParseError("line 1: first header field must be 'object'" + _got(header[0]))
    if len(header) == 1:
        raise ParseError("line 1: no attributes")
    attr_pos: dict[str, int] = {}
    for name in header[1:]:
        if name in attr_pos:
            raise ParseError(f"line 1: duplicate attribute {name!r}")
        attr_pos[name] = len(attr_pos)
    obj_pos: dict[str, int] = {}  # each object's row; also the duplicate check

    def rows() -> Iterator[list[str]]:
        for n, line in enumerate(lines, start=2):
            fields = line.split(",")
            if len(fields) != len(header):
                raise ParseError(f"line {n}: expected {len(header)} fields, got {len(fields)}")
            # a line with no whitespace and no empty field is all tokens; only
            # another line needs the per-cell scan, which names its first defect
            if "" in fields or line.split() != [line]:
                for field in fields:
                    _token(field, f"line {n}")
            obj = fields.pop(0)
            if obj in obj_pos:
                raise ParseError(f"line {n}: duplicate object id {obj!r}")
            obj_pos[obj] = len(obj_pos)
            yield fields

    table = InformationTable._coded(obj_pos, attr_pos, rows())
    if not table.objects:
        raise ParseError("no objects")
    return table


# ---------------------------------------------------------------------------
# chains and object sets


def parse_graded_family(text: str) -> GradedFamily:
    """Read a nested chain, such as an attribute chain, encoded as a JSON
    array of arrays of names."""
    data = _load_json(text)
    if not isinstance(data, list) or not data:
        raise ParseError("expected a nonempty array of arrays of names")
    return GradedFamily([_names(level, f"level {i}") for i, level in enumerate(data, start=1)])


def _object_sets(sets: Iterable[frozenset[str]], order: Sequence[str] | None) -> Iterator[list[str]]:
    """The one ordering step: each set's names by position in `order` (one map for all), or sorted."""
    position = {x: i for i, x in enumerate(order or ())}
    for ids in sets:
        names = _names(list(ids), "object set")
        try:
            yield sorted(names, key=None if order is None else position.__getitem__)
        except KeyError:
            # a set iterates in hash-seed order, so name its least missing by repr
            missing = min(ids - position.keys(), key=repr)
            raise ParseError(f"identifier {missing!r} is not in the supplied order") from None


def graded_family_doc(family: GradedFamily, order: Sequence[str] | None = None) -> list:
    # same wire shape parse_graded_family reads: an array of arrays of names
    return list(_object_sets(family.levels, order))


# ---------------------------------------------------------------------------
# partitions and granular sets


def _level_doc(partition: Partition) -> dict:
    """The one per-level builder: a partition's blocks, its names unchecked."""
    return {"blocks": partition._groups()}


def partition_doc(partition: Partition) -> dict:
    _names(list(partition.universe), "partition block")
    return _level_doc(partition)


def _partition_from(data, where: str) -> Partition:
    if not isinstance(data, dict) or set(data) != {"blocks"} or not isinstance(data["blocks"], list):
        raise ParseError(f"{where}: expected an object with a 'blocks' array")
    blocks = data["blocks"]
    return Partition.from_blocks(
        [_names(block, f"{where}: block {i}") for i, block in enumerate(blocks, start=1)]
    )


def parse_partition(text: str) -> Partition:
    return _partition_from(_load_json(text), "value")


def granular_set_chunks(granular: GranularSet) -> Iterator[str]:
    """The marked granular set's levels as canonical JSON text, one level per chunk.

    The names are checked once on the universe.  Each level's blocks are
    grouped, rendered and dropped before the next level is grouped, so only
    one level's blocks are held at a time.  The marker sorts before
    ``"levels"``, so it opens the text.
    """
    _names(list(granular.universe), "partition block")
    yield '{"granular":true,"levels":['
    yield from _array_items(map(_level_doc, granular.levels), 1)
    yield "]}"


def parse_granular_set(text: str) -> GranularSet:
    data = _load_json(text)
    if not (isinstance(data, dict) and data.keys() == {"granular", "levels"} and data["granular"] is True
            and isinstance(data["levels"], list)):
        raise ParseError("expected an object with 'granular': true and a 'levels' array")
    parts = [
        _partition_from(item, f"level {i}") for i, item in enumerate(data["levels"], start=1)
    ]
    return validate_granular(parts)


# ---------------------------------------------------------------------------
# approximations and sensitivity profiles


def approximation_pair_doc(pair: ApproximationPair, order: Sequence[str] | None = None) -> dict:
    lower, upper = _object_sets((pair.lower, pair.upper), order)
    return {"lower": lower, "upper": upper}


def parse_approximation_pair(text: str) -> ApproximationPair:
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"lower", "upper"}:
        raise ParseError("expected an object with keys 'lower' and 'upper'")
    return ApproximationPair(
        frozenset(_names(data["lower"], "'lower'")), frozenset(_names(data["upper"], "'upper'"))
    )


# every field is an integer but the accuracy, a real
_SENSITIVITY_FIELDS = tuple(sorted(SensitivityRecord.__slots__))


def sensitivity_profile_doc(records: Iterable[SensitivityRecord]) -> list[dict]:
    return [
        {**{key: getattr(r, key) for key in _SENSITIVITY_FIELDS}, "accuracy": _real(r.accuracy)}
        for r in records
    ]


def parse_sensitivity_profile(text: str) -> list[SensitivityRecord]:
    data = _load_json(text)
    if not isinstance(data, list):
        raise ParseError("expected an array of sensitivity records")
    records = []
    for i, item in enumerate(data, start=1):
        where = f"record {i}"
        if not isinstance(item, dict) or set(item) != set(_SENSITIVITY_FIELDS):
            raise ParseError(f"{where}: expected keys {', '.join(_SENSITIVITY_FIELDS)}")
        for key in _SENSITIVITY_FIELDS:
            if key != "accuracy" and not _is_int(item[key]):
                raise ParseError(f"{where}: '{key}' must be an integer")
        records.append(SensitivityRecord(**{**item, "accuracy": _number(item["accuracy"], where)}))
    return records


# ---------------------------------------------------------------------------
# simulation reports


def _config_doc(config: SimConfig) -> dict:
    return {
        "sensors": config.num_sensors,
        "truth": _real(config.truth),
        "halfwidth": _real(config.correct_halfwidth_max),
        "faulty": config.num_faulty,
        "offset": _real(config.fault_offset_min),
        "seed": config.seed,
    }


def _rounds_text(rounds: list[tuple]) -> str:
    """Rounds given as (index, drawn round) pairs, as comma-separated items of the report's
    ``rounds`` array.  A round's endpoints are rendered as the encoder renders a finite float, and
    re-rendered through ``_real`` only where one of them is integral; its measurements are written
    from that text, its first ``empty`` levels (the kernel's count of leading empty levels) as
    ``null``, and each later level f from the text of the sensors at index f of the kernel's sort
    orders, with no float compared.  Its containment flags come from the kernel's count of leading
    levels that miss the truth.  The drawn rounds must be sound: the caller checks them, or the
    bound has proved that no check could fire, so every endpoint is finite."""
    items = []
    for index, (los, his, faulty, lo_order, hi_order, missing, empty) in rounds:
        lo_tokens, hi_tokens = list(map(_float_text, los)), list(map(_float_text, his))
        measured = "],[".join([f"{lo},{hi}" for lo, hi in zip(lo_tokens, hi_tokens)])
        # only an integral real's shortest form ends in .0 (-0.0's too): re-render such a round through _real
        if ".0," in measured or ".0]" in measured or measured.endswith(".0"):
            lo_tokens, hi_tokens = [repr(_real(x)) for x in los], [repr(_real(x)) for x in his]
            measured = "],[".join([f"{lo},{hi}" for lo, hi in zip(lo_tokens, hi_tokens)])
        # a fused endpoint is the sensor's own, so its text is the measurement's; among equal
        # reals the sort's tie order cannot show, as equal reals render alike (-0.0 too, as 0)
        levels = ",".join(["null"] * empty + [f"[{lo_tokens[i]},{hi_tokens[j]}]"
                                              for i, j in zip(lo_order[empty:], hi_order[empty:])])
        contains = ",".join(["false"] * missing + ["true"] * (len(los) - missing))
        # the keys in sorted order; every round's fused chain covers budgets 0 .. sensors - 1
        items.append(f'{{"contains_truth":[{contains}],"faulty":[{",".join(map(str, faulty))}],"fused":{{"f_min":0,'
                     f'"levels":[{levels}]}},"intervals":[[{measured}]],"round":{index}}}')
    return ",".join(items)


def simulation_chunks(config: SimConfig, rounds: Iterable[tuple]) -> Iterator[str]:
    """The simulator's report as canonical JSON text: its configuration, then one chunk per batch
    of rounds, rendered as soon as ``simulate._draw_rounds`` draws them in plain floats, each fused
    level read through the round's sort orders off its rendered measurements and each leading empty
    level written from the kernel's count.  The rounds are not checked here: ``cli`` checks each
    round of a config before the first chunk, unless ``simulate._no_round_can_fail`` proves that no
    check could fire.  The chunks join to ``dumps_canonical`` of the whole report, its keys written
    in sorted order around the rounds' text.  A batch is as many whole rounds as fit in ``_BATCH``
    numbers, a round's endpoints and faulty indices, and at least one, rendered by one call."""
    yield '{"config":' + dumps_canonical(_config_doc(config)) + ',"rounds":['
    yield from _array_items(enumerate(rounds), max(1, _BATCH // (2 * config.num_sensors + config.num_faulty)),
                            _rounds_text)
    yield "]}"
