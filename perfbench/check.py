"""Output checker: bench-side reference implementations of every subcommand.

Each reference is written from the definitions, not from the program's
code: fusion is the sort-once order statistic ``(lo_desc[f], hi_asc[f])``,
partitions are signature groupings, approximations are block scans.  Where
the reference fixes the whole document, the program's stdout must equal its
canonical rendering byte for byte; otherwise (``random`` pooling, simulated
rounds) the checker tests the invariants the paper states.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

_INT_RENDER_LIMIT = 2**53
PROB_TOLERANCE = 1e-9


class CheckError(Exception):
    """An output does not match its reference."""


def dumps(doc) -> str:
    """Canonical JSON: sorted keys, no insignificant whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def real(x: float):
    """Canonical number: integral values as integers, others shortest round-trip."""
    x = float(x)
    return int(x) if x.is_integer() and abs(x) <= _INT_RENDER_LIMIT else x


def canonical(stdout: bytes):
    """Parse stdout as one canonical JSON document and a newline."""
    try:
        text = stdout.decode("ascii")
        doc = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"stdout is not one JSON document: {exc}") from None
    if dumps(doc) + "\n" != text:
        raise CheckError("stdout is not the canonical re-dump of itself")
    return doc


def _expect(doc, expected, what: str) -> None:
    if dumps(doc) != dumps(expected):
        raise CheckError(f"{what} differs from the reference")


# ---------------------------------------------------------------------------
# fusion


def order_statistics(intervals) -> list:
    """Every fusion level at once: level f is (f+1-th largest lo, f+1-th smallest hi)."""
    lo_desc = sorted((lo for lo, _ in intervals), reverse=True)
    hi_asc = sorted(hi for _, hi in intervals)
    return [[real(c), real(d)] if c <= d else None for c, d in zip(lo_desc, hi_asc)]


def _inside(inner, outer) -> bool:
    if inner is None:
        return True
    return outer is not None and outer[0] <= inner[0] and inner[1] <= outer[1]


def _nested(levels, what: str) -> None:
    for i in range(len(levels) - 1):
        if not _inside(levels[i], levels[i + 1]):
            raise CheckError(f"{what}: levels {i} and {i + 1} are not nested")


def _result_key(result) -> tuple:
    return (0, 0.0, 0.0) if result is None else (1, result[0], result[1])


def _check_fuse(wl, op, doc) -> None:
    levels = order_statistics(wl.data[op.flag("--input")])
    _expect(doc, levels[int(op.flag("--faults"))], "fused interval")


def _check_graded(wl, op, doc) -> None:
    levels = order_statistics(wl.data[op.flag("--input")])
    f_min, f_max = int(op.flag("--fmin")), int(op.flag("--fmax"))
    _expect(doc, {"f_min": f_min, "levels": levels[f_min : f_max + 1]}, "graded chain")
    _nested(doc["levels"], "graded chain")


def _check_random(wl, op, doc) -> None:
    levels = order_statistics(wl.data[op.flag("--input")])
    pooled: dict = {}
    for f, p in sorted(wl.data[op.flag("--dist")].items()):
        key = None if levels[f] is None else tuple(levels[f])
        pooled[key] = pooled.get(key, 0.0) + p
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or len(atoms) != len(pooled):
        raise CheckError("random: atoms are not pooled by result")
    results = [None if a["result"] is None else tuple(a["result"]) for a in atoms]
    if results != sorted(pooled, key=_result_key):
        raise CheckError("random: atoms are not the pooled results in canonical order")
    for atom, result in zip(atoms, results):
        if not math.isclose(atom["p"], pooled[result], rel_tol=1e-12, abs_tol=1e-15):
            raise CheckError(f"random: atom {result} has p {atom['p']}, expected {pooled[result]}")
    if abs(sum(a["p"] for a in atoms) - 1.0) > PROB_TOLERANCE:
        raise CheckError("random: atom probabilities do not sum to 1")
    if "--sample" in dict(op.flags):
        seed = int(op.flag("--seed"))
        expected = [_draw(atoms, seed + i) for i in range(int(op.flag("--sample")))]
        if doc.get("samples") != expected:
            raise CheckError("random: samples differ from the seeded draws")


def _draw(atoms, seed: int):
    x = random.Random(seed).random()
    acc = 0.0
    for atom in atoms:
        acc += atom["p"]
        if x < acc:
            return atom["result"]
    return atoms[-1]["result"]


def _check_simulate(wl, op, doc) -> None:
    sensors, faulty = int(op.flag("--sensors")), int(op.flag("--faulty"))
    rounds = int(op.flag("--rounds"))
    truth, halfwidth, offset = 0.0, 1.0, 2.5
    config = {"faulty": faulty, "halfwidth": real(halfwidth), "offset": real(offset),
              "seed": int(op.flag("--seed")), "sensors": sensors, "truth": real(truth)}
    _expect(doc.get("config"), config, "simulate config")
    if len(doc["rounds"]) != rounds:
        raise CheckError(f"simulate: {len(doc['rounds'])} rounds, expected {rounds}")
    for i, rnd in enumerate(doc["rounds"]):
        where = f"simulate round {i}"
        bad = rnd["faulty"]
        if rnd["round"] != i or bad != sorted(set(bad)) or len(bad) != faulty:
            raise CheckError(f"{where}: bad round index or fault census")
        if len(rnd["intervals"]) != sensors or not all(0 <= k < sensors for k in bad):
            raise CheckError(f"{where}: expected {sensors} intervals")
        bad = set(bad)
        for k, (lo, hi) in enumerate(rnd["intervals"]):
            if not lo <= hi or (lo <= truth <= hi) == (k in bad):
                raise CheckError(f"{where}: interval {k} breaks the fault geometry")
        levels = order_statistics(rnd["intervals"])
        _expect(rnd["fused"], {"f_min": 0, "levels": levels}, f"{where} fused chain")
        _nested(levels, where)
        contains = [lv is not None and lv[0] <= truth <= lv[1] for lv in levels]
        if rnd["contains_truth"] != contains or not all(contains[faulty:]):
            raise CheckError(f"{where}: truth containment fails for some f >= {faulty}")


# ---------------------------------------------------------------------------
# tables


def signature_blocks(table, attrs) -> list[list[str]]:
    """Objects grouped by their values on `attrs`, in table order."""
    attrs = set(attrs)
    cols = [j for j, a in enumerate(table.attributes) if a in attrs]
    groups: dict = {}
    for obj, row in zip(table.objects, table.rows):
        groups.setdefault(tuple(row[j] for j in cols), []).append(obj)
    return list(groups.values())


def block_scan(table, blocks, target) -> tuple[list[str], list[str]]:
    """Lower and upper approximations of `target`, in table order."""
    target = set(target)
    lower, upper = set(), set()
    for block in blocks:
        hits = sum(x in target for x in block)
        if hits == len(block):
            lower.update(block)
        if hits:
            upper.update(block)
    return [o for o in table.objects if o in lower], [o for o in table.objects if o in upper]


def _refines(finer, coarser) -> bool:
    where = {x: i for i, block in enumerate(coarser) for x in block}
    return all(len({where[x] for x in block}) == 1 for block in finer)


def names(value: str) -> list[str]:
    """A comma-separated flag value as a list; the empty string is the empty list."""
    return value.split(",") if value else []


def _chain(wl, op):
    return wl.data[op.flag("--chain")]


def _check_partition(wl, op, doc) -> None:
    table = wl.data[op.flag("--table")]
    _expect(doc, {"blocks": signature_blocks(table, names(op.flag("--attrs")))}, "partition")


def _check_granulate(wl, op, doc) -> None:
    table = wl.data[op.flag("--table")]
    levels = [{"blocks": signature_blocks(table, attrs)} for attrs in reversed(_chain(wl, op))]
    _expect(doc, {"granular": True, "levels": levels}, "granular set")
    blocks = [level["blocks"] for level in doc["levels"]]
    for i in range(len(blocks) - 1):
        if not _refines(blocks[i], blocks[i + 1]):
            raise CheckError(f"granular set: level {i} does not refine level {i + 1}")


def _check_approx(wl, op, doc) -> None:
    table = wl.data[op.flag("--table")]
    blocks = signature_blocks(table, names(op.flag("--attrs")))
    lower, upper = block_scan(table, blocks, names(op.flag("--target")))
    _expect(doc, {"lower": lower, "upper": upper}, "approximation pair")


def _check_graded_approx(wl, op, doc) -> None:
    table = wl.data[op.flag("--table")]
    blocks = signature_blocks(table, names(op.flag("--attrs")))
    pairs = [block_scan(table, blocks, level) for level in wl.data[op.flag("--targets")]]
    _expect(doc, {"lower": [lo for lo, _ in pairs], "upper": [up for _, up in pairs]}, "graded approximations")
    for key in ("lower", "upper"):
        for i in range(len(doc[key]) - 1):
            if not set(doc[key][i]) <= set(doc[key][i + 1]):
                raise CheckError(f"graded approximations: {key} levels {i}, {i + 1} not nested")


def _check_sensitivity(wl, op, doc) -> None:
    table = wl.data[op.flag("--table")]
    target = names(op.flag("--target"))
    records = []
    for i, attrs in enumerate(_chain(wl, op)):
        lower, upper = block_scan(table, signature_blocks(table, attrs), target)
        records.append({
            "accuracy": real(len(lower) / len(upper) if upper else 1.0),
            "attribute_count": len(set(attrs)),
            "boundary_size": len(upper) - len(lower),
            "level_index": i,
            "lower_size": len(lower),
            "upper_size": len(upper),
        })
    _expect(doc, records, "sensitivity profile")


CHECKS = {
    "fuse": _check_fuse,
    "graded": _check_graded,
    "random": _check_random,
    "simulate": _check_simulate,
    "partition": _check_partition,
    "granulate": _check_granulate,
    "approx": _check_approx,
    "graded-approx": _check_graded_approx,
    "sensitivity": _check_sensitivity,
}


def check(wl, op, stdout: bytes) -> None:
    """Raise CheckError unless `stdout` is the right canonical answer to `op`."""
    doc = canonical(stdout)
    try:
        CHECKS[op.cmd](wl, op, doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CheckError(f"{op.cmd}: malformed document ({type(exc).__name__}: {exc})") from None


class Checker:
    """Checks each distinct stdout of an op once; repeats are looked up by digest."""

    def __init__(self, wl):
        self.wl = wl
        self._seen: dict = {}

    def __call__(self, op, stdout: bytes) -> str | None:
        """The reason `stdout` is wrong for `op`, or None when it is right."""
        key = (op.id, hashlib.sha256(stdout).digest())
        if key not in self._seen:
            try:
                check(self.wl, op, stdout)
                self._seen[key] = None
            except CheckError as exc:
                self._seen[key] = str(exc)
        return self._seen[key]
