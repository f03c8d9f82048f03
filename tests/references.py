"""Brute-force references for the paper's invariants, one definition each.

Written from the definitions, they import nothing from gsets and read values
by duck typing: an interval's ``.lo`` and ``.hi``, a partition's ``.blocks``
and ``.universe``, a table's ``.objects`` and ``.value``.  The reference
documents are plain JSON data, for the streamed writers' text to equal their
canonical encoding; they apply the canonical number rule themselves.
"""


def is_left_end(los, c, f):
    """c is the (f+1)-th largest lower end, counted in O(n): at most f lie above it, more than f at or above."""
    return sum(lo > c for lo in los) <= f < sum(lo >= c for lo in los)


def is_right_end(his, d, f):
    """d is the (f+1)-th smallest upper end, counted as in `is_left_end`."""
    return sum(hi < d for hi in his) <= f < sum(hi <= d for hi in his)


def fused_ends(items, f):
    """The ends (c, d) of the fusion at budget f, selected by counting, or None where c exceeds d."""
    los, his = [iv.lo for iv in items], [iv.hi for iv in items]
    c = next(lo for lo in los if is_left_end(los, lo, f))
    d = next(hi for hi in his if is_right_end(his, hi, f))
    return (c, d) if c <= d else None


def ends(result):
    """A fused result as its (lo, hi) pair, or None for the empty result."""
    return None if result is None else (result.lo, result.hi)


def meet(items):
    """The intersection of the intervals as (lo, hi), or None if it is empty."""
    lo, hi = max(iv.lo for iv in items), min(iv.hi for iv in items)
    return (lo, hi) if lo <= hi else None


def hull(items):
    """The convex hull of the intervals as (lo, hi)."""
    return min(iv.lo for iv in items), max(iv.hi for iv in items)


def nested(inner, outer):
    """Fused result `inner` lies inside `outer`; the empty result (None) lies inside everything."""
    if inner is None:
        return True
    return outer is not None and outer.lo <= inner.lo and inner.hi <= outer.hi


def refines_by_definition(finer, coarser):
    """The universes hold the same elements, and every finer block lies inside one coarser block."""
    coarse_block = {x: i for i, block in enumerate(coarser.blocks) for x in block}
    return set(finer.universe) == coarse_block.keys() and all(
        len({coarse_block[x] for x in block}) == 1 for block in finer.blocks
    )


def same_blocks(a, b):
    """The two partitions have the same blocks: each refines the other by definition."""
    return refines_by_definition(a, b) and refines_by_definition(b, a)


def signature_blocks(table, attrs):
    """The objects grouped by their values on `attrs`, each block in table order, blocks by first object."""
    groups = {}
    for obj in table.objects:
        groups.setdefault(tuple(table.value(obj, a) for a in sorted(attrs)), []).append(obj)
    return tuple(map(tuple, groups.values()))


def approximations(blocks, target):
    """(lower, upper): the union of the blocks inside `target`, and of those that meet it."""
    target = set(target)
    return (
        frozenset(x for block in blocks if target.issuperset(block) for x in block),
        frozenset(x for block in blocks if target.intersection(block) for x in block),
    )


def atom_at(atoms, x):
    """A draw x as a walk over the (result, mass) atoms: the first whose running mass exceeds x, else the last."""
    acc = 0.0
    for result, p in atoms:
        acc += p
        if x < acc:
            return result
    return atoms[-1][0]


def canonical_real(x):
    """A real as a canonical document holds it: an int where it is integral and at most 2**53 in magnitude."""
    x = float(x)
    return int(x) if x.is_integer() and abs(x) <= 2**53 else x


def result_document(result):
    """An interval or fused result as [lo, hi], or None for the empty result."""
    return None if result is None else [canonical_real(result.lo), canonical_real(result.hi)]


def graded_intervals_document(graded):
    """The least budget and every level's fused result."""
    return {"f_min": graded.f_min, "levels": [result_document(level) for level in graded.levels]}


def interval_distribution_document(dist, samples=None):
    """Each (result, mass) atom in order, and the drawn results under "samples" where given."""
    doc = {"atoms": [{"p": canonical_real(p), "result": result_document(result)} for result, p in dist.atoms]}
    if samples is not None:
        doc["samples"] = [result_document(result) for result in samples]
    return doc


def granular_set_document(granular):
    """The marked levels, each a partition's blocks: names by universe position, blocks by their first name's."""
    levels = []
    for level in granular.levels:
        position = {x: i for i, x in enumerate(level.universe)}
        blocks = [sorted(block, key=position.__getitem__) for block in level.blocks]
        levels.append({"blocks": sorted(blocks, key=lambda block: position[block[0]])})
    return {"granular": True, "levels": levels}


def simulation_report(config, outcomes):
    """The simulator's configuration and, per outcome, its measurements, faulty indices, fused chain and containment."""
    return {
        "config": {
            "sensors": config.num_sensors,
            "truth": canonical_real(config.truth),
            "halfwidth": canonical_real(config.correct_halfwidth_max),
            "faulty": config.num_faulty,
            "offset": canonical_real(config.fault_offset_min),
            "seed": config.seed,
        },
        "rounds": [
            {
                "round": i,
                "faulty": sorted(out.faulty_indices),
                "intervals": [result_document(iv) for iv in out.intervals],
                "fused": graded_intervals_document(out.fused),
                "contains_truth": list(out.truth_containment),
            }
            for i, out in enumerate(outcomes)
        ],
    }
