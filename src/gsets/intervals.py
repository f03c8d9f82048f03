"""Closed intervals and fault-tolerant fusion of interval measurements.

Given L measurement intervals of which at most f are faulty, the fused
estimate takes the (f+1)-th largest lower endpoint as its left end and the
(f+1)-th smallest upper endpoint as its right end.  Sweeping f over a range
yields a nested chain of estimates; pushing a distribution over fault counts
through the rule yields a distribution over fused intervals.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Collection, Iterable, Sequence
from functools import total_ordering
from itertools import accumulate, islice

from ._value import Value
from .errors import DomainError

PROB_TOLERANCE = 1e-9
MAX_SEED = 2**64 - 1


def _is_int(value) -> bool:
    """The one count test, for the library's counts and the parsers' integers: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, what: str) -> None:
    """The one count rule, for fault budgets, fault counts, seeds and the simulator's counts."""
    if not _is_int(value):
        raise DomainError(f"{what} must be an integer")


def _float(value, what: str) -> float:
    """The one real rule, for probability masses and the simulator's reals: only an int that is not
    a bool, or a float, is taken, as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"{what} must be an int or a float")
    try:
        return float(value)
    except OverflowError:  # an int past the largest float
        raise DomainError(f"{what} is out of the range of a float") from None


@total_ordering
class Interval(Value):
    """Closed real interval [lo, hi] with finite endpoints, ordered by (lo, hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("interval endpoints must be finite")
        if lo > hi:
            raise DomainError(f"interval lower endpoint {lo} exceeds upper endpoint {hi}")
        _set_lo(self, lo)
        _set_hi(self, hi)

    @classmethod
    def _unchecked(cls, lo: float, hi: float) -> Interval:
        """[lo, hi] from endpoints that are already finite floats with lo <= hi,
        such as those of checked intervals; nothing is checked again."""
        self = _new(cls)
        _set_lo(self, lo)
        _set_hi(self, hi)
        return self

    def __lt__(self, other: Interval) -> bool:
        return (self.lo, self.hi) < (other.lo, other.hi) if other.__class__ is Interval else NotImplemented

    def contains_point(self, t: float) -> bool:
        return self.lo <= t <= self.hi

    def contains_interval(self, other: Interval) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


# the slots' own setters: the hottest constructors skip object.__setattr__
_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__
_new = object.__new__

# A fused estimate is an interval, or None when the computed left endpoint
# exceeds the right one (the empty result).
FusionResult = Interval | None


def fused_subset(inner: FusionResult, outer: FusionResult) -> bool:
    """Containment on fused results; the empty result is inside everything."""
    if inner is None:
        return True
    if outer is None:
        return False
    return outer.contains_interval(inner)


def _result_key(result: FusionResult) -> tuple:
    # canonical sort order: empty first, then by (lo, hi)
    return (0, 0.0, 0.0) if result is None else (1, result.lo, result.hi)


class GradedIntervals(Value):
    """Fused estimates for consecutive fault budgets f_min..f_max.

    Adjacent levels must be nested (each level inside the next); the
    constructor checks this rather than repairing violations.
    """

    __slots__ = ("f_min", "levels")

    def __init__(self, f_min: int, levels: Iterable[FusionResult]) -> None:
        levels = tuple(levels)
        self._init(f_min, levels)
        _check_int(f_min, "f_min")
        if f_min < 0:
            raise DomainError("f_min must be nonnegative")
        if not levels:
            raise DomainError("graded intervals need at least one level")
        # the empty level as [inf, -inf]: empty, and inside no nonempty level
        _check_nested([math.inf if lv is None else lv.lo for lv in levels],
                      [-math.inf if lv is None else lv.hi for lv in levels])

    @property
    def f_max(self) -> int:
        return self.f_min + len(self.levels) - 1

    def level(self, f: int) -> FusionResult:
        _check_int(f, "fault count")
        if not self.f_min <= f <= self.f_max:
            raise DomainError(f"fault count {f} outside range {self.f_min}..{self.f_max}")
        return self.levels[f - self.f_min]


def _check_pmf(probabilities: Collection[float]) -> None:
    """The one probability rule: every mass positive, and the correctly rounded sum within PROB_TOLERANCE of 1."""
    if any(not (p > 0) for p in probabilities):
        raise DomainError("probabilities must be positive")
    try:
        total = math.fsum(probabilities)
    except OverflowError:  # positive masses whose sum is past the largest float
        total = math.inf
    if abs(total - 1.0) > PROB_TOLERANCE:
        raise DomainError(f"probabilities sum to {total!r}, expected 1")


class FaultDistribution(Value):
    """Discrete probability distribution over fault counts."""

    __slots__ = ("support",)

    def __init__(self, support: Iterable[tuple[int, float]]) -> None:
        support = list(support)
        # a parsed support is already (int, float) pairs, kept as they are
        if any(pair.__class__ is not tuple or len(pair) != 2 or pair[0].__class__ is not int
               or pair[1].__class__ is not float for pair in support):
            for f, _ in support:
                _check_int(f, "fault count")
            support = [(int(f), _float(p, "probability")) for f, p in support]
        support.sort()
        support = tuple(support)
        self._init(support)
        if not support:
            raise DomainError("fault distribution has empty support")
        if any(a[0] == b[0] for a, b in zip(support, islice(support, 1, None))):
            raise DomainError("duplicate fault count in distribution")
        if support[0][0] < 0:
            raise DomainError("fault counts must be nonnegative")
        _check_pmf([p for _, p in support])


class IntervalDistribution(Value):
    """Discrete distribution over fused results.

    Atoms with identical results are merged with their probabilities summed,
    and stored in canonical order (empty first, then by endpoints); `_cum` holds
    the running masses of every atom but the last, in that order, for `sample`.
    """

    __slots__ = ("atoms", "_cum")

    def __init__(self, atoms: Iterable[tuple[FusionResult, float]]) -> None:
        merged: dict[FusionResult, float] = {}
        for result, p in atoms:
            if result is not None and not isinstance(result, Interval):
                raise DomainError(f"not a fusion result: {result!r}")
            merged[result] = merged.get(result, 0.0) + _float(p, "probability")
        if not merged:
            raise DomainError("interval distribution has no atoms")
        _check_pmf(merged.values())
        atoms = tuple(sorted(merged.items(), key=lambda a: _result_key(a[0])))
        self._init(atoms, tuple(accumulate(p for _, p in islice(atoms, len(atoms) - 1))))


def _check_nested(lows: Sequence[float], highs: Sequence[float]) -> None:
    """The one chain condition: each nonempty level [lows[i], highs[i]] (empty if lo > hi) lies inside the next."""
    for i, (lo, hi, outer_lo, outer_hi) in enumerate(zip(lows, highs, lows[1:], highs[1:])):
        if lo <= hi and not (outer_lo <= lo and hi <= outer_hi):
            raise DomainError(f"levels {i} and {i + 1} are not nested")


def _order_statistics(lows: Iterable[float], highs: Iterable[float]) -> tuple[list[float], list[float]]:
    """The one fusion kernel: the lower endpoints sorted descending and the
    upper endpoints ascending, so that level f is read off index f of each."""
    lows = sorted(lows, reverse=True)
    if not lows:
        raise DomainError("no measurements")
    return lows, sorted(highs)


def _sorted_ends(intervals: Iterable[Interval]) -> tuple[list[float], list[float]]:
    items = list(intervals)
    return _order_statistics([iv.lo for iv in items], [iv.hi for iv in items])


def _level(lows: list[float], highs: list[float], f: int) -> FusionResult:
    """Level f of the sorted endpoints, once the fault count is checked."""
    if f < 0:
        raise DomainError("fault count must be nonnegative")
    if f >= len(lows):
        raise DomainError("fault count exceeds measurement count")
    lo, hi = lows[f], highs[f]
    return Interval._unchecked(lo, hi) if lo <= hi else None


def fuse(intervals: Iterable[Interval], f: int) -> FusionResult:
    """Fuse measurement intervals, tolerating up to f faulty ones.

    The left endpoint is the (f+1)-th largest lower bound and the right
    endpoint the (f+1)-th smallest upper bound; an inverted pair yields the
    empty result.  Invariant under permutation of the input.
    """
    _check_int(f, "fault count")
    return _level(*_sorted_ends(intervals), f)


def graded_fusion(intervals: Iterable[Interval], f_min: int, f_max: int) -> GradedIntervals:
    """Fuse at every fault budget in f_min..f_max, off one pair of endpoint sorts."""
    _check_int(f_min, "f_min")
    _check_int(f_max, "f_max")
    return _graded_levels(*_sorted_ends(intervals), f_min, f_max)


def _graded_levels(lows: list[float], highs: list[float], f_min: int, f_max: int) -> GradedIntervals:
    """Levels f_min..f_max of the sorted endpoints, once the fault range is checked.

    They are nested by the fusion rule itself; the GradedIntervals
    constructor re-asserts the chain condition.
    """
    if not 0 <= f_min <= f_max <= len(lows) - 1:
        raise DomainError("invalid fault range")
    new = Interval._unchecked  # the endpoints are checked where they are read or drawn; the reader decides lo <= hi
    levels = islice(zip(lows, highs), f_min, f_max + 1)
    return GradedIntervals(f_min, (new(lo, hi) if lo <= hi else None for lo, hi in levels))


def as_rough_pair(graded: GradedIntervals) -> tuple[FusionResult, FusionResult]:
    """View a two-level chain as its (lower, upper) pair."""
    if len(graded.levels) != 2:
        raise DomainError("not a rough pair")
    return graded.levels[0], graded.levels[1]


def random_graded(intervals: Iterable[Interval], dist: FaultDistribution) -> IntervalDistribution:
    """Push a fault-count distribution through the fusion rule.

    Every result is read off one pair of endpoint sorts; the IntervalDistribution
    constructor pools fault counts that fuse to the same result into one atom.
    """
    lows, highs = _sorted_ends(intervals)
    # pooled as they are read off, so no result is held per fault count
    return IntervalDistribution((_level(lows, highs, f), p) for f, p in dist.support)


def sample(dist: IntervalDistribution, seed: int) -> FusionResult:
    """Draw one atom, reproducibly for a given int seed.

    Uses the stdlib Mersenne Twister seeded with `seed`: one binary search over
    the running masses finds the first atom whose running mass exceeds its
    single uniform draw, or the last atom when the draw is past them all.
    """
    _check_int(seed, "seed")
    if not 0 <= seed <= MAX_SEED:
        raise DomainError("seed must be an unsigned 64-bit integer")
    return dist.atoms[bisect_right(dist._cum, random.Random(seed).random())][0]
