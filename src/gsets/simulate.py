"""Seeded fault-injection rounds for end-to-end fusion checks.

Each round plants a known truth, draws correct intervals around it and
faulty intervals displaced far enough to provably exclude it, then fuses
the lot for every fault budget and records which budgets recover the truth.
One kernel, ``_draw_rounds``, draws rounds in plain floats and orders each round's sensors through
the fusion kernel, ``intervals._order_statistics``.  The library builds a round's levels through
those orders with ``intervals._graded_levels``, and ``formats.simulation_chunks`` writes their text
off the round's rendered measurements.  Each call builds one generator and reseeds it for each round
from the seed and the round index alone, so any round is reproducible alone.

The kernel checks nothing: one checker, ``_check_round``, names a round's first unsound sensor.
The library checks each round as its iterator reaches it; the CLI checks every round of a config
before its first write unless ``_no_round_can_fail`` proves that no check could fire, and then
checks none.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from random import Random

from ._value import Value
from .errors import DomainError
from .intervals import MAX_SEED, GradedIntervals, Interval, _check_int, _float, _graded_levels, _order_statistics
from .intervals import graded_fusion  # unused here, but the traced replay wraps gsets.simulate.graded_fusion


class SimConfig(Value):
    """Parameters of one simulated sensor round.

    fault_offset_min must exceed correct_halfwidth_max so that a displaced
    interval cannot reach back to the truth.  The counts and the seed are ints,
    and the reals are stored as floats, so equal configurations draw equal rounds.
    """

    __slots__ = ("num_sensors", "truth", "correct_halfwidth_max", "num_faulty", "fault_offset_min", "seed")

    def __init__(self, num_sensors: int, truth: float, correct_halfwidth_max: float, num_faulty: int,
                 fault_offset_min: float, seed: int) -> None:
        _check_int(num_sensors, "num_sensors")
        _check_int(num_faulty, "num_faulty")
        _check_int(seed, "seed")
        truth = _float(truth, "truth")
        correct_halfwidth_max = _float(correct_halfwidth_max, "correct_halfwidth_max")
        fault_offset_min = _float(fault_offset_min, "fault_offset_min")
        if num_sensors < 1:
            raise DomainError("need at least one sensor")
        if not math.isfinite(truth):
            raise DomainError("truth must be finite")
        if not correct_halfwidth_max > 0:
            raise DomainError("correct_halfwidth_max must be positive")
        if not fault_offset_min > 0:
            raise DomainError("fault_offset_min must be positive")
        if not math.isfinite(fault_offset_min):
            raise DomainError("fault_offset_min must be finite")
        if not 0 <= num_faulty < num_sensors:
            raise DomainError("num_faulty must be less than num_sensors")
        if not fault_offset_min > correct_halfwidth_max:
            raise DomainError("fault_offset_min must exceed correct_halfwidth_max")
        if not 0 <= seed <= MAX_SEED:
            raise DomainError("seed must be an unsigned 64-bit integer")
        self._init(num_sensors, truth, correct_halfwidth_max, num_faulty, fault_offset_min, seed)


def _no_round_can_fail(config: SimConfig) -> bool:
    """True only if ``_check_round`` can raise for no round of `config`: a sufficient test, not a
    necessary one.  It repeats the kernel's float operations in the kernel's order.  Where it holds,
    no check needs to run."""
    # Rounding to nearest is monotone: x <= y implies fl(x) <= fl(y), so each bound below holds
    # after every rounding step (Goldberg 1991).  With w = width and m0 = offset_min, in the
    # kernel's terms:
    # - u = w * (1.0 - uniform()) and v likewise lie in [0, w], as 1.0 - uniform() lies in (0, 1];
    #   so a correct sensor's truth - u <= truth <= truth + v holds the truth, and no sensor's
    #   centre - u rises above its centre + v, so no interval's ends cross.
    # - m = m0 * (1.0 + uniform()) lies in [m0, 2.0 * m0], as 1.0 + uniform() lies in [1, 2].
    #   A centre truth + m is at least truth + m0, so its lower end (truth + m) - u is at least
    #   (truth + m0) - w; a centre truth + -m, which is truth - m, is at most truth - m0, so its
    #   upper end (truth - m) + v is at most (truth - m0) + w.  When the first is above the truth
    #   and the second below it, no faulty interval holds the truth.
    # - No endpoint is larger in magnitude than (|truth| + 2.0 * m0) + w, so when that is finite,
    #   no endpoint overflows.
    # So where all three hold, no sensor of any round can fail a check of ``_check_round``.
    truth, width, offset_min = config.truth, config.correct_halfwidth_max, config.fault_offset_min
    return ((truth + offset_min) - width > truth and (truth - offset_min) + width < truth
            and math.isfinite((abs(truth) + 2.0 * offset_min) + width))


class SimOutcome(Value):
    """Everything one round produced, including per-budget truth recovery."""

    __slots__ = ("intervals", "faulty_indices", "fused", "truth_containment")

    def __init__(self, intervals: tuple[Interval, ...], faulty_indices: frozenset[int], fused: GradedIntervals,
                 truth_containment: tuple[bool, ...]) -> None:
        self._init(intervals, faulty_indices, fused, truth_containment)


@cache
def _sha256():
    # the interpreter's own SHA-256 (_sha2 from 3.12, _sha256 before), as
    # random.py does for SHA-512: hashlib loads OpenSSL, megabytes for one
    # short digest per round; resolved on the first round, not at import
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _draw_rounds(config: SimConfig, round_indices: Iterable[int]) -> Iterator[tuple]:
    """The one draw kernel: ``simulate_round`` in plain floats for each of `round_indices`, drawn and
    not checked.  Each round is each sensor's lower and upper endpoint in sensor order, the faulty
    indices in order, the fusion kernel's stable orders ``lo_order`` (lower ends descending) and
    ``hi_order`` (upper ends ascending), the count of leading levels that miss the truth, and the
    count of leading levels that are empty.  Level f is [los[lo_order[f]], his[hi_order[f]]], empty
    where its lower end exceeds its upper end.  The levels are nested by construction, as the f-th
    largest lower end never rises and the f-th smallest upper end never falls as f grows, so both
    counts cover every such level: once a level holds the truth, every larger budget's level does,
    and once a level is not empty, no larger budget's level is.  An empty level misses the truth, so
    the empty levels never outnumber the missing ones.  Whether a round is sound is
    ``_check_round``'s to say; a config that ``_no_round_can_fail`` clears needs no check.

    One generator serves the rounds, reseeded for each: a round's seed is the first 8 bytes, read
    big-endian, of the SHA-256 of ``"{seed}:{round}"``, and reseeding leaves the state that
    ``random.Random`` of the same int starts in, so each round is reproducible alone.  Past
    ``random.sample``'s set size the faulty set is ``sample(range(n), k)`` itself.  Up to it, and so at
    every bench shape, the faulty set and each faulty sensor's side are read off ``getrandbits`` as
    ``sample`` and ``random.choice((-1.0, 1.0))`` draw them on CPython 3.10-3.13, which a property in
    the tests checks: a draw below m takes ``getrandbits(m.bit_length())`` until it is below m;
    ``sample`` runs a partial Fisher-Yates over the indices; the side is a draw below 2, and 0 is
    -1.0."""
    n, k = config.num_sensors, config.num_faulty
    truth, width, offset_min = config.truth, config.correct_halfwidth_max, config.fault_offset_min
    rng = Random(0)  # reseeded for each round
    reseed, bits, uniform = rng.seed, rng.getrandbits, rng.random
    sha256, prefix = _sha256(), f"{config.seed}:"
    pooled = n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)  # sample's set size
    sensors = range(n)
    for round_index in round_indices:
        reseed(int.from_bytes(sha256(f"{prefix}{round_index}".encode("ascii")).digest()[:8], "big"))
        if pooled:
            faulty = set()
            pool = list(sensors)
            for m in range(n, n - k, -1):
                m_bits = m.bit_length()
                j = bits(m_bits)
                while j >= m:
                    j = bits(m_bits)
                faulty.add(pool[j])
                pool[j] = pool[m - 1]
        else:
            faulty = set(rng.sample(sensors, k))
        los, his = [], []
        for i in sensors:
            # u, v uniform over (0, width]: 1 - random() lies in (0, 1]
            u = width * (1.0 - uniform())
            v = width * (1.0 - uniform())
            if i in faulty:
                side = bits(2)
                while side >= 2:
                    side = bits(2)
                center = truth + (-1.0, 1.0)[side] * (offset_min * (1.0 + uniform()))
                lo, hi = center - u, center + v
            else:
                lo, hi = truth - u, truth + v
            los.append(lo)
            his.append(hi)
        lo_order, hi_order = _order_statistics(sensors, los.__getitem__, his.__getitem__)
        missing = 0
        while missing < n and not los[lo_order[missing]] <= truth <= his[hi_order[missing]]:
            missing += 1
        empty = 0
        while empty < missing and los[lo_order[empty]] > his[hi_order[empty]]:
            empty += 1
        yield los, his, sorted(faulty), lo_order, hi_order, missing, empty


def _check_round(config: SimConfig, round_index: int, drawn: tuple) -> None:
    """Raise for the first unsound sensor of a round that ``_draw_rounds`` drew, in sensor order: one
    whose endpoints overflow or cross, or else one that lies on the wrong side of the truth.  The
    error names the round and the sensor."""
    los, his, faulty = drawn[0], drawn[1], set(drawn[2])
    truth = config.truth
    for i, (lo, hi) in enumerate(zip(los, his)):
        if not -math.inf < lo <= hi < math.inf:
            try:
                Interval(lo, hi)  # the checked constructor words the fault
            except DomainError as exc:
                kind = "faulty" if i in faulty else "correct"
                raise DomainError(f"round {round_index}: {kind} sensor {i}: {exc}") from None
        if (lo <= truth <= hi) is (i in faulty):
            raise DomainError(f"round {round_index}: " + (f"faulty sensor {i} contains the truth after float rounding"
                                                          if i in faulty else f"correct sensor {i} misses the truth"))


def simulate_round(config: SimConfig, round_index: int = 0) -> SimOutcome:
    """Run one deterministic round.

    Correct sensors report [truth - u, truth + v] with u, v in
    (0, correct_halfwidth_max]; faulty sensors report an interval of the
    same width class whose centre sits at least fault_offset_min away from
    the truth, on a random side.
    """
    _check_int(round_index, "round index")
    if round_index < 0:
        raise DomainError("round index must be nonnegative")
    return next(_outcomes(config, (round_index,)))


def simulate_rounds(config: SimConfig, rounds: int) -> Iterator[SimOutcome]:
    """Rounds 0 .. `rounds` - 1 of the same configuration, drawn lazily.

    A negative count is rejected at once. Each round runs only when the
    iterator reaches it, so a failing round raises there, and memory does
    not grow with the count unless the caller keeps the rounds.
    """
    _check_int(rounds, "round count")
    if rounds < 0:
        raise DomainError("round count must be nonnegative")
    return _outcomes(config, range(rounds))


def _outcomes(config: SimConfig, round_indices: Sequence[int]) -> Iterator[SimOutcome]:
    """The library's rounds: each drawn by the kernel from the call's one generator and checked as
    the iterator reaches it, its levels built from the kernel's orders and count of empty levels."""
    for round_index, drawn in zip(round_indices, _draw_rounds(config, round_indices)):
        _check_round(config, round_index, drawn)
        los, his, faulty, lo_order, hi_order, missing, empty = drawn
        n = len(los)
        yield SimOutcome(tuple(map(Interval._unchecked, los, his)), frozenset(faulty),
                         _graded_levels(los.__getitem__, his.__getitem__, lo_order, hi_order, 0, n - 1, empty),
                         (False,) * missing + (True,) * (n - missing))
