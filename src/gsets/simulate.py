"""Seeded fault-injection rounds for end-to-end fusion checks.

Each round plants a known truth, draws correct intervals around it and
faulty intervals displaced far enough to provably exclude it, then fuses
the lot for every fault budget and records which budgets recover the truth.
One kernel draws a round in plain floats and sorts it once: ``simulate_round``
reads its levels off the kernel's sorts, ``formats.simulation_chunks`` writes it as drawn.
The kernel returns the endpoints as two lists in sensor order, the order statistics the levels
are read off, and, in place of a flag per level, the count of leading levels that miss the truth.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from functools import cache

from ._value import Value
from .errors import DomainError
from .intervals import (
    MAX_SEED, GradedIntervals, Interval, _check_int, _check_nested, _float, _graded_levels, _order_statistics
)
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
    """True only if no round of `config` can raise in ``_draw_round``: a sufficient test, not a
    necessary one.  It repeats the kernel's float operations in the kernel's order."""
    # Rounding to nearest is monotone: x <= y implies fl(x) <= fl(y), so each bound below holds
    # after every rounding step.  With w = width and m0 = offset_min, in the kernel's terms:
    # - u = w * (1.0 - uniform()) and v likewise lie in [0, w], as 1.0 - uniform() lies in (0, 1];
    #   so a correct sensor's truth - u <= truth <= truth + v holds the truth.
    # - m = m0 * (1.0 + uniform()) lies in [m0, 2.0 * m0], as 1.0 + uniform() lies in [1, 2].
    #   A centre truth + m is at least truth + m0, so its lower end (truth + m) - u is at least
    #   (truth + m0) - w; a centre truth + -m, which is truth - m, is at most truth - m0, so its
    #   upper end (truth - m) + v is at most (truth - m0) + w.  When the first is above the truth
    #   and the second below it, no faulty interval holds the truth.
    # - No endpoint is larger in magnitude than (|truth| + 2.0 * m0) + w, so when that is finite,
    #   no endpoint overflows.
    # The order statistics of finite endpoints are always nested, so then no check can fire.
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


def _round_rng(seed: int, round_index: int) -> random.Random:
    # independent stream per (seed, round): rounds are reproducible in isolation
    digest = _sha256()(f"{seed}:{round_index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_round(config: SimConfig, round_index: int) -> tuple:
    """``simulate_round`` in plain floats: each sensor's lower and upper endpoint in sensor order, the
    faulty indices in order, the order statistics that levels 0 .. num_sensors - 1 are read off, and
    the count of leading levels that miss the truth.  Once the levels are checked to be nested, the
    count covers every such level: once a level holds the truth, every larger budget's level does."""
    if round_index < 0:
        raise DomainError("round index must be nonnegative")
    rng = _round_rng(config.seed, round_index)
    faulty = set(rng.sample(range(config.num_sensors), config.num_faulty))
    uniform, choice = rng.random, rng.choice
    truth, width, offset_min = config.truth, config.correct_halfwidth_max, config.fault_offset_min
    los, his = [], []
    for i in range(config.num_sensors):
        # u, v uniform over (0, width]: 1 - random() lies in (0, 1]
        u = width * (1.0 - uniform())
        v = width * (1.0 - uniform())
        if i in faulty:
            center = truth + choice((-1.0, 1.0)) * (offset_min * (1.0 + uniform()))
            lo, hi = center - u, center + v
        else:
            lo, hi = truth - u, truth + v
        if not -math.inf < lo <= hi < math.inf:
            Interval(lo, hi)  # the checked constructor raises its own message
        if (lo <= truth <= hi) is (i in faulty):
            raise DomainError(f"round {round_index}: " + (f"faulty sensor {i} contains the truth after float rounding"
                                                          if i in faulty else f"correct sensor {i} misses the truth"))
        los.append(lo)
        his.append(hi)
    lows, highs = _order_statistics(los, his)
    _check_nested(lows, highs)
    missing = 0
    while missing < len(lows) and not lows[missing] <= truth <= highs[missing]:
        missing += 1
    return los, his, sorted(faulty), lows, highs, missing


def simulate_round(config: SimConfig, round_index: int = 0) -> SimOutcome:
    """Run one deterministic round.

    Correct sensors report [truth - u, truth + v] with u, v in
    (0, correct_halfwidth_max]; faulty sensors report an interval of the
    same width class whose centre sits at least fault_offset_min away from
    the truth, on a random side.
    """
    _check_int(round_index, "round index")
    los, his, faulty, lows, highs, missing = _draw_round(config, round_index)
    n = len(los)
    return SimOutcome(tuple(map(Interval._unchecked, los, his)), frozenset(faulty),
                      _graded_levels(lows, highs, 0, n - 1), (False,) * missing + (True,) * (n - missing))


def simulate_rounds(config: SimConfig, rounds: int) -> Iterator[SimOutcome]:
    """Rounds 0 .. `rounds` - 1 of the same configuration, drawn lazily.

    A negative count is rejected at once. Each round runs only when the
    iterator reaches it, so a failing round raises there, and memory does
    not grow with the count unless the caller keeps the rounds.
    """
    _check_int(rounds, "round count")
    if rounds < 0:
        raise DomainError("round count must be nonnegative")
    return (simulate_round(config, k) for k in range(rounds))
