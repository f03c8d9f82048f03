"""Seeded fault-injection rounds for end-to-end fusion checks.

Each round plants a known truth, draws correct intervals around it and
faulty intervals displaced far enough to provably exclude it, then fuses
the lot for every fault budget and records which budgets recover the truth.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .intervals import MAX_SEED, GradedIntervals, Interval, graded_fusion


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated sensor round.

    fault_offset_min must exceed correct_halfwidth_max so that a displaced
    interval cannot reach back to the truth.
    """

    num_sensors: int
    truth: float
    correct_halfwidth_max: float
    num_faulty: int
    fault_offset_min: float
    seed: int

    def __post_init__(self) -> None:
        if self.num_sensors < 1:
            raise DomainError("need at least one sensor")
        if not math.isfinite(self.truth):
            raise DomainError("truth must be finite")
        if not self.correct_halfwidth_max > 0:
            raise DomainError("correct_halfwidth_max must be positive")
        if not self.fault_offset_min > 0:
            raise DomainError("fault_offset_min must be positive")
        if not math.isfinite(self.fault_offset_min):
            raise DomainError("fault_offset_min must be finite")
        if not 0 <= self.num_faulty < self.num_sensors:
            raise DomainError("num_faulty must be less than num_sensors")
        if not self.fault_offset_min > self.correct_halfwidth_max:
            raise DomainError("fault_offset_min must exceed correct_halfwidth_max")
        if not 0 <= self.seed <= MAX_SEED:
            raise DomainError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimOutcome:
    """Everything one round produced, including per-budget truth recovery."""

    intervals: tuple[Interval, ...]
    faulty_indices: frozenset[int]
    fused: GradedIntervals
    truth_containment: tuple[bool, ...]


def _round_rng(seed: int, round_index: int) -> random.Random:
    # independent stream per (seed, round): rounds are reproducible in isolation
    digest = hashlib.sha256(f"{seed}:{round_index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _positive_uniform(rng: random.Random, upper: float) -> float:
    # uniform over (0, upper]: 1 - random() lies in (0, 1]
    return upper * (1.0 - rng.random())


def simulate_round(config: SimConfig, round_index: int = 0) -> SimOutcome:
    """Run one deterministic round.

    Correct sensors report [truth - u, truth + v] with u, v in
    (0, correct_halfwidth_max]; faulty sensors report an interval of the
    same width class whose centre sits at least fault_offset_min away from
    the truth, on a random side.
    """
    if round_index < 0:
        raise DomainError("round index must be nonnegative")
    rng = _round_rng(config.seed, round_index)
    faulty = frozenset(rng.sample(range(config.num_sensors), config.num_faulty))
    intervals = []
    for i in range(config.num_sensors):
        u = _positive_uniform(rng, config.correct_halfwidth_max)
        v = _positive_uniform(rng, config.correct_halfwidth_max)
        if i in faulty:
            side = rng.choice((-1.0, 1.0))
            offset = config.fault_offset_min * (1.0 + rng.random())
            center = config.truth + side * offset
            interval = Interval(center - u, center + v)
            if interval.contains_point(config.truth):
                raise DomainError(f"round {round_index}: faulty sensor {i} contains the truth after float rounding")
        else:
            interval = Interval(config.truth - u, config.truth + v)
            if not interval.contains_point(config.truth):
                raise DomainError(f"round {round_index}: correct sensor {i} misses the truth")
        intervals.append(interval)
    fused = graded_fusion(intervals, 0, config.num_sensors - 1)
    containment = tuple(
        level is not None and level.contains_point(config.truth) for level in fused.levels
    )
    return SimOutcome(tuple(intervals), faulty, fused, containment)


def simulate_rounds(config: SimConfig, rounds: int) -> Iterator[SimOutcome]:
    """Rounds 0 .. `rounds` - 1 of the same configuration, drawn lazily.

    A negative count is rejected at once. Each round runs only when the
    iterator reaches it, so a failing round raises there, and memory does
    not grow with the count unless the caller keeps the rounds.
    """
    if rounds < 0:
        raise DomainError("round count must be nonnegative")
    return (simulate_round(config, k) for k in range(rounds))
