"""Nested chains of finite sets (graded families).

Elements are opaque hashable identifiers, typically object ids or attribute
names.  Adjacent levels must satisfy non-strict inclusion; repeated levels
are legal.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import Value
from .errors import DomainError


class GradedFamily(Value):
    """Chain of finite sets, smallest first, each level inside the next."""

    __slots__ = ("levels",)

    def __init__(self, levels: Iterable[Iterable]) -> None:
        levels = tuple(frozenset(level) for level in levels)
        self._init(levels)
        if not levels:
            raise DomainError("graded family needs at least one level")
        for i in range(len(levels) - 1):
            if not levels[i] <= levels[i + 1]:
                stray = sorted(levels[i] - levels[i + 1], key=repr)[0]
                raise DomainError(
                    f"not nested at pair ({i}, {i + 1}): {stray!r} is missing from level {i + 1}"
                )

    def __len__(self) -> int:
        return len(self.levels)


def is_rough_family(family: GradedFamily) -> bool:
    """True for the two-level special case (a lower/upper pair)."""
    return len(family.levels) == 2
