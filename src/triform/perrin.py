"""Perrin triplets: three-state families at energies 4*(m1^2 + m1*m2 + m2^2).

A seed (m1, m2) with m2 > m1 >= 1 generates the three states

    (m1, m1 + 2*m2),  (m2, m2 + 2*m1),  (m1 + m2, m2 - m1),

all of energy 4*(m1^2 + m1*m2 + m2^2).  Such triplets exist only inside
same-parity levels (the energy is divisible by 4).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

from .spectrum import EnergyLevel, State


class InvalidSeedError(ValueError):
    """Raised for seed pairs outside the range m2 > m1 >= 1."""


@dataclass(frozen=True, order=True)
class PerrinSeed:
    m1: int
    m2: int

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 <= self.m1:
            raise InvalidSeedError(
                f"seed requires m2 > m1 >= 1, got ({self.m1}, {self.m2})"
            )


SeedLike = Union[PerrinSeed, "tuple[int, int]"]


def _as_seed(seed: SeedLike) -> PerrinSeed:
    if isinstance(seed, PerrinSeed):
        return seed
    return PerrinSeed(*seed)


@dataclass(frozen=True)
class PerrinTriplet:
    seed: PerrinSeed
    energy: int
    states: "tuple[State, State, State]"


def perrin_energy(seed: SeedLike) -> int:
    """Energy 4*(m1^2 + m1*m2 + m2^2) of the triplet generated by `seed`."""
    s = _as_seed(seed)
    return 4 * (s.m1 * s.m1 + s.m1 * s.m2 + s.m2 * s.m2)


def perrin_triplet(seed: SeedLike) -> PerrinTriplet:
    """The three generated states, sorted by ascending n1.

    m1 < m2 < m1 + m2 makes the construction order already sorted, and the
    third state's second index m2 - m1 positive.
    """
    s = _as_seed(seed)
    m1, m2 = s.m1, s.m2
    states = (
        State(m1, m1 + 2 * m2),
        State(m2, m2 + 2 * m1),
        State(m1 + m2, m2 - m1),
    )
    return PerrinTriplet(s, perrin_energy(s), states)


def find_seed(states: "Sequence[tuple[int, int]]") -> "Optional[tuple[int, int]]":
    """Smallest seed (m1, m2) whose triplet is contained in `states`.

    `states` are the raw (n1, n2) pairs of one level, ascending in n1, so
    callers holding unmaterialized buckets need no :class:`EnergyLevel`.

    Any contained triplet exposes its seed through its first member: the
    generated state with the smallest n1 is (m1, m1 + 2*m2), so each level
    state (a, b) with b > 3*a and b = a (mod 2) yields the one candidate
    (a, (b - a)/2), and scanning states in ascending n1 visits candidates
    in ascending m1.  This is equivalent to scanning m1 < sqrt(E/12) and
    solving E/4 = m1^2 + m1*m2 + m2^2 for an integer root, but costs O(g).
    Opposite-parity states never pass the b = a (mod 2) test.
    """
    members = set(states)
    for a, b in states:
        if b > 3 * a and (b - a) % 2 == 0:
            m2 = (b - a) // 2
            if (m2, m2 + 2 * a) in members and (a + m2, m2 - a) in members:
                return (a, m2)
    return None


def match_perrin(level: EnergyLevel) -> Optional[PerrinSeed]:
    """Smallest seed (lexicographic) whose triplet is contained in `level`.

    Containment is subset containment: levels of degeneracy above three may
    hold a triplet plus extra states.  Returns None when no seed matches,
    in particular for every odd-energy level.  The scan is `find_seed`.
    """
    seed = find_seed(level.states)
    return None if seed is None else PerrinSeed(*seed)
