"""Enumeration of the spectrum E = 3*n1^2 + n2^2 over positive integers.

A *state* is an ordered pair of positive integers (n1, n2); its energy is
the weighted sum of squares 3*n1^2 + n2^2.  An *energy level* collects every
state of one energy; a level with two or more states is *degenerate*.

Two elementary facts drive the classification here and are asserted by the
test suite:

* within one level all states agree on the relative parity of (n1, n2)
  (both indices of equal parity, or of opposite parity), and
* a level has same-parity states exactly when E = 0 (mod 4) and
  opposite-parity states exactly when E is odd; no energy with
  E = 2 (mod 4) is realized at all.

All arithmetic is exact (Python integers), so counts are correct at any
enumeration bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union


class EmptySpectrumError(ValueError):
    """Raised when an enumeration bound admits no state (e_max < 4)."""


class State(NamedTuple):
    """Ordered pair of positive integers; compares equal to a plain tuple."""

    n1: int
    n2: int


StateLike = Union[State, "tuple[int, int]"]


def energy_of(state: StateLike) -> int:
    """Energy 3*n1^2 + n2^2 of a state, exactly."""
    n1, n2 = state
    if n1 < 1 or n2 < 1:
        raise ValueError(f"state indices must be positive, got ({n1}, {n2})")
    return 3 * n1 * n1 + n2 * n2


class Parity(Enum):
    """Relative parity of (n1, n2) shared by every state of a level."""

    SAME = "same"
    OPPOSITE = "opposite"


def parity_of_energy(energy: int) -> Parity:
    """Parity class from the energy alone: E = 0 (mod 4) is SAME, odd E is OPPOSITE."""
    if energy % 4 == 0:
        return Parity.SAME
    if energy % 2 == 1:
        return Parity.OPPOSITE
    raise ValueError(f"energy {energy} = 2 (mod 4) is not realizable")


@dataclass(frozen=True)
class EnergyLevel:
    """The complete set of states sharing one energy, sorted by ascending n1.

    n1 values within a level are necessarily distinct (n2 is determined up
    to sign by n1 and the energy), so the sort order is strict.
    """

    energy: int
    states: "tuple[State, ...]"

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("an energy level holds at least one state")
        prev = 0
        pbit = sum(self.states[0]) % 2
        for s in self.states:
            a, b = s
            if energy_of(s) != self.energy:
                raise ValueError(f"state {s} does not have energy {self.energy}")
            if a <= prev:
                raise ValueError("states must be strictly ascending in n1")
            if (a + b) % 2 != pbit:
                raise ValueError(f"mixed index parity within level {self.energy}")
            prev = a

    @property
    def degeneracy(self) -> int:
        return len(self.states)

    @property
    def parity(self) -> Parity:
        return parity_of_energy(self.energy)


def parity_of(level: EnergyLevel) -> Parity:
    """Parity class of a level, read off the relative parity of its states.

    Agrees with the E mod 4 criterion (`parity_of_energy`); the equivalence
    is a property test.
    """
    a, b = level.states[0]
    return Parity.SAME if (a - b) % 2 == 0 else Parity.OPPOSITE


class Spectrum(Mapping):
    """Immutable map from energy to :class:`EnergyLevel` for all E <= e_max.

    Iteration yields energies in ascending order.  Levels are materialized
    lazily from compact internal buckets, so building at e_max = 10^7 stays
    fast and well under a gigabyte.  Safe for unlimited concurrent readers.
    """

    __slots__ = ("_e_max", "_buckets", "_energies", "_state_count")

    def __init__(self, e_max: int, buckets: "dict[int, list[tuple[int, int]]]"):
        # Internal constructor: use enumerate_spectrum().  Buckets map
        # energy -> list of (n1, n2) already ascending in n1.
        self._e_max = e_max
        self._buckets = buckets
        self._energies = sorted(buckets)
        self._state_count = sum(len(v) for v in buckets.values())

    @property
    def e_max(self) -> int:
        return self._e_max

    @property
    def state_count(self) -> int:
        return self._state_count

    def __len__(self) -> int:
        return len(self._energies)

    def __iter__(self) -> Iterator[int]:
        return iter(self._energies)

    def __contains__(self, energy: object) -> bool:
        return energy in self._buckets

    def __getitem__(self, energy: int) -> EnergyLevel:
        bucket = self._buckets[energy]
        return EnergyLevel(energy, tuple(State(a, b) for a, b in bucket))

    def iter_levels(self) -> Iterator[EnergyLevel]:
        """All levels in ascending energy order."""
        for e in self._energies:
            yield self[e]

    def degeneracy_of(self, energy: int) -> int:
        """Number of states at `energy`, 0 when the energy is not realized."""
        bucket = self._buckets.get(energy)
        return len(bucket) if bucket else 0

    def raw_items(self) -> "Iterator[tuple[int, list[tuple[int, int]]]]":
        """(energy, states-as-int-pairs) in ascending energy, no materialization.

        The lists are internal storage and must not be mutated.
        """
        for e in self._energies:
            yield e, self._buckets[e]

    def __repr__(self) -> str:
        return (
            f"Spectrum(e_max={self._e_max}, levels={len(self._energies)}, "
            f"states={self._state_count})"
        )


def enumerate_spectrum(e_max: int) -> Spectrum:
    """Every state with energy <= e_max, grouped into levels.

    Stripes over n1 (so each bucket is built already sorted by n1) and
    accumulates by energy.  Deterministic; the result is independent of
    evaluation order by construction.

    Raises :class:`EmptySpectrumError` for e_max < 4, where no state exists.
    """
    if e_max < 4:
        raise EmptySpectrumError(f"no states below E=4 (got e_max={e_max})")
    buckets: "dict[int, list[tuple[int, int]]]" = {}
    get = buckets.get
    n1 = 1
    while 3 * n1 * n1 + 1 <= e_max:
        base = 3 * n1 * n1
        for n2 in range(1, math.isqrt(e_max - base) + 1):
            e = base + n2 * n2
            bucket = get(e)
            if bucket is None:
                buckets[e] = [(n1, n2)]
            else:
                bucket.append((n1, n2))
        n1 += 1
    return Spectrum(e_max, buckets)


def form_solutions(n: int) -> "list[tuple[int, int]]":
    """All (x, y) with x, y >= 1 and 3*x^2 + y^2 = n, ascending in x.

    For each x up to sqrt((n-1)/3), tests n - 3*x^2 for being a perfect
    square.  Empty for n < 4.
    """
    solutions = []
    x = 1
    while 3 * x * x < n:
        rest = n - 3 * x * x
        y = math.isqrt(rest)
        if y * y == rest:
            solutions.append((x, y))
        x += 1
    return solutions


def level_of(energy: int) -> Optional[EnergyLevel]:
    """The complete level at `energy`, or None when no state reaches it.

    The states are the solutions of 3*n1^2 + n2^2 = E (`form_solutions`).
    """
    states = form_solutions(energy)
    if not states:
        return None
    return EnergyLevel(energy, tuple(State(a, b) for a, b in states))
