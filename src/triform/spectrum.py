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


def factorize(n: int) -> "list[tuple[int, int]]":
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division by 2, by 3, then along the 6k +- 1 wheel up to the square
    root of the cofactor still left.  The divisions stop near the larger of
    the second-largest prime factor and the square root of the largest, so
    only an n with a huge prime factor costs up to sqrt(n) of them.
    """
    if n < 1:
        raise ValueError(f"only positive integers factor, got {n}")
    factors = []
    for p in (2, 3):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            factors.append((p, k))
    p, step = 5, 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        p += step
        step = 6 - step
    if n > 1:
        factors.append((n, 1))
    return factors


# Eisenstein integers a + b*w, w = (-1 + sqrt(-3))/2, held as pairs (a, b).
# The norm is a^2 - a*b + b^2, and a + b*w with b = 2x even is y + x*sqrt(-3)
# for y = a - x, of norm 3*x^2 + y^2.  The ring has unique factorization and
# six units, so the elements of norm n are read off the primes of n.
_UNITS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def _mul(u: "tuple[int, int]", v: "tuple[int, int]") -> "tuple[int, int]":
    (a, b), (c, d) = u, v
    return (a * c - b * d, a * d + b * c - b * d)


def _split_prime(p: int) -> "tuple[int, int]":
    """An Eisenstein prime of norm p, for a prime p = 1 (mod 3).

    c = g^((p-1)/3) != 1 is a cube root of unity mod p, so 2c + 1 is a
    square root of -3 mod p; Cornacchia's algorithm then solves
    u^2 + 3v^2 = p, and u + v*sqrt(-3) = (u + v) + 2v*w.
    """
    g = 2
    while (c := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    a, b = p, (2 * c + 1) % p
    while b * b > p:
        a, b = b, a % b
    v = math.isqrt((p - b * b) // 3)
    return (b + v, 2 * v)


def form_solutions_factored(factors: "list[tuple[int, int]]") -> "list[tuple[int, int]]":
    """`form_solutions` of the n whose factorization is `factors`."""
    base = (1, 0)  # shared by every element of norm n
    choices = []   # per split prime p^k: the k + 1 products pi^s * conj(pi)^(k-s)
    for p, k in factors:
        if p == 3:
            for _ in range(k):
                base = _mul(base, (1, -1))  # 1 - w, of norm 3
        elif p % 3 == 2:
            if k % 2:
                return []  # an inert prime divides a norm to an even power
            base = (base[0] * p ** (k // 2), base[1] * p ** (k // 2))
        else:
            pi = _split_prime(p)
            bar = (pi[0] - pi[1], -pi[1])
            powers, conj_powers = [(1, 0)], [(1, 0)]
            for _ in range(k):
                powers.append(_mul(powers[-1], pi))
                conj_powers.append(_mul(conj_powers[-1], bar))
            choices.append([_mul(powers[s], conj_powers[k - s]) for s in range(k + 1)])
    elements = [base]
    for options in choices:
        elements = [_mul(e, o) for e in elements for o in options]
    solutions = []
    for element in elements:
        for unit in _UNITS:
            a, b = _mul(element, unit)
            if b > 0 and b % 2 == 0 and a > b // 2:
                solutions.append((b // 2, a - b // 2))
    solutions.sort()
    return solutions


def form_solutions(n: int) -> "list[tuple[int, int]]":
    """All (x, y) with x, y >= 1 and 3*x^2 + y^2 = n, ascending in x.

    Factors n once (`factorize`) and builds every Eisenstein integer of norm
    n from its primes: 3 contributes 1 - w, a prime p = 2 (mod 3) must occur
    to an even power 2j and contributes p^j, and a prime p = 1 (mod 3)
    splits as pi * conj(pi), found by Cornacchia's algorithm.  Times the six
    units, the elements y + x*sqrt(-3) with x, y >= 1 are the solutions.
    Empty for n < 4.
    """
    if n < 4:
        return []
    return form_solutions_factored(factorize(n))


def level_of(energy: int) -> Optional[EnergyLevel]:
    """The complete level at `energy`, or None when no state reaches it.

    The states are the solutions of 3*n1^2 + n2^2 = E (`form_solutions`).
    """
    states = form_solutions(energy)
    if not states:
        return None
    return EnergyLevel(energy, tuple(State(a, b) for a, b in states))
