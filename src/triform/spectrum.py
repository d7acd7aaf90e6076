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

import bisect
import io
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Union


class EmptySpectrumError(ValueError):
    """Raised when an enumeration bound admits no state (e_max < 4)."""


class State(NamedTuple):
    """Ordered pair of positive integers; compares equal to a plain tuple."""

    n1: int
    n2: int


StateLike = Union[State, "tuple[int, int]"]


def energy_of(state: StateLike) -> int:
    """Energy 3*n1^2 + n2^2 of a state, exactly.

    Raises ValueError unless both indices are positive ints.
    """
    n1, n2 = state
    if not (isinstance(n1, int) and isinstance(n2, int)) or n1 < 1 or n2 < 1:
        raise ValueError(f"state indices must be positive integers, got ({n1}, {n2})")
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
    to sign by n1 and the energy), so the sort order is strict.  The states
    need no parity check: 3*n1^2 + n2^2 = n1 + n2 (mod 2), so the energy
    alone fixes the relative parity of every state.
    """

    energy: int
    states: "tuple[State, ...]"

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("an energy level holds at least one state")
        prev = 0
        for s in self.states:
            if energy_of(s) != self.energy:
                raise ValueError(f"state {s} does not have energy {self.energy}")
            if s[0] <= prev:
                raise ValueError("states must be strictly ascending in n1")
            prev = s[0]

    @property
    def degeneracy(self) -> int:
        return len(self.states)

    @property
    def parity(self) -> Parity:
        return parity_of_energy(self.energy)


class Spectrum:
    """The states of every energy E <= e_max, read by walks and by counts.

    Nothing is enumerated at construction.  Two windowed walks read the
    range, each afresh on every call: `count_windows` yields the state
    count of every energy, one window of `_COUNT_WINDOW` energies at a time,
    and `raw_items` (or `iter_levels`) yields the states of every level,
    one window of `_WINDOW` energies at a time.  Each holds one window and
    never the whole range, so memory stays flat as e_max grows.

    The one store is the count table (`degeneracies`), one byte per energy,
    joined from the count windows on first use and cached: iteration (the
    realized energies, ascending), `len`, `state_count`, `degeneracy_of`
    and `in` read it.  `[]` solves its one energy (`level_of`).  The table
    is a pure function of e_max, so concurrent readers that race to build
    it build the same value and stay safe.
    """

    __slots__ = ("_e_max", "_buckets", "_counts")

    def __init__(
        self, e_max: int, buckets: "Optional[dict[int, list[tuple[int, int]]]]" = None
    ):
        # Internal constructor: use enumerate_spectrum().  Explicit buckets
        # map energy -> list of (n1, n2) already ascending in n1; then the
        # count windows are read off their lengths and `raw_items` reads
        # them in place of the walk.  `[]` never reads them.
        self._e_max = e_max
        self._buckets = buckets
        self._counts: "Optional[bytes]" = None

    @property
    def e_max(self) -> int:
        return self._e_max

    def count_windows(self) -> "Iterator[tuple[int, bytearray]]":
        """(lo, counts) for consecutive windows that cover 0..e_max: counts[i]
        is the number of states of energy lo + i.

        Every window but the last holds `_COUNT_WINDOW` energies, so each lo
        is a multiple of that power of two (and of 4).  Each window is a
        fresh `bytearray` the caller may change.  The stripe adds 1 at
        3*n1^2 + n2^2 for every state in the window (`_stripes`); explicit
        buckets given to the constructor are read off by their lengths
        instead, and a count table already built (`degeneracies`) is read
        in place of either.

        A byte holds 255 states at most, and a count above that raises
        ValueError rather than wrapping.  Realized degeneracies stay far
        below it: g(E) = floor(eps(E) * d(E) / 2), with d(E) the divisor
        count over the primes p = 1 (mod 3), first passes 255 only near
        E = 10^12 (the largest g is 108 up to 10^9 and 216 up to 10^11).
        """
        end = self._e_max + 1
        squares = [n2 * n2 for n2 in range(math.isqrt(self._e_max) + 1)]
        for lo in range(0, end, _COUNT_WINDOW):
            yield lo, self._window_counts(lo, min(lo + _COUNT_WINDOW, end), squares)

    def _window_counts(self, lo: int, hi: int, squares: "list[int]") -> bytearray:
        """The counts of the energies [lo, hi); squares[n2] is n2^2.  Once the
        whole table is built, a window is a copy of its slice, so a census
        after `len` or `state_count` does not stripe the range again."""
        if self._counts is not None:
            return bytearray(memoryview(self._counts)[lo:hi])
        counts = bytearray(hi - lo)
        if self._buckets is None:
            for _, offset, first, stop in _stripes(lo, hi):
                for square in squares[first:stop]:
                    counts[offset + square] += 1
        else:
            for energy, states in self._buckets.items():
                if lo <= energy < hi:
                    counts[energy - lo] = len(states)
        return counts

    def degeneracies(self) -> bytes:
        """Number of states of every energy 0..e_max, one byte each (index = energy).

        The count windows (`count_windows`) written one after the other into
        a buffer sized for the whole table, whose bytes `getvalue` hands
        over without a copy (CPython): the build holds the table and one
        window, where a `bytearray` table and its `bytes` copy took twice
        the table.
        Raises ValueError, as the windows do, for a count above 255.
        """
        if self._counts is None:
            table = io.BytesIO()
            table.seek(self._e_max)
            table.write(b"\0")  # size the buffer once, zero-filled
            table.seek(0)
            # map keeps no window alive while the next one is built
            table.writelines(map(operator.itemgetter(1), self.count_windows()))
            self._counts = table.getvalue()
        return self._counts

    @property
    def state_count(self) -> int:
        return sum(self.degeneracies())

    def __len__(self) -> int:
        counts = self.degeneracies()
        return len(counts) - counts.count(0)

    def __iter__(self) -> Iterator[int]:
        counts = self.degeneracies()
        return itertools.compress(range(len(counts)), counts)

    def __contains__(self, energy: object) -> bool:
        return self.degeneracy_of(energy) > 0

    # No command reads one level through a spectrum; `[]` stays because
    # perfbench/tracing.py wraps `Spectrum.__getitem__` as a timed layer.
    def __getitem__(self, energy: int) -> EnergyLevel:
        level = level_of(energy) if isinstance(energy, int) and energy <= self._e_max else None
        if level is None:
            raise KeyError(energy)
        return level

    def iter_levels(self) -> Iterator[EnergyLevel]:
        """All levels in ascending energy order."""
        for energy, states in self.raw_items():
            yield _level(energy, states)

    def degeneracy_of(self, energy: object) -> int:
        """Number of states at `energy`, 0 when the energy is not realized."""
        if isinstance(energy, int) and 0 <= energy <= self._e_max:
            return self.degeneracies()[energy]
        return 0

    def raw_items(self) -> "Iterator[tuple[int, list[tuple[int, int]]]]":
        """(energy, states-as-int-pairs) in ascending energy, no materialization.

        Each call walks the range afresh, one window of `_WINDOW` energies at
        a time (`_window_items`), and keeps only the current window's states:
        nothing is cached, so memory stays flat as e_max grows.  Explicit
        buckets given to the constructor are read instead.  The lists must
        not be mutated.
        """
        if self._buckets is not None:
            buckets = self._buckets
            for energy in self:
                yield energy, buckets[energy]
            return
        for lo in range(0, self._e_max + 1, _WINDOW):
            yield from _window_items(lo, min(lo + _WINDOW, self._e_max + 1))

    def __repr__(self) -> str:
        return f"Spectrum(e_max={self._e_max})"


def _level(energy: int, states: "list[tuple[int, int]]") -> EnergyLevel:
    return EnergyLevel(energy, tuple(State(a, b) for a, b in states))


# Energies per window of the range walk `Spectrum.raw_items`: large enough
# that the per-n1 set-up is a small share of a window, small enough that
# one window's states take a few MB.
_WINDOW = 1 << 16

# Energies per window of `Spectrum.count_windows`: one byte each, so a
# window is 1 MB and stays in cache while the stripe writes into it.  A
# whole-range table at 2*10^7 took about twice as long to stripe.
_COUNT_WINDOW = 1 << 20


def _stripes(lo: int, hi: int) -> "Iterator[tuple[int, int, int, int]]":
    """(n1, offset, first, stop) for every n1 whose states can reach the
    energies [lo, hi), ascending: the states in the window are (n1, n2) for
    n2 in range(first, stop), which may be empty, and (n1, n2) has the
    energy lo + offset + n2^2.  The one place the stripe bounds are worked
    out: the count windows, the level walk and the census seed walk share it."""
    n1 = 1
    while (base := 3 * n1 * n1) + 1 < hi:
        first = math.isqrt(lo - base - 1) + 1 if lo > base else 1
        yield n1, base - lo, first, math.isqrt(hi - 1 - base) + 1
        n1 += 1


def _window_items(lo: int, hi: int) -> "Iterator[tuple[int, list[tuple[int, int]]]]":
    """(energy, states) for every realized energy in [lo, hi), ascending.

    Stripes over n1, and for each n1 over the n2 whose energy falls in the
    window (`_stripes`), so each level is built already sorted by n1.
    """
    slots: "list[Optional[list[tuple[int, int]]]]" = [None] * (hi - lo)
    for n1, offset, first, stop in _stripes(lo, hi):
        for n2 in range(first, stop):
            at = offset + n2 * n2
            states = slots[at]
            if states is None:
                slots[at] = [(n1, n2)]
            else:
                states.append((n1, n2))
    return itertools.compress(zip(range(lo, hi), slots), slots)


def enumerate_spectrum(e_max: int) -> Spectrum:
    """The spectrum of every state with energy <= e_max, built lazily.

    Returns at once: the count table is built on the first read that needs
    it, and the walks stripe the states window by window on each call (see
    :class:`Spectrum`).  Deterministic; the result is independent of
    evaluation order by construction.

    Raises :class:`EmptySpectrumError` for e_max < 4, where no state exists.
    """
    if e_max < 4:
        raise EmptySpectrumError(f"no states below E=4 (got e_max={e_max})")
    return Spectrum(e_max)


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
# six units, +-1, +-w and +-w^2, so the elements of norm n are read off the
# primes of n.


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


def _prime_rows(p: int, k: int) -> "list[list[tuple[int, int]]]":
    """Row e, for e = 0..k: the Eisenstein integers of norm p^e, one per
    class of associates.

    A prime p = 2 (mod 3) stays prime, so its row e is p^(e/2) for even e
    and empty for odd e.  3 = -w^2 * (1 - w)^2 ramifies, so its row e is
    (1 - w)^e.  A prime p = 1 (mod 3) splits as pi * conj(pi), with pi from
    Cornacchia's algorithm (`_split_prime`), and its row e is
    pi^s * conj(pi)^(e-s) for s = 0..e.
    """
    if p % 3 == 2:
        return [[] if e % 2 else [(p ** (e // 2), 0)] for e in range(k + 1)]
    pi = (1, -1) if p == 3 else _split_prime(p)
    powers = [(1, 0)]
    for _ in range(k):
        powers.append(_mul(powers[-1], pi))
    if p == 3:
        return [[power] for power in powers]
    conj = [(a - b, -b) for a, b in powers]  # conj(a + b*w) = (a - b) - b*w
    return [[_mul(powers[s], conj[e - s]) for s in range(e + 1)] for e in range(k + 1)]


def _associate_solutions(elements: "list[tuple[int, int]]") -> "list[tuple[int, int]]":
    """All (x, y) with x, y >= 1 such that y + x*sqrt(-3) is a unit times one
    of the elements, unsorted.

    a + b*w times the units 1, 1 + w, w, -1, -1 - w and -w gives (a, b),
    (a - b, a), (-b, a - b), (-a, -b), (b - a, -a) and (b, b - a); (c, d)
    is y + x*sqrt(-3) for d = 2x, c = x + y, so d must be even.  Unless 2
    divides a + b*w (a and b both even), exactly one of b, a and a - b is
    even, picked by (a mod 2, b mod 2): one +- pair, of which only the one
    with d > 0 takes the test c > d/2.  An element that 2 divides keeps the
    six-unit loop.
    """
    solutions = []
    for a, b in elements:
        if b & 1:
            a, b = (-b, a - b) if a & 1 else (a - b, a)
        elif a & 1 == 0:
            for c, d in ((a, b), (a - b, a), (-b, a - b), (-a, -b), (b - a, -a), (b, b - a)):
                if d > 0 and c > d >> 1:
                    solutions.append((d >> 1, c - (d >> 1)))
            continue
        if b < 0:
            a, b = -a, -b
        if b and a > b >> 1:
            solutions.append((b >> 1, a - (b >> 1)))
    return solutions


@lru_cache(maxsize=1)
def _rep_tuples(energy: int) -> "tuple[tuple[int, int, int, int], ...]":
    """Every (v1, v2, a, b) with (3*v1^2 + v2^2) * (3*a^2 + b^2) = 4*E, sorted,
    for E >= 4: the reps (v1, v2, a/2, b/2) of `brahmagupta.rep_search`.

    The one solver, kept for the last energy asked: `level_of` reads its
    states off the same tuples (`form_solutions`), so a `level` query
    factors 4*E once and solves each split prime once: each prime gets one
    table of rows (`_prime_rows`).  The elements of norm d, for every
    divisor d of 4*E, are prefix products: the lists grow one prime at a
    time, so each product over a prefix of the primes is made once.  An
    exponent whose row or cofactor row is empty, such as an odd power of an
    inert prime, is not walked: one side of the product would have no
    solution.  Each divisor's solutions (`_associate_solutions`) are paired
    with its cofactor's, and only the final list is sorted.  The tuple is
    immutable, so no caller can change what the next one reads.
    """
    products = {1: [(1, 0)]}  # divisor -> the elements of that norm
    for p, k in factorize(4 * energy):
        rows = _prime_rows(p, k)
        steps = [(p ** e, row) for e, row in enumerate(rows) if row and rows[k - e]]
        products = {
            d * q: [(a * c - b * s, a * s + b * c - b * s) for a, b in elements for c, s in row]
            for d, elements in products.items() for q, row in steps
        }
    solved = {d: _associate_solutions(elements) for d, elements in products.items()}
    return tuple(sorted([(v1, v2, a, b) for d, first in solved.items() if first
                         for a, b in solved[4 * energy // d] for v1, v2 in first]))


def form_solutions(n: int) -> "list[tuple[int, int]]":
    """All (x, y) with x, y >= 1 and 3*x^2 + y^2 = n, ascending in x.

    These are the reps (1, 1, x/2, y/2) of n, since (3 + 1) * (3*x^2 + y^2)
    = 4*n: the tuples of `_rep_tuples(n)` that sort before (1, 2), cut off
    by one bisection, already ascending in x.  Empty for n < 4.
    """
    if n < 4:
        return []
    tuples = _rep_tuples(n)
    return [(a, b) for _, _, a, b in tuples[:bisect.bisect_left(tuples, (1, 2))]]


def level_of(energy: int) -> Optional[EnergyLevel]:
    """The complete level at `energy`, or None when no state reaches it.

    The states are the solutions of 3*n1^2 + n2^2 = E (`form_solutions`),
    read off the rep solve of E, which a `rep_search` of E then reuses.
    """
    states = form_solutions(energy)
    if not states:
        return None
    return _level(energy, states)
