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
import marshal
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Union

__all__ = ["EmptySpectrumError", "EnergyLevel", "Parity", "Spectrum", "State", "energy_of",
           "enumerate_spectrum", "level_of", "parity_of_energy"]


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


_SETATTR = object.__setattr__  # past the frozen __setattr__, into the slots


class _Record:
    """Base of the package's frozen records.  A subclass names its fields,
    in order, in `__slots__`, and gets from them what a frozen dataclass
    had: an `__init__` that takes each field by position or by keyword,
    `dataclasses.FrozenInstanceError` on any set or delete, equality only
    within one class (by the tuple of fields, which is also what it hashes),
    the dataclass `repr`, and pickling and `copy` that rebuild a record
    through its constructor, so its checks run again.  The constructor
    takes back the attributes `_args` names, the fields unless a subclass
    says otherwise.  `dataclasses` is imported only to raise its error: it
    pulls in `inspect` and ten more modules, and decorating the records
    with it took more than ten times the work of a `level` query."""

    __slots__ = ()
    _args: "Optional[tuple[str, ...]]" = None

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = {**dict(zip(names, args)), **kwargs}
            if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}; got "
                                f"{len(args)} by position and {list(kwargs)} by keyword")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            _SETATTR(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), tuple([getattr(self, name) for name in self._args or self.__slots__]))


class EnergyLevel(_Record):
    """The complete set of states sharing one energy, sorted by ascending n1:
    `energy`, an int, and `states`, a tuple of `State`.

    n1 values within a level are necessarily distinct (n2 is determined up
    to sign by n1 and the energy), so the sort order is strict.  The states
    need no parity check: 3*n1^2 + n2^2 = n1 + n2 (mod 2), so the energy
    alone fixes the relative parity of every state.
    """

    __slots__ = ("energy", "states")

    def __init__(self, energy: int, states: "tuple[State, ...]") -> None:
        _Record.__init__(self, energy, states)
        if not self.states:
            raise ValueError("an energy level holds at least one state")
        prev = 0
        for s in self.states:
            # energy_of owns the rule for indices, and raises for a bad one
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

    Nothing is enumerated at construction.  Two stripes read the range,
    each afresh on every call and one window at a time: the count stripe
    (`count_windows`) maps a function over the state counts of every
    energy, one window of `_COUNT_WINDOW` energies at a time, each window
    counted as its two realized classes, the same-parity and the odd
    energies, from their divisor sums and mapped in one process of a round
    robin on every CPU, and the level stripe (`_levels`) yields the states
    of every level, one window of `_LEVEL_WINDOW` energies at a time.
    `raw_items` and `iter_levels` read the level stripe as index pairs, and
    `text_levels` as text.  Each process holds one window and never the
    whole range, so memory stays flat as e_max grows.

    One energy is solved, never read off a table: `degeneracy_of`, `in`
    and `[]` take an int 0 <= E <= e_max, and solve it (`form_solutions`,
    `level_of`).  Only `len` and `degeneracies` build the one store, the
    count table, one byte per energy, from the count windows in this
    process on first use, and cache it.  Iteration (the realized energies,
    ascending) streams the count windows one at a time (`_windows`), each
    pair interleaved back into one window, and keeps no table; once the
    table is built, each pair is a copy of its slices.
    `state_count` sums one square root per n1 instead, and over explicit
    buckets it and the level walk read the count windows one at a time
    too.  The table is a pure function of e_max and the buckets, so
    concurrent readers that race to build it build the same value and
    stay safe.
    """

    __slots__ = ("_e_max", "_buckets", "_counts")

    def __init__(
        self, e_max: int, buckets: "Optional[dict[int, list[tuple[int, int]]]]" = None
    ):
        # Internal constructor: use enumerate_spectrum().  Explicit buckets
        # map energy -> list of (n1, n2) already ascending in n1.  They are
        # only stored: the count windows (`_window_counts`) read their
        # lengths, and the level walk (`_levels`) their states, in place of
        # the stripe.  The one-energy reads (`degeneracy_of`, `in`, `[]`)
        # solve, and never read them.
        self._e_max = e_max
        self._buckets = buckets
        self._counts: "Optional[bytes]" = None

    @property
    def e_max(self) -> int:
        return self._e_max

    def count_windows(
        self, fn: "Callable[[int, bytearray, bytearray], object]"
    ) -> Iterator[object]:
        """fn(lo, same, odd) for consecutive windows that cover 0..e_max, in
        ascending lo: the state counts of the window's two realized classes,
        same[i] of energy lo + 4*i and odd[i] of energy lo + 1 + 2*i.  No
        state has E = 2 (mod 4), so no count of the window is left out.

        Every window but the last holds `_COUNT_WINDOW` energies, so each lo
        is a multiple of that power of two (and of 4).  same and odd are
        fresh `bytearray`s that fn may change (`_window_counts`): the counts
        from the divisor sums, or the lengths of the explicit buckets, or,
        once the count table is built (`degeneracies`), copies of its slices.

        The windows are striped on the CPUs of the affinity mask (`_cpus`).
        With c of them, window i goes to process i mod c: 0 is this one,
        and each of the other c - 1 is a worker forked for this stripe, so
        a stripe forks min(c, windows) - 1 of them.  The process that
        counts a window runs fn on it, and a worker writes only fn's
        result to its one pipe, with `marshal` (`_count_worker`): ints,
        bytes, lists and the like, which come back as equal values (a
        bytearray as bytes).  This process reads the results back in window
        order.  A window's counts depend on lo and e_max alone, so this
        process counts and maps any window whose result does not arrive
        whole (`_delivered`), as its own: the worker hit a count above 255,
        made a result `marshal` cannot write, died or was killed.  A built
        table or one CPU forks nothing.  The `finally` closes the pipes,
        then kills and reaps every worker, also on an early stop, so that no
        stop waits on a window being counted or on a worker of a second open
        stripe, which holds this stripe's read ends.  A worker closes the
        read ends it inherits, so once its reader is gone (this process
        killed, say) its next write fails and it leaves.

        A byte holds 255 states at most, and a count above that raises
        ValueError rather than wrapping; a worker that meets one stops, and
        this process, counting that window again, raises it.  The first
        count past 255 is at E = 145651423372 = 4*7^2*13*19*31*37*43*61,
        with 288 states: g(E) = floor(eps(E) * d(E) / 2), with d(E) the
        divisor count over the primes p = 1 (mod 3) and eps(E) 3 for
        E = 0 (mod 4) and 1 for odd E, so a same-parity level needs d >= 171,
        seven split primes with one squared (d = 192), and an odd one
        d >= 512, which comes later (the largest g is 108 up to 10^9).
        The divisor sums of the count windows (`_divisor_counts`) equal
        that d wherever g > 0, and wrap their byte first at
        `_DIVISOR_SUM_EXACT` = 254889990901, where d = 256; a window that
        reaches it raises, and a range from 0 has raised at 145651423372
        before.
        """
        starts = range(0, self._e_max + 1, _COUNT_WINDOW)
        cpus = min(1 if self._counts is not None else _cpus(), len(starts))
        readers: "list[io.BufferedReader]" = []  # worker j's at j - 1
        pids = []
        try:
            for j in range(1, cpus):
                r, w = os.pipe()
                readers.append(open(r, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _count_worker(readers, w, (fn(lo, *self._window_counts(lo))
                                                   for lo in starts[j::cpus]))
                    pids.append(pid)
                finally:
                    os.close(w)  # only a worker may hold the write end
            for i, lo in enumerate(starts):
                result = _delivered(readers[i % cpus - 1]) if i % cpus else None
                if result is None:  # this process's window, or one its worker did not deliver
                    result = (fn(lo, *self._window_counts(lo)),)
                yield result[0]
        finally:
            for reader in readers:
                reader.close()
            for pid in pids:
                os.kill(pid, 9)  # SIGKILL, POSIX's 9
                os.waitpid(pid, 0)

    def _window_counts(self, lo: int) -> "tuple[bytearray, bytearray]":
        """The pair (same, odd) of the window of energies that starts at lo,
        up to `_COUNT_WINDOW` of them (see `count_windows`), made once per
        source: from the divisor sums of its energies (`_divisor_counts`),
        about (1/2)*sqrt(hi) slices of bytes for a window whose top is hi.
        Explicit buckets are read instead, by the length of each energy's
        bucket in the two classes, so a bucket at an E = 2 (mod 4), which
        no state reaches, is not read; one of more than 255 states raises
        ValueError, as a count past 255 does.  Once the whole table is
        built (by `degeneracies`), the pair is a copy of its two slices, so
        a census after `len` does not count the range again."""
        hi = min(lo + _COUNT_WINDOW, self._e_max + 1)
        if self._counts is not None:
            return bytearray(self._counts[lo:hi:4]), bytearray(self._counts[lo + 1:hi:2])
        if self._buckets is not None:
            sizes = [len(self._buckets.get(energy, ())) for energy in range(lo, hi)]
            return bytearray(sizes[0::4]), bytearray(sizes[1::2])
        return _divisor_counts(lo, hi)

    def degeneracies(self) -> bytes:
        """Number of states of every energy 0..e_max, one byte each (index = energy).

        The count windows (`_windows`), counted in this process one
        after the other and written into a buffer sized for the whole table,
        whose bytes `getvalue` hands over without a copy (CPython): the
        build holds the table and one window, where a `bytearray` table and
        its `bytes` copy took twice the table.  A forked worker's window
        would arrive twice, in the pipe's read buffer and as the decoded
        bytes, and no command builds the table, so nothing is forked.  A
        window and the pair it is interleaved from peak at 7/4 of its own
        bytes.  Raises ValueError, as the windows do, for a count above 255.
        """
        if self._counts is None:
            table = io.BytesIO()
            table.seek(self._e_max)
            table.write(b"\0")  # size the buffer once, zero-filled
            table.seek(0)
            table.writelines(self._windows())  # each window let go once written
            self._counts = table.getvalue()
        return self._counts

    def _windows(self) -> "Iterator[bytearray]":
        """The whole count windows of the range, ascending, made in this
        process one at a time, as they are asked for: the pair of each
        (`_window_counts`) interleaved (`_interleaved`)."""
        end = self._e_max + 1
        return (_interleaved(self._window_counts(lo), min(_COUNT_WINDOW, end - lo))
                for lo in range(0, end, _COUNT_WINDOW))

    @property
    def state_count(self) -> int:
        """States of energy <= e_max: isqrt(e_max - 3*n1^2) of them for each
        n1 >= 1, with no table.  Explicit buckets sum the lengths of their
        buckets of energy 0..e_max, one count window at a time (`_windows`),
        and keep no table either; a bucket of more than 255 states raises
        ValueError, as its window does."""
        if self._buckets is not None:
            return sum(map(sum, self._windows()))
        e_max = self._e_max
        return sum(math.isqrt(e_max - 3 * n1 * n1) for n1 in range(1, math.isqrt(e_max // 3) + 1))

    def __len__(self) -> int:
        counts = self.degeneracies()
        return len(counts) - counts.count(0)

    def __iter__(self) -> Iterator[int]:
        """The realized energies, ascending: the count windows (`_windows`)
        read one at a time, so no table is built, and once `len` or
        `degeneracies` has built one, each window's pair is a copy of its
        slices."""
        counts = itertools.chain.from_iterable(self._windows())
        return itertools.compress(range(self._e_max + 1), counts)

    def __contains__(self, energy: object) -> bool:
        return self.degeneracy_of(energy) > 0

    # No command reads one level through a spectrum; `[]` stays because
    # perfbench/tracing.py wraps `Spectrum.__getitem__` as a timed layer.
    def __getitem__(self, energy: int) -> EnergyLevel:
        if not self.degeneracy_of(energy):
            raise KeyError(energy)
        return level_of(energy)

    def iter_levels(
        self, parity: Optional[Parity] = None, degeneracy: Optional[int] = None
    ) -> Iterator[EnergyLevel]:
        """All levels in ascending energy order, or only those of one class.

        The level walk of index pairs (`_pair_levels`).  With `parity`,
        `degeneracy` or both given, each level of the walk is tested first,
        on the energy's residue (`parity_of_energy`: E = 0 (mod 4) is SAME,
        odd E is OPPOSITE) and the walk's own state count, and only a
        matching level is paired up, built and checked as an `EnergyLevel`.
        Raises ValueError, before walking anything, for a parity that is not
        a `Parity` or a degeneracy that is not an int >= 1, and, as the walk
        does, for a level of more than 255 states.
        """
        if parity is not None and not isinstance(parity, Parity):
            raise ValueError(f"parity must be a Parity, got {parity!r}")
        if degeneracy is not None and not (isinstance(degeneracy, int) and degeneracy >= 1):
            raise ValueError(f"degeneracy must be an int >= 1, got {degeneracy!r}")
        # a realized energy is of the parity exactly when energy & mask == want
        mask, want = {None: (0, 0), Parity.SAME: (3, 0), Parity.OPPOSITE: (1, 1)}[parity]
        return (_level(energy, zip(flat[0::2], flat[1::2]))
                for energy, count, flat in self._pair_levels()
                if energy & mask == want and (degeneracy is None or count == degeneracy))

    def degeneracy_of(self, energy: object) -> int:
        """Number of states at `energy`: the solve of one int 0 <= E <= e_max
        (`form_solutions`), which builds no table; 0 for any other value, or
        an energy no state reaches.  The one range guard: `in` and `[]` read
        it.  A dense loop over the range costs one solve per energy, where
        `degeneracies` counts the whole range at once."""
        in_range = isinstance(energy, int) and 0 <= energy <= self._e_max
        return len(form_solutions(energy)) if in_range else 0

    def raw_items(self) -> "Iterator[tuple[int, list[tuple[int, int]]]]":
        """(energy, states-as-int-pairs) in ascending energy, no materialization.

        The level walk of index pairs (`_pair_levels`): each call walks the
        range afresh, or reads the explicit buckets given to the
        constructor, and keeps nothing, so memory stays flat as e_max grows.
        Each list is fresh, and the caller may change it.  Raises ValueError,
        as the walk does, for a level of more than 255 states.
        """
        return ((energy, list(zip(flat[0::2], flat[1::2])))
                for energy, _, flat in self._pair_levels())

    def text_levels(self, first: str, second: str, sep: str) -> "Iterator[tuple[int, int, str]]":
        """(energy, degeneracy, text) for every level in ascending energy,
        where text writes each state (n1, n2) as first.format(n1) +
        second.format(n2), ascending in n1, joined by `sep`.

        The level walk (`_levels`) of the fragments, each formatted once per
        index into two tables, so no state tuple, level list or per-state
        format is made.  Raises ValueError, as the walk does, for a level of
        more than 255 states.
        """
        e_max = self._e_max
        return self._levels([first.format(n1) for n1 in range(math.isqrt(e_max // 3) + 1)],
                            [second.format(n2) for n2 in range(math.isqrt(e_max) + 1)], sep)

    def _pair_levels(self) -> "Iterator[tuple[int, int, tuple[int, ...]]]":
        """The level walk (`_levels`) of the 1-tuples (n1,) and (n2,) with no
        separator: each level's states come out as one flat tuple
        (n1, n2, n1', n2', ...), which zip(flat[0::2], flat[1::2]) pairs
        back up.  One table serves both indices."""
        ones = [(n,) for n in range(math.isqrt(self._e_max) + 1)]
        return self._levels(ones, ones, ())

    def _levels(self, firsts: list, seconds: list, sep: "Union[str, tuple]") -> "Iterator[tuple]":
        """(energy, degeneracy, joined) for every level in ascending energy,
        where joined is firsts[n1] + seconds[n2] for each state (n1, n2),
        ascending in n1, concatenated with `sep` between states.  firsts
        must reach n1 = isqrt(e_max // 3), and seconds n2 = isqrt(e_max).

        The one level stripe: each call walks the range afresh, one window
        of `_LEVEL_WINDOW` energies at a time, and the stripe of each window
        (`_stripes`) appends a state's two pieces to its energy's entry as
        it reaches the state, so each level comes out sorted by n1.
        Explicit buckets given to the constructor are read instead, at
        the energies that iteration yields from the count windows of their
        lengths, with no table kept.  The degeneracies are counted one
        byte per energy, so a level of more than 255 states raises
        ValueError, as `count_windows` does; the first is at
        E = 145651423372 (288 states, see `count_windows`), which no walk of
        the whole range reaches.
        """
        if self._buckets is not None:
            for energy in self:
                (n1, n2), *rest = states = self._buckets[energy]
                joined = firsts[n1] + seconds[n2]
                for n1, n2 in rest:
                    joined += sep + firsts[n1] + seconds[n2]
                yield energy, len(states), joined
            return
        end = self._e_max + 1
        squares = [n2 * n2 for n2 in range(len(seconds))]
        for lo in range(0, end, _LEVEL_WINDOW):
            hi = min(lo + _LEVEL_WINDOW, end)
            entries: list = [None] * (hi - lo)
            counts = bytearray(hi - lo)
            for n1, offset, start, stop in _stripes(lo, hi):
                head = firsts[n1]
                joint = sep + head
                for square, tail in zip(squares[start:stop], seconds[start:stop]):
                    at = offset + square
                    if counts[at]:
                        entries[at] += joint + tail
                    else:
                        entries[at] = head + tail
                    counts[at] += 1
            yield from itertools.compress(zip(range(lo, hi), counts, entries), counts)

    def __repr__(self) -> str:
        return f"Spectrum(e_max={self._e_max})"


def _level(energy: int, states: "Iterable[tuple[int, int]]") -> EnergyLevel:
    # tuple.__new__ makes each State from its pair without the Python-level
    # State.__new__; EnergyLevel checks the states
    new = tuple.__new__
    return EnergyLevel(energy, tuple([new(State, s) for s in states]))


# Energies per window of the level stripe `Spectrum._levels`: large enough
# that the per-n1 set-up is a small share of a window, small enough that
# one window's states take a few MB.  A JSON state is about 47 characters,
# more than its tuple: at 2^16, the peak RSS of `spectrum --emax 300000
# --format json` run after other work in the same process was 0.3 MB above
# the tuple walk's, and at 2^15 1.8 MB below, no slower from --emax 10^6 to
# 3*10^7 (2-vCPU x86, Python 3.11).  2^14 was a fifth slower at 3*10^7,
# where the per-n1 set-up starts to tell.
_LEVEL_WINDOW = 1 << 15

# Energies per window of `Spectrum.count_windows`: one byte each, so a
# window is 1 MB and stays in cache while its divisor sums are written
# into it.  The sums cost about (1/2)*sqrt(hi) slices per window, so a
# window much shorter would pay them more often: a window of 2^20 took
# 0.003 s at lo = 0, 0.025 s at 10^9 and 0.069 s at 10^10 (one CPU,
# medians of nine, 2-vCPU x86, Python 3.11).
_COUNT_WINDOW = 1 << 20

# The least energy of more than 255 states, 4*7^2*13*19*31*37*43*61 with
# 288 of them: a count window that reaches it raises (see `count_windows`).
_FIRST_PAST_A_BYTE = 145_651_423_372

# The first energy whose divisor sum S reaches 256 and so wraps its byte:
# 7^3*13*19*31*37*43*61, odd, with 128 states.  Below it S < 256.
_DIVISOR_SUM_EXACT = 254_889_990_901

# Bytes of `_odd_sums` and `_divisor_counts`: the term of d = 1 at the odd
# E = 1, 3, 5 (mod 6), chi by d mod 3, 2*chi(d) added mod 256, and the
# counts from S.  3*S/2 fits a byte only for S < 171; `_UNDER_171` finds
# the S past that.
_SEED = b"\2\0\0"
_CHI = (0, 1, -1)
_PLUS_TWO = bytes([(b + 2) & 255 for b in range(256)])
_MINUS_TWO = bytes([(b - 2) & 255 for b in range(256)])
_HALF = bytes([b >> 1 for b in range(256)])
_THREE_HALVES = bytes([(3 * b >> 1) & 255 for b in range(256)])
_UNDER_171 = bytes(range(171))


def _cpus() -> int:
    """The processes `Spectrum.count_windows` counts and maps its windows
    on, round robin, this one and a forked worker for each other: the CPUs
    of the affinity mask, or 1 without `os.fork` or while a second thread
    runs, which could hold a lock that a forked child never sees released."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _count_worker(inherited: "list[io.BufferedReader]", fd: int, results: Iterable[object]) -> None:
    """A forked worker of `Spectrum.count_windows`: close the `inherited`
    read ends, then make each of `results`, which counts and maps one
    window, and write it to the pipe `fd` as one `marshal` record; stop at
    the first result it cannot make or write.  The stripe that forked it
    then holds the only read ends, so a write fails once they are gone.  It
    leaves only through `os._exit`, so no stdout buffered before the fork
    is written twice."""
    try:
        for reader in inherited:
            reader.close()
        with open(fd, "wb") as pipe:
            for result in results:
                marshal.dump(result, pipe)
                pipe.flush()  # a small result would wait in the buffer
    finally:
        os._exit(0)


def _delivered(reader: "io.BufferedReader") -> "Optional[tuple[object]]":
    """(result,) for the next `marshal` record a count worker wrote to
    `reader`, or None when none arrives whole: the pipe ended, or a record
    was cut short, because the worker hit a count above 255, died or was
    killed."""
    try:
        return (marshal.load(reader),)
    except (EOFError, ValueError):
        return None


def _interleaved(pair: "tuple[bytes, bytes]", n: int) -> bytearray:
    """The counts of the n energies of a window from lo, a multiple of 4,
    one byte each, from the window's pair (same, odd)
    (`Spectrum.count_windows`): same at the offsets 0, 4, 8, ..., odd at
    1, 3, 5, ..., and 0 at every E = 2 (mod 4)."""
    window = bytearray(n)
    window[0::4], window[1::2] = pair
    return window


def _stripes(lo: int, hi: int) -> "Iterator[tuple[int, int, int, int]]":
    """(n1, offset, first, stop) for every n1 whose states can reach the
    energies [lo, hi), ascending: the states in the window are (n1, n2) for
    n2 in range(first, stop), which may be empty, and (n1, n2) has the
    energy lo + offset + n2^2.  The bounds of the level stripe (`_levels`)."""
    n1 = 1
    while (base := 3 * n1 * n1) + 1 < hi:
        first = math.isqrt(lo - base - 1) + 1 if lo > base else 1
        yield n1, base - lo, first, math.isqrt(hi - 1 - base) + 1
        n1 += 1


def _divisor_counts(lo: int, hi: int) -> "tuple[bytearray, bytearray]":
    """The state counts of the energies [lo, hi), lo a multiple of 4, as
    the pair (same, odd) of `Spectrum.count_windows`, from
    S(E) = sum of chi(d) over the divisors d of E, where chi is the
    character mod 3 (1 at d = 1, -1 at d = 2, 0 at 3 | d).
    The states of E are g(E) = floor(3*S/2) for E = 0 (mod 4), floor(S/2)
    for odd E, and none for E = 2 (mod 4), where S = 0 (Cox, Primes of the
    Form x^2 + ny^2, sections 1-2; the form is 3*n1^2 + n2^2).  S(4N) = S(N),
    so the same-parity counts are those of the sums over the window of
    E/4, a quarter as long (`_divisor_sums`), and the odd counts come from
    the odd sums (`_odd_sums`).

    S is held mod 256 in the bytes, and is exact there only while it stays
    below 256: the first E with S = 256 is `_DIVISOR_SUM_EXACT`, so a
    window that reaches it raises ValueError.  A same-parity count past
    255 (S > 170, first at E = 145651423372 with 288 states) raises
    ValueError too."""
    if hi > _DIVISOR_SUM_EXACT:
        raise ValueError(f"divisor sums wrap a byte at E = {_DIVISOR_SUM_EXACT}, "
                         f"in the window [{lo}, {hi})")
    same = _divisor_sums(lo // 4, -(-hi // 4))
    if same.translate(None, _UNDER_171):
        raise ValueError(f"a level in [{lo}, {hi}) holds more than 255 states")
    return same.translate(_THREE_HALVES), _odd_sums(lo, hi).translate(_HALF)


def _divisor_sums(lo: int, hi: int) -> bytearray:
    """S(E) mod 256 for every energy of [lo, hi), one byte each: the odd E
    from `_odd_sums`; S = 0 for E = 2 (mod 4), as S(2) = 0 and S is
    multiplicative; and S(E) = S(E/4) for 4 | E, the same sums on the
    window of E/4, a quarter as long, made first and written to every
    fourth byte.  The energy 0 keeps S = 0."""
    sums = bytearray(hi - lo)
    sums[(lo | 1) - lo::2] = _odd_sums(lo, hi)
    quarter = max(1, -(-lo // 4))  # E/4 at the first multiple of 4 in the window, past 0
    if 4 * quarter < hi:
        sums[4 * quarter - lo::4] = _divisor_sums(quarter, -(-hi // 4))
    return sums


def _odd_sums(lo: int, hi: int) -> bytearray:
    """S(E) mod 256 for the odd energies of [lo, hi), one byte each, by
    three rules: S = 0 for E = 5 (mod 6); S(E) = S(E/3) for E = 3 (mod 6),
    the odd sums on the window of E/3, a third as long, made first and
    written to every third byte; and for E = 1 (mod 6), where d and E/d
    share chi, S = 2 * (the sum of chi(d) over the divisors d < sqrt(E))
    + chi(t) when E = t^2.

    Only odd d divide an odd E, and d*(d + 3k) is odd only for even k, so
    that is 2*chi(d) at d^2 + 6dj, j >= 0, for each odd d <= sqrt(hi) prime
    to 3, less chi(t) at each odd square t^2 with t prime to 3.  d = 1
    gives 2 at every E = 1 (mod 6), the three-byte seed repeated in place;
    each larger d is one slice of stride 3d, 6d in energy, through an add-2
    or a subtract-2 table."""
    first, n = lo | 1, hi // 2 - lo // 2  # the least odd energy, and how many
    third = -(-lo // 3) | 1  # the least odd E/3 of a multiple of 3 in the window
    thirds = _odd_sums(third, -(-hi // 3)) if 3 * third < hi else b""
    k = first % 6 // 2
    sums = bytearray(_SEED[k:] + _SEED[:k]) * -(-n // 3)
    del sums[n:]
    sums[(3 * third - first) // 2::3] = thirds
    del thirds  # let go before the slices copy
    top = math.isqrt(hi - 1)
    for least, table in ((7, _PLUS_TWO), (5, _MINUS_TWO)):
        for d in range(least, top + 1, 6):
            step = 3 * d
            at = (d * d - first) // 2
            at = max(at, at % step)  # the first d^2 + 6dj in the window
            sums[at::step] = sums[at::step].translate(table)
    for t in range(math.isqrt(max(lo - 1, 0)) + 1 | 1, top + 1, 2):
        if t % 3:
            at = (t * t - first) // 2
            sums[at] = (sums[at] - _CHI[t % 3]) & 255
    return sums


def enumerate_spectrum(e_max: int) -> Spectrum:
    """The spectrum of every state with energy <= e_max, built lazily.

    Returns at once: the count table is built on the first read that needs
    it, and the walks stripe the states window by window on each call (see
    :class:`Spectrum`).  Deterministic; the result is independent of
    evaluation order by construction.

    Raises ValueError for an e_max that is not an int, and
    :class:`EmptySpectrumError` for e_max < 4, where no state exists.
    """
    if not isinstance(e_max, int):
        raise ValueError(f"e_max must be an int, got {e_max!r}")
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


# Elements y + x*sqrt(-3) of the ring Z[sqrt(-3)], held as pairs (y, x), of
# norm y^2 + 3*x^2: a solution (x, y) of 3*x^2 + y^2 = n with x, y >= 1 is an
# element of norm n.  The ring is closed under multiplication,
# (y + x*sqrt(-3)) * (c + d*sqrt(-3)) = (y*c - 3*x*d) + (y*d + x*c)*sqrt(-3),
# and it sits inside the Eisenstein integers Z[w], w = (-1 + sqrt(-3))/2,
# which factor uniquely and have six units, +-1, +-w and +-w^2.  So the
# elements of norm n are read off the primes of n (Cox, Primes of the Form
# x^2 + ny^2, sections 1-2).


def _split_prime(p: int) -> "tuple[int, int]":
    """(u, v) with u^2 + 3v^2 = p, for a prime p = 1 (mod 3): the prime
    u + v*sqrt(-3) of norm p.

    c = g^((p-1)/3) != 1 is a cube root of unity mod p, so 2c + 1 is a
    square root of -3 mod p; Cornacchia's algorithm then solves
    u^2 + 3v^2 = p.
    """
    g = 2
    while (c := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    a, b = p, (2 * c + 1) % p
    while b * b > p:
        a, b = b, a % b
    return (b, math.isqrt((p - b * b) // 3))


# Prime-power rows kept by `_prime_rows`, a fixed bound.  The rows of p^k
# hold (k + 1)(k + 2)/2 elements at most, and the exponents of 4*E stay
# small: 1024 rows of p^2 for split primes p near 10^9 take about 1 MB
# (tracemalloc), and those of p^1 half of that.
_PRIME_ROWS_KEPT = 1024


@lru_cache(maxsize=_PRIME_ROWS_KEPT)
def _prime_rows(p: int, k: int) -> "tuple[tuple[int, int, int], ...]":
    """(p^e, y, x) for every element y + x*sqrt(-3) of norm p^e, one per +-
    pair, for each e = 0..k whose cofactor exponent k - e also has elements.

    A prime p = 2 (mod 3) stays prime in Z[w], so it has elements at even e
    only, and none at all unless k is even: p^(e/2), and for p = 2 also its
    two rotations 2^(e/2 - 1) * (-1 +- sqrt(-3)) at e >= 2, which are 2^(e/2)
    times the units w and w^2.  3 = -(sqrt(-3))^2 ramifies, and gives
    (sqrt(-3))^e.  A prime p = 1 (mod 3) splits as pi * conj(pi), with pi
    from Cornacchia's algorithm (`_split_prime`), and gives
    pi^s * conj(pi)^(e-s) for s = 0..e.

    The elements of Z[w] of one norm fall into classes of six associates.
    A class of odd norm holds one +- pair of Z[sqrt(-3)], and a class that
    2 divides holds three, the rotations.  So the products of one element
    of each prime's rows, up to sign, are every element of Z[sqrt(-3)] of
    their norm, each once.

    The rows depend on p and k alone, never on the energy being solved, so
    the last `_PRIME_ROWS_KEPT` asked for are kept: a prime power that many
    energies share, as the small primes of a `verify` range do, is split
    and multiplied out once.  The rows are a tuple, so no caller can change
    what the next one reads.
    """
    if p % 3 == 2:
        if k % 2:
            return ()
        units = ((2, 0), (-1, 1), (-1, -1)) if p == 2 else ((p, 0),)
        return ((1, 1, 0),) + tuple((p ** (2 * j), c * p ** (j - 1), d * p ** (j - 1))
                                    for j in range(1, k // 2 + 1) for c, d in units)
    u, v = (0, 1) if p == 3 else _split_prime(p)
    powers = [(1, 0)]
    for _ in range(k):
        y, x = powers[-1]
        powers.append((u * y - 3 * v * x, u * x + v * y))
    if p == 3:
        return tuple((3**e, y, x) for e, (y, x) in enumerate(powers))
    # pi^s * conj(pi^(e-s)), where conj(c + d*sqrt(-3)) = c - d*sqrt(-3)
    return tuple((p**e, y * c + 3 * x * d, x * c - y * d) for e in range(k + 1)
                 for (y, x), (c, d) in zip(powers, powers[e::-1]))


@lru_cache(maxsize=1, typed=True)
def _rep_tuples(energy: int) -> "tuple[tuple[int, int, int, int], ...]":
    """Every (v1, v2, a, b) with (3*v1^2 + v2^2) * (3*a^2 + b^2) = 4*E, sorted:
    the reps (v1, v2, a/2, b/2) of `brahmagupta.rep_search`.  Empty for
    E < 4, where no rep exists; the one place that rule is written.

    The one solver, kept for the last energy asked: `level_of` reads its
    states off the same tuples (`form_solutions`), so a `level` query
    factors 4*E once.  Each prime power of 4*E gets one flat row of
    (norm, y, x) (`_prime_rows`), which is kept across energies, so a split
    prime that an earlier energy shared at the same exponent is not solved
    again.  One flat list of (norm, y, x), starting from 1, is multiplied
    by each prime's row in turn, 2 last, so the list triples with 2's
    rotations only once.  It then holds every element y + x*sqrt(-3) of
    every norm d | 4*E whose cofactor 4*E/d also has elements, one per +-
    pair.  The solutions of 3*x^2 + y^2 = d with x, y >= 1 are the
    elements with x*y > 0, each read once, as (|x|, |y|), from the one of
    its pair +-(y + x*sqrt(-3)) that the list holds; an element with x = 0
    or y = 0 is no solution.
    Each norm's solutions are paired with its cofactor's, and only the
    final list is sorted.  The tuple is immutable, so no caller can change
    what the next one reads.

    Raises ValueError for an energy that is not an int (a bool is one, as
    in `energy_of`).  The cache is typed, so a float or a Fraction equal to
    the energy kept is a different key and reaches the check.
    """
    if not isinstance(energy, int):
        raise ValueError(f"energy must be an int, got {energy!r}")
    if energy < 4:
        return ()
    two, *odd = factorize(4 * energy)  # (2, k) with k >= 2 comes first
    elements = [(1, 1, 0)]
    for p, k in odd + [two]:
        elements = [(n * q, y * c - 3 * x * d, y * d + x * c)
                    for n, y, x in elements for q, c, d in _prime_rows(p, k)]
    solved: "dict[int, list[tuple[int, int]]]" = {n: [] for n, _, _ in elements}
    for n, y, x in elements:
        if x * y > 0:
            solved[n].append((abs(x), abs(y)))
    return tuple(sorted([(v1, v2, a, b) for d, first in solved.items()
                         for a, b in solved[4 * energy // d] for v1, v2 in first]))


def form_solutions(n: int) -> "list[tuple[int, int]]":
    """All (x, y) with x, y >= 1 and 3*x^2 + y^2 = n, ascending in x: the
    elements y + x*sqrt(-3) of norm n with x*y > 0, one of each +- pair.

    These are the reps (1, 1, x/2, y/2) of n, since (3 + 1) * (3*x^2 + y^2)
    = 4*n: the tuples of `_rep_tuples(n)` that sort before (1, 2), cut off
    by one bisection, already ascending in x.  Empty for n < 4, as the
    solve is.
    """
    tuples = _rep_tuples(n)
    return [(a, b) for _, _, a, b in tuples[:bisect.bisect_left(tuples, (1, 2))]]


def level_of(energy: int) -> Optional[EnergyLevel]:
    """The complete level at `energy`, or None when no state reaches it.

    The states are the solutions of 3*n1^2 + n2^2 = E (`form_solutions`),
    read off the rep solve of E, which a `rep_search` of E then reuses.
    Raises ValueError, as the solve does, for an energy that is not an int.
    """
    states = form_solutions(energy)
    if not states:
        return None
    return _level(energy, states)
