"""Degeneracy censuses and conjecture checks over an enumerated spectrum.

The census is a histogram of levels by (parity, degeneracy) with exact
level and state counts.  Two finite verifications ride on top:

* every same-parity 3-fold level should match a Perrin seed, and
* every opposite-parity 2-fold level should possess at least one
  factorization-mode representation.

Both checkers return counterexample energies (empty list = conjecture holds
up to e_max).  Neither is a proof; the checks are exhaustive only within the
enumerated range.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .brahmagupta import RepMode, rep_search
from .perrin import match_perrin
from .spectrum import Parity, Spectrum, _stripes

# Table-style reports always pad degeneracy rows out to these minimums so a
# census at any e_max keeps the same row structure.
_MIN_ROWS = {Parity.SAME: 9, Parity.OPPOSITE: 4}


@dataclass(frozen=True)
class CensusRow:
    parity: Parity
    degeneracy: int
    levels: int

    @property
    def states(self) -> int:
        """Each level of the row holds `degeneracy` states."""
        return self.levels * self.degeneracy


@dataclass(frozen=True)
class CensusReport:
    e_max: int
    rows: "tuple[CensusRow, ...]"
    perrin_total: int
    perrin_matched: int
    perrin_exceptions: "tuple[int, ...]"
    brahmagupta_total: int

    def rows_for(self, parity: Parity) -> "tuple[CensusRow, ...]":
        return tuple(r for r in self.rows if r.parity is parity)

    def subtotal(self, parity: Parity) -> "tuple[int, int]":
        rows = self.rows_for(parity)
        return (sum(r.levels for r in rows), sum(r.states for r in rows))

    @property
    def total(self) -> "tuple[int, int]":
        return (
            sum(r.levels for r in self.rows),
            sum(r.states for r in self.rows),
        )


def build_census(spectrum: Spectrum) -> CensusReport:
    """Exact degeneracy-by-parity histogram plus conjecture tallies.

    Reads only the count windows (`Spectrum.count_windows`), one at a time,
    never a state and never a whole-range table, so memory stays flat as
    e_max grows.  Each window is tallied by the process that striped it
    (`window_tally` below), which hands back three lists of ints: the
    same-parity and the opposite-parity histogram of the window and its
    Perrin exceptions.  They come back in ascending window order, and are
    added up here in that order, so the report does not depend on how many
    CPUs striped the windows.  A window starts at a multiple of 4, so its
    same-parity energies, E = 0 (mod 4), are the slice c[0::4], and its
    opposite-parity energies, the odd E, are c[1::2].  Each row of a
    window's histogram is one `bytes.count` of a slice (`_tally`).

    Perrin tally: a same-parity 3-fold level holds a triplet exactly when
    some seed (m1, m2), m2 > m1 >= 1, has its energy 4*(m1^2 + m1*m2 + m2^2),
    because the seed's triplet is then three distinct states of the level,
    which has no others.  That energy is 3*m1^2 + (m1 + 2*m2)^2, so the seed
    energies are those of the states (n1, n2) with n2 > 3*n1 and n2 = n1
    (mod 2), and the stripe bounds of the window (`_stripes`) find them.
    The walk zeroes the count of each seed energy in the window, and every
    same-parity count still equal to 3 is a counterexample.  It runs in
    every window, one with no 3-fold level too, where it finds none, and
    stops at the first n1 whose stripe holds no seed state.  `find_seed`
    over the states is the independent route (`check_perrin_conjecture`).

    Doublet tally: `brahmagupta_total` counts the doublet levels, and each
    is covered without a search, since a state (n1, n2) witnesses the rep
    (1, 1, n1/2, n2/2) of its own energy, (3+1)*(3*n1^2+n2^2)/4 = E.
    `check_brahmagupta_conjecture` is the search-based route.
    """
    squares = [n2 * n2 for n2 in range(math.isqrt(spectrum.e_max) + 1)]

    def window_tally(lo: int, counts: bytearray) -> "list[list[int]]":
        found = [_tally(counts[0::4]), _tally(counts[1::2]), []]
        for n1, offset, first, stop in _stripes(lo, lo + len(counts)):
            if stop <= 3 * n1 + 1:
                break  # no seed state for this n1 or any larger one
            start = max(first, 3 * n1 + 1)
            for square in squares[start + (start - n1) % 2:stop:2]:
                counts[offset + square] = 0
        unmatched = counts[0::4]
        q = unmatched.find(3)
        while q >= 0:
            found[2].append(lo + 4 * q)
            q = unmatched.find(3, q + 1)
        return found

    # levels[parity][g - 1]: number of levels of degeneracy g
    levels: "dict[Parity, list[int]]" = {Parity.SAME: [], Parity.OPPOSITE: []}
    perrin_exceptions: "list[int]" = []
    for *histograms, exceptions in spectrum.count_windows(window_tally):
        for by_g, found in zip(levels.values(), histograms):
            by_g[:] = map(sum, itertools.zip_longest(by_g, found, fillvalue=0))
        perrin_exceptions += exceptions

    rows = []
    for parity, by_g in levels.items():
        by_g += [0] * (_MIN_ROWS[parity] - len(by_g))
        rows += [CensusRow(parity, g, n) for g, n in enumerate(by_g, 1)]
    perrin_total = levels[Parity.SAME][2]
    return CensusReport(
        e_max=spectrum.e_max,
        rows=tuple(rows),
        perrin_total=perrin_total,
        perrin_matched=perrin_total - len(perrin_exceptions),
        perrin_exceptions=tuple(perrin_exceptions),
        brahmagupta_total=levels[Parity.OPPOSITE][1],
    )


def _tally(counts: bytearray) -> "list[int]":
    """The number of entries of `counts` equal to g at index g - 1, for g
    from 1 up to the largest entry.  The zeros go first, and the counting
    stops as soon as the entries counted reach the nonzero ones, so it
    never scans for a g that no entry holds."""
    nonzero = counts.translate(None, b"\0")
    by_g: "list[int]" = []
    seen = 0
    while seen < len(nonzero):
        by_g.append(nonzero.count(len(by_g) + 1))
        seen += by_g[-1]
    return by_g


def check_perrin_conjecture(spectrum: Spectrum) -> "list[int]":
    """Energies of same-parity 3-fold levels with no matching seed.

    Walks only that class (`Spectrum.iter_levels`), so no other level is
    built."""
    return [level.energy for level in spectrum.iter_levels(Parity.SAME, 3)
            if match_perrin(level) is None]


def check_brahmagupta_conjecture(
    spectrum: Spectrum, mode: RepMode = RepMode.FACTORIZATION
) -> "list[int]":
    """Energies of opposite-parity 2-fold levels with no representation in `mode`.

    The doublet levels that `doublet_coverage` finds not `covered`: one
    walk of the doublet levels, whose search in `mode` decides each.  No
    command calls it; `verify` reads `doublet_coverage` itself.  Raises
    ValueError, before walking anything, for a mode that is not a
    `RepMode`.
    """
    return [c.energy for c in doublet_coverage(spectrum, mode) if not c.covered]


@dataclass(frozen=True)
class DoubletCoverage:
    """Representation tallies for one opposite-parity 2-fold level, and
    whether the search in the mode asked of `doublet_coverage` found a rep.

    `verify` holds one per doublet level, so the slots are declared, as
    `brahmagupta.BrahmaguptaRep` declares them and for the same reason, and
    pickling and `copy` rebuild a record through the constructor
    (`__reduce__`).
    """

    __slots__ = ("energy", "rep_count", "all_integer_count", "strict_count", "covered")

    energy: int
    rep_count: int
    all_integer_count: int
    strict_count: int
    covered: bool

    def __reduce__(self):
        return (DoubletCoverage, tuple(getattr(self, name) for name in self.__slots__))


def doublet_coverage(
    spectrum: Spectrum, mode: RepMode = RepMode.FACTORIZATION
) -> "list[DoubletCoverage]":
    """Per-level representation tallies, ascending in energy, one per
    doublet level: only those levels are walked (`Spectrum.iter_levels`).

    Each level gets three searches back to back: the search in `mode`,
    whose result is `covered` (which `check_brahmagupta_conjecture`
    reads), then a factorization search and a strict search for the tallies.
    The first solves the energy and builds its reps once; `rep_search`
    keeps the reps of the last energy, so the other two build nothing, and
    each level is solved once in either mode.  `all_integer_count` probes
    which doublet levels admit an all-integer tuple; the first level with
    zero is the half-integer threshold.  A rep is all-integer when its
    doubled coordinates a and b are both even (`brahmagupta.classify_rep`),
    tested inline.  Raises ValueError, before walking anything, for a mode
    that is not a `RepMode`.
    """
    if not isinstance(mode, RepMode):
        raise ValueError(f"mode must be a RepMode, got {mode!r}")
    out = []
    for level in spectrum.iter_levels(Parity.OPPOSITE, 2):
        energy = level.energy
        # In factorization mode the first two calls are the same search; the
        # benchmark pins three rep_search calls per doublet level on verify
        # (perfbench/test_harness.py), so the repeat stays until that pin
        # changes.  It is served by the kept reps and solves nothing.
        covered = bool(rep_search(energy, mode))
        reps = rep_search(energy, RepMode.FACTORIZATION)
        strict = rep_search(energy, RepMode.STRICT)
        all_integer = 0
        for r in reps:
            all_integer += (r.a | r.b) & 1 == 0
        out.append(DoubletCoverage(energy, len(reps), all_integer, len(strict), covered))
    return out
