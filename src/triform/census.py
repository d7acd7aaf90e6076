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

from collections import Counter
from dataclasses import dataclass

from .brahmagupta import RepClass, RepMode, classify_rep, rep_search
from .perrin import find_seed, match_perrin
from .spectrum import Parity, Spectrum

# Table-style reports always pad degeneracy rows out to these minimums so a
# census at any e_max keeps the same row structure.
_MIN_ROWS = {Parity.SAME: 9, Parity.OPPOSITE: 4}


@dataclass(frozen=True)
class CensusRow:
    parity: Parity
    degeneracy: int
    levels: int
    states: int

    def __post_init__(self) -> None:
        if self.states != self.levels * self.degeneracy:
            raise ValueError(
                f"row ({self.parity.value}, g={self.degeneracy}) is inconsistent: "
                f"{self.states} states != {self.levels} levels x {self.degeneracy}"
            )


@dataclass(frozen=True)
class CensusReport:
    e_max: int
    rows: "tuple[CensusRow, ...]"
    perrin_total: int
    perrin_matched: int
    perrin_exceptions: "tuple[int, ...]"
    brahmagupta_total: int
    brahmagupta_covered: int
    brahmagupta_exceptions: "tuple[int, ...]"

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

    Deterministic.  The Perrin tally runs the seed scan (`find_seed`) on the
    raw states of every same-parity 3-fold level, building no EnergyLevel.
    Doublet coverage needs no search at all: each level state (n1, n2)
    witnesses the representation (1, 1, n1/2, n2/2) of its own energy,
    since (3+1)*(3*n1^2+n2^2)/4 = E, so every doublet level is covered and
    `brahmagupta_exceptions` is empty (the lemma is pinned by a test).  The
    full search-based checker (`check_brahmagupta_conjecture`) is the slow,
    independent route.
    """
    hist: "Counter[tuple[Parity, int]]" = Counter()
    perrin_exceptions = []
    for energy, states in spectrum.raw_items():
        g = len(states)
        same = energy % 4 == 0
        hist[(Parity.SAME if same else Parity.OPPOSITE, g)] += 1
        if same and g == 3 and find_seed(states) is None:
            perrin_exceptions.append(energy)
    perrin_total = hist[(Parity.SAME, 3)]
    doublet_total = hist[(Parity.OPPOSITE, 2)]

    rows = []
    for parity in (Parity.SAME, Parity.OPPOSITE):
        observed = [g for (p, g) in hist if p is parity]
        top = max([_MIN_ROWS[parity], *observed])
        for g in range(1, top + 1):
            levels = hist.get((parity, g), 0)
            rows.append(CensusRow(parity, g, levels, levels * g))
    return CensusReport(
        e_max=spectrum.e_max,
        rows=tuple(rows),
        perrin_total=perrin_total,
        perrin_matched=perrin_total - len(perrin_exceptions),
        perrin_exceptions=tuple(perrin_exceptions),
        brahmagupta_total=doublet_total,
        brahmagupta_covered=doublet_total,
        brahmagupta_exceptions=(),
    )


def check_perrin_conjecture(spectrum: Spectrum) -> "list[int]":
    """Energies of same-parity 3-fold levels with no matching seed."""
    exceptions = []
    for level in spectrum.iter_levels():
        if level.parity is Parity.SAME and level.degeneracy == 3:
            if match_perrin(level) is None:
                exceptions.append(level.energy)
    return exceptions


def check_brahmagupta_conjecture(
    spectrum: Spectrum, mode: RepMode = RepMode.FACTORIZATION
) -> "list[int]":
    """Energies of opposite-parity 2-fold levels with no representation in `mode`.

    Runs the divisor-enumeration search per level; intended for desk-scale
    ranges.  Per-level detail, including whether an all-integer
    representation exists, comes from `doublet_coverage`.
    """
    exceptions = []
    for level in spectrum.iter_levels():
        if level.parity is Parity.OPPOSITE and level.degeneracy == 2:
            if not rep_search(level.energy, mode):
                exceptions.append(level.energy)
    return exceptions


@dataclass(frozen=True)
class DoubletCoverage:
    """Representation tallies for one opposite-parity 2-fold level."""

    energy: int
    rep_count: int
    all_integer_count: int
    strict_count: int


def doublet_coverage(spectrum: Spectrum) -> "list[DoubletCoverage]":
    """Per-level representation tallies, ascending in energy.

    `all_integer_count` probes which doublet levels admit an all-integer
    tuple; the first level with zero is the half-integer threshold.
    """
    out = []
    for level in spectrum.iter_levels():
        if level.parity is Parity.OPPOSITE and level.degeneracy == 2:
            reps = rep_search(level.energy, RepMode.FACTORIZATION)
            strict = rep_search(level.energy, RepMode.STRICT)
            all_integer = sum(
                1 for r in reps if classify_rep(r) is RepClass.ALL_INTEGER
            )
            out.append(
                DoubletCoverage(level.energy, len(reps), all_integer, len(strict))
            )
    return out
