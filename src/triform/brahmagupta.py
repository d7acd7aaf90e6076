"""Brahmagupta identity, doublet construction, representation search, inverse map.

The identity, exact for arbitrary rationals (weight m kept general here):

    (m*v1^2 + v2^2) * (m*v3^2 + v4^2)
        = m*(v1*v4 - v2*v3)^2 + (m*v1*v3 + v2*v4)^2
        = m*(v1*v4 + v2*v3)^2 + (m*v1*v3 - v2*v4)^2

At m = 3 a factored energy E = (3*v1^2 + v2^2) * (3*v3^2 + v4^2) yields the
doublet

    (|v1*v4 - v2*v3|, 3*v1*v3 + v2*v4)  and  (v1*v4 + v2*v3, |3*v1*v3 - v2*v4|),

two equal-energy index pairs which form actual states whenever both come out
as positive integers.

Two representation semantics coexist on purpose.  Factorization mode accepts
any tuple (v1, v2, v3, v4) with v1, v2 positive integers and v3, v4 positive
half-integers whose product of forms equals E; this is the semantics under
which the flagship E = 91 level has 16 representations.  Strict mode keeps
only tuples whose doublet really is a pair of two distinct states; requiring
integer doublet members up front would contradict the 16-item count, so the
discrepancy is exposed as a mode switch instead of being painted over.

Everything is exact: integers, with `fractions.Fraction` only where a
rational leaves the integers (the identity, the doublet, the inverse map);
no floats.  A representation holds its half-integers as the doubled
integer coordinates a = 2*v3, b = 2*v4, and the search, the checks and
the classification work on those.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Union

from .spectrum import State, StateLike, _Record, _rep_tuples, energy_of

__all__ = ["BrahmaguptaRep", "Doublet", "IdentityExpansion", "RepClass", "RepMode",
           "classify_rep", "doublet_from_rep", "identity_expand", "inverse_rep",
           "rep_search", "signed_doublet"]

# `fractions` (with `decimal` and `numbers`) is imported by each function
# that makes a Fraction, so a command that makes none does not load it.
if TYPE_CHECKING:
    from fractions import Fraction

    Rational = Union[int, str, Fraction]


def _frac(value: Rational) -> Fraction:
    from fractions import Fraction
    return value if isinstance(value, Fraction) else Fraction(value)


class RepMode(Enum):
    FACTORIZATION = "factorization"
    STRICT = "strict"


class RepClass(Enum):
    ALL_INTEGER = "all-integer"
    NEEDS_HALF_INTEGER = "half-integer"


class IdentityExpansion(_Record):
    """Both right-hand sides of the identity, with their common product: the
    `weight` m and the `product`, Fractions, and the pairs of Fractions
    `minus_form` (v1*v4 - v2*v3, m*v1*v3 + v2*v4) and `plus_form`
    (v1*v4 + v2*v3, m*v1*v3 - v2*v4)."""

    __slots__ = ("weight", "product", "minus_form", "plus_form")

    def evaluate(self, form: "tuple[Fraction, Fraction]") -> Fraction:
        x, y = form
        return self.weight * x * x + y * y


def identity_expand(
    m: Rational, v1: Rational, v2: Rational, v3: Rational, v4: Rational
) -> IdentityExpansion:
    """Expand the identity for arbitrary exact rationals.

    Both returned forms evaluate (via ``m*x^2 + y^2``) to the product
    (m*v1^2 + v2^2)*(m*v3^2 + v4^2) exactly; the test suite fuzzes this over
    10^4 rational tuples including zeros and negatives.
    """
    m, v1, v2, v3, v4 = (_frac(x) for x in (m, v1, v2, v3, v4))
    product = (m * v1 * v1 + v2 * v2) * (m * v3 * v3 + v4 * v4)
    minus_form = (v1 * v4 - v2 * v3, m * v1 * v3 + v2 * v4)
    plus_form = (v1 * v4 + v2 * v3, m * v1 * v3 - v2 * v4)
    return IdentityExpansion(m, product, minus_form, plus_form)


class BrahmaguptaRep(_Record):
    """A factorization E = (3*v1^2 + v2^2) * (3*v3^2 + v4^2).

    v1, v2 are positive integers; v3, v4 positive half-integers (multiples
    of 1/2), given as int, str or `Fraction`; the energy E is an int.  A
    rep holds v3 and v4 as the doubled integers a = 2*v3, b = 2*v4, on
    which every check runs, and `v3`, `v4` read them back as `Fraction`s.
    The second factor may be a non-integer rational; the product must
    equal the integer energy exactly: (3*v1^2 + v2^2) * (3*a^2 + b^2) = 4*E.

    The fields are v1, v2, a, b and energy, all ints.  The constructor
    checks its arguments (`_checked_ints`) and then sets the fields, and
    pickling and `copy` give it v3 and v4 back (`_args`).  `rep_search`
    builds its reps past these checks, from tuples that pass them by
    construction (`_reps`).
    """

    __slots__ = ("v1", "v2", "a", "b", "energy")
    _args = ("v1", "v2", "v3", "v4", "energy")

    def __init__(self, v1: int, v2: int, v3: Rational, v4: Rational, energy: int) -> None:
        _Record.__init__(self, *_checked_ints(v1, v2, v3, v4, energy), energy)

    @property
    def v3(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.a, 2)

    @property
    def v4(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.b, 2)

    @property
    def key(self) -> "tuple[int, int, Fraction, Fraction]":
        return (self.v1, self.v2, self.v3, self.v4)


_SET_V1, _SET_V2, _SET_A, _SET_B, _SET_ENERGY = (
    vars(BrahmaguptaRep)[name].__set__ for name in BrahmaguptaRep.__slots__)


def _checked_ints(v1, v2, v3, v4, energy: int) -> "tuple[int, int, int, int]":
    """The checks of a rep one at a time: the energy an int (a bool is
    one, as in `energy_of`), then, on exact rationals, so a float checks
    as the integer it equals and no product rounds, v1 and v2 positive
    integers, a = 2*v3 and b = 2*v4 positive integers (v3 is a
    half-integer exactly when 2*v3 has denominator 1, as an int has), and
    the product of forms 4*E.  Returns v1, v2, a, b as ints; raises
    ValueError naming what failed."""
    if not isinstance(energy, int):
        raise ValueError(f"energy must be an int, got {energy!r}")
    from fractions import Fraction
    v1, v2, a, b = Fraction(v1), Fraction(v2), 2 * Fraction(v3), 2 * Fraction(v4)
    if v1 < 1 or v2 < 1 or v1.denominator != 1 or v2.denominator != 1:
        raise ValueError("v1 and v2 must be positive integers")
    for n in (a, b):
        if n < 1 or n.denominator != 1:
            raise ValueError(f"v3 and v4 must be positive half-integers, got {Fraction(n, 2)}")
    v1, v2, a, b = v1.numerator, v2.numerator, a.numerator, b.numerator
    if (3 * v1 * v1 + v2 * v2) * (3 * a * a + b * b) != 4 * energy:
        raise ValueError(f"({v1},{v2},{Fraction(a, 2)},{Fraction(b, 2)}) does not factor {energy}")
    return v1, v2, a, b


def classify_rep(rep: BrahmaguptaRep) -> RepClass:
    """ALL_INTEGER when v3 and v4 are both integers (v1, v2 always are):
    when both doubled coordinates are even."""
    if rep.a % 2 == 0 == rep.b % 2:
        return RepClass.ALL_INTEGER
    return RepClass.NEEDS_HALF_INTEGER


def _all_integer_count(reps: "list[BrahmaguptaRep]") -> int:
    """The number of `reps` that `classify_rep` calls ALL_INTEGER, with its
    parity test inline: one call per list, not one per rep."""
    return sum([(r.a | r.b) & 1 == 0 for r in reps])


class Doublet(_Record):
    """The two index pairs produced from a representation, `first` and
    `second`, each a pair of Fractions, and their `energy`.

    Members are exact rationals; they are states only when all four entries
    are positive integers (reported, never raised).
    """

    __slots__ = ("first", "second", "energy")

    @property
    def is_state_pair(self) -> bool:
        return all(
            x > 0 and x.denominator == 1 for x in (*self.first, *self.second)
        )

    @property
    def is_distinct(self) -> bool:
        return self.first != self.second

    def as_states(self) -> "Optional[tuple[State, State]]":
        if not self.is_state_pair:
            return None
        return (
            State(int(self.first[0]), int(self.first[1])),
            State(int(self.second[0]), int(self.second[1])),
        )


def doublet_from_rep(rep: BrahmaguptaRep) -> Doublet:
    """Doublet (|v1*v4 - v2*v3|, 3*v1*v3 + v2*v4), (v1*v4 + v2*v3, |3*v1*v3 - v2*v4|)."""
    first, second = (
        tuple(map(abs, form)) for form in signed_doublet(rep.v1, rep.v2, rep.v3, rep.v4)
    )
    return Doublet(first, second, rep.energy)


def _strict(v1: int, v2: int, a: int, b: int) -> bool:
    """`is_strict` on the doubled coordinates a = 2*v3, b = 2*v4.

    The doublet members are (|v1*b - v2*a|/2, (3*v1*a + v2*b)/2) and
    ((v1*b + v2*a)/2, |3*v1*a - v2*b|/2); each entry must be a positive
    integer, so each doubled entry a nonzero even number.  The sum and the
    difference in each position differ by 2*v2*a or 2*v2*b, and 3*v1*a has
    the parity of v1*a, so two parities decide all four entries:
    v1*b + v2*a and v1*a + v2*b.  For a rep these two agree: 4 divides the
    product of forms only when v1 and v2, or a and b, have equal parity, so
    their sum (v1 + v2)*(a + b) is even, and one parity is tested.  The sums are
    positive, so only the differences can vanish.  The members are always
    distinct: with all four inputs positive, |v1*b - v2*a| is less than
    v1*b + v2*a.
    """
    return (v1 * b + v2 * a) % 2 == 0 and v1 * b != v2 * a and 3 * v1 * a != v2 * b


def is_strict(rep: BrahmaguptaRep) -> bool:
    """True when the doublet of `rep` is two distinct positive-integer states."""
    return _strict(rep.v1, rep.v2, rep.a, rep.b)


def signed_doublet(
    v1: Rational, v2: Rational, v3: Rational, v4: Rational
) -> "tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]":
    """The doublet map with absolute values resolved to plus signs.

    ((v1*v4 - v2*v3, 3*v1*v3 + v2*v4), (v1*v4 + v2*v3, 3*v1*v3 - v2*v4)),
    defined for arbitrary rationals.  This is the exact map the inverse
    construction round-trips through.  These are the two forms of
    `identity_expand` at m = 3.
    """
    expansion = identity_expand(3, v1, v2, v3, v4)
    return (expansion.minus_form, expansion.plus_form)


def rep_search(energy: int, mode: RepMode = RepMode.FACTORIZATION) -> "list[BrahmaguptaRep]":
    """All representations of `energy`, sorted lexicographically by (v1, v2, v3, v4).

    Writing v3 = a/2 and v4 = b/2 with positive integers a, b turns the
    product equation into (3*v1^2 + v2^2) * (3*a^2 + b^2) = 4*E, so the
    first factor d1 runs over divisors of 4*E and the two factors are
    solved independently (`spectrum._rep_tuples`, the one solver).  Ordered
    tuples are distinct representations: (1,2,2,1) and (2,1,1,2) both count.

    The reps of the last energy searched are kept, in either mode, built
    in one batch (`_reps`) from the tuples of the one solve, without the
    constructor's checks, which those tuples pass by construction: a search
    right after another of the same energy, in either mode, builds
    nothing (a strict one filters the kept reps with `_strict`), so the
    three searches `doublet_coverage` makes back to back for every doublet
    level solve it once, and a search right after `level_of` of
    the same energy, which reads its states off the same solve, does not
    solve again.  Only one energy is kept, so memory stays bounded.  Strict
    mode keeps only the representations that pass `is_strict`.  Every call
    returns a new list; the reps in it may be shared with other calls,
    which is safe since a rep is frozen.  Returns [] when nothing
    represents the energy, as for every E < 4, which the solve answers
    with no tuple.  Raises ValueError for a mode that is not a `RepMode`,
    before solving anything, and, as the solve does, for an energy that is
    not an int.
    """
    if not isinstance(mode, RepMode):
        raise ValueError(f"mode must be a RepMode, got {mode!r}")
    reps = _reps(energy)
    if mode is RepMode.STRICT:
        return [r for r in reps if _strict(r.v1, r.v2, r.a, r.b)]
    return list(reps)


@lru_cache(maxsize=1, typed=True)
def _reps(energy: int) -> "tuple[BrahmaguptaRep, ...]":
    """Every rep of `energy`, as `rep_search` returns them in factorization
    mode: one per tuple (v1, v2, a, b) of `_rep_tuples`, in its order.
    Kept for the last energy asked, keyed as `_rep_tuples` is, so a float
    or a Fraction equal to the energy kept reaches the solve's check.

    The constructor's checks cannot fail here, so the slots are set
    through their member descriptors, past them and past the frozen
    `__setattr__`: each tuple pairs an element of norm d with one of norm
    4*E/d, both with x*y > 0, so v1, v2, a, b are ints >= 1 and
    (3*v1^2 + v2^2) * (3*a^2 + b^2) = 4*E.  The tests check searched reps
    against the constructor and against a divisor scan.
    """
    new = object.__new__
    reps = []
    for v1, v2, a, b in _rep_tuples(energy):
        rep = new(BrahmaguptaRep)
        _SET_V1(rep, v1)
        _SET_V2(rep, v2)
        _SET_A(rep, a)
        _SET_B(rep, b)
        _SET_ENERGY(rep, energy)
        reps.append(rep)
    return tuple(reps)


def inverse_rep(
    first: StateLike, second: StateLike, xi: Rational = "1/6"
) -> "tuple[Fraction, Fraction, Fraction, Fraction]":
    """Exact-rational tuple (v1, v2, v3, v4) whose plus-resolved doublet is the pair.

    For equal-energy states (p1, p2), (q1, q2) and any xi > 0:

        v1 = (p2 + q2) * xi
        v2 = 3 * (q1 - p1) * xi
        v3 = 1 / (6 * xi)
        v4 = (q1 + p1) / (2 * (q2 + p2) * xi)

    so that `signed_doublet(v1, v2, v3, v4)` returns ((p1, p2), (q1, q2))
    exactly.  v1 here is the sum of the two second indices; building it from
    mixed indices, v1 = (q1 + p2) * xi, breaks the round trip.

    Scaling xi rescales (v1, v2) proportionally and (v3, v4) inversely, so
    the round trip is xi-invariant; xi = 1/6 normalizes v3 to 1.

    Raises ValueError for identical states (v2 would vanish and the doublet
    degenerate), for energy mismatch, and for xi <= 0.
    """
    p, q = tuple(first), tuple(second)
    ep, eq = energy_of(p), energy_of(q)
    if ep != eq:
        raise ValueError(f"states {p} and {q} have different energies ({ep} != {eq})")
    if p == q:
        raise ValueError(f"states must be distinct, got {p} twice")
    xi = _frac(xi)
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    (p1, p2), (q1, q2) = p, q
    v1 = (p2 + q2) * xi
    v2 = 3 * (q1 - p1) * xi
    v3 = 1 / (6 * xi)
    v4 = (q1 + p1) / (2 * (q2 + p2) * xi)
    return (v1, v2, v3, v4)
