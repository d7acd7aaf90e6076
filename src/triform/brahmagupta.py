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

Everything is exact: integers, and `fractions.Fraction` for the tuples; no
floats.  The search and the strict test work on the doubled integer
coordinates a = 2*v3, b = 2*v4.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Optional, Union

from .spectrum import State, StateLike, energy_of, factorize, form_solutions_factored

Rational = Union[int, str, Fraction]


def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _doubled(half: Fraction) -> int:
    """2*half for a half-integer `half`, as an int."""
    return half.numerator * (2 // half.denominator)


class RepMode(Enum):
    FACTORIZATION = "factorization"
    STRICT = "strict"


class RepClass(Enum):
    ALL_INTEGER = "all-integer"
    NEEDS_HALF_INTEGER = "half-integer"


@dataclass(frozen=True)
class IdentityExpansion:
    """Both right-hand sides of the identity, with their common product."""

    weight: Fraction
    product: Fraction
    minus_form: "tuple[Fraction, Fraction]"  # (v1*v4 - v2*v3, m*v1*v3 + v2*v4)
    plus_form: "tuple[Fraction, Fraction]"   # (v1*v4 + v2*v3, m*v1*v3 - v2*v4)

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


@dataclass(frozen=True)
class BrahmaguptaRep:
    """A factorization E = (3*v1^2 + v2^2) * (3*v3^2 + v4^2).

    v1, v2 are positive integers; v3, v4 positive half-integers (multiples
    of 1/2).  The second factor may be a non-integer rational; the product
    must equal the integer energy exactly.
    """

    v1: int
    v2: int
    v3: Fraction
    v4: Fraction
    energy: int

    def __post_init__(self) -> None:
        v3, v4 = _frac(self.v3), _frac(self.v4)
        object.__setattr__(self, "v3", v3)
        object.__setattr__(self, "v4", v4)
        if self.v1 < 1 or self.v2 < 1:
            raise ValueError("v1 and v2 must be positive integers")
        for v in (v3, v4):
            if v.numerator <= 0 or v.denominator > 2:
                raise ValueError(f"v3 and v4 must be positive half-integers, got {v}")
        a, b = _doubled(v3), _doubled(v4)
        first = 3 * self.v1 * self.v1 + self.v2 * self.v2
        if first * (3 * a * a + b * b) != 4 * self.energy:
            raise ValueError(
                f"({self.v1},{self.v2},{v3},{v4}) does not factor {self.energy}"
            )

    @property
    def key(self) -> "tuple[int, int, Fraction, Fraction]":
        return (self.v1, self.v2, self.v3, self.v4)


def classify_rep(rep: BrahmaguptaRep) -> RepClass:
    """ALL_INTEGER when v3 and v4 are both integers (v1, v2 always are)."""
    if rep.v3.denominator == 1 and rep.v4.denominator == 1:
        return RepClass.ALL_INTEGER
    return RepClass.NEEDS_HALF_INTEGER


@dataclass(frozen=True)
class Doublet:
    """The two index pairs produced from a representation.

    Members are exact rationals; they are states only when all four entries
    are positive integers (reported, never raised).
    """

    first: "tuple[Fraction, Fraction]"
    second: "tuple[Fraction, Fraction]"
    energy: int

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
    v1, v2, v3, v4 = Fraction(rep.v1), Fraction(rep.v2), rep.v3, rep.v4
    first = (abs(v1 * v4 - v2 * v3), 3 * v1 * v3 + v2 * v4)
    second = (v1 * v4 + v2 * v3, abs(3 * v1 * v3 - v2 * v4))
    return Doublet(first, second, rep.energy)


def _strict(v1: int, v2: int, a: int, b: int) -> bool:
    """`is_strict` on the doubled coordinates a = 2*v3, b = 2*v4.

    The doublet members are (|v1*b - v2*a|/2, (3*v1*a + v2*b)/2) and
    ((v1*b + v2*a)/2, |3*v1*a - v2*b|/2); each entry must be a positive
    integer, so each doubled entry a nonzero even number.  The members are
    always distinct: with all four inputs positive, |v1*b - v2*a| is less
    than v1*b + v2*a.
    """
    doubled = (abs(v1 * b - v2 * a), 3 * v1 * a + v2 * b,
               v1 * b + v2 * a, abs(3 * v1 * a - v2 * b))
    return all(x and x % 2 == 0 for x in doubled)


def is_strict(rep: BrahmaguptaRep) -> bool:
    """True when the doublet of `rep` is two distinct positive-integer states."""
    return _strict(rep.v1, rep.v2, _doubled(rep.v3), _doubled(rep.v4))


def signed_doublet(
    v1: Rational, v2: Rational, v3: Rational, v4: Rational
) -> "tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]":
    """The doublet map with absolute values resolved to plus signs.

    ((v1*v4 - v2*v3, 3*v1*v3 + v2*v4), (v1*v4 + v2*v3, 3*v1*v3 - v2*v4)),
    defined for arbitrary rationals.  This is the exact map the inverse
    construction round-trips through.
    """
    v1, v2, v3, v4 = (_frac(x) for x in (v1, v2, v3, v4))
    return (
        (v1 * v4 - v2 * v3, 3 * v1 * v3 + v2 * v4),
        (v1 * v4 + v2 * v3, 3 * v1 * v3 - v2 * v4),
    )


def rep_search(energy: int, mode: RepMode = RepMode.FACTORIZATION) -> "list[BrahmaguptaRep]":
    """All representations of `energy`, sorted lexicographically by (v1, v2, v3, v4).

    Writing v3 = a/2 and v4 = b/2 with positive integers a, b turns the
    product equation into (3*v1^2 + v2^2) * (3*a^2 + b^2) = 4*E, so the
    first factor d1 runs over divisors of 4*E and the two factors are
    solved independently.  Ordered tuples are distinct representations:
    (1,2,2,1) and (2,1,1,2) both count.

    4*E is factored once.  The divisors are walked as exponent vectors, and
    each divisor and its cofactor are solved from their own factorizations
    (`form_solutions_factored`), each solved once.  Divisors holding a prime
    p = 2 (mod 3) to an odd power are skipped: no form value has one.
    Strict mode keeps only the representations that pass `is_strict`.
    Returns [] when nothing represents the energy.
    """
    if energy < 4:
        return []
    factors = factorize(4 * energy)
    ranges = [range(0, k + 1, 2) if p % 3 == 2 else range(k + 1) for p, k in factors]
    solved = {
        exps: form_solutions_factored([(p, e) for (p, _), e in zip(factors, exps) if e])
        for exps in product(*ranges)
    }
    tuples = []
    for exps, first in solved.items():
        if not first:
            continue
        cofactor = tuple(k - e for (_, k), e in zip(factors, exps))
        for a, b in solved.get(cofactor, ()):
            tuples.extend((v1, v2, a, b) for v1, v2 in first)
    if mode is RepMode.STRICT:
        tuples = [t for t in tuples if _strict(*t)]
    tuples.sort()
    half = {n: Fraction(n, 2) for t in tuples for n in t[2:]}
    return [BrahmaguptaRep(v1, v2, half[a], half[b], energy) for v1, v2, a, b in tuples]


def inverse_rep(
    first: StateLike, second: StateLike, xi: Rational = Fraction(1, 6)
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
    p = State(*first)
    q = State(*second)
    ep, eq = energy_of(p), energy_of(q)
    if ep != eq:
        raise ValueError(f"states {p} and {q} have different energies ({ep} != {eq})")
    if p == q:
        raise ValueError(f"states must be distinct, got {p} twice")
    xi = _frac(xi)
    if xi <= 0:
        raise ValueError(f"xi must be positive, got {xi}")
    v1 = (p.n2 + q.n2) * xi
    v2 = 3 * (q.n1 - p.n1) * xi
    v3 = 1 / (6 * xi)
    v4 = Fraction(q.n1 + p.n1, 2 * (q.n2 + p.n2)) / xi
    return (v1, v2, v3, v4)
