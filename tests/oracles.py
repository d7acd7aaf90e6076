"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately naive: plain loops, no divisor tricks, no
reuse of the package's search strategies.  Expected values frozen into the
tests were computed with these functions.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

from triform.census import _MIN_ROWS, CensusReport, CensusRow
from triform.cli import _render
from triform.perrin import find_seed
from triform.spectrum import EnergyLevel, Parity, Spectrum, parity_of_energy

# The six units of the Eisenstein integers a + b*w, w = (-1 + sqrt(-3))/2,
# as pairs (a, b): 1, 1 + w = -w^2, w, -1, -1 - w = w^2 and -w.
_UNITS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def _mul(u: "tuple[int, int]", v: "tuple[int, int]") -> "tuple[int, int]":
    """(a + b*w) * (c + d*w) as a pair, from w^2 = -1 - w."""
    (a, b), (c, d) = u, v
    return (a * c - b * d, a * d + b * c - b * d)


def parity_of(level: EnergyLevel) -> Parity:
    """Parity class of a level, read off the relative parity of its states.

    Agrees with the E mod 4 criterion (`parity_of_energy`); the equivalence
    is a property test.
    """
    a, b = level.states[0]
    return Parity.SAME if (a - b) % 2 == 0 else Parity.OPPOSITE


def naive_levels(e_max: int) -> "dict[int, list[tuple[int, int]]]":
    """Group every state of energy <= e_max by energy, double loop."""
    levels: "dict[int, list[tuple[int, int]]]" = defaultdict(list)
    for n1 in range(1, e_max):
        if 3 * n1 * n1 + 1 > e_max:
            break
        for n2 in range(1, e_max):
            e = 3 * n1 * n1 + n2 * n2
            if e > e_max:
                break
            levels[e].append((n1, n2))
    return dict(levels)


def spectrum_command(args, buckets=None) -> int:
    """The `spectrum` command as it was before it streamed: the record of
    every level (from `naive_levels`, or of the given energy -> states
    buckets) is built first, and then the whole document goes to
    `cli._render`, which `json.dump`s it with indent=2 or writes its CSV
    rows, or the table lines built here."""
    if buckets is None:
        buckets = naive_levels(args.emax)
    levels = [
        {"energy": energy, "parity": parity_of_energy(energy).value,
         "degeneracy": len(states), "states": states}
        for energy, states in sorted(buckets.items())
        if not args.only_degenerate or len(states) >= 2
    ]

    def table(doc, levels):
        return [f"{'energy':>8}  {'parity':<8}  {'g':>3}  states"] + [
            f"{lv['energy']:>8}  {lv['parity']:<8}  {lv['degeneracy']:>3}  "
            + " ".join(f"({a},{b})" for a, b in lv["states"])
            for lv in levels
        ]

    _render(args, {"e_max": args.emax, "levels": levels},
            ["energy", "parity", "degeneracy", "states"], levels, table)
    return 0


def bucket_census(spectrum: Spectrum) -> CensusReport:
    """The census from the states themselves: walk every level's bucket,
    histogram the bucket lengths by parity, and run the seed scan
    (`find_seed`) on the states of every same-parity 3-fold level."""
    hist: "Counter[tuple[Parity, int]]" = Counter()
    perrin_exceptions = []
    for energy, states in spectrum.raw_items():
        g = len(states)
        same = energy % 4 == 0
        hist[(Parity.SAME if same else Parity.OPPOSITE, g)] += 1
        if same and g == 3 and find_seed(states) is None:
            perrin_exceptions.append(energy)
    perrin_total = hist[(Parity.SAME, 3)]

    rows = []
    for parity in (Parity.SAME, Parity.OPPOSITE):
        observed = [g for (p, g) in hist if p is parity]
        top = max([_MIN_ROWS[parity], *observed])
        for g in range(1, top + 1):
            rows.append(CensusRow(parity, g, hist.get((parity, g), 0)))
    return CensusReport(
        e_max=spectrum.e_max,
        rows=tuple(rows),
        perrin_total=perrin_total,
        perrin_matched=perrin_total - len(perrin_exceptions),
        perrin_exceptions=tuple(perrin_exceptions),
        brahmagupta_total=hist[(Parity.OPPOSITE, 2)],
    )


def scan_form_solutions(n: int) -> "list[tuple[int, int]]":
    """Literal scan: every x with 3*x^2 < n, kept when n - 3*x^2 is a square."""
    solutions = []
    x = 1
    while 3 * x * x < n:
        rest = n - 3 * x * x
        y = math.isqrt(rest)
        if y * y == rest:
            solutions.append((x, y))
        x += 1
    return solutions


def unit_loop_solutions(rows: "list[list[tuple[int, int]]]") -> "list[tuple[int, int]]":
    """Every (x, y) with x, y >= 1 such that y + x*sqrt(-3) is an associate of
    a product of one element of each row, each once, sorted.

    A row holds elements y + x*sqrt(-3) as pairs (y, x), taken into the
    Eisenstein integers as (y + x) + 2x*w.  The products are made there by
    `_mul`, each class of associates is taken once (its least member), and
    every member of a class is tried by a loop over the six `_UNITS`: kept
    when it is (c, d) = (x + y) + 2x*w with x, y >= 1.
    """
    elements = [(1, 0)]
    for row in rows:
        elements = [_mul(e, (y + x, 2 * x)) for e in elements for y, x in row]
    classes = {min(_mul(e, unit) for unit in _UNITS) for e in elements}
    solutions = []
    for element in classes:
        for unit in _UNITS:
            c, d = _mul(element, unit)
            if d > 0 and d % 2 == 0 and c > d // 2:
                solutions.append((d // 2, c - d // 2))
    solutions.sort()
    return solutions


def seeded_realized_energies(seed, count: int, lo: int, hi: int) -> "list[int]":
    """`count` realized energies in [lo, hi], drawn log-uniform from `seed`:
    a random n1 below each target, and the largest n2 that stays under it."""
    rng = random.Random(seed)
    energies = []
    while len(energies) < count:
        target = int(lo * (hi / lo) ** rng.random())
        n1 = rng.randint(1, math.isqrt((target - 1) // 3))
        energy = 3 * n1 * n1 + math.isqrt(target - 3 * n1 * n1) ** 2
        if lo <= energy:
            energies.append(energy)
    return energies


def scan_reps(energy: int) -> "list[tuple[int, int, Fraction, Fraction]]":
    """Every rep of `energy`: for each divisor d of 4*E, found by trial
    division, pair the literal scans of d and of 4*E // d, halving the second."""
    n = 4 * energy
    reps = []
    for d in range(1, n + 1):
        if d * d > n:
            break
        if n % d:
            continue
        for first in {d, n // d}:
            for v1, v2 in scan_form_solutions(first):
                for a, b in scan_form_solutions(n // first):
                    reps.append((v1, v2, Fraction(a, 2), Fraction(b, 2)))
    return sorted(reps)


def quadruple_loop_reps(energy: int) -> "list[tuple[int, int, Fraction, Fraction]]":
    """Literal quadruple loop over v1, v2 and doubled half-integers a, b."""
    reps = []
    for v1 in range(1, math.isqrt(energy // 3) + 1):
        for v2 in range(1, math.isqrt(energy) + 1):
            d1 = 3 * v1 * v1 + v2 * v2
            for a in range(1, math.isqrt(4 * energy // 3) + 1):
                for b in range(1, math.isqrt(4 * energy) + 1):
                    if d1 * (3 * a * a + b * b) == 4 * energy:
                        reps.append((v1, v2, Fraction(a, 2), Fraction(b, 2)))
    return sorted(reps)


def all_reps_by_product(e_max: int) -> "dict[int, list[tuple[int, int, Fraction, Fraction]]]":
    """Every rep of every energy <= e_max at once.

    Enumerates all values of 3*x^2 + y^2 up to 4*e_max with their (x, y)
    witnesses, then walks all value pairs whose product is 4*E for some
    integer E <= e_max.  Same search space as the quadruple loop (verified
    against it on samples), organized to be feasible for the whole range.
    """
    cap = 4 * e_max
    values: "dict[int, list[tuple[int, int]]]" = defaultdict(list)
    x = 1
    while 3 * x * x < cap:
        for y in range(1, math.isqrt(cap - 3 * x * x) + 1):
            values[3 * x * x + y * y].append((x, y))
        x += 1
    by_energy: "dict[int, list]" = defaultdict(list)
    items = sorted(values.items())
    for d1, first in items:
        for d2, second in items:
            product = d1 * d2
            if product > cap:
                break
            if product % 4:
                continue
            for v1, v2 in first:
                for a, b in second:
                    by_energy[product // 4].append(
                        (v1, v2, Fraction(a, 2), Fraction(b, 2))
                    )
    return {e: sorted(rs) for e, rs in by_energy.items()}


def scan_match_seed(energy: int, states) -> "tuple[int, int] | None":
    """Literal seed scan: m1 < sqrt(E/12), m2 from the integer root of E - 3*m1^2."""
    if energy % 4:
        return None
    members = set(states)
    m1 = 1
    while 12 * m1 * m1 < energy:
        rest = energy - 3 * m1 * m1
        root = math.isqrt(rest)
        if root * root == rest and root > 3 * m1 and (root - m1) % 2 == 0:
            m2 = (root - m1) // 2
            triplet = {(m1, m1 + 2 * m2), (m2, m2 + 2 * m1), (m1 + m2, m2 - m1)}
            if triplet <= members:
                return (m1, m2)
        m1 += 1
    return None


def seed_energies(e_max: int) -> "set[int]":
    """Every energy 4*(m1^2 + m1*m2 + m2^2) <= e_max of a Perrin seed
    (m1, m2), m2 > m1 >= 1, by a loop over m1 and m2."""
    seeds = set()
    m1 = 1
    while 4 * (m1 * m1 + m1 * (m1 + 1) + (m1 + 1) ** 2) <= e_max:
        m2 = m1 + 1
        while (energy := 4 * (m1 * m1 + m1 * m2 + m2 * m2)) <= e_max:
            seeds.add(energy)
            m2 += 1
        m1 += 1
    return seeds


def inverse_rep_mixed_variant(first, second, xi):
    """`inverse_rep` with v1 built from mixed indices: v1 = (q1 + p2) * xi.

    A documented failure mode: it does not satisfy the round-trip contract
    of `inverse_rep`, and the suite pins that on the pair (3,8), (5,4).
    """
    (p1, p2), (q1, q2) = first, second
    v1 = (q1 + p2) * xi
    v2 = 3 * (q1 - p1) * xi
    v3 = 1 / (6 * xi)
    v4 = Fraction(q1 + p1, 2 * (q2 + p2)) / xi
    return (v1, v2, v3, v4)


# Divisor-sum count of x^2 + 3y^2 = n over all integers x, y (Cox; Berndt):
#     r(n) = 2*(d_{1,3}(n) - d_{2,3}(n)) + 4*(d_{4,12}(n) - d_{8,12}(n)),
# where d_{a,m}(n) counts the divisors of n that are a (mod m).  A divisor's
# term depends only on it mod 12.
_DIVISOR_WEIGHT = [0, 2, -2, 0, 6, -2, 0, 2, -6, 0, 2, -2]


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def _states_from_r(n: int, r: int) -> int:
    """States (n1, n2 >= 1) of energy n from r(n): drop the solutions on the
    axes, x^2 = n and 3y^2 = n, then the four sign choices."""
    axes = 2 * _is_square(n) + 2 * (n % 3 == 0 and _is_square(n // 3))
    assert (r - axes) % 4 == 0, n
    return (r - axes) // 4


def divisor_sum_degeneracy(n: int) -> int:
    """Number of states of energy n, from the divisors of n by trial division."""
    r = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            r += _DIVISOR_WEIGHT[d % 12]
            if d * d != n:
                r += _DIVISOR_WEIGHT[(n // d) % 12]
    return _states_from_r(n, r)


def divisor_sum_degeneracies(n_max: int) -> "list[int]":
    """Number of states of every energy 0..n_max (index = energy), by a divisor sieve."""
    r = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        w = _DIVISOR_WEIGHT[d % 12]
        if w:
            for m in range(d, n_max + 1, d):
                r[m] += w
    return [0] + [_states_from_r(n, r[n]) for n in range(1, n_max + 1)]


def stripe_counts(lo: int, hi: int) -> bytearray:
    """Number of states of every energy lo..hi-1 (index = energy - lo), one
    byte each: 1 added at 3*n1^2 + n2^2 for every state (n1, n2 >= 1) that
    lands in the window, one step per state.  A count past 255 raises
    ValueError, from the byte itself."""
    counts = bytearray(hi - lo)
    n1 = 1
    while (base := 3 * n1 * n1) + 1 < hi:
        first = math.isqrt(max(lo - base - 1, 0)) + 1  # the least n2 with base + n2^2 >= lo
        for n2 in range(first, math.isqrt(hi - 1 - base) + 1):
            counts[base + n2 * n2 - lo] += 1
        n1 += 1
    return counts


def sieve_factorizations(n_max: int) -> "list[list[tuple[int, int]]]":
    """(prime, exponent) factorization of every n in 0..n_max (index = n), read
    off a smallest-prime-factor sieve instead of trial division."""
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    factorizations = [[], []]
    for n in range(2, n_max + 1):
        p, rest = spf[n], n // spf[n]
        head = factorizations[rest]
        if head and head[0][0] == p:
            factorizations.append([(p, head[0][1] + 1), *head[1:]])
        else:
            factorizations.append([(p, 1), *head])
    return factorizations
