"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately naive: plain loops, no divisor tricks, no
reuse of the package's search strategies.  Expected values frozen into the
tests were computed with these functions.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction


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
