"""Independent arithmetic and output checks for the benchmark's correctness gates.

Nothing here imports triform.  Degeneracies come from the classical
divisor-sum count for the form x^2 + 3y^2 (Cox, *Primes of the Form
x^2 + ny^2*):

    r(n) = 2 (d_{1,3}(n) - d_{2,3}(n)) + 4 (d_{4,12}(n) - d_{8,12}(n)),

where d_{a,m}(n) counts the divisors of n that are a (mod m) and r(n) counts
every integer pair (x, y), signs and zeros included.  Dropping the points on
the axes and the four sign variants leaves the number of states with
3*n1^2 + n2^2 = n and n1, n2 >= 1.  State totals use sum isqrt(e_max - 3 n1^2),
and representation counts sum products of those degeneracies over divisor
pairs, so none of these share a loop with the package's enumeration.

Every ``check_*`` function takes one parsed CLI output and returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction


_PRIMES = [2, 3]


def _primes_to(limit: int) -> "list[int]":
    """Every prime up to at least `limit`, from a sieve that grows on demand."""
    if _PRIMES[-1] < limit:
        top = max(limit, 2 * _PRIMES[-1])
        sieve = bytearray([1]) * (top + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
        _PRIMES[:] = [i for i, is_prime in enumerate(sieve) if is_prime]
    return _PRIMES


def factorize(n: int) -> "dict[int, int]":
    """Prime factorization of n >= 1 by trial division by primes."""
    fac: "dict[int, int]" = {}
    for p in _primes_to(math.isqrt(n)):
        if p * p > n:
            break
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def divisors(fac: "dict[int, int]") -> "list[int]":
    ds = [1]
    for p, k in fac.items():
        ds = [d * p**i for d in ds for i in range(k + 1)]
    return ds


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def _class_weight(d: int) -> int:
    """Contribution of the divisor d to r(n)."""
    w = 2 if d % 3 == 1 else -2 if d % 3 == 2 else 0
    return w + (4 if d % 12 == 4 else -4 if d % 12 == 8 else 0)


def _positive(n: int, r: int) -> int:
    axis = 2 * _is_square(n) + 2 * (n % 3 == 0 and _is_square(n // 3))
    return (r - axis) // 4


def degeneracy(n: int, fac: "dict[int, int] | None" = None) -> int:
    """Number of states (n1, n2 >= 1) with 3*n1^2 + n2^2 = n, by divisor sum."""
    if n < 1:
        return 0
    if fac is None:
        fac = factorize(n)
    return _positive(n, sum(_class_weight(d) for d in divisors(fac)))


def degeneracies_upto(e_max: int) -> "list[int]":
    """degeneracy(n) for every 0 <= n <= e_max, by a divisor-class sieve."""
    r = [0] * (e_max + 1)
    for d in range(1, e_max + 1):
        w = _class_weight(d)
        if w:
            for m in range(d, e_max + 1, d):
                r[m] += w
    return [0] + [_positive(n, r[n]) for n in range(1, e_max + 1)]


def _divisor_pair_sum(n: int) -> int:
    """sum over d | n of degeneracy(d) * degeneracy(n // d)."""
    fac = factorize(n)
    parts = [({}, 1)]
    for p, k in fac.items():
        parts = [({**f, p: i}, d * p**i) for f, d in parts for i in range(k + 1)]
    total = 0
    for f, d in parts:
        left = degeneracy(d, {p: i for p, i in f.items() if i})
        if left:
            rest = {p: k - f[p] for p, k in fac.items() if k > f[p]}
            total += left * degeneracy(n // d, rest)
    return total


def rep_count(energy: int) -> int:
    """Factorization-mode representations: tuples (v1, v2, a/2, b/2) with
    (3 v1^2 + v2^2)(3 a^2 + b^2) = 4E, counted over divisor pairs of 4E."""
    return _divisor_pair_sum(4 * energy)


def all_integer_rep_count(energy: int) -> int:
    """Representations with integer v3 and v4 (a, b even): pairs over divisors of E."""
    return _divisor_pair_sum(energy)


def state_count(e_max: int) -> int:
    """Total number of states with energy <= e_max, one isqrt per n1."""
    total, n1 = 0, 1
    while 3 * n1 * n1 + 1 <= e_max:
        total += math.isqrt(e_max - 3 * n1 * n1)
        n1 += 1
    return total


def census_reference(e_max: int) -> dict:
    """Level counts by (parity, degeneracy), from a count-only pass over energies.

    Only the multiplicity of each energy is kept, never the states, so this
    shares no data structure with the package's spectrum.
    """
    counts: "Counter[int]" = Counter()
    n1 = 1
    while 3 * n1 * n1 + 1 <= e_max:
        base = 3 * n1 * n1
        counts.update([base + n2 * n2 for n2 in range(1, math.isqrt(e_max - base) + 1)])
        n1 += 1
    same = Counter(g for e, g in counts.items() if e % 4 == 0)
    opposite = Counter(g for e, g in counts.items() if e % 4 != 0)
    return {"same": dict(same), "opposite": dict(opposite), "levels": len(counts)}


def _parity(energy: int) -> str:
    return "same" if energy % 4 == 0 else "opposite"


def check_census(doc: dict, e_max: int, ref: dict) -> "list[str]":
    errors = []
    if doc.get("e_max") != e_max:
        errors.append(f"e_max {doc.get('e_max')} != {e_max}")
    seen: "dict[str, dict[int, int]]" = {"same": {}, "opposite": {}}
    for row in doc["rows"]:
        g, levels = row["degeneracy"], row["levels"]
        if row["states"] != levels * g:
            errors.append(f"row {row} states != levels x degeneracy")
        if levels:
            seen[row["parity"]][g] = levels
    for parity in ("same", "opposite"):
        if seen[parity] != ref[parity]:
            errors.append(f"{parity}-parity histogram differs from the reference")
    levels, states = doc["total"]
    if states != state_count(e_max):
        errors.append(f"total states {states} != {state_count(e_max)}")
    if levels != ref["levels"]:
        errors.append(f"total levels {levels} != {ref['levels']}")
    triplets = ref["same"].get(3, 0)
    doublets = ref["opposite"].get(2, 0)
    if (doc["perrin_total"], doc["perrin_matched"]) != (triplets, triplets):
        errors.append(f"perrin {doc['perrin_matched']}/{doc['perrin_total']} != {triplets}")
    if (doc["brahmagupta_total"], doc["brahmagupta_covered"]) != (doublets, doublets):
        errors.append(
            f"doublets {doc['brahmagupta_covered']}/{doc['brahmagupta_total']} != {doublets}"
        )
    if doc["perrin_exceptions"] or doc["brahmagupta_exceptions"]:
        errors.append("census reports counterexamples")
    return errors


def check_spectrum(doc: dict, e_max: int, sample: "list[int]") -> "list[str]":
    errors = []
    if doc.get("e_max") != e_max:
        errors.append(f"e_max {doc.get('e_max')} != {e_max}")
    found: "dict[int, int]" = {}
    states = 0
    prev_energy = 0
    for lv in doc["levels"]:
        e = lv["energy"]
        if not prev_energy < e <= e_max:
            errors.append(f"level {e} out of order or range")
        prev_energy = e
        if lv["parity"] != _parity(e) or lv["degeneracy"] != len(lv["states"]):
            errors.append(f"level {e} has a wrong parity or degeneracy")
        prev_n1 = 0
        for n1, n2 in lv["states"]:
            if n1 <= prev_n1 or n2 < 1 or 3 * n1 * n1 + n2 * n2 != e:
                errors.append(f"level {e} holds a bad state ({n1}, {n2})")
            prev_n1 = n1
        states += len(lv["states"])
        found[e] = lv["degeneracy"]
        if len(errors) > 10:
            return errors
    if states != state_count(e_max):
        errors.append(f"{states} states listed, {state_count(e_max)} exist")
    for e in sample:
        if found.get(e, 0) != degeneracy(e):
            errors.append(f"degeneracy of {e}: {found.get(e, 0)} != {degeneracy(e)}")
    return errors


def level_reference(energy: int) -> dict:
    return {
        "degeneracy": degeneracy(energy),
        "reps": rep_count(energy),
        "all_integer": all_integer_rep_count(energy),
    }


def check_level(doc: dict, energy: int, ref: dict) -> "list[str]":
    errors = []
    states = [tuple(s) for s in doc["states"]]
    if doc["energy"] != energy or doc["parity"] != _parity(energy):
        errors.append(f"level header {doc['energy']} {doc['parity']} is wrong")
    if not doc["degeneracy"] == len(states) == ref["degeneracy"]:
        errors.append(f"degeneracy {doc['degeneracy']} != {ref['degeneracy']}")
    if any(n1 < 1 or n2 < 1 or 3 * n1 * n1 + n2 * n2 != energy for n1, n2 in states):
        errors.append("a listed state has the wrong energy")
    if len(set(states)) != len(states):
        errors.append("a state is listed twice")
    if doc["perrin_seed"] is not None:
        m1, m2 = doc["perrin_seed"]
        triplet = {(m1, m1 + 2 * m2), (m2, m2 + 2 * m1), (m1 + m2, m2 - m1)}
        if not 1 <= m1 < m2 or not triplet <= set(states):
            errors.append(f"perrin seed {doc['perrin_seed']} is not in the level")
    keys = []
    all_integer = 0
    for v1, v2, v3, v4 in doc["reps"]:
        a, b = 2 * Fraction(v3), 2 * Fraction(v4)
        if min(v1, v2, a, b) < 1 or a.denominator != 1 or b.denominator != 1:
            errors.append(f"rep {v1, v2, v3, v4} is not a positive half-integer tuple")
        elif (3 * v1 * v1 + v2 * v2) * (3 * a * a + b * b) != 4 * energy:
            errors.append(f"rep {v1, v2, v3, v4} does not factor {energy}")
        all_integer += a % 2 == 0 and b % 2 == 0
        keys.append((v1, v2, a, b))
    if len(set(keys)) != len(keys):
        errors.append("a rep is listed twice")
    counts = doc["rep_counts"]
    if not len(keys) == counts["factorization"] == ref["reps"]:
        errors.append(f"{len(keys)} reps listed, {ref['reps']} exist")
    if not all_integer == counts["all_integer"] == ref["all_integer"]:
        errors.append(f"all-integer reps {counts['all_integer']} != {ref['all_integer']}")
    if not 0 <= counts["strict"] <= counts["factorization"]:
        errors.append(f"strict reps {counts['strict']} outnumber factorization reps")
    return errors


def verify_reference(e_max: int) -> dict:
    g = degeneracies_upto(e_max)
    doublets = [e for e in range(1, e_max + 1, 2) if g[e] == 2]

    def has_all_integer_rep(e: int) -> bool:
        return any(
            g[d] and g[e // d]
            for d in range(4, math.isqrt(e) + 1)
            if e % d == 0
        )

    outside = Counter(g[e] for e in range(1, e_max + 1, 2) if g[e] >= 3)
    return {
        "perrin_total": sum(1 for e in range(4, e_max + 1, 4) if g[e] == 3),
        "doublet_total": len(doublets),
        "without_all_integer": [e for e in doublets if not has_all_integer_rep(e)],
        "outside": {str(k): v for k, v in sorted(outside.items())},
    }


def check_verify(doc: dict, e_max: int, ref: dict) -> "list[str]":
    errors = []
    if doc.get("e_max") != e_max or doc.get("ok") is not True:
        errors.append(f"verify at {doc.get('e_max')} reports ok={doc.get('ok')}")
    p, b = doc["perrin"], doc["brahmagupta"]
    if (p["total"], p["matched"], p["counterexamples"]) != (
        ref["perrin_total"], ref["perrin_total"], []
    ):
        errors.append(f"perrin {p['matched']}/{p['total']} != {ref['perrin_total']}")
    if (b["total"], b["covered"], b["counterexamples"]) != (
        ref["doublet_total"], ref["doublet_total"], []
    ):
        errors.append(f"doublets {b['covered']}/{b['total']} != {ref['doublet_total']}")
    if b["levels_without_all_integer_rep"] != ref["without_all_integer"]:
        errors.append("levels without an all-integer rep differ from the reference")
    outside = b["non_doublet_degenerate"]
    if outside["by_degeneracy"] != ref["outside"] or outside["total"] != sum(
        ref["outside"].values()
    ):
        errors.append("non-doublet degenerate levels differ from the reference")
    return errors
