"""The four workloads: seeded inputs, reference values and per-operation gates.

Each workload is one use of the CLI from the paper: a range census, a
conjecture check over a range, a full level listing, and single-energy
queries.  The seed picks the inputs; it never changes the size of the work
by more than 1 % (``--emax`` bands).  Query passes each draw fresh energies
from the seed and the pass number, stratified over the log range, so a run
samples hundreds of distinct energies and every pass has the same spread
of sizes.  The package receives only the generated argv.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# Base sizes: each range command takes about 2-3 s on a 2-CPU x86 box.
CENSUS_EMAX = 2_000_000
VERIFY_EMAX = 20_000
SPECTRUM_EMAX = 300_000
QUERY_COUNT = 100  # per pass; a run makes at least three passes
QUERY_RANGE = (10**4, 10**9)
QUERY_CANDIDATES = 10  # energies drawn per stratum, ranked by their rep count
SPECTRUM_SAMPLE = 256
EMAX_BAND = 128  # emax lies in [base, base + base / EMAX_BAND)


@dataclass
class Batch:
    """The operations of one pass and the gate for each of them."""

    calls: "list[list[str]]"
    check: Callable[[int, dict], "list[str]"]  # (call index, parsed output) -> errors


@dataclass
class Plan:
    warm: "list[str]"
    inputs: dict
    batch: Callable[[int], Batch]  # pass number -> that pass's operations


def digest(batches: "list[Batch]") -> str:
    calls = [b.calls for b in batches]
    return hashlib.sha256(json.dumps(calls).encode()).hexdigest()[:16]


def _emax(rng: random.Random, base: int) -> int:
    return base + rng.randrange(base // EMAX_BAND)


def census_bulk(rng: random.Random, base: int = CENSUS_EMAX) -> Plan:
    e_max = _emax(rng, base)
    ref = oracle.census_reference(e_max)
    batch = Batch(
        [["census", "--emax", str(e_max), "--format", "json"]],
        lambda i, doc: oracle.check_census(doc, e_max, ref),
    )
    return Plan(["census", "--emax", "100", "--format", "json"], {"emax": e_max},
                lambda k: batch)


def verify_range(rng: random.Random, base: int = VERIFY_EMAX) -> Plan:
    e_max = _emax(rng, base)
    ref = oracle.verify_reference(e_max)
    batch = Batch(
        [["verify", "--emax", str(e_max), "--format", "json"]],
        lambda i, doc: oracle.check_verify(doc, e_max, ref),
    )
    return Plan(["verify", "--emax", "100", "--format", "json"], {"emax": e_max},
                lambda k: batch)


def spectrum_dump(rng: random.Random, base: int = SPECTRUM_EMAX) -> Plan:
    e_max = _emax(rng, base)
    sample = sorted(rng.sample(range(1, e_max + 1), SPECTRUM_SAMPLE))
    batch = Batch(
        [["spectrum", "--emax", str(e_max), "--format", "json"]],
        lambda i, doc: oracle.check_spectrum(doc, e_max, sample),
    )
    return Plan(["spectrum", "--emax", "100", "--format", "json"],
                {"emax": e_max, "degeneracy_sample": len(sample)}, lambda k: batch)


def _draw(rng: random.Random, lo: int, hi: int, stratum: float) -> int:
    """A realized energy just below the target at `stratum` (0..1) of the log range.

    The target T is lo * (hi/lo)^stratum; then n1 is uniform in
    [1, sqrt(T/3)] and n2 the largest that keeps 3*n1^2 + n2^2 <= T.  The
    state's energy is within 2*sqrt(T) of T and realized by construction.
    """
    target = int(lo * (hi / lo) ** stratum)
    n1 = rng.randint(1, math.isqrt((target - 1) // 3))
    n2 = math.isqrt(target - 3 * n1 * n1)
    while 3 * n1 * n1 + n2 * n2 < lo:
        n2 += 1
    return 3 * n1 * n1 + n2 * n2


def sample_energies(rng: random.Random, count: int, lo: int, hi: int,
                    candidates: int = 1) -> "list[int]":
    """Realized energies, log-uniform in [lo, hi], one per equal-width log stratum.

    A query's cost is set by the energy's size and by its number of
    representations, which swings widely between neighbouring energies.
    Each stratum therefore draws `candidates` energies, ranks them by
    `oracle.rep_count`, and keeps the one at the rank dealt to that
    stratum.  The ranks are dealt evenly over the strata, so every pass holds
    the same mix of cheap and costly energies.  When `count` is a multiple
    of `candidates`, every rank is equally likely, so each kept energy has
    the distribution of a single draw: the sampling is stratified, not
    biased.
    """
    ranks = [k % candidates for k in range(count)]
    rng.shuffle(ranks)
    energies = []
    for k in range(count):
        drawn = [_draw(rng, lo, hi, (k + rng.random()) / count) for _ in range(candidates)]
        if candidates > 1:
            drawn.sort(key=oracle.rep_count)
        energies.append(drawn[ranks[k]])
    rng.shuffle(energies)
    return energies


def energy_queries(rng: random.Random, count: int = QUERY_COUNT) -> Plan:
    root = rng.getrandbits(64)

    def batch(k: int) -> Batch:
        energies = sample_energies(random.Random(f"{root}:{k}"), count, *QUERY_RANGE,
                                   candidates=QUERY_CANDIDATES)
        refs = [oracle.level_reference(e) for e in energies]
        return Batch(
            [["level", str(e), "--format", "json"] for e in energies],
            lambda i, doc: oracle.check_level(doc, energies[i], refs[i]),
        )

    return Plan(["level", "91", "--format", "json"],
                {"energies_per_pass": count, "range": list(QUERY_RANGE),
                 "candidates": QUERY_CANDIDATES}, batch)


WORKLOADS = {
    "census_bulk": census_bulk,
    "energy_queries": energy_queries,
    "verify_range": verify_range,
    "spectrum_dump": spectrum_dump,
}


def plan(name: str, seed: int) -> Plan:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
