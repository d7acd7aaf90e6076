import itertools
import json
import math
import random
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import _UNITS, parity_of
from triform import (
    EmptySpectrumError,
    EnergyLevel,
    Parity,
    Spectrum,
    State,
    energy_of,
    enumerate_spectrum,
    level_of,
    parity_of_energy,
)
from triform import spectrum as spectrum_module
from triform.spectrum import (
    _WINDOW, _associate_solutions, _mul, _prime_rows, factorize, form_solutions,
)


@pytest.mark.parametrize(
    "state, energy",
    [((1, 5), 28), ((1, 1), 4), ((3, 8), 91), ((2, 4), 28), ((17, 20), 1267)],
)
def test_energy_of(state, energy):
    assert energy_of(state) == energy


@pytest.mark.parametrize("state", [(0, 1), (1, 0), (-2, 3), (3, -1), (1.5, 2), (1.0, 5.0)])
def test_energy_of_rejects_nonpositive(state):
    with pytest.raises(ValueError):
        energy_of(state)


def test_smallest_spectrum():
    spectrum = enumerate_spectrum(4)
    assert len(spectrum) == 1
    assert spectrum[4].states == (State(1, 1),)


def test_spectrum_28():
    # brute force over n1 <= 3, n2 <= 5: energies 4,7,12,13,16,19,21,28
    spectrum = enumerate_spectrum(28)
    assert len(spectrum) == 8
    assert spectrum.state_count == 10
    assert spectrum[28].degeneracy == 3
    assert list(spectrum) == [4, 7, 12, 13, 16, 19, 21, 28]


def test_spectrum_2700_counts(spectrum_2700):
    assert len(spectrum_2700) == 655
    assert spectrum_2700.state_count == 1179


@pytest.mark.parametrize("e_max", [3, 2, 1, 0, -7])
def test_spectrum_rejects_empty_bound(e_max):
    with pytest.raises(EmptySpectrumError):
        enumerate_spectrum(e_max)


def test_level_of_28():
    level = level_of(28)
    assert level.states == (State(1, 5), State(2, 4), State(3, 1))


def test_level_of_196():
    level = level_of(196)
    assert level.degeneracy == 4
    assert level.states == (State(3, 13), State(5, 11), State(7, 7), State(8, 2))


def test_level_of_absent():
    assert level_of(5) is None
    assert level_of(2) is None
    assert level_of(1) is None


def test_level_of_agrees_with_spectrum(spectrum_2700):
    buckets = dict(spectrum_2700.raw_items())  # the stripe's own states
    for energy in range(-1, 2702):
        level = level_of(energy)
        if energy in buckets:
            assert [tuple(s) for s in level.states] == buckets[energy]
        elif energy <= 2700:
            assert level is None
        if level is None or energy > 2700:
            with pytest.raises(KeyError):
                spectrum_2700[energy]
        else:
            assert spectrum_2700[energy] == level


@pytest.mark.parametrize(
    "energy, parity",
    [(28, Parity.SAME), (91, Parity.OPPOSITE), (4, Parity.SAME), (196, Parity.SAME)],
)
def test_parity_of(energy, parity):
    assert parity_of(level_of(energy)) is parity
    assert parity_of_energy(energy) is parity


def test_parity_of_energy_rejects_2_mod_4():
    with pytest.raises(ValueError):
        parity_of_energy(6)


def test_parity_laws_small():
    spectrum = enumerate_spectrum(10_000)
    for level in spectrum.iter_levels():
        e = level.energy
        assert e % 2 == 1 or e % 4 == 0
        bits = {(a - b) % 2 for a, b in level.states}
        assert len(bits) == 1
        assert parity_of(level) is parity_of_energy(e)


def test_oracle_equivalence_naive_double_loop():
    spectrum = enumerate_spectrum(10_000)
    naive = oracles.naive_levels(10_000)
    assert set(spectrum) == set(naive)
    for e, states in naive.items():
        assert [tuple(s) for s in spectrum[e].states] == sorted(states)
    assert dict(spectrum.raw_items()) == naive


def test_states_sorted_and_distinct(spectrum_2700):
    for level in spectrum_2700.iter_levels():
        n1s = [s.n1 for s in level.states]
        assert n1s == sorted(n1s)
        assert len(set(level.states)) == len(level.states)


def test_build_determinism():
    a = enumerate_spectrum(500)
    b = enumerate_spectrum(500)
    dump = lambda s: json.dumps(
        {str(e): [list(t) for t in s[e].states] for e in s}, sort_keys=False
    )
    assert dump(a) == dump(b)
    assert list(a) == list(b)
    assert dict(a.raw_items()) == dict(b.raw_items()) == oracles.naive_levels(500)


def test_spectrum_is_not_a_mapping():
    # the Mapping views solved every energy one at a time; a spectrum is read
    # by its walks and its count table, and compares and hashes by identity
    spectrum = enumerate_spectrum(28)
    assert not isinstance(spectrum, Mapping)
    for name in ("get", "keys", "items", "values"):
        assert not hasattr(spectrum, name), name
    assert spectrum != enumerate_spectrum(28) and spectrum == spectrum
    assert {spectrum: 1}[spectrum] == 1


def test_spectrum_count_reads_and_one_level(spectrum_2700):
    assert 28 in spectrum_2700
    assert 5 not in spectrum_2700
    assert level_of(5) is None
    assert spectrum_2700.degeneracy_of(28) == 3
    assert spectrum_2700.degeneracy_of(5) == 0
    with pytest.raises(KeyError):
        spectrum_2700[5]
    energies = list(spectrum_2700)
    assert energies == sorted(energies)


def test_table_reads_build_no_buckets():
    spectrum = enumerate_spectrum(2700)
    assert spectrum[28].degeneracy == 3 and level_of(2701) is not None
    for energy in (2701, "28"):
        with pytest.raises(KeyError):
            spectrum[energy]
    assert spectrum._counts is None  # one level builds neither store
    assert list(spectrum) == sorted(oracles.naive_levels(2700))
    assert len(spectrum) == 655
    assert 28 in spectrum and 5 not in spectrum
    for energy in (5, 2701):
        with pytest.raises(KeyError):
            spectrum[energy]
    assert spectrum._buckets is None
    assert spectrum[28].degeneracy == 3
    assert spectrum._buckets is None  # a hit is solved, not enumerated


def test_repr_builds_nothing():
    spectrum = enumerate_spectrum(10**6)
    assert repr(spectrum) == "Spectrum(e_max=1000000)"
    assert spectrum._counts is None and spectrum._buckets is None


@pytest.mark.parametrize("e_max", [4, 6, _WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 3])
def test_windowed_walk_equals_the_whole_range_stripe(e_max):
    spectrum = enumerate_spectrum(e_max)
    assert list(spectrum.raw_items()) == sorted(oracles.naive_levels(e_max).items())
    assert spectrum._buckets is None and spectrum._counts is None  # nothing cached


def test_explicit_buckets_iterate_in_ascending_energy():
    items = list(enumerate_spectrum(300).raw_items())
    spectrum = Spectrum(300, dict(reversed(items)))
    assert list(spectrum) == [e for e, _ in items] == sorted(e for e, _ in items)
    assert list(spectrum.raw_items()) == items
    assert [lv.energy for lv in spectrum.iter_levels()] == list(spectrum)


def test_count_reads_outside_the_range(spectrum_2700):
    for energy in (-1, -2700, 0, 2701, 10**9, "28", None):
        assert energy not in spectrum_2700
        assert spectrum_2700.degeneracy_of(energy) == 0


def test_degeneracies_table(spectrum_2700, naive_2700):
    counts = spectrum_2700.degeneracies()
    assert isinstance(counts, bytes) and len(counts) == 2701
    assert counts == bytes(len(naive_2700.get(e, ())) for e in range(2701))
    assert spectrum_2700.degeneracies() is counts


def test_degeneracies_hold_the_table_and_one_window(monkeypatch):
    # a bytearray table and its bytes copy, held together, peaked at twice the table
    window = 1 << 16
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", window)
    spectrum = enumerate_spectrum(1 << 20)
    tracemalloc.start()
    try:
        counts = spectrum.degeneracies()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == b"".join(c for _, c in spectrum.count_windows())
    assert peak < len(counts) + 2 * window, f"peak {peak / 2**10:.0f} KB"


@pytest.mark.parametrize("window", [4, 64, 1 << 20])
def test_count_windows_cover_the_range(monkeypatch, naive_2700, window):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", window)
    windows = list(enumerate_spectrum(2700).count_windows())
    assert [lo for lo, _ in windows] == list(range(0, 2701, window))
    assert all(isinstance(c, bytearray) for _, c in windows)
    assert b"".join(c for _, c in windows) == bytes(
        len(naive_2700.get(e, ())) for e in range(2701))


def test_count_windows_read_a_built_table(monkeypatch, naive_2700):
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 64)
    spectrum = enumerate_spectrum(2700)
    table = spectrum.degeneracies()

    def no_stripe(lo, hi):
        raise AssertionError("striped again")

    monkeypatch.setattr(spectrum_module, "_stripes", no_stripe)
    windows = list(spectrum.count_windows())
    assert [lo for lo, _ in windows] == list(range(0, 2701, 64))
    assert all(isinstance(c, bytearray) for _, c in windows)
    assert b"".join(c for _, c in windows) == table
    windows[0][1][4] = 9  # a window is the caller's copy
    assert spectrum.degeneracies()[4] == 1 == len(naive_2700[4])


def test_degeneracies_read_off_explicit_buckets():
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    assert Spectrum(3000, buckets).degeneracies() == enumerate_spectrum(3000).degeneracies()


def test_degeneracies_raise_rather_than_wrap():
    # 255 is the most a byte holds; realized degeneracies first pass it near 10^12
    assert Spectrum(4, {4: [(1, 1)] * 255}).degeneracies()[4] == 255
    with pytest.raises(ValueError):
        Spectrum(4, {4: [(1, 1)] * 256}).degeneracies()


def test_energy_level_validation():
    with pytest.raises(ValueError):
        EnergyLevel(28, ())
    with pytest.raises(ValueError):
        EnergyLevel(28, (State(2, 4), State(1, 5)))  # not ascending in n1
    with pytest.raises(ValueError):
        EnergyLevel(29, (State(1, 5),))  # wrong energy
    with pytest.raises(ValueError):
        EnergyLevel(28, ((1.0, 5.0),))  # float indices, energy 28.0
    level = EnergyLevel(28, (State(1, 5), State(2, 4), State(3, 1)))
    assert level.degeneracy == 3
    assert level.parity is Parity.SAME


@given(st.integers(1, 3000), st.integers(1, 3000))
def test_realized_energies_never_2_mod_4(n1, n2):
    assert energy_of((n1, n2)) % 4 != 2


@given(st.integers(1, 60), st.integers(1, 60))
def test_every_state_appears_in_its_level(n1, n2):
    level = level_of(energy_of((n1, n2)))
    assert State(n1, n2) in level.states


# ------------------------------------------------------------- form solver

def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factorize_rebuilds_n_from_primes():
    for n in range(1, 3001):
        factors = factorize(n)
        product = 1
        for p, k in factors:
            assert _is_prime(p) and k >= 1
            product *= p ** k
        assert product == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_matches_a_smallest_prime_factor_sieve():
    expected = oracles.sieve_factorizations(10**5)
    for n in range(1, 10**5 + 1):
        assert factorize(n) == expected[n], n


@pytest.mark.parametrize("n, factors", [
    (561, [(3, 1), (11, 1), (17, 1)]),  # Carmichael numbers
    (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
    (825265, [(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)]),
    (3215031751, [(151, 1), (751, 1), (28351, 1)]),  # strong pseudoprime to 2, 3, 5, 7
    (999983**2, [(999983, 2)]),
    (1000003 * 1000033, [(1000003, 1), (1000033, 1)]),
    (999999999989, [(999999999989, 1)]),  # prime
])
def test_factorize_hard_cases(n, factors):
    assert factorize(n) == factors


@pytest.mark.parametrize("p", [p for p in range(2, 200) if _is_prime(p)])
def test_prime_rows_hold_one_element_per_associate_class_of_each_norm(p):
    for k in range(5):
        rows = _prime_rows(p, k)
        assert len(rows) == k + 1
        for e, row in enumerate(rows):
            assert all(a * a - a * b + b * b == p**e for a, b in row), (p, e)
            if p % 3 == 1:
                assert len(row) == e + 1
            elif p == 3:
                assert len(row) == 1
            else:
                assert len(row) == (e % 2 == 0)
            for i, u in enumerate(row):
                for v in row[:i]:
                    assert all(_mul(v, unit) != u for unit in _UNITS), (p, e, u, v)


def _exponent_rows(n):
    """The `_prime_rows` rows of every exponent vector of n, as `rep_search` walks
    them, empty rows included."""
    factors = factorize(n)
    tables = [_prime_rows(p, k) for p, k in factors]
    for exps in itertools.product(*(range(k + 1) for _, k in factors)):
        yield [rows[e] for rows, e in zip(tables, exps)]


def _solutions(rows):
    """The solutions of the products of one element from each row, ascending
    in x: the products by `_mul`, the associates by `_associate_solutions`."""
    elements = [(1, 0)]
    for row in rows:
        elements = [_mul(e, o) for e in elements for o in row]
    return sorted(_associate_solutions(elements))


def test_solutions_match_the_unit_loop_up_to_5000():
    solved = 0
    for energy in range(1, 5001):
        for rows in _exponent_rows(4 * energy):
            expected = oracles.unit_loop_solutions(rows)
            assert _solutions(rows) == expected, (energy, rows)
            solved += bool(expected)
    assert solved > 20000


def test_solutions_match_the_unit_loop_on_a_seeded_sample():
    rng = random.Random(6151)
    sample = [rng.randint(5001, 10**9) for _ in range(20)]
    sample += [energy_of((rng.randint(1, 12909), rng.randint(1, 22360))) for _ in range(20)]
    sample += [energy_of((rng.randint(1, 80), rng.randint(1, 80)))
               * energy_of((rng.randint(1, 80), rng.randint(1, 80))) for _ in range(20)]
    solved = 0
    for energy in sample:
        for rows in _exponent_rows(4 * energy):
            expected = oracles.unit_loop_solutions(rows)
            assert _solutions(rows) == expected, (energy, rows)
            solved += bool(expected)
    assert solved > 1000


@pytest.mark.parametrize("n", [4 * 3 * 7, 2**6 * 3**5 * 7 * 13, 2**10 * 7 * 13 * 19, 4**3 * 7**3])
def test_solutions_of_elements_that_2_divides_match_the_unit_loop(n):
    # 2 is inert, so its row at an even exponent 2j >= 2 is the integer 2^j,
    # and every product with it has both coordinates even: these elements
    # keep the six-unit loop in `_associate_solutions`
    solved = 0
    for rows in _exponent_rows(n):
        if rows[0] and rows[0][0][0] > 1:
            expected = oracles.unit_loop_solutions(rows)
            assert _solutions(rows) == expected, rows
            solved += bool(expected)
    assert solved >= 3


def test_form_solutions_match_scan_up_to_20000():
    for n in range(-2, 20001):
        assert form_solutions(n) == oracles.scan_form_solutions(n), n


def test_form_solutions_match_scan_on_a_seeded_sample():
    rng = random.Random(20240)
    sample = [rng.randint(4, 4 * 10**9) for _ in range(30)]
    # realized values and products of two, which have many solutions
    for _ in range(30):
        x = rng.randint(1, 36000)
        y = rng.randint(1, math.isqrt(4 * 10**9 - 3 * x * x))
        sample.append(3 * x * x + y * y)
    for _ in range(30):
        x1, y1, x2, y2 = (rng.randint(1, 150) for _ in range(4))
        sample.append((3 * x1 * x1 + y1 * y1) * (3 * x2 * x2 + y2 * y2))
    assert sum(bool(form_solutions(n)) for n in sample) >= 60
    for n in sample:
        assert form_solutions(n) == oracles.scan_form_solutions(n), n


STRUCTURED = (
    [3**k for k in range(1, 17)]
    + [p * p for p in (2, 5, 11, 17, 23, 29, 41, 47, 53, 59)]
    + [5**4, 11**4, 2**6 * 7, 4 * 25 * 13]
    + [7**k for k in range(1, 9)] + [13**k for k in range(1, 7)]
    + [7**3 * 13**2, 3 * 7**2 * 19**2, 4 * 7 * 13 * 19 * 31]
    + [4 * p for p in (7, 13, 19, 5, 11, 10007, 99991, 1000003)]
    + [4 * k + 2 for k in range(1, 400, 37)] + [2 * 7**4, 2 * 3**7]
    # 3*p^2 for p = 2 (mod 3): the only solution, (p, 0), has a zero index
    + [3 * 5**2, 3 * 11**2, 3 * 251**2]
)


@pytest.mark.parametrize("n", STRUCTURED)
def test_form_solutions_match_scan_on_structured_n(n):
    solutions = form_solutions(n)
    assert solutions == oracles.scan_form_solutions(n)
    if n % 4 == 2:
        assert solutions == []


@pytest.mark.parametrize("energy", [energy_of((12345, 23456)), 3 * 7**4 * 13**2 * 37**2,
                                    energy_of((500000, 300000)), 10**12])
def test_level_of_large_energies_match_scan(energy):
    level = level_of(energy)
    expected = oracles.scan_form_solutions(energy)
    assert expected and [tuple(s) for s in level.states] == expected


# ------------------------------------------------------ divisor-sum oracle

def test_degeneracy_matches_the_divisor_sum_up_to_10_6():
    spectrum = enumerate_spectrum(10**6)
    expected = oracles.divisor_sum_degeneracies(10**6)
    assert [spectrum.degeneracy_of(n) for n in range(10**6 + 1)] == expected


def test_form_solutions_count_matches_the_divisor_sum_at_large_energies():
    rng = random.Random(1011)
    energies = []
    while len(energies) < 20:
        energy = energy_of((rng.randint(1, 182574), rng.randint(1, 316227)))
        if 10**9 <= energy <= 10**11:
            energies.append(energy)
    for energy in energies:
        assert len(form_solutions(energy)) == oracles.divisor_sum_degeneracy(energy), energy
