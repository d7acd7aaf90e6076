import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from triform import (
    EmptySpectrumError,
    EnergyLevel,
    Parity,
    State,
    energy_of,
    enumerate_spectrum,
    level_of,
    parity_of,
    parity_of_energy,
)
from triform.spectrum import factorize, form_solutions


@pytest.mark.parametrize(
    "state, energy",
    [((1, 5), 28), ((1, 1), 4), ((3, 8), 91), ((2, 4), 28), ((17, 20), 1267)],
)
def test_energy_of(state, energy):
    assert energy_of(state) == energy


@pytest.mark.parametrize("state", [(0, 1), (1, 0), (-2, 3), (3, -1)])
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
    for energy in (4, 7, 28, 91, 196, 1267, 2700):
        if energy in spectrum_2700:
            assert level_of(energy) == spectrum_2700[energy]
        else:
            assert level_of(energy) is None


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


def test_spectrum_is_a_mapping(spectrum_2700):
    assert 28 in spectrum_2700
    assert 5 not in spectrum_2700
    assert spectrum_2700.get(5) is None
    assert spectrum_2700.degeneracy_of(28) == 3
    assert spectrum_2700.degeneracy_of(5) == 0
    with pytest.raises(KeyError):
        spectrum_2700[5]
    energies = list(spectrum_2700)
    assert energies == sorted(energies)


def test_energy_level_validation():
    with pytest.raises(ValueError):
        EnergyLevel(28, ())
    with pytest.raises(ValueError):
        EnergyLevel(28, (State(2, 4), State(1, 5)))  # not ascending in n1
    with pytest.raises(ValueError):
        EnergyLevel(29, (State(1, 5),))  # wrong energy
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
