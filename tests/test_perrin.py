from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import parity_of
from triform import (
    InvalidSeedError,
    Parity,
    PerrinSeed,
    State,
    energy_of,
    enumerate_spectrum,
    level_of,
    match_perrin,
    perrin_energy,
    perrin_triplet,
)


def seed_grid(max_energy):
    """All valid seeds with triplet energy <= max_energy."""
    seeds = []
    m1 = 1
    while perrin_energy((m1, m1 + 1)) <= max_energy:
        m2 = m1 + 1
        while perrin_energy((m1, m2)) <= max_energy:
            seeds.append(PerrinSeed(m1, m2))
            m2 += 1
        m1 += 1
    return seeds


@pytest.mark.parametrize(
    "seed, energy", [((1, 2), 28), ((3, 5), 196), ((1, 3), 52)]
)
def test_perrin_energy(seed, energy):
    assert perrin_energy(seed) == energy


def test_perrin_energy_52_cross_check():
    assert level_of(52).states == (State(1, 7), State(3, 5), State(4, 2))


@pytest.mark.parametrize("seed", [(2, 2), (3, 2), (0, 1), (-1, 4),
                                  # not ints: no float, str or Fraction seed
                                  (1.5, 3), (1.0, 2.0), ("1", "2"), (F(1, 1), 2)])
def test_invalid_seeds_rejected(seed):
    with pytest.raises(InvalidSeedError):
        perrin_energy(seed)
    with pytest.raises(InvalidSeedError):
        perrin_triplet(seed)


def test_a_bool_seed_index_is_an_int():
    assert perrin_energy((True, 2)) == perrin_energy((1, 2)) == 28


def test_triplet_28():
    triplet = perrin_triplet((1, 2))
    assert triplet.energy == 28
    assert triplet.states == (State(1, 5), State(2, 4), State(3, 1))


def test_triplet_196():
    triplet = perrin_triplet((3, 5))
    assert triplet.states == (State(3, 13), State(5, 11), State(8, 2))


def test_match_perrin_28():
    assert match_perrin(level_of(28)) == PerrinSeed(1, 2)


def test_match_perrin_196_subset():
    # triplet is a strict subset of the 4-state level
    seed = match_perrin(level_of(196))
    assert seed == PerrinSeed(3, 5)
    assert set(perrin_triplet(seed).states) < set(level_of(196).states)


def test_match_perrin_opposite_parity_absent():
    assert match_perrin(level_of(91)) is None


def test_generator_soundness_grid():
    seeds = seed_grid(100_000)
    assert len(seeds) > 1000  # the grid is not accidentally tiny
    for seed in seeds:
        triplet = perrin_triplet(seed)
        assert triplet.energy % 4 == 0
        assert len(set(triplet.states)) == 3
        for s in triplet.states:
            assert s.n1 >= 1 and s.n2 >= 1
            assert energy_of(s) == triplet.energy
            assert (s.n1 - s.n2) % 2 == 0
        level = level_of(triplet.energy)
        assert parity_of(level) is Parity.SAME
        assert set(triplet.states) <= set(level.states)


def test_round_trip_grid():
    for seed in seed_grid(100_000):
        level = level_of(perrin_energy(seed))
        found = match_perrin(level)
        assert found is not None
        assert set(perrin_triplet(found).states) <= set(level.states)


def test_matcher_equals_literal_scan():
    # the O(g) matcher must agree with the m1-scan on every level
    spectrum = enumerate_spectrum(10_000)
    for energy, states in spectrum.raw_items():
        expected = oracles.scan_match_seed(energy, states)
        got = match_perrin(spectrum[energy])
        if expected is None:
            assert got is None, energy
        else:
            assert (got.m1, got.m2) == expected, energy


def test_seed_ordering():
    assert PerrinSeed(1, 3) < PerrinSeed(2, 3) < PerrinSeed(2, 5)


@given(st.integers(1, 200), st.integers(1, 200))
def test_triplet_members_share_energy(m1, delta):
    seed = PerrinSeed(m1, m1 + delta)
    triplet = perrin_triplet(seed)
    energies = {energy_of(s) for s in triplet.states}
    assert energies == {perrin_energy(seed)}
    n1s = [s.n1 for s in triplet.states]
    assert n1s == sorted(n1s)
