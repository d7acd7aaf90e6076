import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import inverse_rep_mixed_variant
from triform import (
    BrahmaguptaRep,
    RepClass,
    RepMode,
    State,
    classify_rep,
    doublet_from_rep,
    identity_expand,
    inverse_rep,
    level_of,
    rep_search,
    signed_doublet,
)
from triform.brahmagupta import is_strict

# all sixteen factorization reps of 91, frozen from the quadruple-loop oracle
REPS_91 = [
    (1, 1, F(3, 2), F(4)),
    (1, 1, F(5, 2), F(2)),
    (1, 2, F(1, 2), F(7, 2)),
    (1, 2, F(3, 2), F(5, 2)),
    (1, 2, F(2), F(1)),
    (1, 5, F(1), F(1, 2)),
    (1, 7, F(1, 2), F(1)),
    (2, 1, F(1, 2), F(5, 2)),
    (2, 1, F(1), F(2)),
    (2, 1, F(3, 2), F(1, 2)),
    (2, 4, F(1), F(1, 2)),
    (3, 1, F(1), F(1, 2)),
    (3, 5, F(1, 2), F(1)),
    (3, 8, F(1, 2), F(1, 2)),
    (4, 2, F(1, 2), F(1)),
    (5, 4, F(1, 2), F(1, 2)),
]

STRICT_91 = [
    (1, 2, F(2), F(1)),
    (2, 1, F(1), F(2)),
    (2, 4, F(1), F(1, 2)),
    (4, 2, F(1, 2), F(1)),
]


def keys(reps):
    return [r.key for r in reps]


# ----------------------------------------------------------------- identity

def test_identity_91():
    ex = identity_expand(3, 1, 2, 2, 1)
    assert ex.product == 91
    assert ex.evaluate(ex.minus_form) == 91
    assert ex.evaluate(ex.plus_form) == 91
    # 91 = 3*3^2 + 8^2 = 3*5^2 + 4^2 up to signs
    assert (abs(ex.minus_form[0]), abs(ex.minus_form[1])) == (3, 8)
    assert (abs(ex.plus_form[0]), abs(ex.plus_form[1])) == (5, 4)


def test_identity_diophantus_case():
    ex = identity_expand(1, 1, 1, 1, 1)
    assert ex.product == 4
    assert ex.minus_form == (0, 2)
    assert ex.plus_form == (2, 0)


def test_identity_fuzz_seeded():
    rng = random.Random(91)
    for _ in range(2000):
        args = [
            F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(5)
        ]
        ex = identity_expand(*args)
        assert ex.evaluate(ex.minus_form) == ex.product
        assert ex.evaluate(ex.plus_form) == ex.product


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=100
)


@given(rationals, rationals, rationals, rationals, rationals)
def test_identity_holds_for_arbitrary_rationals(m, v1, v2, v3, v4):
    ex = identity_expand(m, v1, v2, v3, v4)
    assert ex.evaluate(ex.minus_form) == ex.product
    assert ex.evaluate(ex.plus_form) == ex.product


# ------------------------------------------------------------------ doublet

def test_doublet_from_all_integer_rep():
    rep = BrahmaguptaRep(1, 2, F(2), F(1), 91)
    doublet = doublet_from_rep(rep)
    assert doublet.as_states() == (State(3, 8), State(5, 4))
    assert doublet.is_distinct


def test_doublet_zero_member_is_reported_not_raised():
    rep = BrahmaguptaRep(1, 1, F(1), F(1), 16)
    doublet = doublet_from_rep(rep)
    assert doublet.first == (0, 4)
    assert not doublet.is_state_pair
    assert doublet.as_states() is None


def test_doublet_from_half_integer_rep():
    rep = BrahmaguptaRep(2, 4, F(1), F(1, 2), 91)
    doublet = doublet_from_rep(rep)
    assert doublet.as_states() == (State(3, 8), State(5, 4))


def test_rep_validation():
    with pytest.raises(ValueError):
        BrahmaguptaRep(1, 2, F(2), F(1), 92)  # wrong energy
    with pytest.raises(ValueError):
        BrahmaguptaRep(0, 2, F(2), F(1), 16)
    with pytest.raises(ValueError):
        BrahmaguptaRep(1, 2, F(1, 3), F(1), 91)  # not a half-integer
    with pytest.raises(ValueError):
        BrahmaguptaRep(1, 2, F(-2), F(1), 91)


def test_rep_validation_is_exact_on_half_integers():
    # (3 + 1) * (3/4 + 9/4) = 12: the product check must not round 13 to it
    assert BrahmaguptaRep(1, 1, F(1, 2), F(3, 2), 12).key == (1, 1, F(1, 2), F(3, 2))
    with pytest.raises(ValueError):
        BrahmaguptaRep(1, 1, F(1, 2), F(3, 2), 13)
    with pytest.raises(ValueError):
        BrahmaguptaRep(1, 1, F(1, 3), F(3, 2), 12)  # a third, not a half
    for v4 in (F(0), F(-3, 2), F(-1)):
        with pytest.raises(ValueError):
            BrahmaguptaRep(1, 1, F(1, 2), v4, 12)


# --------------------------------------------------------------- rep search

def test_rep_search_91_factorization():
    reps = rep_search(91)
    assert keys(reps) == REPS_91
    all_integer = [r.key for r in reps if classify_rep(r) is RepClass.ALL_INTEGER]
    assert all_integer == [(1, 2, F(2), F(1)), (2, 1, F(1), F(2))]


def test_rep_search_91_strict():
    assert keys(rep_search(91, RepMode.STRICT)) == STRICT_91


def test_is_strict_agrees_with_the_rational_doublet():
    outcomes = set()
    for energy in range(4, 3001):
        for rep in rep_search(energy):
            doublet = doublet_from_rep(rep)
            expected = doublet.is_state_pair and doublet.is_distinct
            assert is_strict(rep) == expected, rep
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_strict_reps_land_in_the_level():
    for energy in (91, 133, 196, 217):
        members = set(level_of(energy).states)
        for rep in rep_search(energy, RepMode.STRICT):
            pair = doublet_from_rep(rep).as_states()
            assert pair is not None
            assert set(pair) <= members


def test_rep_search_1267():
    reps = rep_search(1267)
    assert len(reps) == 16  # oracle count
    spot_check_six = [
        (1, 1, F(17, 2), F(10)),
        (1, 2, F(11, 2), F(19, 2)),
        (1, 2, F(15, 2), F(7, 2)),
        (1, 5, F(1), F(13, 2)),
        (2, 4, F(1), F(13, 2)),
        (3, 1, F(1), F(13, 2)),
    ]
    got = keys(reps)
    for rep in spot_check_six:
        assert rep in got
    # the oracle also finds all-integer reps at 1267
    all_integer = [r.key for r in reps if classify_rep(r) is RepClass.ALL_INTEGER]
    assert all_integer == [(1, 2, F(2), F(13)), (2, 13, F(1), F(2))]


def test_rep_search_small_energies():
    assert rep_search(3) == []
    assert keys(rep_search(4)) == [(1, 1, F(1, 2), F(1, 2))]
    assert rep_search(5) == []


def test_rep_search_sorted_and_valid():
    for energy in (91, 196, 364, 1267):
        reps = rep_search(energy)
        assert keys(reps) == sorted(keys(reps))
        for r in reps:
            lhs = (3 * r.v1 * r.v1 + r.v2 * r.v2) * (3 * r.v3 * r.v3 + r.v4 * r.v4)
            assert lhs == energy


def test_rep_search_completeness_oracle(oracle_reps_5000):
    for energy in range(1, 5001):
        expected = oracle_reps_5000.get(energy, [])
        assert keys(rep_search(energy)) == expected, energy


@pytest.mark.parametrize(
    "rep, cls",
    [
        ((1, 2, F(2), F(1)), RepClass.ALL_INTEGER),
        ((3, 8, F(1, 2), F(1, 2)), RepClass.NEEDS_HALF_INTEGER),
        ((2, 4, F(1), F(1, 2)), RepClass.NEEDS_HALF_INTEGER),
    ],
)
def test_classify_rep(rep, cls):
    assert classify_rep(BrahmaguptaRep(*rep, 91)) is cls


# ------------------------------------------------------------------ inverse

def test_inverse_flagship_pair():
    nu = inverse_rep((3, 8), (5, 4), F(1, 6))
    assert nu == (2, 1, 1, 2)
    assert signed_doublet(*nu) == ((3, 8), (5, 4))


def test_inverse_28_pair():
    nu = inverse_rep((1, 5), (2, 4), F(1, 6))
    assert nu == (F(3, 2), F(1, 2), 1, 1)
    assert signed_doublet(*nu) == ((1, 5), (2, 4))


def test_inverse_default_xi():
    assert inverse_rep((3, 8), (5, 4)) == (2, 1, 1, 2)


def test_inverse_rejects_identical_states():
    with pytest.raises(ValueError):
        inverse_rep((1, 5), (1, 5))


def test_inverse_rejects_energy_mismatch():
    with pytest.raises(ValueError):
        inverse_rep((1, 5), (1, 4))


def test_inverse_rejects_nonpositive_xi():
    with pytest.raises(ValueError):
        inverse_rep((3, 8), (5, 4), 0)
    with pytest.raises(ValueError):
        inverse_rep((3, 8), (5, 4), F(-1, 6))


def test_inverse_reverse_order_round_trips():
    nu = inverse_rep((5, 4), (3, 8), F(1, 6))
    assert signed_doublet(*nu) == ((5, 4), (3, 8))


def test_xi_covariance():
    pair = ((3, 8), (5, 4))
    base = inverse_rep(*pair, F(1, 6))
    for xi in (F(1), F(5, 3), F(7, 11)):
        scaled = inverse_rep(*pair, xi)
        ratio = xi / F(1, 6)
        assert scaled[0] == base[0] * ratio
        assert scaled[1] == base[1] * ratio
        assert scaled[2] == base[2] / ratio
        assert scaled[3] == base[3] / ratio
        assert signed_doublet(*scaled) == pair


def test_mixed_variant_fails_round_trip():
    pair = ((3, 8), (5, 4))
    nu = inverse_rep_mixed_variant(*pair, F(1, 6))
    assert signed_doublet(*nu) != pair


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.fractions(min_value=F(1, 50), max_value=100, max_denominator=50),
)
def test_inverse_round_trips_any_degenerate_pair(n1, n2, xi):
    level = level_of(3 * n1 * n1 + n2 * n2)
    if level.degeneracy < 2:
        return
    first, second = level.states[0], level.states[1]
    nu = inverse_rep(first, second, xi)
    assert signed_doublet(*nu) == (tuple(first), tuple(second))
