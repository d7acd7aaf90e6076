import copy
import dataclasses
import pickle
import random
import re
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
from triform import brahmagupta as brahmagupta_module
from triform import spectrum as spectrum_module
from triform.brahmagupta import _all_integer_count, _strict, is_strict

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


def check_batch(reps):
    """The check `_reps` leaves to the suite: each rep equals the one the
    public constructor builds from its v1, v2, v3, v4 and energy (which
    raises ValueError naming what is wrong), and every field is an int."""
    for rep in reps:
        assert BrahmaguptaRep(rep.v1, rep.v2, rep.v3, rep.v4, rep.energy) == rep, rep
        assert all(type(getattr(rep, name)) is int for name in BrahmaguptaRep.__slots__), rep


def reps_of_solved(monkeypatch, tuples, energy):
    """The reps `_reps` builds for `energy` when the solve returns `tuples`."""
    monkeypatch.setattr(brahmagupta_module, "_rep_tuples", lambda energy: tuple(tuples))
    return brahmagupta_module._reps(energy)


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


@pytest.mark.parametrize(
    "args, key",
    [
        ((1, 2, 2, 1), (1, 2, F(2), F(1))),
        ((1, 2, "2", "1"), (1, 2, F(2), F(1))),
        ((1, 2, F(2), "1"), (1, 2, F(2), F(1))),
        ((1, 2, 2, F(1)), (1, 2, F(2), F(1))),
        ((2, 4, "1", "1/2"), (2, 4, F(1), F(1, 2))),
        ((2, 4, F(1), F(1, 2)), (2, 4, F(1), F(1, 2))),
    ],
)
def test_rep_normalizes_v3_and_v4_to_fractions(args, key):
    rep = BrahmaguptaRep(*args, 91)
    assert rep.key == key and type(rep.v3) is F and type(rep.v4) is F


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 2, 2, 1, 92), "does not factor 92"),
        ((1, 2, "2", "1", 90), "does not factor 90"),
        ((0, 2, 2, 1, 16), "v1 and v2 must be positive"),
        ((1, -2, 2, 1, 91), "v1 and v2 must be positive"),
        ((1, 2, F(1, 3), 1, 91), "got 1/3"),
        ((1, 2, 2, "1/3", 91), "got 1/3"),
        ((1, 2, "2/3", "2/3", 91), "got 2/3"),
        ((1, 2, F(3, 4), 1, 91), "got 3/4"),
        ((1, 2, 0, 1, 91), "got 0"),
        ((1, 2, 2, F(-1, 2), 91), "got -1/2"),
        ((1, 2, -2, -1, 91), "got -2"),
        # a bool is an int, as in `energy_of`, and no energy below 4 has a rep
        ((1, 1, 1, 1, True), "does not factor True"),
    ],
)
def test_rep_rejections_name_the_bad_value(args, message):
    with pytest.raises(ValueError, match=message):
        BrahmaguptaRep(*args)


@pytest.fixture
def fractions_made(monkeypatch):
    """The arguments of each Fraction made from here on.  Each function
    that makes a Fraction imports the class when it runs, so the count is
    kept on the class itself."""
    made = []
    new = F.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted_new)
    return made


@pytest.mark.parametrize("energy", [91.0, F(91), "91"])
def test_rep_refuses_an_energy_that_is_not_an_int_before_making_a_fraction(
        fractions_made, energy):
    with pytest.raises(ValueError, match=re.escape(f"energy must be an int, got {energy!r}")):
        BrahmaguptaRep(1, 2, 2, 1, energy)
    assert fractions_made == []


def test_rep_is_slotted_and_frozen():
    rep = BrahmaguptaRep(1, 2, F(2), F(1), 91)
    assert not hasattr(rep, "__dict__")
    assert (rep.a, rep.b) == (4, 2) and type(rep.a) is int and type(rep.b) is int
    for name in ("v1", "v2", "v3", "v4", "a", "b", "energy"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rep, name)
    assert rep == BrahmaguptaRep(1, 2, 2, 1, 91) and rep.key == (1, 2, F(2), F(1))
    assert hash(rep) == hash(BrahmaguptaRep(1, 2, "2", "1", 91))


def test_rep_rejects_a_new_attribute_as_frozen():
    # With `slots=True`, Python 3.10 to 3.13 raised TypeError here.
    rep = BrahmaguptaRep(1, 2, F(2), F(1), 91)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rep.v1
    assert rep.key == (1, 2, F(2), F(1))


def test_rep_survives_pickle_and_copy():
    rep = BrahmaguptaRep(1, 1, F(3, 2), F(4), 91)
    for clone in (pickle.loads(pickle.dumps(rep)), copy.copy(rep), copy.deepcopy(rep)):
        assert clone == rep and clone.key == rep.key and clone.energy == 91


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


def test_rep_checks_float_and_fraction_v1_v2_exactly():
    # in floats 3*(2^53)^2 + 1 rounds to 3*2^106, but the exact product of
    # forms is 4*(3*2^106 + 1)
    with pytest.raises(ValueError, match="does not factor"):
        BrahmaguptaRep(float(2**53), 1, F(1, 2), F(1, 2), 3 * 2**106)
    for v1, v2 in ((2.0, 1), (F(2), 1), (2, 1.0), (2, F(1))):
        rep = BrahmaguptaRep(v1, v2, 1, 1, 52)
        assert rep == BrahmaguptaRep(2, 1, 1, 1, 52)
        assert type(rep.v1) is int and type(rep.v2) is int


@pytest.mark.parametrize(
    "args",
    [
        (0, 2, 4, 2, 16),
        (1, -2, 4, 2, 91),
        (1, 2, 4, 2, 92),
        (1, 2, 0, 2, 91),
        (1, 2, 4, -1, 91),
        # non-integer v1, v2 whose product of forms is 4*E all the same
        (F(3, 2), F(3, 2), 2, 2, 36),
        (F(3, 2), 1, 2, 2, 31),
        (1, F(3, 2), 2, 2, 21),
        (1, 2, 4, 3, 91),  # b off by one: the product of forms is 7 * 57, not 4*91
        (1, 2, 5, 1, 91),  # 7 * 76 = 4*133
        (1, 2, F(7, 2), 2, 91),  # a = 2*v3 not an integer
    ],
)
def test_the_doubled_entry_checks_as_the_constructor_does(monkeypatch, args):
    # `_reps` sets a solved (v1, v2, a, b) past the constructor's checks,
    # and the suite's `check_batch` must refuse a bad one as the
    # constructor refuses v1, v2, v3 = a/2, v4 = b/2
    v1, v2, a, b, energy = args
    with pytest.raises(ValueError) as public:
        BrahmaguptaRep(v1, v2, F(a, 2), F(b, 2), energy)
    [rep] = reps_of_solved(monkeypatch, [(v1, v2, a, b)], energy)
    with pytest.raises(ValueError) as doubled:
        check_batch([rep])
    assert str(doubled.value) == str(public.value)
    if v1 % 1 or v2 % 1:
        assert str(public.value) == "v1 and v2 must be positive integers"


# --------------------------------------------------------------- rep search

@pytest.mark.parametrize("mode", list(RepMode))
def test_rep_search_makes_no_fraction(fractions_made, mode):
    for energy in (91, 1267, 4 * 7 * 13 * 19 * 31 * 37):
        assert rep_search(energy, mode)
    assert fractions_made == []
    BrahmaguptaRep(1, 2, "2", "1", 91)  # the public constructor does make them
    assert fractions_made


def test_searched_reps_equal_constructed_ones(oracle_reps_5000):
    for energy, expected in oracle_reps_5000.items():
        reps = rep_search(energy)
        assert reps == [BrahmaguptaRep(*rep, energy) for rep in expected], energy
        for rep in reps:
            assert (rep.a, rep.b) == (2 * rep.v3, 2 * rep.v4), rep
        check_batch(reps)
    for energy in LARGE_REP_ENERGIES + BATCH_ENERGIES:
        reps = rep_search(energy)
        assert reps, energy
        check_batch(reps)


def test_rep_search_91_factorization():
    reps = rep_search(91)
    assert keys(reps) == REPS_91
    all_integer = [r.key for r in reps if classify_rep(r) is RepClass.ALL_INTEGER]
    assert all_integer == [(1, 2, F(2), F(1)), (2, 1, F(1), F(2))]


def test_rep_search_91_strict():
    assert keys(rep_search(91, RepMode.STRICT)) == STRICT_91


@pytest.mark.parametrize("mode", ["strict", None, RepMode])
@pytest.mark.parametrize("energy", [91, 3])  # 3 has no rep
def test_rep_search_rejects_an_unknown_mode(monkeypatch, mode, energy):
    def no_solve(energy):
        raise AssertionError("solved before the mode was checked")

    monkeypatch.setattr(brahmagupta_module, "_reps", no_solve)
    with pytest.raises(ValueError, match=f"mode must be a RepMode, got {mode!r}"):
        rep_search(energy, mode)


def _check_against_the_rational_doublet(rep):
    """Strictness from the doublet's `Fraction` arithmetic and the class from
    the denominators of v3 and v4, against the integer forms; returns both."""
    doublet = doublet_from_rep(rep)
    assert doublet.is_distinct, rep  # |v1*v4 - v2*v3| < v1*v4 + v2*v3
    strict = doublet.is_state_pair
    a, b = 2 * rep.v3, 2 * rep.v4
    assert is_strict(rep) == _strict(rep.v1, rep.v2, int(a), int(b)) == strict, rep
    integer = rep.v3.denominator == 1 and rep.v4.denominator == 1
    assert (classify_rep(rep) is RepClass.ALL_INTEGER) == integer, rep
    return strict, integer


def test_is_strict_agrees_with_the_rational_doublet(oracle_reps_5000):
    outcomes = set()
    for energy in range(5001):
        reps = [BrahmaguptaRep(*rep, energy) for rep in oracle_reps_5000.get(energy, ())]
        outcomes.update(_check_against_the_rational_doublet(rep) for rep in reps)
        # the one all-integer count, which `level` and `doublet_coverage` read,
        # on the searched reps against `classify_rep` on the oracle's
        all_integer = sum(classify_rep(rep) is RepClass.ALL_INTEGER for rep in reps)
        assert _all_integer_count(rep_search(energy)) == all_integer, energy
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_is_strict_and_classify_agree_with_the_rational_doublet_up_to_1e9():
    outcomes = set()
    for energy in oracles.seeded_realized_energies(1729, 50, 5001, 10**9):
        reps = rep_search(energy)
        assert reps, energy
        outcomes.update(_check_against_the_rational_doublet(rep) for rep in reps)
    # an all-integer rep whose doublet is not a state pair is rare this high
    assert outcomes >= {(True, True), (True, False), (False, False)}


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


@pytest.mark.parametrize("energy", range(-2, 4))
def test_no_rep_and_no_level_below_4(energy):
    # the solve alone answers E < 4; its callers keep no guard of their own
    assert rep_search(energy, RepMode.FACTORIZATION) == []
    assert rep_search(energy, RepMode.STRICT) == []
    assert spectrum_module.form_solutions(energy) == []
    assert level_of(energy) is None


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


LARGE_REP_ENERGIES = oracles.seeded_realized_energies(8128, 16, 10**5, 10**8) + [
    4 * 7**2 * 13 * 27, 4 * 25 * 7 * 13 * 19, 7**4 * 13**2,
    4 * 3**5 * 7 * 13, 4 * 7 * 13 * 19 * 31 * 37, 4 * 7 * 13 * 49 * 121,
    # heavy in the inert 2 and the ramified 3
    2**10 * 7 * 13, 3**9 * 7, 2**6 * 3**5 * 7 * 13 * 19,
]


@pytest.mark.parametrize("energy", LARGE_REP_ENERGIES)
def test_rep_search_matches_the_divisor_scan_above_5000(energy):
    expected = oracles.scan_reps(energy)
    assert expected and keys(rep_search(energy)) == expected


@pytest.fixture
def split_prime_calls(monkeypatch):
    """The primes `_split_prime` is called on from here on, in call order."""
    calls = []
    split_prime = spectrum_module._split_prime

    def counted(p):
        calls.append(p)
        return split_prime(p)

    monkeypatch.setattr(spectrum_module, "_split_prime", counted)
    return calls


def level_then_reps(energy):
    """A `level` query's two solves: the states, then the reps."""
    return level_of(energy) and rep_search(energy)


@pytest.mark.parametrize("energy", [4 * 7 * 13 * 19 * 31 * 37, 7**4 * 13**2])
@pytest.mark.parametrize("solve", [rep_search, spectrum_module.form_solutions, level_then_reps])
def test_each_split_prime_is_solved_once(split_prime_calls, energy, solve):
    assert solve(energy)
    assert sorted(split_prime_calls) == [p for p in (7, 13, 19, 31, 37) if energy % p == 0]


@pytest.mark.parametrize("first, second, shared", [
    (91, 1267, [7]),  # 4*91 = 2^2*7*13, 4*1267 = 2^2*7*181
    (1267, 91, [7]),
    (91, 4 * 7 * 13 * 19 * 31 * 37, [7, 13]),
])
def test_a_split_prime_shared_with_an_earlier_energy_is_not_solved_again(
        split_prime_calls, first, second, shared):
    assert rep_search(first)
    assert set(shared) <= set(split_prime_calls)
    split_prime_calls.clear()
    assert rep_search(second)
    assert split_prime_calls and not set(shared) & set(split_prime_calls)


@pytest.mark.parametrize("energy", [91, 1267, 4 * 7 * 13 * 19 * 31 * 37, 7**4 * 13**2])
def test_strict_search_after_a_factorization_search_reuses_its_solve(split_prime_calls, energy):
    reps = rep_search(energy)
    assert split_prime_calls
    split_prime_calls.clear()
    strict = rep_search(energy, RepMode.STRICT)
    assert split_prime_calls == []
    assert strict and strict == [r for r in reps if is_strict(r)]
    # each call hands out its own list: appending to one leaves the next intact
    reps.append(reps[0])
    strict.append(strict[0])
    assert rep_search(energy) == reps[:-1]
    assert rep_search(energy, RepMode.STRICT) == strict[:-1]
    assert split_prime_calls == []


BATCH_ENERGIES = [91, 1415232, 7932652, 7**4 * 13**2]


@pytest.mark.parametrize("energy", BATCH_ENERGIES)
def test_batched_reps_equal_the_reps_built_one_at_a_time(energy):
    tuples = spectrum_module._rep_tuples(energy)
    batch = brahmagupta_module._reps(energy)
    # the public constructor checks each on Fractions
    assert list(batch) == [BrahmaguptaRep(v1, v2, F(a, 2), F(b, 2), energy)
                           for v1, v2, a, b in tuples]
    assert [(r.v1, r.v2, r.a, r.b, r.energy) for r in batch] == [(*t, energy) for t in tuples]
    assert all(type(r) is BrahmaguptaRep and not hasattr(r, "__dict__") for r in batch)


@pytest.mark.parametrize("bad", [
    (0, 2, 4, 2),  # a zero index
    (1, 2, 0, 2),
    (1, 2, 4, 3),  # b off by one: the product of forms is 7 * 57, not 4*91
    (1, 2, 5, 1),  # 7 * 76 = 4*133
    (1, 2, F(7, 2), 2),  # a = 2*v3 not an integer
    (1, 2, F(4), F(2)),  # integral Fractions, which the constructor stores as ints
])
def test_a_batch_checks_each_tuple_as_the_constructor_does(monkeypatch, bad):
    # `_reps` checks nothing; `check_batch`, the suite's check of every
    # batch, must pass the good tuples and flag the bad one among them
    good = (1, 2, 4, 2)
    batch = reps_of_solved(monkeypatch, [good, bad, good], 91)
    check_batch(batch[::2])
    with pytest.raises((ValueError, AssertionError)) as flagged:
        check_batch(batch)
    try:
        expected = BrahmaguptaRep(bad[0], bad[1], F(bad[2], 2), F(bad[3], 2), 91)
    except ValueError as public:
        assert str(flagged.value) == str(public)
    else:
        assert batch[1] == expected and type(batch[1].a) is not int


def test_a_batch_builds_a_bool_index(monkeypatch):
    [rep] = reps_of_solved(monkeypatch, [(True, 2, 4, 2)], 91)
    assert rep == BrahmaguptaRep(True, 2, 2, 1, 91) == BrahmaguptaRep(1, 2, 2, 1, 91)
    assert type(BrahmaguptaRep(True, 2, 2, 1, 91).v1) is int


def cold_search(energy, mode):
    """`rep_search` with neither the solve nor the reps of any energy kept."""
    brahmagupta_module._reps.cache_clear()
    spectrum_module._rep_tuples.cache_clear()
    return rep_search(energy, mode)


@pytest.mark.parametrize("energy", BATCH_ENERGIES)
@pytest.mark.parametrize("first", list(RepMode))
def test_a_search_after_another_of_the_same_energy_equals_a_cold_one(energy, first):
    for mode in RepMode:
        cold = cold_search(energy, mode)
        cold_search(energy, first)
        assert rep_search(energy, mode) == cold


@pytest.fixture
def reps_built(monkeypatch):
    """The number of reps `_reps` builds from here on: it sets the energy
    of each rep once."""
    built = [0]
    set_energy = brahmagupta_module._SET_ENERGY

    def counted(rep, energy):
        built[0] += 1
        set_energy(rep, energy)

    monkeypatch.setattr(brahmagupta_module, "_SET_ENERGY", counted)
    return built


@pytest.mark.parametrize("energy", BATCH_ENERGIES)
def test_a_strict_search_after_a_factorization_search_builds_no_rep(reps_built, energy):
    reps = rep_search(energy)
    assert reps_built[0] == len(reps)
    strict = rep_search(energy, RepMode.STRICT)
    assert strict and reps_built[0] == len(reps)
    assert all(any(s is r for r in reps) for s in strict)  # the same, frozen reps


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
    with pytest.raises(ValueError, match=r"^states must be distinct, got \(1, 5\) twice$"):
        inverse_rep(State(1, 5), (1, 5))


def test_inverse_rejects_energy_mismatch():
    with pytest.raises(ValueError, match=r"^states \(1, 5\) and \(1, 4\) have different "
                                         r"energies \(28 != 19\)$"):
        inverse_rep(State(1, 5), (1, 4))


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
