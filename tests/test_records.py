"""The contract every frozen record of the package keeps (`spectrum._Record`)."""

import copy
import dataclasses
import operator
import pickle
from fractions import Fraction as F

import pytest

from triform import (
    BrahmaguptaRep,
    CensusReport,
    CensusRow,
    Doublet,
    DoubletCoverage,
    EnergyLevel,
    IdentityExpansion,
    InvalidSeedError,
    Parity,
    PerrinSeed,
    PerrinTriplet,
    State,
)
from triform.spectrum import _Record

SAME_3 = CensusRow(Parity.SAME, 3, 1)
SEED = PerrinSeed(1, 2)

# (record, the keyword arguments that construct it, its repr as the frozen
# dataclasses printed it)
RECORDS = [
    (EnergyLevel(91, (State(3, 8), State(5, 4))),
     {"energy": 91, "states": (State(3, 8), State(5, 4))},
     "EnergyLevel(energy=91, states=(State(n1=3, n2=8), State(n1=5, n2=4)))"),
    (SEED, {"m1": 1, "m2": 2}, "PerrinSeed(m1=1, m2=2)"),
    (PerrinTriplet(SEED, 28, (State(1, 5), State(2, 4), State(3, 1))),
     {"seed": SEED, "energy": 28, "states": (State(1, 5), State(2, 4), State(3, 1))},
     "PerrinTriplet(seed=PerrinSeed(m1=1, m2=2), energy=28, states=(State(n1=1, n2=5), "
     "State(n1=2, n2=4), State(n1=3, n2=1)))"),
    (CensusRow(Parity.SAME, 3, 10), {"parity": Parity.SAME, "degeneracy": 3, "levels": 10},
     "CensusRow(parity=<Parity.SAME: 'same'>, degeneracy=3, levels=10)"),
    (CensusReport(28, (SAME_3,), 1, 1, (), 0),
     {"e_max": 28, "rows": (SAME_3,), "perrin_total": 1, "perrin_matched": 1,
      "perrin_exceptions": (), "brahmagupta_total": 0},
     "CensusReport(e_max=28, rows=(CensusRow(parity=<Parity.SAME: 'same'>, degeneracy=3, "
     "levels=1),), perrin_total=1, perrin_matched=1, perrin_exceptions=(), "
     "brahmagupta_total=0)"),
    (DoubletCoverage(91, 16, 2, 4, True),
     {"energy": 91, "rep_count": 16, "all_integer_count": 2, "strict_count": 4, "covered": True},
     "DoubletCoverage(energy=91, rep_count=16, all_integer_count=2, strict_count=4, "
     "covered=True)"),
    (IdentityExpansion(F(3), F(91), (F(-3), F(8)), (F(5), F(4))),
     {"weight": F(3), "product": F(91), "minus_form": (F(-3), F(8)), "plus_form": (F(5), F(4))},
     "IdentityExpansion(weight=Fraction(3, 1), product=Fraction(91, 1), "
     "minus_form=(Fraction(-3, 1), Fraction(8, 1)), plus_form=(Fraction(5, 1), "
     "Fraction(4, 1)))"),
    # the constructor takes v3 and v4; the fields are the doubled a and b
    (BrahmaguptaRep(1, 2, 2, 1, 91), {"v1": 1, "v2": 2, "v3": F(2), "v4": "1", "energy": 91},
     "BrahmaguptaRep(v1=1, v2=2, a=4, b=2, energy=91)"),
    (Doublet((F(3), F(8)), (F(5), F(4)), 91),
     {"first": (F(3), F(8)), "second": (F(5), F(4)), "energy": 91},
     "Doublet(first=(Fraction(3, 1), Fraction(8, 1)), second=(Fraction(5, 1), "
     "Fraction(4, 1)), energy=91)"),
]


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("record, kwargs, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_contract(record, kwargs, text):
    cls = type(record)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert fields(record) == fields(cls(**kwargs))  # nothing above changed a field

    same = cls(**kwargs)
    assert same == record and same is not record and hash(same) == hash(record)
    assert record != fields(record)
    twin = type("Twin", (_Record,), {"__slots__": cls.__slots__})(*fields(record))
    assert record != twin and twin != record and fields(twin) == fields(record)

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and type(clone) is cls and fields(clone) == fields(record)

    values = list(kwargs.values())
    for bad_args, bad_kwargs in (
        (values + [None], {}),                      # one too many
        (values[:-1], {}),                          # one short
        ([], {**kwargs, "extra": None}),            # no such field
        (values[:1], kwargs),                       # the first twice
    ):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_seeds_order_as_their_indices_and_only_among_seeds():
    seeds = [PerrinSeed(2, 3), PerrinSeed(1, 3), PerrinSeed(1, 2), PerrinSeed(2, 5)]
    assert sorted(seeds) == [PerrinSeed(1, 2), PerrinSeed(1, 3), PerrinSeed(2, 3),
                             PerrinSeed(2, 5)]
    a, b = PerrinSeed(1, 2), PerrinSeed(1, 3)
    assert a < b and a <= b and b > a and b >= a and a <= PerrinSeed(1, 2)
    assert not (a > b or a >= b or b < a or b <= a)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(a, (1, 3))
        with pytest.raises(TypeError):
            compare((1, 3), a)
        with pytest.raises(TypeError):
            compare(a, DoubletCoverage(1, 3, 0, 0, True))


def unchecked(cls, *values):
    """A record built from these constructor arguments past its checks."""
    record = object.__new__(cls)
    given = dict(zip(cls._args or cls.__slots__, values))
    if cls is BrahmaguptaRep:  # the fields hold a = 2*v3 and b = 2*v4
        given["a"], given["b"] = 2 * F(given["v3"]), 2 * F(given["v4"])
    for name in cls.__slots__:
        object.__setattr__(record, name, given[name])
    return record


@pytest.mark.parametrize("cls, values, error", [
    (PerrinSeed, (2, 1), InvalidSeedError),
    (PerrinSeed, (1, 2.0), InvalidSeedError),
    (PerrinSeed, (0, 2), InvalidSeedError),
    (EnergyLevel, (91, ()), ValueError),
    (EnergyLevel, (91, (State(5, 4), State(3, 8))), ValueError),
    (EnergyLevel, (92, (State(3, 8),)), ValueError),
    (EnergyLevel, (91, ((3, -8),)), ValueError),
    (BrahmaguptaRep, (0, 2, 2, 1, 16), ValueError),  # a zero index
    (BrahmaguptaRep, (1, 2, F(1, 3), 1, 91), ValueError),  # not a half-integer
    (BrahmaguptaRep, (1, 2, 2, 1, 92), ValueError),
    (BrahmaguptaRep, (1, 2, 2, 1, 91.0), ValueError),
])
def test_checked_records_reject_bad_fields_however_built(cls, values, error):
    with pytest.raises(error):
        cls(*values)
    with pytest.raises(error):
        cls(**dict(zip(cls._args or cls.__slots__, values)))
    bad = unchecked(cls, *values)
    data = pickle.dumps(bad)  # pickling records the fields, unchecked
    with pytest.raises(error):
        pickle.loads(data)
    for clone in (copy.copy, copy.deepcopy):
        with pytest.raises(error):
            clone(bad)
