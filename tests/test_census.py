from fractions import Fraction as F

import pytest

from triform import (
    BrahmaguptaRep,
    CensusRow,
    Parity,
    RepMode,
    build_census,
    check_brahmagupta_conjecture,
    check_perrin_conjecture,
    doublet_coverage,
    enumerate_spectrum,
    rep_search,
)

TABLE_2700_SAME = {1: 32, 2: 0, 3: 132, 4: 8, 5: 0, 6: 20, 7: 0, 8: 0, 9: 1}
TABLE_2700_OPPOSITE = {1: 344, 2: 109, 3: 8, 4: 1}


@pytest.fixture(scope="module")
def census_2700(spectrum_2700):
    return build_census(spectrum_2700)


def test_census_reproduces_reference_table(census_2700):
    same = {r.degeneracy: r.levels for r in census_2700.rows_for(Parity.SAME)}
    opposite = {r.degeneracy: r.levels for r in census_2700.rows_for(Parity.OPPOSITE)}
    assert same == TABLE_2700_SAME
    assert opposite == TABLE_2700_OPPOSITE
    assert census_2700.subtotal(Parity.SAME) == (193, 589)
    assert census_2700.subtotal(Parity.OPPOSITE) == (462, 590)
    assert census_2700.total == (655, 1179)


def test_census_conjecture_tallies(census_2700):
    assert census_2700.perrin_total == 132
    assert census_2700.perrin_matched == 132
    assert census_2700.perrin_exceptions == ()
    assert census_2700.brahmagupta_total == 109
    assert census_2700.brahmagupta_covered == 109
    assert census_2700.brahmagupta_exceptions == ()


def test_doublet_witness_lemma(spectrum_2700):
    # build_census reports every doublet level as covered without a search:
    # a state (n1, n2) of energy E witnesses the rep (1, 1, n1/2, n2/2) of E.
    doublets = [
        level
        for level in spectrum_2700.iter_levels()
        if level.parity is Parity.OPPOSITE and level.degeneracy == 2
    ]
    assert len(doublets) == 109
    for level in doublets:
        n1, n2 = level.states[0]
        witness = BrahmaguptaRep(1, 1, F(n1, 2), F(n2, 2), level.energy)
        assert witness in rep_search(level.energy)


def test_census_28():
    # brute-force derived: same-parity levels {4,12,16,28}, opposite {7,13,19,21}
    report = build_census(enumerate_spectrum(28))
    same = {r.degeneracy: r.levels for r in report.rows_for(Parity.SAME)}
    opposite = {r.degeneracy: r.levels for r in report.rows_for(Parity.OPPOSITE)}
    assert same[1] == 3 and same[3] == 1
    assert sum(same.values()) == 4
    assert opposite[1] == 4
    assert sum(opposite.values()) == 4
    assert report.perrin_total == 1 and report.perrin_matched == 1


def test_census_4():
    report = build_census(enumerate_spectrum(4))
    same = {r.degeneracy: r.levels for r in report.rows_for(Parity.SAME)}
    assert same[1] == 1
    assert sum(same.values()) == 1
    assert report.subtotal(Parity.OPPOSITE) == (0, 0)


def test_zero_rows_are_emitted(census_2700):
    gs_same = [r.degeneracy for r in census_2700.rows_for(Parity.SAME)]
    gs_opp = [r.degeneracy for r in census_2700.rows_for(Parity.OPPOSITE)]
    assert gs_same == list(range(1, 10))
    assert gs_opp == list(range(1, 5))


def test_row_consistency():
    for e_max in (4, 28, 300, 2700):
        report = build_census(enumerate_spectrum(e_max))
        for row in report.rows:
            assert row.states == row.levels * row.degeneracy
        assert report.total == (
            report.subtotal(Parity.SAME)[0] + report.subtotal(Parity.OPPOSITE)[0],
            report.subtotal(Parity.SAME)[1] + report.subtotal(Parity.OPPOSITE)[1],
        )


def test_row_validation():
    with pytest.raises(ValueError):
        CensusRow(Parity.SAME, 3, 10, 29)


def test_monotonicity():
    counts = []
    for e_max in (100, 500, 1500, 2700):
        report = build_census(enumerate_spectrum(e_max))
        counts.append(
            {(r.parity, r.degeneracy): r.levels for r in report.rows}
        )
    for lo, hi in zip(counts, counts[1:]):
        for key, val in lo.items():
            assert hi.get(key, 0) >= val


def test_perrin_conjecture_2700(spectrum_2700):
    assert check_perrin_conjecture(spectrum_2700) == []


def test_perrin_conjecture_small():
    assert check_perrin_conjecture(enumerate_spectrum(28)) == []
    assert check_perrin_conjecture(enumerate_spectrum(27)) == []  # vacuous


def test_brahmagupta_conjecture_2700(spectrum_2700):
    assert check_brahmagupta_conjecture(spectrum_2700) == []
    assert check_brahmagupta_conjecture(spectrum_2700, RepMode.STRICT) == []


def test_brahmagupta_conjecture_91():
    spectrum = enumerate_spectrum(91)
    assert check_brahmagupta_conjecture(spectrum) == []
    coverage = doublet_coverage(spectrum)
    assert len(coverage) == 1
    assert coverage[0].energy == 91
    assert coverage[0].rep_count == 16
    assert coverage[0].all_integer_count == 2
    assert coverage[0].strict_count == 4


def test_doublet_coverage_2700(spectrum_2700):
    coverage = doublet_coverage(spectrum_2700)
    assert len(coverage) == 109
    assert [c.energy for c in coverage] == sorted(c.energy for c in coverage)
    for c in coverage:
        assert spectrum_2700[c.energy].degeneracy == 2
        assert spectrum_2700[c.energy].parity is Parity.OPPOSITE
        assert c.rep_count >= c.strict_count
        assert c.rep_count >= c.all_integer_count
    # every doublet level up to 2700 turns out to admit an all-integer rep
    assert [c.energy for c in coverage if c.all_integer_count == 0] == []


def test_census_agrees_with_checker(spectrum_2700, census_2700):
    bad = check_brahmagupta_conjecture(spectrum_2700)
    assert census_2700.brahmagupta_covered == census_2700.brahmagupta_total - len(bad)
    bad = check_perrin_conjecture(spectrum_2700)
    assert census_2700.perrin_matched == census_2700.perrin_total - len(bad)
