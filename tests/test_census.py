import copy
import dataclasses
import pickle
import tracemalloc
from fractions import Fraction as F

import pytest

import oracles
from triform import (
    BrahmaguptaRep,
    CensusRow,
    DoubletCoverage,
    Parity,
    RepMode,
    Spectrum,
    build_census,
    check_brahmagupta_conjecture,
    check_perrin_conjecture,
    doublet_coverage,
    enumerate_spectrum,
    parity_of_energy,
    rep_search,
)
from triform import spectrum as spectrum_module
from triform.brahmagupta import _strict
from triform.spectrum import _COUNT_WINDOW

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


def test_census_equals_the_bucket_census_up_to_400():
    for e_max in range(4, 401):
        spectrum = enumerate_spectrum(e_max)
        assert build_census(spectrum) == oracles.bucket_census(spectrum), e_max


@pytest.mark.parametrize("e_max", [2700, 10**5, 10**6])
def test_census_equals_the_bucket_census(e_max):
    # separate spectra, so the count table and the buckets are each built afresh
    report = build_census(enumerate_spectrum(e_max))
    assert report == oracles.bucket_census(enumerate_spectrum(e_max))


def test_census_of_explicit_buckets_equals_the_bucket_census():
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    spectrum = Spectrum(3000, buckets)
    assert build_census(spectrum) == oracles.bucket_census(spectrum)


def test_census_reports_a_3_fold_level_no_seed_reaches():
    # The smallest seed energy is 28, so a 3-fold level at E = 4 has no triplet.
    buckets = {e: list(states) for e, states in enumerate_spectrum(400).raw_items()}
    buckets[4] = [(1, 1), (2, 2), (3, 3)]
    spectrum = Spectrum(400, buckets)
    report = build_census(spectrum)
    assert report.perrin_exceptions == (4,)
    assert report.perrin_matched < report.perrin_total
    assert report == oracles.bucket_census(spectrum)


@pytest.mark.parametrize("e_max", [k * _COUNT_WINDOW + d for k in (1, 2) for d in (-1, 0, 1)])
def test_census_equals_the_bucket_census_at_window_edges(e_max):
    report = build_census(enumerate_spectrum(e_max))
    assert report == oracles.bucket_census(enumerate_spectrum(e_max))


def test_census_equals_the_bucket_census_across_small_windows(monkeypatch):
    # 64 energies a window: seeds and levels straddle dozens of edges
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 64)
    for e_max in range(4, 3001):
        spectrum = enumerate_spectrum(e_max)
        assert build_census(spectrum) == oracles.bucket_census(spectrum), e_max


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_census_equals_one_process_and_the_bucket_census(monkeypatch, forks, cpus):
    # windows of 64 energies striped on 2 or 3 processes: seeds and levels
    # straddle the edges between windows of different processes
    e_maxes = [*range(60, 400, 7), 1000, 3000]
    for e_max in e_maxes:
        monkeypatch.setattr(spectrum_module, "_cpus", lambda: 1)
        alone = build_census(enumerate_spectrum(e_max))
        monkeypatch.setattr(spectrum_module, "_cpus", lambda: cpus)
        spectrum = enumerate_spectrum(e_max)
        assert build_census(spectrum) == alone == oracles.bucket_census(spectrum), e_max
    # e_max // 64 + 1 windows, and window i goes to process i mod cpus
    assert len(forks) == sum(min(cpus, e_max // 64 + 1) - 1 for e_max in e_maxes)


@pytest.mark.parametrize("window", [4, 8, 64, 1024, _COUNT_WINDOW])
def test_census_reports_planted_triplets_at_every_window_size(monkeypatch, window):
    # None of 4, 1020 and 1024 is a seed energy.  4 and 1024 open a window
    # at every size here, and 1020 lies in the window before 1024.
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", window)
    buckets = {e: list(states) for e, states in enumerate_spectrum(3000).raw_items()}
    for energy in (4, 1020, 1024):
        buckets[energy] = [(1, 1), (2, 2), (3, 3)]
    spectrum = Spectrum(3000, buckets)
    report = build_census(spectrum)
    assert report.perrin_exceptions == (4, 1020, 1024)
    assert report.perrin_matched == report.perrin_total - 3
    assert report == oracles.bucket_census(spectrum)


def test_census_holds_windows_not_the_table(monkeypatch):
    # 16 windows of 64 KB: the whole-range table would be 1 MB, and a few
    # windows and their slices take under half of that
    monkeypatch.setattr(spectrum_module, "_COUNT_WINDOW", 1 << 16)
    spectrum = enumerate_spectrum(1 << 20)
    tracemalloc.start()
    try:
        report = build_census(spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == build_census(enumerate_spectrum(1 << 20))
    assert spectrum._counts is None
    assert peak < 8 * (1 << 16), f"peak {peak / 2**10:.0f} KB"


def test_census_builds_no_buckets():
    tracemalloc.start()
    try:
        spectrum = enumerate_spectrum(10**6)
        report = build_census(spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.perrin_exceptions == ()
    assert len(spectrum) > 0 and spectrum.state_count > 0
    assert spectrum.degeneracy_of(28) == 3
    assert spectrum._buckets is None
    # the buckets would take about 165 MB at this size
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


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


def test_row_states_are_derived():
    row = CensusRow(Parity.SAME, 3, 10)
    assert row.states == 30
    # the inconsistent row (10 levels of g=3 holding 29 states) cannot be built
    with pytest.raises(TypeError):
        CensusRow(Parity.SAME, 3, 10, 29)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.states = 29


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


def test_perrin_conjecture_reads_planted_buckets():
    # 196 holds the triplet of seed (3, 5) and one more state, (7, 7): with
    # (5, 11) dropped it is a 3-fold level no seed reaches; 28 with (2, 4)
    # dropped is 2-fold and not checked
    buckets = {e: list(states) for e, states in enumerate_spectrum(400).raw_items()}
    buckets[196].remove((5, 11))
    buckets[28].remove((2, 4))
    spectrum = Spectrum(400, buckets)
    assert check_perrin_conjecture(spectrum) == [196]


def test_brahmagupta_conjecture_2700(spectrum_2700):
    assert check_brahmagupta_conjecture(spectrum_2700) == []
    assert check_brahmagupta_conjecture(spectrum_2700, RepMode.STRICT) == []


@pytest.mark.parametrize("mode", ["strict", None])
@pytest.mark.parametrize("e_max", [4, 2700])  # E <= 4 has no doublet level
def test_brahmagupta_conjecture_rejects_an_unknown_mode(monkeypatch, mode, e_max):
    def no_walk(*args):
        raise AssertionError("walked before the mode was checked")

    spectrum = enumerate_spectrum(e_max)
    monkeypatch.setattr(Spectrum, "iter_levels", no_walk)
    with pytest.raises(ValueError, match=f"mode must be a RepMode, got {mode!r}"):
        check_brahmagupta_conjecture(spectrum, mode)


@pytest.mark.parametrize("mode", ["strict", None])
@pytest.mark.parametrize("e_max", [4, 2700])  # E <= 4 has no doublet level
def test_doublet_coverage_rejects_an_unknown_mode(monkeypatch, mode, e_max):
    def no_walk(*args):
        raise AssertionError("walked before the mode was checked")

    spectrum = enumerate_spectrum(e_max)
    monkeypatch.setattr(Spectrum, "iter_levels", no_walk)
    with pytest.raises(ValueError, match=f"mode must be a RepMode, got {mode!r}"):
        doublet_coverage(spectrum, mode)


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
        assert spectrum_2700.degeneracy_of(c.energy) == 2  # read off the stripe
        assert parity_of_energy(c.energy) is Parity.OPPOSITE
        assert c.rep_count >= c.strict_count
        assert c.rep_count >= c.all_integer_count
    # every doublet level up to 2700 turns out to admit an all-integer rep
    assert [c.energy for c in coverage if c.all_integer_count == 0] == []


def test_both_search_orders_match_the_divisor_scan_up_to_3000():
    # the oracle derives every count from the literal divisor scan, without
    # the solver or its cache of the last energy's solved tuples
    spectrum = enumerate_spectrum(3000)
    tallies = []
    for energy, states in spectrum.raw_items():
        if energy % 2 and len(states) == 2:
            reps = [(v1, v2, int(2 * v3), int(2 * v4)) for v1, v2, v3, v4 in oracles.scan_reps(energy)]
            tallies.append((
                energy,
                len(reps),
                sum(a % 2 == 0 and b % 2 == 0 for _, _, a, b in reps),
                sum(_strict(*rep) for rep in reps),
            ))
    assert len(tallies) == build_census(spectrum).brahmagupta_total == 123
    # strict searches first, one energy after another, as the stand-alone check
    bad = check_brahmagupta_conjecture(spectrum, RepMode.STRICT)
    assert bad == [energy for energy, _, _, strict in tallies if strict == 0] == []
    # then each energy's search in `mode`, a factorization search and a
    # strict search in turn, as `verify` makes them; `covered` reads the
    # rep count (index 1) or the strict count (index 3) of each tally
    for mode, covered in ((RepMode.FACTORIZATION, 1), (RepMode.STRICT, 3)):
        expected = [DoubletCoverage(*t, covered=t[covered] > 0) for t in tallies]
        assert doublet_coverage(spectrum, mode) == expected


def test_doublet_coverage_is_slotted_and_frozen():
    record = doublet_coverage(enumerate_spectrum(91))[0]
    assert record == DoubletCoverage(91, 16, 2, 4, True)
    assert not hasattr(record, "__dict__")
    for name in DoubletCoverage.__slots__ + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert hash(record) == hash(DoubletCoverage(91, 16, 2, 4, True))


def test_doublet_coverage_survives_pickle_and_copy():
    record = DoubletCoverage(91, 8, 2, 4, True)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and type(clone) is DoubletCoverage
        assert dataclasses.astuple(clone) == (91, 8, 2, 4, True)


def test_census_agrees_with_checker(spectrum_2700, census_2700):
    # `census` reports all brahmagupta_total doublet levels covered (the
    # witness lemma); the search finds a rep for each
    assert check_brahmagupta_conjecture(spectrum_2700) == []
    bad = check_perrin_conjecture(spectrum_2700)
    assert census_2700.perrin_matched == census_2700.perrin_total - len(bad)
