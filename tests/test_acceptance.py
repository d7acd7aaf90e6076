"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` for a pass/fail line per criterion
(add -s to also see the printed summaries).  All expected values are either
frozen from the independent oracles in oracles.py or checked against those
oracles inline.
"""

import csv
import io
import random
import time
from fractions import Fraction as F

import oracles
from oracles import inverse_rep_mixed_variant, parity_of
from triform import (
    Parity,
    RepClass,
    RepMode,
    State,
    build_census,
    check_brahmagupta_conjecture,
    check_perrin_conjecture,
    classify_rep,
    enumerate_spectrum,
    identity_expand,
    inverse_rep,
    level_of,
    match_perrin,
    perrin_triplet,
    rep_search,
    signed_doublet,
)
from triform.cli import main


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_reference_census_reproduction(capsys):
    start = time.perf_counter()
    code = main(["census", "--emax", "2700", "--format", "csv"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = {
        (r["parity"], r["degeneracy"]): (int(r["levels"]), int(r["states"]))
        for r in csv.DictReader(io.StringIO(out))
        if r["degeneracy"] not in ("", "subtotal")
    }
    expected_same = {
        "1": (32, 32), "2": (0, 0), "3": (132, 396), "4": (8, 32), "5": (0, 0),
        "6": (20, 120), "7": (0, 0), "8": (0, 0), "9": (1, 9),
    }
    expected_opposite = {"1": (344, 344), "2": (109, 218), "3": (8, 24), "4": (1, 4)}
    assert {g: v for (p, g), v in rows.items() if p == "same"} == expected_same
    assert {g: v for (p, g), v in rows.items() if p == "opposite"} == expected_opposite
    lines = out.strip().splitlines()
    assert "same,subtotal,193,589" in lines
    assert "opposite,subtotal,462,590" in lines
    assert lines[-1] == "total,,655,1179"
    assert elapsed < 1.0, f"census took {elapsed:.3f}s, budget 1s"
    with capsys.disabled():
        _passed(1, f"census at 2700 exact, {elapsed * 1000:.0f} ms")


def test_criterion_02_first_degeneracies(capsys):
    spectrum = enumerate_spectrum(2700)
    first_triplet = next(
        lv for lv in spectrum.iter_levels()
        if lv.parity is Parity.SAME and lv.degeneracy == 3
    )
    assert first_triplet.energy == 28
    assert first_triplet.states == (State(1, 5), State(2, 4), State(3, 1))
    first_doublet = next(
        lv for lv in spectrum.iter_levels()
        if lv.parity is Parity.OPPOSITE and lv.degeneracy == 2
    )
    assert first_doublet.energy == 91
    assert first_doublet.states == (State(3, 8), State(5, 4))
    with capsys.disabled():
        _passed(2, "first 3-fold same-parity level 28, first 2-fold opposite 91")


def test_criterion_03_perrin_conjecture_in_range(capsys, spectrum_2700):
    assert check_perrin_conjecture(spectrum_2700) == []
    triplet_levels = [
        lv for lv in spectrum_2700.iter_levels()
        if lv.parity is Parity.SAME and lv.degeneracy == 3
    ]
    assert len(triplet_levels) == 132
    for level in triplet_levels:
        seed = match_perrin(level)
        assert seed is not None
        regenerated = perrin_triplet(seed)
        assert regenerated.energy == level.energy
        assert set(regenerated.states) <= set(level.states)
    with capsys.disabled():
        _passed(3, "132/132 triplet levels matched, no counterexamples")


def test_criterion_04_brahmagupta_coverage(capsys, spectrum_2700):
    assert check_brahmagupta_conjecture(spectrum_2700, RepMode.FACTORIZATION) == []
    doublet_levels = [
        lv for lv in spectrum_2700.iter_levels()
        if lv.parity is Parity.OPPOSITE and lv.degeneracy == 2
    ]
    assert len(doublet_levels) == 109
    for level in doublet_levels:
        assert rep_search(level.energy, RepMode.FACTORIZATION)
    with capsys.disabled():
        _passed(4, "109/109 doublet levels covered in factorization mode")


def test_criterion_05_reps_of_91(capsys):
    reps = rep_search(91, RepMode.FACTORIZATION)
    assert len(reps) == 16
    assert [r.key for r in reps] == oracles.quadruple_loop_reps(91)
    all_integer = [r.key for r in reps if classify_rep(r) is RepClass.ALL_INTEGER]
    assert all_integer == [(1, 2, F(2), F(1)), (2, 1, F(1), F(2))]
    strict = rep_search(91, RepMode.STRICT)
    assert len(strict) == 4
    with capsys.disabled():
        _passed(5, "E=91: 16 factorization reps (2 all-integer), 4 strict; oracle agrees")


def test_criterion_06_1267_probe(capsys):
    reps = rep_search(1267, RepMode.FACTORIZATION)
    spot_check_six = [
        (1, 1, F(17, 2), F(10)),
        (1, 2, F(11, 2), F(19, 2)),
        (1, 2, F(15, 2), F(7, 2)),
        (1, 5, F(1), F(13, 2)),
        (2, 4, F(1), F(13, 2)),
        (3, 1, F(1), F(13, 2)),
    ]
    got = [r.key for r in reps]
    for rep in spot_check_six:
        assert rep in got
    has_all_integer = any(classify_rep(r) is RepClass.ALL_INTEGER for r in reps)
    oracle_reps = oracles.quadruple_loop_reps(1267)
    oracle_all_integer = any(
        v3.denominator == 1 and v4.denominator == 1 for _, _, v3, v4 in oracle_reps
    )
    assert got == oracle_reps
    assert has_all_integer == oracle_all_integer
    with capsys.disabled():
        _passed(
            6,
            f"E=1267: all six spot-check tuples found among {len(reps)}; "
            f"all-integer rep exists={has_all_integer}, oracle agrees",
        )


def test_criterion_07_identity_fuzz(capsys):
    rng = random.Random(20240628)
    checked = 0
    for _ in range(10_000):
        values = []
        for _ in range(5):
            num = rng.randint(-10_000, 10_000)
            if rng.random() < 0.02:
                num = 0
            values.append(F(num, rng.randint(1, 500)))
        ex = identity_expand(*values)
        assert ex.evaluate(ex.minus_form) == ex.product
        assert ex.evaluate(ex.plus_form) == ex.product
        checked += 1
    assert checked == 10_000
    with capsys.disabled():
        _passed(7, "identity exact on 10000 fuzzed rational tuples")


def test_criterion_08_inverse_round_trip_suite(capsys, spectrum_2700):
    xis = (F(1, 6), F(1), F(5, 3))
    pairs = 0
    for level in spectrum_2700.iter_levels():
        if level.degeneracy < 2:
            continue
        for first in level.states:
            for second in level.states:
                if first == second:
                    continue
                for xi in xis:
                    nu = inverse_rep(first, second, xi)
                    assert signed_doublet(*nu) == (tuple(first), tuple(second))
                pairs += 1
    assert pairs == 1838  # sum of g*(g-1) over all degenerate levels <= 2700
    bad = inverse_rep_mixed_variant((3, 8), (5, 4), F(1, 6))
    assert signed_doublet(*bad) != ((3, 8), (5, 4))
    with capsys.disabled():
        _passed(8, f"{pairs} ordered pairs round-trip at 3 xi values; mixed variant fails")


def test_criterion_09_parity_laws(capsys):
    spectrum = enumerate_spectrum(100_000)
    for level in spectrum.iter_levels():
        e = level.energy
        assert e % 4 != 2
        bits = {(a - b) % 2 for a, b in level.states}
        assert len(bits) == 1
        if e % 4 == 0:
            assert parity_of(level) is Parity.SAME and bits == {0}
        else:
            assert e % 2 == 1
            assert parity_of(level) is Parity.OPPOSITE and bits == {1}
    with capsys.disabled():
        _passed(9, f"parity laws hold on all {len(spectrum)} levels up to 1e5")


def test_criterion_10_oracle_equivalence(capsys, oracle_reps_5000):
    spectrum = enumerate_spectrum(5000)
    naive = oracles.naive_levels(5000)
    assert set(spectrum) == set(naive)
    for e, states in naive.items():
        assert [tuple(s) for s in spectrum[e].states] == sorted(states)
    assert dict(spectrum.raw_items()) == naive
    for energy in range(1, 5001):
        expected = oracle_reps_5000.get(energy, [])
        assert [r.key for r in rep_search(energy)] == expected
    with capsys.disabled():
        _passed(10, "spectrum and rep search match brute force for all E <= 5000")


def test_criterion_11_performance_budget(capsys):
    start = time.perf_counter()
    report = build_census(enumerate_spectrum(10_000_000))
    elapsed = time.perf_counter() - start
    assert report.total[0] > 1_000_000  # sanity: ~1.66M levels
    assert report.perrin_exceptions == ()
    assert elapsed < 30.0, f"census at 1e7 took {elapsed:.1f}s, budget 30s"
    with capsys.disabled():
        _passed(11, f"census at 1e7 in {elapsed:.1f}s (budget 30s)")
