import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from oracles import parity_of
import triform.brahmagupta as brahmagupta_module
import triform.census as census_module
import triform.cli as cli
import triform.spectrum as spectrum_module
from triform import (
    CensusReport, DoubletCoverage, RepMode, Spectrum, build_census, classify_rep,
    doublet_from_rep, enumerate_spectrum, level_of, match_perrin, rep_search,
)
from triform.cli import _cell, build_parser, main, parse_rational
from triform.spectrum import _LEVEL_WINDOW as W


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- goldens

# Every subcommand in every --format, byte for byte.  cases.json maps each
# golden file to the argv that produced it and the expected exit code; the
# file holds the exact stdout.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_golden(capsys, name):
    case = GOLDEN_CASES[name]
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["code"]
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")


# ---------------------------------------------------------------- spectrum

def test_spectrum_only_degenerate_28(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "28", "--only-degenerate")
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("  energy")]
    assert len(body) == 1
    assert "28" in body[0] and "same" in body[0]
    assert "(1,5) (2,4) (3,1)" in body[0]


def test_spectrum_4(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [
        {"energy": 4, "parity": "same", "degeneracy": 1, "states": [[1, 1]]}
    ]


def test_spectrum_2700_count(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "2700", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 655
    assert rows[0]["energy"] == "4"
    assert rows[0]["states"] == "1:1"


@pytest.mark.parametrize("flags", [[], ["--only-degenerate"]])
def test_spectrum_json_matches_materialized_levels(capsys, flags):
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "5000", "--format", "json", *flags)
    assert code == 0
    expected = [
        {"energy": level.energy, "parity": parity_of(level).value,
         "degeneracy": level.degeneracy, "states": [list(s) for s in level.states]}
        for level in enumerate_spectrum(5000).iter_levels()
        if not flags or level.degeneracy >= 2
    ]
    assert json.loads(out)["levels"] == expected


# e_max on both sides of the level walk's window edges; at 6 no level is
# degenerate, so --only-degenerate prints the empty `"levels": []`.
@pytest.mark.parametrize("e_max", [4, 6, W + 1, 2 * W - 1, 2 * W, 2 * W + 1, 4 * W + 3])
@pytest.mark.parametrize("flags", [[], ["--only-degenerate"]])
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_streamed_spectrum_equals_the_records_then_render_command(capsys, e_max, flags, fmt):
    argv = ["spectrum", "--emax", str(e_max), "--format", fmt, *flags]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    assert oracles.spectrum_command(build_parser().parse_args(argv)) == 0
    assert streamed == capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--only-degenerate"]])
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_spectrum_renders_explicit_buckets_with_a_state_dropped(capsys, monkeypatch, flags, fmt):
    buckets = {e: list(states) for e, states in enumerate_spectrum(400).raw_items()}
    buckets[28].pop(1)  # (2, 4): the 3-fold level is left with two states
    buckets[91].pop()  # a doublet left with one state, which --only-degenerate drops
    monkeypatch.setattr(cli, "enumerate_spectrum", lambda e_max: Spectrum(e_max, buckets))
    argv = ["spectrum", "--emax", "400", "--format", fmt, *flags]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    assert oracles.spectrum_command(build_parser().parse_args(argv), buckets) == 0
    assert streamed == capsys.readouterr().out
    assert {"json": '"energy": 28,\n      "parity": "same",\n      "degeneracy": 2,',
            "csv": "28,same,2,1:5;3:1\n",
            "table": "  2  (1,5) (3,1)\n"}[fmt] in streamed


def test_only_degenerate_reads_the_walks_degeneracy(capsys, monkeypatch):
    class Walk:
        def text_levels(self, first, second, sep):
            # the texts say nothing of the count: the filter must read it
            return iter([(4, 1, "a b"), (7, 2, "c"), (12, 3, "d"), (13, 1, "e f g")])

    monkeypatch.setattr(cli, "enumerate_spectrum", lambda e_max: Walk())
    assert main(["spectrum", "--emax", "13", "--format", "csv", "--only-degenerate"]) == 0
    assert capsys.readouterr().out == (
        "energy,parity,degeneracy,states\n7,opposite,2,c\n12,same,3,d\n")


class _Sink(io.TextIOBase):
    """A text stream that discards what it is written."""

    def write(self, text: str) -> int:
        return len(text)


def _spectrum_peak_bytes(e_max: int) -> int:
    tracemalloc.start()
    try:
        with redirect_stdout(_Sink()):
            assert main(["spectrum", "--emax", str(e_max), "--format", "json"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_memory_stays_flat_as_emax_grows():
    # holding every level, the peak grew about 4x from 2e5 to 8e5
    small, large = _spectrum_peak_bytes(200_000), _spectrum_peak_bytes(800_000)
    assert large < 1.5 * small, f"{small / 2**20:.1f} MB -> {large / 2**20:.1f} MB"


def test_spectrum_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--emax", "3")
    assert code == 2
    assert "no states below E=4" in err


# ------------------------------------------------------------------ census

def test_census_2700_table_golden(capsys):
    code, out, _ = run_cli(capsys, "census", "--emax", "2700")
    assert code == 0
    expected = """\
degeneracy census for E <= 2700

parity      degeneracy   levels   states
same                 1       32       32
same                 2        0        0
same                 3      132      396
same                 4        8       32
same                 5        0        0
same                 6       20      120
same                 7        0        0
same                 8        0        0
same                 9        1        9
same          subtotal      193      589
opposite             1      344      344
opposite             2      109      218
opposite             3        8       24
opposite             4        1        4
opposite      subtotal      462      590
total                       655     1179

perrin-matched same-parity 3-fold levels: 132/132
covered opposite-parity 2-fold levels: 109/109
"""
    assert out == expected


def test_census_28_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--emax", "28", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {(r["parity"], r["degeneracy"]): r["levels"] for r in doc["rows"]}
    assert rows[("same", 1)] == 3
    assert rows[("same", 3)] == 1
    assert rows[("opposite", 1)] == 4
    assert doc["total"] == [8, 10]


def test_census_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--emax", "3")
    assert code == 2
    assert "no states below E=4" in err


def test_census_csv_totals(capsys):
    code, out, _ = run_cli(capsys, "census", "--emax", "2700", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parity,degeneracy,levels,states"
    assert "same,subtotal,193,589" in lines
    assert "opposite,subtotal,462,590" in lines
    assert lines[-1] == "total,,655,1179"


# ------------------------------------------------------------------- level

def test_level_196(capsys):
    code, out, _ = run_cli(capsys, "level", "196")
    assert code == 0
    assert "degeneracy  4" in out
    assert "seed (3,5)" in out


# energy -> (states, rep_counts) of `level --format json`
LEVEL_JSON = {
    91: ([[3, 8], [5, 4]], {"factorization": 16, "all_integer": 2, "strict": 4}),
    1267: ([[9, 32], [17, 20]], {"factorization": 16, "all_integer": 2, "strict": 4}),
    1_000_027: (
        [[3, 1000], [197, 940], [261, 892], [419, 688],
         [453, 620], [509, 472], [547, 320], [571, 148]],
        {"factorization": 352, "all_integer": 56, "strict": 112},
    ),
}


@pytest.mark.parametrize("energy", sorted(LEVEL_JSON))
def test_level_json_rep_counts(capsys, energy):
    states, rep_counts = LEVEL_JSON[energy]
    code, out, _ = run_cli(capsys, "level", str(energy), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["states"] == states
    assert doc["perrin_seed"] is None
    assert doc["rep_counts"] == rep_counts
    assert rep_counts["strict"] == len(rep_search(energy, RepMode.STRICT))
    assert doc["reps"] == [
        [r.v1, r.v2, str(r.v3), str(r.v4)] for r in rep_search(energy)
    ]


def test_level_absent(capsys):
    code, _, err = run_cli(capsys, "level", "5")
    assert code == 1
    assert "no such level" in err


def level_doc(energy: int, reps=None) -> dict:
    """The `level --format json` document rebuilt from the library's objects:
    v3 and v4 printed by `str(Fraction)`, the all-integer count read off
    their denominators, the strict count off the rational doublet."""
    level = level_of(energy)
    seed = match_perrin(level)
    reps = rep_search(energy) if reps is None else reps
    return {
        "energy": energy,
        "parity": parity_of(level).value,
        "degeneracy": level.degeneracy,
        "states": [list(s) for s in level.states],
        "perrin_seed": [seed.m1, seed.m2] if seed else None,
        "reps": [[r.v1, r.v2, str(r.v3), str(r.v4)] for r in reps],
        "rep_counts": {
            "factorization": len(reps),
            "all_integer": sum(r.v3.denominator == 1 == r.v4.denominator for r in reps),
            "strict": sum(doublet_from_rep(r).is_state_pair for r in reps),
        },
    }


# 196 has a Perrin seed and 91 none; 4 * 999999937 is a prime-heavy level
# with a seed and 3999999979 a prime one without.
TEMPLATE_ENERGIES = [4, 91, 196, 4 * 999999937, 3999999979] + \
    oracles.seeded_realized_energies(2024, 30, 10**4, 10**12)


@pytest.mark.parametrize("energy", TEMPLATE_ENERGIES)
def test_level_json_template_equals_json_dump(capsys, energy):
    code, out, _ = run_cli(capsys, "level", str(energy), "--format", "json")
    assert code == 0
    assert out == json.dumps(level_doc(energy), indent=2) + "\n"


def test_level_json_template_cases_cover_both_seed_outcomes():
    seeds = [level_doc(e)["perrin_seed"] for e in (91, 196, 4 * 999999937, 3999999979)]
    assert seeds == [None, [3, 5], [11953, 23904], None]


def test_level_json_template_with_no_reps(capsys, monkeypatch):
    monkeypatch.setattr(cli, "rep_search", lambda energy, mode=None: [])
    code, out, _ = run_cli(capsys, "level", "196", "--format", "json")
    assert code == 0
    assert out == json.dumps(level_doc(196, reps=[]), indent=2) + "\n"
    assert '"reps": [],' in out


def reps_doc(energy: int, mode: RepMode) -> dict:
    """The `braham reps --format json` document rebuilt from the library's
    reps: v3 and v4 printed by `str(Fraction)`, the class by `classify_rep`."""
    return {
        "energy": energy,
        "mode": mode.value,
        "reps": [{"v1": r.v1, "v2": r.v2, "v3": str(r.v3), "v4": str(r.v4),
                  "class": classify_rep(r).value} for r in rep_search(energy, mode)],
    }


@pytest.mark.parametrize("mode", list(RepMode))
@pytest.mark.parametrize("energy", [4, 7, 91, 196, 4 * 999999937, 3999999979] +
                         oracles.seeded_realized_energies(2025, 10, 10**4, 10**10))
def test_reps_json_template_equals_json_dump(capsys, energy, mode):
    code, out, _ = run_cli(capsys, "braham", "reps", str(energy), "--mode", mode.value,
                           "--format", "json")
    assert code == 0
    assert out == json.dumps(reps_doc(energy, mode), indent=2) + "\n"


def test_reps_json_template_with_no_reps(capsys):
    assert rep_search(5) == []
    code, out, _ = run_cli(capsys, "braham", "reps", "5", "--format", "json")
    assert code == 0
    assert out == json.dumps(reps_doc(5, RepMode.FACTORIZATION), indent=2) + "\n"
    assert '"reps": []' in out


def test_level_factors_the_energy_once(capsys, monkeypatch):
    # level_of reads the states off the rep solve of E, which factors 4*E
    # once and which rep_search then reuses for the reps; every triform module
    # that holds `factorize` gets the counting one
    runs = []
    factorize = spectrum_module.factorize
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "triform" and getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", lambda n: runs.append(n) or factorize(n))
    energies = [91, 196, 4 * 7 * 13 * 19 * 31 * 37, 4 * 999999937, 3999999979]
    for energy, fmt in zip(energies, ["json", "csv", "table", "json", "csv"]):
        code, _, _ = run_cli(capsys, "level", str(energy), "--format", fmt)
        assert code == 0
    assert runs == [4 * energy for energy in energies]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_level_counts_the_strict_reps_of_a_strict_search(capsys, monkeypatch, fmt):
    # the strict count is the length of rep_search's STRICT list, the filter
    # verify and `braham reps --mode strict` use, asked right after the
    # FACTORIZATION search whose kept reps it filters
    calls = []
    search = cli.rep_search

    def recorded(energy, mode=RepMode.FACTORIZATION):
        reps = search(energy, mode)
        calls.append((energy, mode, len(reps)))
        return reps

    monkeypatch.setattr(cli, "rep_search", recorded)
    code, out, _ = run_cli(capsys, "level", "1000027", "--format", fmt)
    assert code == 0
    assert calls == [(1000027, RepMode.FACTORIZATION, 352), (1000027, RepMode.STRICT, 112)]
    if fmt == "json":
        assert json.loads(out)["rep_counts"]["strict"] == 112
    elif fmt == "csv":
        assert next(csv.DictReader(io.StringIO(out)))["strict_reps"] == "112"
    else:
        assert out.endswith(", 112 strict\n")


# ------------------------------------------------------------------ verify

def test_verify_2700(capsys):
    code, out, _ = run_cli(capsys, "verify", "--emax", "2700")
    assert code == 0
    assert "132/132" in out
    assert "109/109" in out
    assert "conjectures hold" in out


def test_verify_100(capsys):
    code, out, _ = run_cli(capsys, "verify", "--emax", "100")
    assert code == 0
    assert "4/4" in out
    assert "1/1" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--emax", "200", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["perrin"]["counterexamples"] == []
    assert doc["brahmagupta"]["counterexamples"] == []


def test_verify_reports_non_doublet_degenerates(capsys):
    code, out, _ = run_cli(capsys, "verify", "--emax", "2700", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    outside = doc["brahmagupta"]["non_doublet_degenerate"]
    assert outside == {"total": 9, "by_degeneracy": {"3": 8, "4": 1}}
    assert doc["brahmagupta"]["levels_without_all_integer_rep"] == []


def test_verify_strict_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--emax", "300", "--mode", "strict")
    assert code == 0
    assert "strict" in out


VERIFY_300_WITH_COUNTEREXAMPLES = {
    "table": """\
conjecture check for E <= 300 (factorization mode)

perrin:      15/15 same-parity 3-fold levels matched; counterexamples: [196, 252]
brahmagupta: 4/6 opposite-parity 2-fold levels covered; counterexamples: [91, 133]
all doublet levels in range have an all-integer rep

RESULT: counterexample found
""",
    "csv": """\
conjecture,total,passed,counterexamples
perrin,15,15,196;252
brahmagupta-factorization,6,4,91;133
""",
    "json": json.dumps({
        "e_max": 300,
        "mode": "factorization",
        "perrin": {"total": 15, "matched": 15, "counterexamples": [196, 252]},
        "brahmagupta": {
            "total": 6,
            "covered": 4,
            "counterexamples": [91, 133],
            "levels_without_all_integer_rep": [],
            "non_doublet_degenerate": {"total": 0, "by_degeneracy": {}},
        },
        "ok": False,
    }, indent=2) + "\n",
}


@pytest.mark.parametrize("fmt", list(VERIFY_300_WITH_COUNTEREXAMPLES))
def test_verify_prints_counterexamples(capsys, monkeypatch, fmt):
    # no goldens reach a counterexample; inject two per conjecture
    coverage = cli.doublet_coverage
    monkeypatch.setattr(cli, "doublet_coverage", lambda spectrum, mode: [
        DoubletCoverage(c.energy, c.rep_count, c.all_integer_count, c.strict_count, False)
        if c.energy in (91, 133) else c
        for c in coverage(spectrum, mode)])

    def census_with_exceptions(spectrum):
        r = build_census(spectrum)
        return CensusReport(r.e_max, r.rows, r.perrin_total, r.perrin_matched, (196, 252),
                            r.brahmagupta_total)

    monkeypatch.setattr(cli, "build_census", census_with_exceptions)
    code, out, _ = run_cli(capsys, "verify", "--emax", "300", "--format", fmt)
    assert code == 1
    assert out == VERIFY_300_WITH_COUNTEREXAMPLES[fmt]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_fails_when_the_level_walk_misses_a_doublet(capsys, monkeypatch, fmt):
    # the census counts 6 doublet levels up to 300 off its count windows;
    # a coverage walk that drops one must not pass as all covered
    coverage = cli.doublet_coverage
    monkeypatch.setattr(cli, "doublet_coverage", lambda spectrum, mode: coverage(spectrum, mode)[1:])
    code, out, err = run_cli(capsys, "verify", "--emax", "300", "--format", fmt)
    assert code == 1
    assert err == "error: the level walk found 5 doublet levels, the census counts 6\n"
    if fmt == "json":
        doc = json.loads(out)
        assert doc["ok"] is False and doc["brahmagupta"]["counterexamples"] == []
    else:
        assert out.endswith("\nRESULT: the level walk missed a doublet level\n")


@pytest.mark.parametrize("mode", ["factorization", "strict"])
def test_verify_solves_each_doublet_level_once(capsys, monkeypatch, mode):
    # the check and the tallies share one walk, and the three searches of a
    # level run back to back, so the level's one solve serves all three
    calls = []
    search = census_module.rep_search

    def counting(energy, search_mode):
        calls.append(energy)
        return search(energy, search_mode)

    monkeypatch.setattr(census_module, "rep_search", counting)
    brahmagupta_module._reps.cache_clear()
    spectrum_module._rep_tuples.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--emax", "3000", "--mode", mode)
    solves = spectrum_module._rep_tuples.cache_info().misses
    doublets = build_census(enumerate_spectrum(3000)).brahmagupta_total
    assert code == 0
    assert solves == doublets == 123
    assert calls == [energy for energy in sorted(set(calls)) for _ in range(3)]
    assert len(calls) == 3 * doublets


def test_verify_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--emax", "3")
    assert code == 2


# ------------------------------------------------------------------ braham

def test_braham_reps_91(capsys):
    code, out, _ = run_cli(capsys, "braham", "reps", "91", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    assert sum(1 for r in rows if r["class"] == "all-integer") == 2
    tuples = [(r["v1"], r["v2"], r["v3"], r["v4"]) for r in rows]
    assert tuples == sorted(
        tuples, key=lambda t: (int(t[0]), int(t[1]), F(t[2]), F(t[3]))
    )


def test_braham_doublet(capsys):
    code, out, _ = run_cli(capsys, "braham", "doublet", "1", "2", "2", "1")
    assert code == 0
    assert "(3,8) (5,4)" in out


def test_braham_doublet_half_integer(capsys):
    code, out, _ = run_cli(capsys, "braham", "doublet", "2", "4", "1", "1/2")
    assert code == 0
    assert "(3,8) (5,4)" in out


def test_braham_doublet_invalid_tuple(capsys):
    # non-integer product is caught first
    code, _, err = run_cli(capsys, "braham", "doublet", "1", "2", "1/3", "1")
    assert code == 2
    assert "does not factor an integer energy" in err
    # integer product but v3 is not a half-integer
    code, _, err = run_cli(capsys, "braham", "doublet", "1", "3", "1/3", "1/2")
    assert code == 2
    assert "half-integer" in err


def test_braham_inverse(capsys):
    code, out, _ = run_cli(
        capsys, "braham", "inverse", "3", "8", "5", "4", "--xi", "1/6"
    )
    assert code == 0
    assert out.strip() == "2 1 1 2"


def test_braham_inverse_default_xi(capsys):
    code, out, _ = run_cli(capsys, "braham", "inverse", "3", "8", "5", "4")
    assert code == 0
    assert out.strip() == "2 1 1 2"


def test_braham_inverse_fractional_output(capsys):
    code, out, _ = run_cli(capsys, "braham", "inverse", "1", "5", "2", "4")
    assert code == 0
    assert out.strip() == "3/2 1/2 1 1"


def test_braham_inverse_identical_states(capsys):
    code, _, err = run_cli(capsys, "braham", "inverse", "1", "5", "1", "5")
    assert code == 2
    assert err == "error: states must be distinct, got (1, 5) twice\n"


def test_braham_inverse_energy_mismatch(capsys):
    code, _, err = run_cli(capsys, "braham", "inverse", "1", "1", "2", "2")
    assert code == 2
    assert err == "error: states (1, 1) and (2, 2) have different energies (4 != 16)\n"


@pytest.mark.parametrize("argv", [
    # a 4001-digit v3 made a 4300-digit limit ValueError, with exit 1
    ["doublet", "1", "1", "1e4000", "1"],
    ["inverse", "1", "5", "2", "4", "--xi", "1e-4000"],
    ["doublet", "1", "1", "1e1_000", "1"],  # int() and Fraction() read underscores
    # 2560 B of JSON were written before the energy failed to print
    ["doublet", "7" * 2500, "1", "1", "1", "--format", "json"],
])
def test_oversized_number_is_refused_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, "braham", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {cli._MAX_DIGITS} digits" in err


@pytest.mark.parametrize("command", ["spectrum", "census", "verify"])
@pytest.mark.parametrize("e_max", ["145651423372", "100000000000000000000"])
def test_an_emax_past_the_count_byte_is_refused_at_once(capsys, monkeypatch, command, e_max):
    # E = 145651423372 has 288 states and a count byte holds 255: such a run
    # striped for hours and then raised ValueError, and at 10^20 the window
    # bounds alone filled memory.  A run that gets past the parser fails here
    # before it walks anything.
    def ran(e_max):
        raise AssertionError(f"--emax {e_max} got past the parser")

    monkeypatch.setattr(cli, "enumerate_spectrum", ran)
    code, out, err = run_cli(capsys, command, "--emax", e_max, "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "below 145651423372" in err


def test_an_emax_below_the_bound_still_parses():
    args = build_parser().parse_args(["census", "--emax", "145651423371"])
    assert args.emax == 145651423371


def test_importing_the_cli_leaves_csv_out():
    # CSV lines are comma-joined cells, so the command path needs no csv module
    code = "import sys, triform.cli; sys.exit('csv' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_commands_load_neither_dataclasses_nor_fractions():
    # in a fresh interpreter (pytest itself loads dataclasses): `dataclasses`
    # pulls in `inspect`, and `fractions` pulls in `decimal`; the benchmark's
    # warm-up commands and `braham reps` make no Fraction and need neither
    code = """if True:
        import io, sys
        import triform.cli
        argvs = [["level", "91"], ["census", "--emax", "100"], ["verify", "--emax", "100"],
                 ["spectrum", "--emax", "100"], ["braham", "reps", "91"]]
        sys.stdout = io.StringIO()
        codes = [triform.cli.main(argv + ["--format", "json"]) for argv in argvs]
        loaded = [m for m in ("dataclasses", "inspect", "fractions", "decimal")
                  if m in sys.modules]
        sys.stdout = sys.__stdout__
        print(codes, loaded)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (done.stdout, done.stderr) == ("[0, 0, 0, 0, 0] []\n", "")


def test_oversized_exponent_is_refused_without_expanding_it():
    # Fraction("1e30000000") writes out the power of ten, which ran for minutes
    argv = ["braham", "doublet", "1", "1", "1e30000000", "1"]
    done = subprocess.run([sys.executable, "-m", "triform", *argv],
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1 and "digits" in done.stderr


def test_numbers_at_the_digit_bound_print_every_value(capsys):
    # the longest value printed, the product of forms of a tuple that factors
    # no integer, stays within Python's default 4300-digit int-str limit
    n = "9" * cli._MAX_DIGITS
    v3, v4 = "9" * (cli._MAX_DIGITS - 2) + "/7", "1/" + "9" * (cli._MAX_DIGITS - 2)
    code, out, err = run_cli(capsys, "braham", "doublet", n, n, v3, v4)
    assert (code, out) == (2, "") and err.count("\n") == 1
    product = err.split("(got ")[1].rstrip(")\n")
    assert len(product.split("/")[0]) > 4100
    code, out, err = run_cli(capsys, "braham", "doublet", n, n, n, n, "--format", "json")
    assert (code, err) == (0, "") and len(str(json.loads(out)["energy"])) > 2800
    code, out, err = run_cli(capsys, "braham", "doublet", n + "9", n, "1", "1")
    assert (code, out) == (2, "") and "digits" in err


def _braham_at_a_640_digit_limit(*argv):
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    return subprocess.run([sys.executable, "-m", "triform", "braham", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")


@needs_int_str_limit
def test_digit_bound_follows_the_interpreter_limit():
    # 400 nines wrote 460 B of partial JSON, then a ValueError traceback, exit 1
    done = _braham_at_a_640_digit_limit("doublet", "9" * 400, "1", "1", "1",
                                        "--format", "json")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1
    assert "more than 106 digits" in done.stderr  # (640 - 2) // 6


@needs_int_str_limit
def test_numbers_at_the_bound_of_a_640_digit_limit_print_every_value():
    n = "9" * 106
    v3, v4 = "9" * 104 + "/7", "1/" + "9" * 104
    done = _braham_at_a_640_digit_limit("doublet", n, n, v3, v4)
    assert (done.returncode, done.stdout) == (2, "") and done.stderr.count("\n") == 1
    product = done.stderr.split("(got ")[1].rstrip(")\n")
    assert len(product.split("/")[0]) > 600
    done = _braham_at_a_640_digit_limit("doublet", n, n, n, n, "--format", "json")
    assert (done.returncode, done.stderr) == (0, "")
    assert len(str(json.loads(done.stdout)["energy"])) > 400
    done = _braham_at_a_640_digit_limit("doublet", n + "9", n, "1", "1")
    assert (done.returncode, done.stdout) == (2, "") and "digits" in done.stderr


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_reader_that_closes_early_ends_the_run_with_141(fmt):
    # a closed stdout printed a BrokenPipeError traceback and exited 1
    argv = [sys.executable, "-m", "triform", "spectrum", "--emax", "100000", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.strip() in (b"{", b"energy  parity      g  states")
    assert (code, err) == (141, b"")


# ------------------------------------------------------- format invariants

@pytest.mark.parametrize("value, cell", [
    ((3, 8), "3:8"),
    (("3/2", "1/2"), "3/2:1/2"),
    ([(1, 5), (2, 4), (3, 1)], "1:5;2:4;3:1"),
    ([(1, 1)], "1:1"),
    ([196, 252], "196;252"),
    ([], ""),
    (None, ""),
    (91, "91"),
    ("subtotal", "subtotal"),
    (True, "True"),
])
def test_cell_rule(value, cell):
    assert _cell(value) == cell


def test_output_determinism(capsys):
    outputs = []
    for _ in range(2):
        for fmt in ("table", "json", "csv"):
            _, out, _ = run_cli(capsys, "census", "--emax", "400", "--format", fmt)
            outputs.append(out)
    assert outputs[:3] == outputs[3:]


def test_module_entry_point_matches_function():
    cmd = [sys.executable, "-m", "triform", "census", "--emax", "200", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_rational_round_trip():
    for value in (F(1, 2), F(3, 2), F(7), F(19, 2), F(13, 6)):
        assert parse_rational(str(value)) == value
    assert str(F(3, 2)) == "3/2"
    assert str(F(4, 2)) == "2"


def test_bad_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["braham", "inverse", "3", "8", "5", "4", "--xi", "zebra"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["braham", "inverse", "3", "8", "5", "4", "--xi", "1/0"],
    ["braham", "doublet", "1", "2", "1/0", "1"],
])
def test_zero_denominator_is_named_as_the_reason(capsys, argv):
    # Fraction("1/0") raises ZeroDivisionError('Fraction(1, 0)'), which read
    # as a value where the message gives a reason
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith(": not a rational: '1/0' (zero denominator)\n")


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, stream", [
    (["--help"], "out"), (["census", "--help"], "out"), (["braham", "reps", "--help"], "out"),
    (["census"], "err"), (["level", "x"], "err"), (["frobnicate"], "err"),
])
def test_reused_parser_prints_what_a_fresh_one_prints(capsys, argv, stream):
    # main reuses one parser; every call must print what a new parser prints
    printed = []
    for parse in (main, main, build_parser().parse_args):
        with pytest.raises(SystemExit):
            parse(argv)
        printed.append(getattr(capsys.readouterr(), stream))
    assert printed[0] and printed[0] == printed[1] == printed[2]
