import csv
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from triform import RepMode, rep_search
from triform.cli import frac_str, main, parse_rational


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
        [r.v1, r.v2, frac_str(r.v3), frac_str(r.v4)] for r in rep_search(energy)
    ]


def test_level_absent(capsys):
    code, _, err = run_cli(capsys, "level", "5")
    assert code == 1
    assert "no such level" in err


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
    assert "distinct" in err


def test_braham_inverse_energy_mismatch(capsys):
    code, _, err = run_cli(capsys, "braham", "inverse", "1", "1", "2", "2")
    assert code == 2
    assert "different energies" in err


# ------------------------------------------------------- format invariants

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
        assert parse_rational(frac_str(value)) == value
    assert frac_str(F(3, 2)) == "3/2"
    assert frac_str(F(4, 2)) == "2"


def test_bad_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["braham", "inverse", "3", "8", "5", "4", "--xi", "zebra"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
