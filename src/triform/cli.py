"""Command-line front end.

Subcommands: spectrum, census, level, verify, braham (reps|doublet|inverse).
Every subcommand takes --format {table,json,csv}; results go to stdout,
diagnostics to stderr.

Each command builds its result once, as a JSON-shaped record of plain dicts
and lists, and hands it to `_render`, the only code that looks at --format.
The three formats are views of that record: JSON dumps it, CSV projects a
list of row records onto a header through one cell rule (`_cell`), and the
table is a list of lines read off the same records.  No view goes back to
the domain objects.

Exit codes: 0 success / conjectures hold; 1 domain-level negative result
(no such level, counterexample found); 2 usage or input error.

Rationals are serialized as "p/q" ("3/2", plain "2" for integers) and parsed
back the same way, round-tripping exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .brahmagupta import (
    BrahmaguptaRep,
    RepClass,
    RepMode,
    classify_rep,
    doublet_from_rep,
    inverse_rep,
    is_strict,
    rep_search,
)
# check_perrin_conjecture is not called here, but perfbench/tracing.py wraps
# it as an attribute of this module, so the import stays.
from .census import (  # noqa: F401
    build_census,
    check_brahmagupta_conjecture,
    check_perrin_conjecture,
    doublet_coverage,
)
from .perrin import match_perrin
from .spectrum import EmptySpectrumError, Parity, enumerate_spectrum, level_of

FORMATS = ("table", "json", "csv")


def frac_str(value) -> str:
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cell(value):
    """CSV cell of a record field: a pair joins as a:b, a list of pairs as
    a:b;c:d, and None is empty."""
    if value is None:
        return ""
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return ";".join(map(_cell, value))
        return ":".join(map(str, value))
    return value


def _render(args: argparse.Namespace, doc: dict, header: "list[str]",
            rows: "list[dict]", table: "Callable[[dict, list[dict]], list[str]]") -> None:
    """Write one command's result to stdout in the chosen --format: `doc` as
    JSON, `rows` projected onto `header` as CSV, or the lines `table(doc, rows)`
    returns."""
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(row[key]) for key in header] for row in rows)
    else:
        sys.stdout.writelines(line + "\n" for line in table(doc, rows))


def _states_human(states) -> str:
    return " ".join(f"({a},{b})" for a, b in states)


# ---------------------------------------------------------------- spectrum

def _level_record(level) -> dict:
    return {
        "energy": level.energy,
        "parity": level.parity.value,
        "degeneracy": level.degeneracy,
        "states": [[a, b] for a, b in level.states],
    }


def _spectrum_table(doc: dict, levels: "list[dict]") -> "list[str]":
    return [f"{'energy':>8}  {'parity':<8}  {'g':>3}  states"] + [
        f"{lv['energy']:>8}  {lv['parity']:<8}  {lv['degeneracy']:>3}  "
        f"{_states_human(lv['states'])}"
        for lv in levels
    ]


def cmd_spectrum(args: argparse.Namespace) -> int:
    levels = [
        _level_record(level)
        for level in enumerate_spectrum(args.emax).iter_levels()
        if not args.only_degenerate or level.degeneracy >= 2
    ]
    doc = {"e_max": args.emax, "levels": levels}
    _render(args, doc, ["energy", "parity", "degeneracy", "states"], levels,
            _spectrum_table)
    return 0


# ------------------------------------------------------------------ census

def _census_table(doc: dict, rows: "list[dict]") -> "list[str]":
    return [
        f"degeneracy census for E <= {doc['e_max']}",
        "",
        f"{'parity':<10}{'degeneracy':>12}{'levels':>9}{'states':>9}",
        *(f"{r['parity']:<10}{r['degeneracy']:>12}{r['levels']:>9}{r['states']:>9}"
          for r in rows),
        "",
        f"perrin-matched same-parity 3-fold levels: "
        f"{doc['perrin_matched']}/{doc['perrin_total']}",
        f"covered opposite-parity 2-fold levels: "
        f"{doc['brahmagupta_covered']}/{doc['brahmagupta_total']}",
    ]


def cmd_census(args: argparse.Namespace) -> int:
    report = build_census(enumerate_spectrum(args.emax))
    doc = {
        "e_max": report.e_max,
        "rows": [
            {"parity": r.parity.value, "degeneracy": r.degeneracy,
             "levels": r.levels, "states": r.states}
            for r in report.rows
        ],
        "subtotals": {p.value: list(report.subtotal(p)) for p in Parity},
        "total": list(report.total),
        "perrin_matched": report.perrin_matched,
        "perrin_total": report.perrin_total,
        "perrin_exceptions": list(report.perrin_exceptions),
        "brahmagupta_covered": report.brahmagupta_covered,
        "brahmagupta_total": report.brahmagupta_total,
        "brahmagupta_exceptions": list(report.brahmagupta_exceptions),
    }
    # Histogram rows, each parity closed by its subtotal, then the total.
    rows = []
    for parity, (levels, states) in doc["subtotals"].items():
        rows += [r for r in doc["rows"] if r["parity"] == parity]
        rows.append({"parity": parity, "degeneracy": "subtotal",
                     "levels": levels, "states": states})
    rows.append({"parity": "total", "degeneracy": "",
                 "levels": doc["total"][0], "states": doc["total"][1]})
    _render(args, doc, ["parity", "degeneracy", "levels", "states"], rows, _census_table)
    return 0


# ------------------------------------------------------------------- level

def _level_table(doc: dict, rows: "list[dict]") -> "list[str]":
    seed, counts = doc["perrin_seed"], doc["rep_counts"]
    return [
        f"energy      {doc['energy']}",
        f"parity      {doc['parity']}",
        f"degeneracy  {doc['degeneracy']}",
        f"states      {_states_human(doc['states'])}",
        f"perrin      {f'seed ({seed[0]},{seed[1]})' if seed else 'no seed'}",
        f"reps        {counts['factorization']} factorization, "
        f"{counts['all_integer']} all-integer, {counts['strict']} strict",
    ]


def cmd_level(args: argparse.Namespace) -> int:
    if args.energy < 1:
        return _fail_usage("energy must be a positive integer")
    level = level_of(args.energy)
    if level is None:
        print(f"no such level: E={args.energy}", file=sys.stderr)
        return 1
    seed = match_perrin(level)
    reps = rep_search(level.energy, RepMode.FACTORIZATION)
    doc = {
        **_level_record(level),
        "perrin_seed": [seed.m1, seed.m2] if seed else None,
        "reps": [[r.v1, r.v2, frac_str(r.v3), frac_str(r.v4)] for r in reps],
        "rep_counts": {
            "factorization": len(reps),
            "all_integer": sum(classify_rep(r) is RepClass.ALL_INTEGER for r in reps),
            "strict": sum(map(is_strict, reps)),
        },
    }
    counts = doc["rep_counts"]
    row = {**doc, "reps": counts["factorization"],
           "all_integer_reps": counts["all_integer"], "strict_reps": counts["strict"]}
    header = ["energy", "parity", "degeneracy", "states", "perrin_seed", "reps",
              "all_integer_reps", "strict_reps"]
    _render(args, doc, header, [row], _level_table)
    return 0


# ------------------------------------------------------------------ verify

def _tally(part: dict, passed: str, what: str) -> str:
    bad = part["counterexamples"]
    return (f"{part[passed]}/{part['total']} {what}"
            + (f"; counterexamples: {bad}" if bad else ""))


def _verify_table(doc: dict, rows: "list[dict]") -> "list[str]":
    braham = doc["brahmagupta"]
    missing = braham["levels_without_all_integer_rep"]
    outside = braham["non_doublet_degenerate"]
    lines = [
        f"conjecture check for E <= {doc['e_max']} ({doc['mode']} mode)",
        "",
        "perrin:      "
        + _tally(doc["perrin"], "matched", "same-parity 3-fold levels matched"),
        "brahmagupta: "
        + _tally(braham, "covered", "opposite-parity 2-fold levels covered"),
        f"first doublet level without an all-integer rep: {missing[0]}" if missing
        else "all doublet levels in range have an all-integer rep",
    ]
    if outside["by_degeneracy"]:
        by_g = outside["by_degeneracy"].items()
        breakdown = ", ".join(f"{n} of g={g}" for g, n in by_g)
        lines.append(
            f"opposite-parity degenerate levels outside the doublet series: "
            f"{outside['total']} ({breakdown})"
        )
    result = "conjectures hold in range" if doc["ok"] else "counterexample found"
    return lines + ["", f"RESULT: {result}"]


def cmd_verify(args: argparse.Namespace) -> int:
    mode = RepMode(args.mode)
    spectrum = enumerate_spectrum(args.emax)
    report = build_census(spectrum)
    # build_census already ran the seed scan on every same-parity 3-fold level
    perrin_bad = list(report.perrin_exceptions)
    braham_bad = check_brahmagupta_conjecture(spectrum, mode)
    coverage = doublet_coverage(spectrum)
    # opposite-parity degenerate levels outside the 2-fold doublet series
    outside = {r.degeneracy: r.levels for r in report.rows_for(Parity.OPPOSITE)
               if r.degeneracy >= 3 and r.levels}
    doc = {
        "e_max": args.emax,
        "mode": mode.value,
        "perrin": {
            "total": report.perrin_total,
            "matched": report.perrin_matched,
            "counterexamples": perrin_bad,
        },
        "brahmagupta": {
            "total": report.brahmagupta_total,
            "covered": report.brahmagupta_total - len(braham_bad),
            "counterexamples": braham_bad,
            "levels_without_all_integer_rep": [
                c.energy for c in coverage if c.all_integer_count == 0
            ],
            "non_doublet_degenerate": {
                "total": sum(outside.values()),
                "by_degeneracy": {str(g): n for g, n in sorted(outside.items())},
            },
        },
        "ok": not perrin_bad and not braham_bad,
    }
    # counterexample energies are a list, not a pair, so they join with ";"
    rows = [
        {"conjecture": name, "total": part["total"], "passed": part[passed],
         "counterexamples": ";".join(map(str, part["counterexamples"]))}
        for name, part, passed in (
            ("perrin", doc["perrin"], "matched"),
            (f"brahmagupta-{mode.value}", doc["brahmagupta"], "covered"),
        )
    ]
    _render(args, doc, ["conjecture", "total", "passed", "counterexamples"], rows,
            _verify_table)
    return 0 if doc["ok"] else 1


# ------------------------------------------------------------------ braham

def _reps_table(doc: dict, reps: "list[dict]") -> "list[str]":
    return [f"{len(reps)} {doc['mode']} reps of {doc['energy']}"] + [
        f"  ({r['v1']}, {r['v2']}, {r['v3']}, {r['v4']})  [{r['class']}]" for r in reps
    ]


def cmd_braham_reps(args: argparse.Namespace) -> int:
    if args.energy < 4:
        return _fail_usage("energy must be at least 4")
    mode = RepMode(args.mode)
    reps = [
        {"v1": r.v1, "v2": r.v2, "v3": frac_str(r.v3), "v4": frac_str(r.v4),
         "class": classify_rep(r).value}
        for r in rep_search(args.energy, mode)
    ]
    doc = {"energy": args.energy, "mode": mode.value, "reps": reps}
    _render(args, doc, ["v1", "v2", "v3", "v4", "class"], reps, _reps_table)
    return 0


def _doublet_table(doc: dict, rows: "list[dict]") -> "list[str]":
    first, second = doc["first"], doc["second"]
    note = "state pair" if doc["state_pair"] else "not a state pair"
    if not doc["distinct"]:
        note += ", members coincide"
    return [
        f"E={doc['energy']}  ({first[0]},{first[1]}) ({second[0]},{second[1]})"
        f"  [{note}]"
    ]


def cmd_braham_doublet(args: argparse.Namespace) -> int:
    try:
        rep = BrahmaguptaRep(args.v1, args.v2, args.v3, args.v4, _rep_energy(args))
    except ValueError as exc:
        return _fail_usage(str(exc))
    doublet = doublet_from_rep(rep)
    doc = {
        "rep": [rep.v1, rep.v2, frac_str(rep.v3), frac_str(rep.v4)],
        "energy": rep.energy,
        "first": [frac_str(x) for x in doublet.first],
        "second": [frac_str(x) for x in doublet.second],
        "state_pair": doublet.is_state_pair,
        "distinct": doublet.is_distinct,
    }
    _render(args, doc, ["energy", "first", "second", "state_pair", "distinct"],
            [doc], _doublet_table)
    return 0


def _rep_energy(args: argparse.Namespace) -> int:
    v3, v4 = Fraction(args.v3), Fraction(args.v4)
    product = (3 * args.v1 * args.v1 + args.v2 * args.v2) * (3 * v3 * v3 + v4 * v4)
    if product.denominator != 1:
        raise ValueError(f"tuple does not factor an integer energy (got {product})")
    return int(product)


def cmd_braham_inverse(args: argparse.Namespace) -> int:
    try:
        nu = inverse_rep((args.n1, args.n2), (args.m1, args.m2), args.xi)
    except ValueError as exc:
        return _fail_usage(str(exc))
    doc = {
        "pair": [[args.n1, args.n2], [args.m1, args.m2]],
        "xi": frac_str(args.xi),
        "nu": [frac_str(v) for v in nu],
    }
    header = ["v1", "v2", "v3", "v4"]
    _render(args, doc, header, [dict(zip(header, doc["nu"]))],
            lambda doc, rows: [" ".join(doc["nu"])])
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="table", help="output format")
    emax = argparse.ArgumentParser(add_help=False)
    emax.add_argument("--emax", type=int, required=True)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=[m.value for m in RepMode],
                      default=RepMode.FACTORIZATION.value)

    parser = argparse.ArgumentParser(
        prog="triform",
        description="Enumerate and classify degeneracies of E = 3*n1^2 + n2^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[fmt], help="list energy levels")
    p.add_argument("--emax", type=int, required=True, help="largest energy to include")
    p.add_argument(
        "--only-degenerate", action="store_true", help="skip non-degenerate levels"
    )
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("census", parents=[fmt, emax], help="degeneracy-by-parity census")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("level", parents=[fmt], help="one level with seed and rep summary")
    p.add_argument("energy", type=int)
    p.set_defaults(func=cmd_level)

    p = sub.add_parser(
        "verify", parents=[fmt, emax, mode], help="run both conjecture checks"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("braham", help="representation tools")
    bsub = p.add_subparsers(dest="braham_command", required=True)

    b = bsub.add_parser(
        "reps", parents=[fmt, mode], help="all representations of an energy"
    )
    b.add_argument("energy", type=int)
    b.set_defaults(func=cmd_braham_reps)

    b = bsub.add_parser("doublet", parents=[fmt], help="doublet generated by a rep")
    b.add_argument("v1", type=int)
    b.add_argument("v2", type=int)
    b.add_argument("v3", type=parse_rational)
    b.add_argument("v4", type=parse_rational)
    b.set_defaults(func=cmd_braham_doublet)

    b = bsub.add_parser("inverse", parents=[fmt], help="rep from an equal-energy pair")
    b.add_argument("n1", type=int)
    b.add_argument("n2", type=int)
    b.add_argument("m1", type=int)
    b.add_argument("m2", type=int)
    b.add_argument("--xi", type=parse_rational, default=Fraction(1, 6))
    b.set_defaults(func=cmd_braham_inverse)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptySpectrumError as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
