"""Command-line front end.

Subcommands: spectrum, census, level, verify, braham (reps|doublet|inverse).
Every subcommand takes --format {table,json,csv}; results go to stdout,
diagnostics to stderr.

Exit codes: 0 success / conjectures hold; 1 domain-level negative result
(no such level, counterexample found); 2 usage or input error.

Rationals are serialized as "p/q" ("3/2", plain "2" for integers) and parsed
back the same way, round-tripping exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

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
from .census import (
    CensusReport,
    build_census,
    check_brahmagupta_conjecture,
    check_perrin_conjecture,
    doublet_coverage,
)
from .perrin import match_perrin
from .spectrum import Parity, enumerate_spectrum, level_of

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


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _csv_rows(header: "list[str]", rows: "list[list]") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _states_cell(states) -> str:
    return ";".join(f"{a}:{b}" for a, b in states)


def _states_human(states) -> str:
    return " ".join(f"({a},{b})" for a, b in states)


# ---------------------------------------------------------------- spectrum

def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.emax < 4:
        return _fail_usage("no states below E=4")
    spectrum = enumerate_spectrum(args.emax)
    records = []
    for level in spectrum.iter_levels():
        if args.only_degenerate and level.degeneracy < 2:
            continue
        records.append(level)
    if args.format == "json":
        doc = {
            "e_max": args.emax,
            "levels": [
                {
                    "energy": lv.energy,
                    "parity": lv.parity.value,
                    "degeneracy": lv.degeneracy,
                    "states": [[a, b] for a, b in lv.states],
                }
                for lv in records
            ],
        }
        _emit(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit(
            _csv_rows(
                ["energy", "parity", "degeneracy", "states"],
                [
                    [lv.energy, lv.parity.value, lv.degeneracy, _states_cell(lv.states)]
                    for lv in records
                ],
            )
        )
    else:
        lines = [f"{'energy':>8}  {'parity':<8}  {'g':>3}  states"]
        for lv in records:
            lines.append(
                f"{lv.energy:>8}  {lv.parity.value:<8}  {lv.degeneracy:>3}  "
                f"{_states_human(lv.states)}"
            )
        _emit("\n".join(lines))
    return 0


# ------------------------------------------------------------------ census

def _census_table(report: CensusReport) -> str:
    lines = [f"degeneracy census for E <= {report.e_max}", ""]
    lines.append(f"{'parity':<10}{'degeneracy':>12}{'levels':>9}{'states':>9}")
    for parity, label in ((Parity.SAME, "same"), (Parity.OPPOSITE, "opposite")):
        for row in report.rows_for(parity):
            lines.append(
                f"{label:<10}{row.degeneracy:>12}{row.levels:>9}{row.states:>9}"
            )
        sub = report.subtotal(parity)
        lines.append(f"{label:<10}{'subtotal':>12}{sub[0]:>9}{sub[1]:>9}")
    total = report.total
    lines.append(f"{'total':<10}{'':>12}{total[0]:>9}{total[1]:>9}")
    lines.append("")
    lines.append(
        f"perrin-matched same-parity 3-fold levels: "
        f"{report.perrin_matched}/{report.perrin_total}"
    )
    lines.append(
        f"covered opposite-parity 2-fold levels: "
        f"{report.brahmagupta_covered}/{report.brahmagupta_total}"
    )
    return "\n".join(lines)


def _census_json(report: CensusReport) -> str:
    doc = {
        "e_max": report.e_max,
        "rows": [
            {
                "parity": r.parity.value,
                "degeneracy": r.degeneracy,
                "levels": r.levels,
                "states": r.states,
            }
            for r in report.rows
        ],
        "subtotals": {
            "same": list(report.subtotal(Parity.SAME)),
            "opposite": list(report.subtotal(Parity.OPPOSITE)),
        },
        "total": list(report.total),
        "perrin_matched": report.perrin_matched,
        "perrin_total": report.perrin_total,
        "perrin_exceptions": list(report.perrin_exceptions),
        "brahmagupta_covered": report.brahmagupta_covered,
        "brahmagupta_total": report.brahmagupta_total,
        "brahmagupta_exceptions": list(report.brahmagupta_exceptions),
    }
    return json.dumps(doc, indent=2)


def _census_csv(report: CensusReport) -> str:
    rows = []
    for parity, label in ((Parity.SAME, "same"), (Parity.OPPOSITE, "opposite")):
        for r in report.rows_for(parity):
            rows.append([label, r.degeneracy, r.levels, r.states])
        sub = report.subtotal(parity)
        rows.append([label, "subtotal", sub[0], sub[1]])
    total = report.total
    rows.append(["total", "", total[0], total[1]])
    return _csv_rows(["parity", "degeneracy", "levels", "states"], rows)


def cmd_census(args: argparse.Namespace) -> int:
    if args.emax < 4:
        return _fail_usage("no states below E=4")
    report = build_census(enumerate_spectrum(args.emax))
    if args.format == "json":
        _emit(_census_json(report))
    elif args.format == "csv":
        _emit(_census_csv(report))
    else:
        _emit(_census_table(report))
    return 0


# ------------------------------------------------------------------- level

def _rep_digest(energy: int) -> "tuple[list[BrahmaguptaRep], int, int]":
    reps = rep_search(energy, RepMode.FACTORIZATION)
    all_integer = sum(1 for r in reps if classify_rep(r) is RepClass.ALL_INTEGER)
    strict = sum(1 for r in reps if is_strict(r))
    return reps, all_integer, strict


def cmd_level(args: argparse.Namespace) -> int:
    if args.energy < 1:
        return _fail_usage("energy must be a positive integer")
    level = level_of(args.energy)
    if level is None:
        print(f"no such level: E={args.energy}", file=sys.stderr)
        return 1
    seed = match_perrin(level)
    reps, all_integer, strict = _rep_digest(level.energy)
    if args.format == "json":
        doc = {
            "energy": level.energy,
            "parity": level.parity.value,
            "degeneracy": level.degeneracy,
            "states": [[a, b] for a, b in level.states],
            "perrin_seed": [seed.m1, seed.m2] if seed else None,
            "reps": [
                [r.v1, r.v2, frac_str(r.v3), frac_str(r.v4)] for r in reps
            ],
            "rep_counts": {
                "factorization": len(reps),
                "all_integer": all_integer,
                "strict": strict,
            },
        }
        _emit(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit(
            _csv_rows(
                ["energy", "parity", "degeneracy", "states", "perrin_seed", "reps",
                 "all_integer_reps", "strict_reps"],
                [[
                    level.energy,
                    level.parity.value,
                    level.degeneracy,
                    _states_cell(level.states),
                    f"{seed.m1}:{seed.m2}" if seed else "",
                    len(reps),
                    all_integer,
                    strict,
                ]],
            )
        )
    else:
        lines = [
            f"energy      {level.energy}",
            f"parity      {level.parity.value}",
            f"degeneracy  {level.degeneracy}",
            f"states      {_states_human(level.states)}",
            f"perrin      {f'seed ({seed.m1},{seed.m2})' if seed else 'no seed'}",
            f"reps        {len(reps)} factorization, {all_integer} all-integer, "
            f"{strict} strict",
        ]
        _emit("\n".join(lines))
    return 0


# ------------------------------------------------------------------ verify

def cmd_verify(args: argparse.Namespace) -> int:
    if args.emax < 4:
        return _fail_usage("no states below E=4")
    mode = RepMode(args.mode)
    spectrum = enumerate_spectrum(args.emax)
    report = build_census(spectrum)
    perrin_bad = check_perrin_conjecture(spectrum)
    braham_bad = check_brahmagupta_conjecture(spectrum, mode)
    coverage = doublet_coverage(spectrum)
    no_all_integer = [c.energy for c in coverage if c.all_integer_count == 0]
    # opposite-parity degenerate levels outside the 2-fold doublet series
    outside = {
        r.degeneracy: r.levels
        for r in report.rows_for(Parity.OPPOSITE)
        if r.degeneracy >= 3 and r.levels
    }
    ok = not perrin_bad and not braham_bad
    if args.format == "json":
        doc = {
            "e_max": args.emax,
            "mode": mode.value,
            "perrin": {
                "total": report.perrin_total,
                "matched": report.perrin_total - len(perrin_bad),
                "counterexamples": perrin_bad,
            },
            "brahmagupta": {
                "total": report.brahmagupta_total,
                "covered": report.brahmagupta_total - len(braham_bad),
                "counterexamples": braham_bad,
                "levels_without_all_integer_rep": no_all_integer,
                "non_doublet_degenerate": {
                    "total": sum(outside.values()),
                    "by_degeneracy": {str(g): n for g, n in sorted(outside.items())},
                },
            },
            "ok": ok,
        }
        _emit(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit(
            _csv_rows(
                ["conjecture", "total", "passed", "counterexamples"],
                [
                    [
                        "perrin",
                        report.perrin_total,
                        report.perrin_total - len(perrin_bad),
                        ";".join(map(str, perrin_bad)),
                    ],
                    [
                        f"brahmagupta-{mode.value}",
                        report.brahmagupta_total,
                        report.brahmagupta_total - len(braham_bad),
                        ";".join(map(str, braham_bad)),
                    ],
                ],
            )
        )
    else:
        lines = [
            f"conjecture check for E <= {args.emax} ({mode.value} mode)",
            "",
            f"perrin:      {report.perrin_total - len(perrin_bad)}/"
            f"{report.perrin_total} same-parity 3-fold levels matched"
            + (f"; counterexamples: {perrin_bad}" if perrin_bad else ""),
            f"brahmagupta: {report.brahmagupta_total - len(braham_bad)}/"
            f"{report.brahmagupta_total} opposite-parity 2-fold levels covered"
            + (f"; counterexamples: {braham_bad}" if braham_bad else ""),
        ]
        if no_all_integer:
            lines.append(
                f"first doublet level without an all-integer rep: {no_all_integer[0]}"
            )
        else:
            lines.append("all doublet levels in range have an all-integer rep")
        if outside:
            breakdown = ", ".join(f"{n} of g={g}" for g, n in sorted(outside.items()))
            lines.append(
                f"opposite-parity degenerate levels outside the doublet series: "
                f"{sum(outside.values())} ({breakdown})"
            )
        lines.append("")
        lines.append(
            "RESULT: conjectures hold in range" if ok else "RESULT: counterexample found"
        )
        _emit("\n".join(lines))
    return 0 if ok else 1


# ------------------------------------------------------------------ braham

def cmd_braham_reps(args: argparse.Namespace) -> int:
    if args.energy < 4:
        return _fail_usage("energy must be at least 4")
    mode = RepMode(args.mode)
    reps = rep_search(args.energy, mode)
    if args.format == "json":
        doc = {
            "energy": args.energy,
            "mode": mode.value,
            "reps": [
                {
                    "v1": r.v1,
                    "v2": r.v2,
                    "v3": frac_str(r.v3),
                    "v4": frac_str(r.v4),
                    "class": classify_rep(r).value,
                }
                for r in reps
            ],
        }
        _emit(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit(
            _csv_rows(
                ["v1", "v2", "v3", "v4", "class"],
                [
                    [r.v1, r.v2, frac_str(r.v3), frac_str(r.v4), classify_rep(r).value]
                    for r in reps
                ],
            )
        )
    else:
        lines = [f"{len(reps)} {mode.value} reps of {args.energy}"]
        for r in reps:
            lines.append(
                f"  ({r.v1}, {r.v2}, {frac_str(r.v3)}, {frac_str(r.v4)})"
                f"  [{classify_rep(r).value}]"
            )
        _emit("\n".join(lines))
    return 0


def cmd_braham_doublet(args: argparse.Namespace) -> int:
    try:
        rep = BrahmaguptaRep(
            v1=args.v1,
            v2=args.v2,
            v3=args.v3,
            v4=args.v4,
            energy=_rep_energy(args),
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    doublet = doublet_from_rep(rep)
    pair = doublet.as_states()
    if args.format == "json":
        doc = {
            "rep": [rep.v1, rep.v2, frac_str(rep.v3), frac_str(rep.v4)],
            "energy": rep.energy,
            "first": [frac_str(x) for x in doublet.first],
            "second": [frac_str(x) for x in doublet.second],
            "state_pair": doublet.is_state_pair,
            "distinct": doublet.is_distinct,
        }
        _emit(json.dumps(doc, indent=2))
    elif args.format == "csv":
        _emit(
            _csv_rows(
                ["energy", "first", "second", "state_pair", "distinct"],
                [[
                    rep.energy,
                    ":".join(frac_str(x) for x in doublet.first),
                    ":".join(frac_str(x) for x in doublet.second),
                    doublet.is_state_pair,
                    doublet.is_distinct,
                ]],
            )
        )
    else:
        first = f"({frac_str(doublet.first[0])},{frac_str(doublet.first[1])})"
        second = f"({frac_str(doublet.second[0])},{frac_str(doublet.second[1])})"
        note = "state pair" if pair else "not a state pair"
        if not doublet.is_distinct:
            note += ", members coincide"
        _emit(f"E={rep.energy}  {first} {second}  [{note}]")
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
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "pair": [[args.n1, args.n2], [args.m1, args.m2]],
                    "xi": frac_str(args.xi),
                    "nu": [frac_str(v) for v in nu],
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        _emit(
            _csv_rows(
                ["v1", "v2", "v3", "v4"],
                [[frac_str(v) for v in nu]],
            )
        )
    else:
        _emit(" ".join(frac_str(v) for v in nu))
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=FORMATS, default="table", help="output format"
    )
    emax = argparse.ArgumentParser(add_help=False)
    emax.add_argument("--emax", type=int, required=True)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode",
        choices=[m.value for m in RepMode],
        default=RepMode.FACTORIZATION.value,
    )

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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
