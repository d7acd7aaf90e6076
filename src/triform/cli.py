"""Command-line front end.

Subcommands: spectrum, census, level, verify, braham (reps|doublet|inverse).
Every subcommand takes --format {table,json,csv}; results go to stdout,
diagnostics to stderr.

Each command but `spectrum` builds its result once, as a JSON-shaped
record that holds the library's values as they were produced (a state or
seed stays the tuple the library made, a list of them stays a list), and
hands it to `_render`.  The three formats are views of that record: JSON
dumps it, CSV projects a list of row records onto a header through one
cell rule (`_cell`: a tuple is a pair, a list joins its cells) and writes
each line as its cells joined by commas, the rule `spectrum`'s CSV shares
(no cell needs quoting: a number, a name, or digits joined by ':', ';' and
'/'), and the table is a list of lines read off the same records.  No view
goes back to the domain objects.

Two JSON views are templates instead, written piece by piece in bytes
equal to the `json.dump` of the whole document: with `indent` set, `json`
uses its pure-Python encoder, one call per list element.  Each is kept
because a workload of perfbench/ times it: `spectrum` (spectrum_dump) and
`level` (energy_queries).
`spectrum`, whose output grows with --emax, builds no record: the
spectrum's text walk (`Spectrum.text_levels`) yields each level with its
states already written as one string, from the fragments of the chosen
format (`_STATE_FRAGMENTS`), and the format writes the level around that
string, the JSON by template and the CSV and table as one line each, in
the bytes the record views print.
`level` builds its record, and only its JSON prints the reps, each with
v3 and v4 printed off its doubled coordinates (`_half_text`), one rep at a
time.  `braham reps`, which no workload times, prints all three formats
through the record views, its v3 and v4 from `_half_text` as well.

Exit codes: 0 success / conjectures hold; 1 domain-level negative result
(no such level, counterexample found); 2 usage or input error; 141 the
reader closed stdout early (128 + SIGPIPE, what a shell reports for
`seq ... | head`), with nothing on stderr.

Rationals are serialized as "p/q" ("3/2", plain "2" for integers) and parsed
back the same way, round-tripping exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .brahmagupta import (
    BrahmaguptaRep,
    RepMode,
    _all_integer_count,
    classify_rep,
    doublet_from_rep,
    identity_expand,
    inverse_rep,
    rep_search,
)
# check_perrin_conjecture and check_brahmagupta_conjecture are not called
# here, but perfbench/tracing.py wraps them as attributes of this module, so
# the imports stay.
from .census import (  # noqa: F401
    build_census,
    check_brahmagupta_conjecture,
    check_perrin_conjecture,
    doublet_coverage,
)
from .perrin import match_perrin
from .spectrum import (
    _FIRST_PAST_A_BYTE,
    EmptySpectrumError,
    Parity,
    enumerate_spectrum,
    level_of,
    parity_of_energy,
)

if TYPE_CHECKING:
    from fractions import Fraction

FORMATS = ("table", "json", "csv")


def parse_rational(text: str) -> Fraction:
    """`text` as a Fraction; `fractions` is imported only here, so only the
    commands that take a rational load it."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} (zero denominator)")


# The most digits a number given to `braham doublet` or `braham inverse` may
# spell.  Then every value they print has at most 6 * _MAX_DIGITS + 2 digits
# (the longest is the product of forms of a tuple that factors no integer),
# within the 4300 digits Python converts between int and str by default.  A
# lower limit lowers the bound; the cap stays, because it also keeps
# `Fraction` from writing out a huge power of ten.
_MAX_DIGITS = 700


class _OutOfBounds(Exception):
    """An argument past its bound: a number that spells too many digits, or
    an --emax of `_FIRST_PAST_A_BYTE` or more.  Not a ValueError, so
    argparse lets it through to `main`, which reports it on one line."""


def _bounded(parse: "Callable[[str], object]") -> "Callable[[str], object]":
    """`parse`, after refusing a text that may spell more digits than the
    bound: one longer than that, or one whose length plus the size of its
    decimal exponent is, because `Fraction` writes out the power of ten.
    The bound is `_MAX_DIGITS`, or (limit - 2) // 6 when the interpreter's
    int/str limit is lower; a limit of 0, or none (before Python 3.10.7),
    leaves `_MAX_DIGITS`."""
    def bounded(text: str):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        bound = min(_MAX_DIGITS, (limit - 2) // 6) if limit else _MAX_DIGITS
        size = len(text)
        _, e, exponent = text.lower().partition("e")
        if e and size <= bound:
            try:
                size += abs(int(exponent))
            except ValueError:
                pass  # not a number, which `parse` reports
        if size > bound:
            shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}..."
            raise _OutOfBounds(f"{shown} spells more than {bound} digits")
        return parse(text)

    bounded.__name__ = parse.__name__  # argparse names a malformed value by it
    return bounded


def _emax(text: str) -> int:
    """--emax as an int, refused from `_FIRST_PAST_A_BYTE` on: the count
    windows hold a state count in one byte, so a spectrum, census or verify
    that reaches it would count for hours, then fail."""
    e_max = int(text)
    if e_max >= _FIRST_PAST_A_BYTE:
        raise _OutOfBounds(f"--emax must be below {_FIRST_PAST_A_BYTE}, the least energy "
                           f"of more than 255 states")
    return e_max


_emax.__name__ = "int"  # argparse names a malformed value by it


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cell(value) -> str:
    """CSV cell of a record field: a tuple is a pair printed as a:b, a list
    joins the cells of its items with ";", None is empty, and any other
    value prints as str(value)."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ":".join(map(str, value))
    if isinstance(value, list):
        return ";".join(map(_cell, value))
    return str(value)


def _render(args: argparse.Namespace, doc: dict, header: "list[str]", rows: "Iterable[dict]",
            table: "Callable[[dict, Iterable[dict]], Iterable[str]]") -> None:
    """Write one command's result to stdout in the chosen --format: `doc` as
    JSON, `rows` projected onto `header` as CSV lines of comma-joined cells,
    or the lines `table(doc, rows)` returns."""
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        lines = [header] + [[_cell(row[key]) for key in header] for row in rows]
        sys.stdout.writelines(",".join(cells) + "\n" for cells in lines)
    else:
        sys.stdout.writelines(line + "\n" for line in table(doc, rows))


def _states_human(states) -> str:
    return " ".join(f"({a},{b})" for a, b in states)


# ---------------------------------------------------------------- spectrum

# Parity name by E mod 4, read once off `parity_of_energy`: a spectrum names
# one per level, and calling it per level made `spectrum` about a fifth slower.
_PARITY_NAME = {r: parity_of_energy(r).value for r in (0, 1, 3)}


# Per --format, the fragments (first, second, sep) that `Spectrum.text_levels`
# writes a level's states with, first.format(n1) + second.format(n2) per
# state joined by sep: they give the bytes `json.dump(indent=2)` prints for
# the states of a level, its CSV cell (`_cell`) and its table column
# (`_states_human`).
_STATE_FRAGMENTS = {
    "json": ("        [\n          {},\n          ", "{}\n        ]", ",\n"),
    "csv": ("{}:", "{}", ";"),
    "table": ("({},", "{})", " "),
}


def _write_spectrum_json(e_max: int, levels: "Iterable[tuple[int, int, str]]") -> None:
    """Write the spectrum document level by level: the bytes equal
    `json.dump({"e_max": e_max, "levels": [...]}, indent=2)` plus a newline,
    but no level outlives its own write."""
    write = sys.stdout.write
    write(f'{{\n  "e_max": {e_max},\n  "levels": [')
    sep = "\n"
    for energy, degeneracy, text in levels:
        write(f'{sep}    {{\n      "energy": {energy},\n'
              f'      "parity": "{_PARITY_NAME[energy % 4]}",\n'
              f'      "degeneracy": {degeneracy},\n'
              f'      "states": [\n{text}\n      ]\n    }}')
        sep = ",\n"
    write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def cmd_spectrum(args: argparse.Namespace) -> int:
    levels = enumerate_spectrum(args.emax).text_levels(*_STATE_FRAGMENTS[args.format])
    if args.only_degenerate:
        levels = (level for level in levels if level[1] >= 2)
    out = sys.stdout
    if args.format == "json":
        _write_spectrum_json(args.emax, levels)
    elif args.format == "csv":
        # no cell needs quoting: a number, a parity name, or digits, ':' and ';'
        out.write("energy,parity,degeneracy,states\n")
        out.writelines(f"{energy},{_PARITY_NAME[energy % 4]},{degeneracy},{text}\n"
                       for energy, degeneracy, text in levels)
    else:
        out.write(f"{'energy':>8}  {'parity':<8}  {'g':>3}  states\n")
        out.writelines(f"{energy:>8}  {_PARITY_NAME[energy % 4]:<8}  {degeneracy:>3}  {text}\n"
                       for energy, degeneracy, text in levels)
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
        # all covered: a state (n1, n2) is the rep (1, 1, n1/2, n2/2) (witness lemma)
        "brahmagupta_covered": report.brahmagupta_total,
        "brahmagupta_total": report.brahmagupta_total,
        "brahmagupta_exceptions": [],
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


def _half_text(n: int) -> str:
    """n/2 as `str(Fraction(n, 2))` prints it: "k" for n = 2k, else "n/2"."""
    return f"{n}/2" if n % 2 else str(n >> 1)


def _write_level_json(doc: dict) -> None:
    """Write the level document: the bytes equal `json.dump(doc, indent=2)`
    plus a newline, with each rep written as its own piece."""
    write = sys.stdout.write
    seed, counts = doc["perrin_seed"], doc["rep_counts"]
    seed_text = f"[\n    {seed[0]},\n    {seed[1]}\n  ]" if seed else "null"
    pairs = ",\n".join([f"    [\n      {a},\n      {b}\n    ]" for a, b in doc["states"]])
    write(f'{{\n  "energy": {doc["energy"]},\n  "parity": "{doc["parity"]}",\n'
          f'  "degeneracy": {doc["degeneracy"]},\n  "states": [\n{pairs}\n  ],\n'
          f'  "perrin_seed": {seed_text},\n  "reps": [')
    sep = "\n"
    for v1, v2, v3, v4 in doc["reps"]:
        write(f'{sep}    [\n      {v1},\n      {v2},\n      "{v3}",\n      "{v4}"\n    ]')
        sep = ",\n"
    write("]" if sep == "\n" else "\n  ]")
    write(f',\n  "rep_counts": {{\n'
          f'    "factorization": {counts["factorization"]},\n'
          f'    "all_integer": {counts["all_integer"]},\n'
          f'    "strict": {counts["strict"]}\n  }}\n}}\n')


def cmd_level(args: argparse.Namespace) -> int:
    if args.energy < 1:
        return _fail_usage("energy must be a positive integer")
    level = level_of(args.energy)
    if level is None:
        print(f"no such level: E={args.energy}", file=sys.stderr)
        return 1
    seed = match_perrin(level)
    reps = rep_search(level.energy, RepMode.FACTORIZATION)
    all_integer = _all_integer_count(reps)
    strict = len(rep_search(level.energy, RepMode.STRICT))  # filters the reps just kept
    doc = {
        "energy": level.energy,
        "parity": _PARITY_NAME[level.energy % 4],
        "degeneracy": level.degeneracy,
        # a list of states: `_cell` would print a tuple of them as one pair
        "states": list(level.states),
        "perrin_seed": (seed.m1, seed.m2) if seed else None,
        "rep_counts": {"factorization": len(reps), "all_integer": all_integer,
                       "strict": strict},
    }
    if args.format == "json":
        # only the JSON prints the reps; the table and CSV print their counts
        doc["reps"] = [(r.v1, r.v2, _half_text(r.a), _half_text(r.b)) for r in reps]
        _write_level_json(doc)
        return 0
    row = {**doc, "reps": len(reps), "all_integer_reps": all_integer, "strict_reps": strict}
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
        "perrin:      " + _tally(doc["perrin"], "matched", "same-parity 3-fold levels matched"),
        "brahmagupta: " + _tally(braham, "covered", "opposite-parity 2-fold levels covered"),
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
    if doc["ok"]:
        result = "conjectures hold in range"
    elif doc["perrin"]["counterexamples"] or braham["counterexamples"]:
        result = "counterexample found"
    else:
        result = "the level walk missed a doublet level"
    return lines + ["", f"RESULT: {result}"]


def cmd_verify(args: argparse.Namespace) -> int:
    mode = RepMode(args.mode)
    spectrum = enumerate_spectrum(args.emax)
    report = build_census(spectrum)
    # build_census already ran the seed scan on every same-parity 3-fold level
    perrin_bad = list(report.perrin_exceptions)
    coverage = doublet_coverage(spectrum, mode)
    braham_bad = [c.energy for c in coverage if not c.covered]
    # the census counts the doublet levels off its count windows, a route
    # apart from the level walk, so a walk that skipped a level shows here
    walked = len(coverage) == report.brahmagupta_total
    if not walked:
        print(f"error: the level walk found {len(coverage)} doublet levels, "
              f"the census counts {report.brahmagupta_total}", file=sys.stderr)
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
        "ok": walked and not perrin_bad and not braham_bad,
    }
    rows = [
        {"conjecture": name, "total": part["total"], "passed": part[passed],
         "counterexamples": part["counterexamples"]}
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
        {"v1": r.v1, "v2": r.v2, "v3": _half_text(r.a), "v4": _half_text(r.b),
         "class": classify_rep(r).value}
        for r in rep_search(args.energy, mode)
    ]
    doc = {"energy": args.energy, "mode": mode.value, "reps": reps}
    _render(args, doc, ["v1", "v2", "v3", "v4", "class"], reps, _reps_table)
    return 0


def _doublet_table(doc: dict, rows: "list[dict]") -> "list[str]":
    first, second = doc["first"], doc["second"]
    # A valid rep has positive entries, so the two members always differ.
    note = "state pair" if doc["state_pair"] else "not a state pair"
    return [
        f"E={doc['energy']}  ({first[0]},{first[1]}) ({second[0]},{second[1]})"
        f"  [{note}]"
    ]


def cmd_braham_doublet(args: argparse.Namespace) -> int:
    product = identity_expand(3, args.v1, args.v2, args.v3, args.v4).product
    if product.denominator != 1:
        return _fail_usage(f"tuple does not factor an integer energy (got {product})")
    try:
        rep = BrahmaguptaRep(args.v1, args.v2, args.v3, args.v4, product.numerator)
    except ValueError as exc:
        return _fail_usage(str(exc))
    doublet = doublet_from_rep(rep)
    doc = {
        "rep": [rep.v1, rep.v2, _half_text(rep.a), _half_text(rep.b)],
        "energy": rep.energy,
        "first": tuple(map(str, doublet.first)),
        "second": tuple(map(str, doublet.second)),
        "state_pair": doublet.is_state_pair,
        "distinct": doublet.is_distinct,
    }
    _render(args, doc, ["energy", "first", "second", "state_pair", "distinct"],
            [doc], _doublet_table)
    return 0


def cmd_braham_inverse(args: argparse.Namespace) -> int:
    try:
        nu = inverse_rep((args.n1, args.n2), (args.m1, args.m2), args.xi)
    except ValueError as exc:
        return _fail_usage(str(exc))
    doc = {
        "pair": [[args.n1, args.n2], [args.m1, args.m2]],
        "xi": str(args.xi),
        "nu": [str(v) for v in nu],
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
    emax.add_argument("--emax", type=_emax, required=True, help="largest energy to include")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=[m.value for m in RepMode],
                      default=RepMode.FACTORIZATION.value)

    parser = argparse.ArgumentParser(
        prog="triform",
        description="Enumerate and classify degeneracies of E = 3*n1^2 + n2^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[fmt, emax], help="list energy levels")
    p.add_argument("--only-degenerate", action="store_true", help="skip non-degenerate levels")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("census", parents=[fmt, emax], help="degeneracy-by-parity census")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("level", parents=[fmt], help="one level with seed and rep summary")
    p.add_argument("energy", type=int)
    p.set_defaults(func=cmd_level)

    p = sub.add_parser("verify", parents=[fmt, emax, mode], help="run both conjecture checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("braham", help="representation tools")
    bsub = p.add_subparsers(dest="braham_command", required=True)

    b = bsub.add_parser("reps", parents=[fmt, mode], help="all representations of an energy")
    b.add_argument("energy", type=int)
    b.set_defaults(func=cmd_braham_reps)

    whole, rational = _bounded(int), _bounded(parse_rational)
    b = bsub.add_parser("doublet", parents=[fmt], help="doublet generated by a rep")
    b.add_argument("v1", type=whole)
    b.add_argument("v2", type=whole)
    b.add_argument("v3", type=rational)
    b.add_argument("v4", type=rational)
    b.set_defaults(func=cmd_braham_doublet)

    b = bsub.add_parser("inverse", parents=[fmt], help="rep from an equal-energy pair")
    b.add_argument("n1", type=whole)
    b.add_argument("n2", type=whole)
    b.add_argument("m1", type=whole)
    b.add_argument("m2", type=whole)
    # argparse parses a string default with `type`, and only for this command
    b.add_argument("--xi", type=rational, default="1/6")
    b.set_defaults(func=cmd_braham_inverse)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call reuses: building the tree costs far more
    than parsing one command line, and parsing leaves the tree unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (EmptySpectrumError, _OutOfBounds) as exc:
        return _fail_usage(str(exc))
    except BrokenPipeError:
        # The reader closed stdout: what is still buffered goes to devnull,
        # so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
