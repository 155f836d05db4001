"""Command-line front end.

Subcommands::

    pvalent apply F.json [--prime] [--out doc.json]
    pvalent check F.json G.json --criterion suff-n --delta 2 [--alpha pi*0.25 ...]
    pvalent construct G.json --delta 2 -K 50 [--out partner.json]
    pvalent suite --suite thm_2_1_implication --trials 500 --seed 1

Function files are UTF-8 JSON documents with keys ``p``, ``n``, optional
``m``/``lambda``/``Omega`` (defaulting to 0) and ``coefficients``, an ordered
list of ``[re, im]`` pairs for the perturbation indices k = n..K.  Angles
are radians and accept an optional ``pi*`` prefix (``pi*0.5``); negative
pi-forms need the ``--alpha=-pi*0.5`` spelling so the shell parser does not
mistake them for flags.

Loading decodes the file's bytes with orjson and validates the coefficient
list in bulk: one pass over the entry types, one ``complex`` conversion and
one finite check of the coefficients' sum, since any inf or nan makes the
sum non-finite.  Only a list that fails this (or whose finite entries sum
past the float range) is scanned entry by entry, to name the first bad
index.  A file that orjson rejects, that may nest too deep for it, that has
other keys or that fails a check is loaded again by the ``json`` route,
which gives every error its message; a file that loads has the same bits by
either route.  The output of ``apply``, ``construct`` and ``suite`` is built
as one string per stream and written once; ``construct`` formats the
partner without the pure-Python ``json`` indent encoder, byte for byte as
``json.dumps(doc, indent=2)`` would.

Exit codes: 0 the checked statement holds (or the command succeeded),
1 it fails, 2 usage or parse error (including an unreadable function file
and an ``--out`` path that cannot be written, reported as ``error: <path>:
<reason>``), 3 domain violation (including ``check`` files that differ in
p or n, operator weights too large for a float and ``construct -K`` above
``criteria.MAX_TRUNC``), 4 internal error: any other exception, reported
as one ``error:`` line without a traceback.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from itertools import chain, starmap
from pathlib import Path

import numpy as np
import orjson

from . import criteria, harness
from .circlemax import DEFAULT_GRID
from .errors import DomainError, HypothesisViolationError, PValentError
from .series import (
    MultivalentFunction,
    NeighborhoodParams,
    OperatorParams,
    TruncatedSeries,
    blend_derivative_normalized,
    salagean_blend,
)

SCHEMA_VERSION = 1

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

CRITERIA = ("suff-n", "suff-m", "member-n", "member-m", "nec-n", "nec-m", "thm211")

# the FALSIFICATION EVENT line of each criterion kind (the token before any "-")
_EVENTS = {
    "thm211": "hypothesis held but conclusion failed",
    "nec": "verified hypotheses, failed conclusion",
    "member": "sum criterion holds but membership failed",
}


class FunctionFileError(PValentError):
    """A function file failed to parse or validate."""


class UsageError(PValentError):
    """A flag the parser cannot check: nec-* without --phi, an unwritable --out."""


def parse_angle(text: str) -> float:
    """Radians, with an optional pi* prefix: '0.5', 'pi*0.5', '-pi*1'.  One
    leading sign at most, as for `float`: '--1' and '+-1' are rejected."""
    t = text.strip()
    sign = 1.0
    if t.startswith(("+", "-")):
        if t[0] == "-":
            sign = -1.0
        t = t[1:]
        if t.startswith(("+", "-")):
            raise ValueError(f"two leading signs in {text!r}")
    if t.startswith("pi*"):
        return sign * math.pi * float(t[3:])
    return sign * float(t)


# json and orjson decode numbers to exactly these types; bool is not among them
_NUMBER_TYPES = frozenset((int, float))


def _is_finite_number(value) -> bool:
    """An int or float, not a bool, that is finite as a float."""
    if type(value) not in _NUMBER_TYPES:
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _bulk_coefficients(raw: list) -> tuple[complex, ...] | None:
    """The coefficients of a list of finite [re, im] pairs, else None.

    None also when every entry is finite but their sum overflows; the
    caller then scans the entries one by one.
    """
    if not raw:
        return ()
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {2}:
        return None
    if not _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(raw))):
        return None
    try:
        coeffs = tuple(starmap(complex, raw))
    except OverflowError:
        return None
    return coeffs if cmath.isfinite(sum(coeffs)) else None


def _scanned_coefficients(raw: list, path: Path) -> tuple[complex, ...]:
    """Entry-by-entry check that names the first bad index."""
    coeffs = []
    for i, entry in enumerate(raw):
        if not (
            isinstance(entry, list) and len(entry) == 2 and all(map(_is_finite_number, entry))
        ):
            raise FunctionFileError(
                f"{path}: coefficients[{i}]: expected a [re, im] pair of finite numbers"
            )
        coeffs.append(complex(entry[0], entry[1]))
    return tuple(coeffs)


#: The keys of a function file; a document of these that passes the checks
#: nests three deep at most.
_FILE_KEYS = frozenset(("p", "n", "m", "lambda", "Omega", "coefficients"))

#: orjson 3.8 builds nested values recursively, with no depth limit, at up to
#: about 180 bytes of C stack a level (an 8 MB stack overflows between 30k and
#: 60k nested objects), so it decodes only documents with at most this many
#: brackets and braces: under 3 MB of stack at any nesting.
_ORJSON_MAX_OPENERS = 2**14


def load_function_file(path: Path) -> tuple[MultivalentFunction, OperatorParams]:
    """The function and operator of a function file, or a FunctionFileError.

    The bytes are decoded by orjson.  A document it rejects, one with more
    than `_ORJSON_MAX_OPENERS` brackets and braces, one with a key outside
    `_FILE_KEYS` (json may fail on its value, say for its nesting depth) and
    one that fails a check are loaded again by the json route, which gives
    every error its message.  A document that passes the checks on orjson's
    values gives the same function and operator from json's: both read every
    decimal to the same float, and the integers they read differently (past
    64 bits, which orjson reads as floats) fail the integer checks or
    convert to the same float.
    """
    try:
        data = path.read_bytes()
        # '[' (0x5b) and '{' (0x7b) are the bytes that read 0x7b with bit 5 set
        openers = np.count_nonzero((np.frombuffer(data, np.uint8) | 0x20) == 0x7B)
        if openers <= _ORJSON_MAX_OPENERS:
            doc = orjson.loads(data)
            if type(doc) is dict and doc.keys() <= _FILE_KEYS:
                return _function_from_document(doc, path)
    except (OSError, orjson.JSONDecodeError, FunctionFileError):
        pass
    return _function_from_document(_json_document(path), path)


def _json_document(path: Path):
    """The file decoded by `json`, with its error messages."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FunctionFileError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFileError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep a nesting
        raise FunctionFileError(f"{path}: {exc}") from exc


def _function_from_document(doc, path: Path) -> tuple[MultivalentFunction, OperatorParams]:
    """Check a decoded document and build its function and operator."""
    if not isinstance(doc, dict):
        raise FunctionFileError(f"{path}: top-level value must be an object")

    def integer(key, default=None, minimum=0):
        value = doc.get(key, default)
        if value is None:
            raise FunctionFileError(f"{path}: missing required key {key!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise FunctionFileError(f"{path}: key {key!r} must be an integer")
        if value < minimum:
            raise FunctionFileError(f"{path}: key {key!r} must be >= {minimum}")
        return value

    p = integer("p", minimum=1)
    n = integer("n", minimum=1)
    m = integer("m", default=0)
    omega = integer("Omega", default=0)
    lam = doc.get("lambda", 0.0)
    if not _is_finite_number(lam):
        raise FunctionFileError(f"{path}: key 'lambda' must be a finite number")
    raw = doc.get("coefficients", [])
    if not isinstance(raw, list):
        raise FunctionFileError(f"{path}: key 'coefficients' must be a list")
    coeffs = _bulk_coefficients(raw)
    try:
        if coeffs is None:  # a bad entry, or finite entries whose sum overflows
            f = MultivalentFunction(p, n, _scanned_coefficients(raw, path))
        else:  # p and n are ints >= 1, and the bulk check is the constructor's
            f = MultivalentFunction._trusted(p, n, coeffs)
        return f, OperatorParams(lam=float(lam), m=m, omega=omega)
    except DomainError as exc:
        raise FunctionFileError(f"{path}: {exc}") from exc


def function_file_document(f: MultivalentFunction, op: OperatorParams) -> dict:
    return {
        "p": f.p,
        "n": f.n,
        "m": op.m,
        "lambda": op.lam,
        "Omega": op.omega,
        "coefficients": [[c.real, c.imag] for c in f.coeffs],
    }


def function_file_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` for a document of finite coefficients.

    With `indent` set, `json` runs its pure-Python encoder; here only the
    scalar keys go through it, and the coefficient block is one join of
    float reprs, which is what `json` writes for finite floats.
    """
    head = json.dumps({**doc, "coefficients": []}, indent=2)
    if not doc["coefficients"]:
        return head
    body = ",\n".join(
        [f"    [\n      {re!r},\n      {im!r}\n    ]" for re, im in doc["coefficients"]]
    )
    return head.replace('"coefficients": []', f'"coefficients": [\n{body}\n  ]')


def _write_text(out: Path, text: str) -> None:
    try:
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"{out}: {exc}") from exc


def _write_document(doc: dict, out: Path | None) -> None:
    if out is not None:
        _write_text(out, json.dumps(doc, indent=2) + "\n")


def _series_document(series: TruncatedSeries, prime: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "series",
        "prime": prime,
        "terms": [[e, [c.real, c.imag]] for e, c in series.terms()],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_apply(args) -> int:
    f, op = load_function_file(args.function)
    series = (
        blend_derivative_normalized(f, op) if args.prime else salagean_blend(f, op)
    )
    rows = "".join([f"{e} {c.real!r} {c.imag!r}\n" for e, c in series.terms()])
    sys.stdout.write("# exponent re im\n" + rows)
    if args.out is not None:
        _write_document(_series_document(series, args.prime), args.out)
    return EXIT_HOLDS


def _print_verdict(label: str, verdict: criteria.Verdict) -> None:
    print(f"{label}holds     : {'yes' if verdict.holds else 'no'}")
    print(f"{label}lhs       : {verdict.lhs!r}")
    print(f"{label}threshold : {verdict.threshold!r}")
    print(f"{label}margin    : {verdict.margin!r}")
    for note in verdict.notes:
        print(f"{label}note      : {note}")


def cmd_check(args) -> int:
    f, op = load_function_file(args.f)
    g, gop = load_function_file(args.g)
    # the checks themselves require a shared (p, n)
    if op != gop:
        raise DomainError(f"files disagree on operator parameters: {op} vs {gop}")
    nb = NeighborhoodParams(args.alpha, args.beta, args.delta)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "check_report",
        "criterion": args.criterion,
        "f": str(args.f),
        "g": str(args.g),
        "alpha": nb.alpha,
        "beta": nb.beta,
        "delta": nb.delta,
        "phi": args.phi,
        "grid": args.grid,
        "p": f.p,
        "n": f.n,
        "m": op.m,
        "lambda": op.lam,
        "Omega": op.omega,
    }
    print(f"criterion : {args.criterion}")

    # each branch prints its verdicts and sets the report verdict and any
    # further report fields; `criteria` decides every falsification
    fields: dict = {}
    if args.criterion == "thm211":
        pair = criteria.transfer_check(f, g, op, nb, args.grid)
        verdict = pair.conclusion
        print("hypothesis (derivative-side sup bound)")
        _print_verdict("  ", pair.hypothesis)
        print("conclusion (value-side sup bound)")
        _print_verdict("  ", verdict)
        fields["hypothesis"] = pair.hypothesis.to_dict()
    elif args.criterion in ("nec-n", "nec-m"):
        if args.phi is None:
            raise UsageError("--phi is required for the nec-n and nec-m criteria")
        align = criteria.ArgAlignment(phi=args.phi, tolerance=args.tolerance)
        check = criteria.necessary_n if args.criterion == "nec-n" else criteria.necessary_m
        verdict = check(f, g, op, nb, align, grid=args.grid)
        _print_verdict("", verdict)
    elif args.criterion in ("suff-n", "suff-m"):
        check = criteria.sufficient_n if args.criterion == "suff-n" else criteria.sufficient_m
        verdict = check(f, g, op, nb)
        _print_verdict("", verdict)
    else:
        # member-n / member-m: also surface the sum criterion, whose holding
        # guarantees membership
        family = criteria.DERIVATIVE if args.criterion == "member-n" else criteria.VALUE
        pair = criteria._Pair(f, g, op, nb)
        verdict, companion = criteria.membership_with_sum(family, pair, args.grid)
        _print_verdict("", verdict)
        print("sufficient-side companion")
        _print_verdict("  ", companion)
        if companion.holds:
            print("note      : sum criterion holds, so membership is implied")
        fields["sufficient_side"] = companion.to_dict()
        fields["implied_by_sufficient"] = bool(companion.holds)
        fields["falsification"] = bool(verdict.falsification)

    if verdict.falsification:
        event = _EVENTS[args.criterion.partition("-")[0]]
        print(f"FALSIFICATION EVENT: {event}", file=sys.stderr)
    _write_document({**doc, "verdict": verdict.to_dict(), **fields}, args.out)
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def cmd_construct(args) -> int:
    g, op = load_function_file(args.g)
    nb = NeighborhoodParams(args.alpha, args.beta, args.delta)
    partner = criteria.telescoping_partner(g, op, nb, args.trunc)
    text = function_file_text(function_file_document(partner, op)) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)
    return EXIT_HOLDS


def cmd_suite(args) -> int:
    report = harness.run_property_suite(args.suite, args.trials, args.seed)
    print(report.text_summary())
    _write_document(report.to_document(), args.out)
    return EXIT_HOLDS if report.passed else EXIT_FAILS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pvalent",
        description="Blended Salagean operators and neighborhood checks "
        "for truncated p-valent functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    apply_p = sub.add_parser("apply", help="apply the blended operator to a function file")
    apply_p.add_argument("function", type=Path, help="function file (JSON)")
    apply_p.add_argument(
        "--prime",
        action="store_true",
        help="emit the derivative of the image divided by z^(p-m-1) instead",
    )
    apply_p.add_argument("--out", type=Path, help="write the machine-readable document here")
    apply_p.set_defaults(func=cmd_apply)

    check_p = sub.add_parser("check", help="run a criterion or membership test on a pair")
    check_p.add_argument("f", type=Path, help="candidate function file")
    check_p.add_argument("g", type=Path, help="centre function file")
    check_p.add_argument("--criterion", required=True, choices=CRITERIA)
    check_p.add_argument("--alpha", type=parse_angle, default=0.0, help="phase twist for f")
    check_p.add_argument("--beta", type=parse_angle, default=0.0, help="phase twist for g")
    check_p.add_argument("--delta", type=float, required=True, help="neighborhood radius")
    check_p.add_argument("--phi", type=parse_angle, default=None, help="alignment slope (nec-*)")
    check_p.add_argument(
        "--grid",
        type=int,
        default=DEFAULT_GRID,
        help="minimum boundary samples (8 to 2^22), doubled until there are "
        "at least 8 per unit of degree",
    )
    check_p.add_argument(
        "--tolerance", type=float, default=criteria.ArgAlignment.tolerance,
        help="alignment tolerance in radians",
    )
    check_p.add_argument("--out", type=Path)
    check_p.set_defaults(func=cmd_check)

    cons_p = sub.add_parser(
        "construct", help="build the telescoping partner of a function file"
    )
    cons_p.add_argument("g", type=Path, help="centre function file")
    cons_p.add_argument("--delta", type=float, required=True)
    cons_p.add_argument("--alpha", type=parse_angle, default=0.0)
    cons_p.add_argument("--beta", type=parse_angle, default=0.0)
    cons_p.add_argument(
        "-K",
        "--trunc",
        type=int,
        required=True,
        help=f"truncation order (at most {criteria.MAX_TRUNC})",
    )
    cons_p.add_argument("--out", type=Path)
    cons_p.set_defaults(func=cmd_construct)

    suite_p = sub.add_parser("suite", help="run a property suite")
    suite_p.add_argument("--suite", required=True, choices=sorted(harness.SUITES))
    suite_p.add_argument("--trials", type=int, default=100)
    suite_p.add_argument("--seed", type=int, default=0)
    suite_p.add_argument("--out", type=Path)
    suite_p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FunctionFileError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, HypothesisViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # a crash must never read as "the statement fails"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
