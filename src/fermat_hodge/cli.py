"""Command-line interface: computations, persistent cache, table export.

Exit codes: 0 success, 1 verification failure, 2 usage error (the
parser rejects an argument, or a degree range is empty, starts below 2
or has no degree coprime to ``--coprime-to``), 3 incomplete or
budget-truncated result.  Any other library error propagates; it is
never reported as a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import gcd, isfinite

from .budget import DEFAULT_MAX_CANDIDATES, DEFAULT_MAX_SECONDS, SearchBudget
from .cache import SCHEMA_VERSION, Entry, ResultCache, basis_from_dict
from .characters import enumerate_hodge_labels
from .cycles import (
    COUNTEREXAMPLE_33,
    _all_levels_report,
    check_condition,
    is_quasi_decomposable,
    newton_identity_check,
    scan_fourfolds,
    standard_elements,
    verdict as cycles_verdict,
)
from .errors import BudgetExceededError, IncompleteBasisError
from .hilbert import HilbertBasis, hilbert_basis, is_decomposable
from .monoid import is_member

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_seconds=args.max_seconds, max_candidates=args.max_candidates
    )


def _cache(args) -> ResultCache:
    return ResultCache(args.cache_dir)


def _cached_basis(m, cache, budget, parse=False) -> Entry:
    """The basis entry of degree m: the cached one, else computed.

    ``parse`` asks for the payload, which only the text form reads;
    ``phi`` and the JSON form read the meta and the body.
    """
    entry = cache.get_basis(m, parse=parse)
    if entry is None:
        entry = cache.put_basis(hilbert_basis(m, budget=budget))
    return entry


def _bad_range(args) -> bool:
    """Report a degree range that is empty or starts below 2."""
    if 2 <= args.m_from <= args.m_to:
        return False
    print(f"invalid range {args.m_from}..{args.m_to}", file=sys.stderr)
    return True


def cmd_basis(args) -> int:
    budget = _budget(args)
    cache = _cache(args)
    text = args.format == "text"
    if args.max_level is None:
        entry = _cached_basis(args.m, cache, budget, parse=text)
    else:
        # an uncertified sieve of the first levels: incomplete, never written
        entry = cache.put_basis(hilbert_basis(
            args.m, max_level=args.max_level, algorithm="levelwise", budget=budget
        ))
    if text:
        basis = entry.payload
        elements = basis["elements"]
        print(
            f"m={basis['m']} algorithm={basis['algorithm']} "
            f"complete={str(basis['complete']).lower()} "
            f"max_level={entry.meta['phi']} elements={len(elements)}"
        )
        for v in elements:
            print(v)
    else:
        sys.stdout.write(entry.body)
    return EXIT_OK if entry.meta["complete"] else EXIT_INCOMPLETE


def cmd_phi(args) -> int:
    meta = _cached_basis(args.m, _cache(args), _budget(args)).meta
    if not meta["complete"]:
        print(f"phi({args.m}) >= {meta['phi']} complete=false")
        return EXIT_INCOMPLETE
    print(f"phi({args.m}) = {meta['phi']} complete=true")
    return EXIT_OK


def cmd_phi_table(args) -> int:
    if _bad_range(args):
        return EXIT_USAGE
    cache = _cache(args)
    rows = []
    any_incomplete = False
    for m in range(args.m_from, args.m_to + 1):
        meta = _cached_basis(m, cache, _budget(args)).meta
        rows.append((m, meta["phi"], meta["complete"]))
        any_incomplete |= not meta["complete"]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [
                {"m": m, "phi": phi_val, "complete": complete}
                for m, phi_val, complete in rows
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print("m,phi,complete")
        for m, phi_val, complete in rows:
            print(f"{m},{phi_val},{str(complete).lower()}")
    return EXIT_INCOMPLETE if any_incomplete else EXIT_OK


def _report_text(report: dict) -> str:
    """The text form of a ``report_to_dict`` payload."""
    counts, n = report["counts"], report["n"]
    lines = [
        f"m={report['m']} n={'all' if n is None else n} "
        f"exclude_standard={str(report['exclude_standard']).lower()} "
        f"verdict={str(report['verdict']).lower()} "
        f"complete={str(report['complete']).lower()} "
        f"checked={len(report['outcomes'])} quasi={counts['QUASI']} "
        f"standard={counts['STANDARD']} fail={counts['FAIL']} "
        f"standard_set={report['standard_set']}"
    ]
    for o in report["outcomes"]:
        if o["kind"] == "QUASI":
            w = o["witness"]
            lines.append(f"QUASI {o['element']} b={w['b']} c={w['c']} d={w['d']}")
        elif o["kind"] == "STANDARD":
            p = o["provenance"]
            lines.append(
                f"STANDARD {o['element']} p={p['p']} i={p['i']} "
                f"doubled={str(p['doubled']).lower()}"
            )
        else:
            lines.append(f"FAIL {o['element']}")
    return "\n".join(lines) + "\n"


def _stored_basis(m, cache, budget) -> HilbertBasis:
    """The basis of degree m: its cached entry's, else computed and stored.

    The one place that parses a basis payload into vectors; an entry
    whose elements do not parse into members is a miss.
    """
    entry = cache.get_basis(m, parse=True)
    if entry is not None:
        try:
            return basis_from_dict(entry.payload)
        except (TypeError, ValueError):
            pass
    basis = hilbert_basis(m, budget=budget)
    cache.put_basis(basis)
    return basis


def _cached_report(m, n, exclude_standard, cache, budget, text=False) -> tuple[Entry, str]:
    """The report entry of a check, cached else computed, and what the
    command prints: the text form with ``text``, else the JSON body.

    A cached payload the text form cannot render is a miss.  A miss
    without ``n`` classifies the elements of ``_stored_basis`` as
    ``check_condition`` would.
    """
    entry = cache.get_report(m, n, exclude_standard, parse=text)
    if entry is not None:
        try:
            return entry, _report_text(entry.payload) if text else entry.body
        except (KeyError, TypeError):
            pass
    if n is None:
        report = _all_levels_report(_stored_basis(m, cache, budget), exclude_standard, budget)
    else:
        report = check_condition(m, n=n, exclude_standard=exclude_standard, budget=budget)
    entry = cache.put_report(report)
    return entry, _report_text(entry.payload) if text else entry.body


def cmd_check(args) -> int:
    entry, out = _cached_report(
        args.m, args.n, args.exclude_standard, _cache(args), _budget(args),
        text=args.format == "text",
    )
    sys.stdout.write(out)
    return EXIT_OK if entry.meta["complete"] else EXIT_INCOMPLETE


def cmd_scan_fourfolds(args) -> int:
    if _bad_range(args):
        return EXIT_USAGE
    degrees = range(args.m_from, args.m_to + 1)
    if args.coprime_to and all(gcd(m, args.coprime_to) > 1 for m in degrees):
        print(
            f"no degree in {args.m_from}..{args.m_to} is coprime to {args.coprime_to}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    reports = scan_fourfolds(args.m_from, args.m_to, args.coprime_to, _budget(args))
    for report in reports:
        counts = report.counts
        print(
            f"m={report.m} verdict={str(report.verdict).lower()} "
            f"complete={str(report.complete).lower()} "
            f"checked={len(report.outcomes)} quasi={counts['QUASI']} "
            f"standard={counts['STANDARD']} fail={counts['FAIL']}"
        )
    failures = [report.m for report in reports if not report.verdict]
    incomplete = [report.m for report in reports if not report.complete]
    if failures:
        print(f"summary: {len(reports)} degrees, failures at {failures}")
    else:
        print(f"summary: {len(reports)} degrees, all conditions hold")
    if incomplete:
        print(f"summary: incomplete at {incomplete}")
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_hodge(args) -> int:
    labels = enumerate_hodge_labels(args.m, args.n, expand_permutations=args.expand)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "m": args.m,
            "n": args.n,
            "labels": [",".join(str(a) for a in lab.entries) for lab in labels],
        }
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(f"m={args.m} n={args.n} labels={len(labels)}")
        for lab in labels:
            print(",".join(str(a) for a in lab.entries))
    return EXIT_OK


def cmd_verdict(args) -> int:
    report = cycles_verdict(args.m, args.n, budget=_budget(args))
    print(
        f"m={report.m} n={report.n} status={report.status.value} "
        f"justification={report.justification}"
    )
    checked = report.condition_report
    return EXIT_INCOMPLETE if checked is not None and not checked.complete else EXIT_OK


def cmd_verify_33(args) -> int:
    budget = _budget(args)
    failures = []
    x = COUNTEREXAMPLE_33
    member = is_member(x, 33)
    print(f"membership: {'confirmed' if member else 'FAILED'}")
    if not member:
        failures.append("membership")
    indec = member and is_decomposable(x, 33, budget=budget) is None
    print(f"indecomposable: {'confirmed' if indec else 'FAILED'}")
    if not indec:
        failures.append("indecomposable")
    non_standard = x not in standard_elements(33)
    print(f"non-standard: {'confirmed' if non_standard else 'FAILED'}")
    if not non_standard:
        failures.append("non-standard")
    not_quasi = member and is_quasi_decomposable(x, 33, budget) is None
    print(f"not-quasi-decomposable: {'confirmed' if not_quasi else 'FAILED'}")
    if not not_quasi:
        failures.append("not-quasi-decomposable")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def cmd_newton(args) -> int:
    passed = newton_identity_check(args.d, args.trials, args.seed)
    print(
        f"d={args.d} trials={args.trials} seed={args.seed} "
        f"passed={str(passed).lower()}"
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _number_type(name: str, rule: str, holds, kind=int):
    """An argparse type: a ``kind`` number for which ``holds`` is true, else exit 2."""

    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {value}")
        return value

    parse.__name__ = name
    return parse


_degree = _number_type("degree", ">= 2", lambda v: v >= 2)
_dimension = _number_type("dimension", "even and >= 0", lambda v: v >= 0 and v % 2 == 0)
_positive = _number_type("count", ">= 1", lambda v: v >= 1)
_candidates = _number_type("candidates", ">= 0", lambda v: v >= 0)
_seconds = _number_type(
    "seconds", "finite and >= 0", lambda v: isfinite(v) and v >= 0, float
)


def _add_common(sub, with_format=None, with_budget=True) -> None:
    """--cache-dir on every command; budget flags only where ``_budget`` reads them."""
    sub.add_argument("--cache-dir", default=None, help="cache directory")
    if with_budget:
        sub.add_argument(
            "--max-seconds", type=_seconds, default=DEFAULT_MAX_SECONDS,
            help="wall-clock budget per request (per degree of a range)",
        )
        sub.add_argument(
            "--max-candidates", type=_candidates, default=DEFAULT_MAX_CANDIDATES,
            help="candidate budget per request (per degree of a range)",
        )
    if with_format:
        sub.add_argument("--format", choices=with_format, default=with_format[0])


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fermat-hodge",
        description=(
            "Combinatorics of Hodge classes on Fermat varieties: the "
            "residue-count monoid, its indecomposable elements, and the "
            "quasi-decomposability checks behind the conjecture verdicts."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("basis", help="indecomposable elements for a degree")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--max-level", type=_positive, default=None,
                   help="sieve only levels 1..MAX_LEVEL; uncertified (exit 3)")
    _add_common(p, with_format=["text", "json"])
    p.set_defaults(func=cmd_basis)

    p = subs.add_parser("phi", help="maximum level among the indecomposables")
    p.add_argument("--m", type=_degree, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_phi)

    p = subs.add_parser("phi-table", help="phi over a degree range")
    p.add_argument("--from", dest="m_from", type=int, required=True)
    p.add_argument("--to", dest="m_to", type=int, required=True)
    _add_common(p, with_format=["csv", "json"])
    p.set_defaults(func=cmd_phi_table)

    p = subs.add_parser("check", help="level-range quasi-decomposability report")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--n", type=_dimension, default=None)
    p.add_argument("--exclude-standard", action="store_true")
    _add_common(p, with_format=["text", "json"])
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("scan-fourfolds", help="fourfold condition over a range")
    p.add_argument("--from", dest="m_from", type=int, required=True)
    p.add_argument("--to", dest="m_to", type=int, required=True)
    p.add_argument("--coprime-to", type=_positive, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_scan_fourfolds)

    p = subs.add_parser("hodge", help="Hodge labels for a degree and dimension")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--expand", action="store_true",
                   help="list every permutation, not just sorted representatives")
    _add_common(p, with_format=["text", "json"], with_budget=False)
    p.set_defaults(func=cmd_hodge)

    p = subs.add_parser("verdict", help="Hodge-conjecture status for (m, n)")
    p.add_argument("--m", type=_degree, required=True)
    p.add_argument("--n", type=_dimension, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verdict)

    p = subs.add_parser("verify-33", help="recheck the degree-33 counterexample")
    _add_common(p)
    p.set_defaults(func=cmd_verify_33)

    p = subs.add_parser("newton", help="seeded power-sum identity check")
    p.add_argument("--d", type=_positive, default=1)
    p.add_argument("--trials", type=_positive, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, with_budget=False)
    p.set_defaults(func=cmd_newton)

    return parser, subs.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    sub = commands.get(argv[0]) if argv else None
    try:
        if sub is None:  # no command first: the full parser's help or error
            args = parser.parse_args(argv)
        else:
            # the subparser the full parser would hand argv[1:] to; what it
            # leaves over is reported under the top-level usage, as there
            args, extras = sub.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (BudgetExceededError, IncompleteBasisError) as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    raise SystemExit(main())
