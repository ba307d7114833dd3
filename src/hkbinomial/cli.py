"""Command-line front end.

Subcommands: hk (single value), table (values over a range of n), mult (the
exact quasi-polynomial and e_HK), classify, trace, check.  Exit codes: 0
success, 1 check did not pass (a mismatch, or an entry with fewer than two
values), 2 usage error, 3 resource budget exceeded (including a value too
long to write in decimal).  Under `main`, a closed stdout ends the process
by SIGPIPE, as it ends any filter: shell status 141 and nothing on stderr.

Each subcommand takes only the flags it reads: all take --format (csv
for table only); hk --verbose (the engine on stderr, or the closed form's
count by scan bound in JSON); check --workers (accepted for the benchmark
harness: at least 1, and without effect).  Any other flag is a usage
error.  The direct and oracle engines' budgets are constants
(`keycheck.ENUM_CAP`, `oracle.ORACLE_CAP`), not flags.

Identical invocations produce byte-identical JSON payloads: ordering is
sorted, `_dump_json` writes every int outside (-2^53, 2^53) as a decimal
string, and wall-clock timings live in a separate "timing" object.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from fractions import Fraction

from .algebra import parse_binomial, parse_monomial, render, PrimePower
from .classify import classify, classification_summary
from .engines import ENGINES, cross_check, decimal_str, hk, load_corpus, refuse_unwritable
from .errors import DomainError, HKError, ParseError, ResourceError
from .keycheck import member_scan
from .multiplicity import hk_quasi_polynomial

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
JSON_INT_LIMIT = 2**53  # a double holds every integer of smaller magnitude exactly


def _build_parser() -> argparse.ArgumentParser:
    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--poly", required=True, help='e.g. "x1^3 - x2^2"')
    poly.add_argument("--vars", type=int, default=None, help="variable count override")
    poly.add_argument("--p", required=True, type=int, help="prime characteristic")

    ap = argparse.ArgumentParser(
        prog="hkb", description="Exact Hilbert-Kunz computations for binomial hypersurfaces"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, formats=("plain", "json"), parents=(poly,)):
        """A subcommand with --format."""
        cmd = sub.add_parser(name, parents=list(parents), help=summary)
        cmd.add_argument("--format", choices=formats, default="plain")
        return cmd

    p_hk = command("hk", "single length value")
    p_hk.add_argument("--n", required=True, type=int)
    p_hk.add_argument("--engine", choices=ENGINES, default="auto")
    p_hk.add_argument("--verbose", action="store_true")

    p_table = command("table", "values over a range of n", ("plain", "json", "csv"))
    p_table.add_argument("--n-range", required=True, help="a..b inclusive")
    p_table.add_argument("--engine", choices=ENGINES, default="auto")

    command("mult", "exact Hilbert-Kunz quasi-polynomial and multiplicity")
    command("classify", "variable classification")

    p_trace = command("trace", "membership scan for one monomial")
    p_trace.add_argument("--n", required=True, type=int)
    p_trace.add_argument("--monomial", required=True, help='e.g. "x1^4*x2" or "4,1"')

    p_check = command("check", "corpus cross-check", parents=())
    p_check.add_argument("--corpus", required=True, help="JSONL file with poly/p/n objects")
    p_check.add_argument("--workers", type=int, default=1)
    return ap


def _dump_json(payload, stream=None):
    """The one JSON writer: sorted keys, and ints past 2^53 as decimal strings."""
    print(json.dumps(_jsonable(payload), sort_keys=True), file=stream or sys.stdout)


def _jsonable(obj):
    """obj through dicts, lists and tuples, each int outside (-2^53, 2^53) by `decimal_str`."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    inexact = type(obj) is int and not -JSON_INT_LIMIT < obj < JSON_INT_LIMIT
    return decimal_str(obj) if inexact else obj


def _parse_range(text: str):
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise ParseError(f"bad range {text!r}, expected a..b") from exc
    if lo < 1 or hi < lo:
        raise DomainError(f"bad range {text!r}")
    return range(lo, hi + 1)


def _cmd_hk(args) -> int:
    f = parse_binomial(args.poly, args.p, args.vars)
    refuse_unwritable(f.m, args.p, args.n)
    rep = hk(f, args.p, args.n, engine=args.engine)
    if args.format == "json":
        payload = rep.json_dict()
        if args.verbose and rep.by_bound is not None:  # as pieces: does not grow with q
            b = rep.by_bound
            payload["data"]["tables"] = {"by_bound": {
                "length": b.length, "starts": b.starts, "diffs": b.diffs}}
        _dump_json(payload)
    else:
        print(decimal_str(rep.value))
        if args.verbose:
            print(f"engine: {rep.engine}", file=sys.stderr)
    return EXIT_OK


def _cmd_table(args) -> int:
    f = parse_binomial(args.poly, args.p, args.vars)
    ns = _parse_range(args.n_range)
    refuse_unwritable(f.m, args.p, ns[-1])
    rows = []  # every integer as text before anything is printed
    for n in ns:
        rep = hk(f, args.p, n, engine=args.engine)
        value = decimal_str(rep.value)  # first, so a refusal names the value's digits, as hk's
        est = Fraction(rep.value, rep.q ** (f.m - 1))
        num, den = decimal_str(est.numerator), decimal_str(est.denominator)
        q = rep.q if args.format == "json" else decimal_str(rep.q)  # _dump_json writes JSON's
        rows.append((n, q, value, rep.engine, num, den))
    if args.format == "json":
        payload = [
            {"n": n, "q": q, "hk": v, "engine": eng, "estimate": {"num": num, "den": den}}
            for n, q, v, eng, num, den in rows
        ]
        _dump_json({"data": payload})
    elif args.format == "csv":
        print("n,q,hk,engine,estimate_num,estimate_den")
        for row in rows:
            print(",".join(map(str, row)))
    else:
        for n, q, v, eng, _, _ in rows:
            print(f"n={n} q={q} hk={v} engine={eng}")
    return EXIT_OK


def _cmd_mult(args) -> int:
    f = parse_binomial(args.poly, args.p, args.vars)
    qp = hk_quasi_polynomial(f, args.p)
    data = qp.json_dict()  # every fraction as text before anything is printed
    if args.format == "json":
        _dump_json({"data": data})
        return EXIT_OK
    print(f"e_HK = {data['e_hk']}")
    print(f"for n >= {qp.n0}, period {qp.period} in n, with q = {args.p}^n:")
    for row in data["classes"]:
        print(f"  n = {row['residue']} (mod {qp.period}): HK = {_poly_text(row['coefficients'])}")
    return EXIT_OK


def _poly_text(coefficients) -> str:
    """A polynomial in q from its coefficients, lowest degree first, as text."""
    terms = [f"{c}*q^{k}" for k, c in enumerate(coefficients) if c != "0"]
    return " + ".join(reversed(terms)).replace("+ -", "- ") or "0"


def _cmd_classify(args) -> int:
    f = parse_binomial(args.poly, args.p, args.vars)
    summary = classification_summary(classify(f))
    if args.format == "json":
        _dump_json({"data": summary})
        return EXIT_OK
    print(f"poly: {render(f)}  (p = {args.p}, m = {f.m})")
    print(f"r = {summary['r']}  s = {summary['s']}  t = {summary['t']}")
    print(f"sorted deltas: {summary['delta']}  (variables {summary['perm']})")
    for rec in summary["neg"]:
        print(f"  shrink {rec['var']}: a={rec['a']} b={rec['b']} min={rec['nmin']} max={rec['nmax']}")
    for rec in summary["zero"]:
        print(f"  fixed  {rec['var']}: power={rec['zmin']}")
    for rec in summary["pos"]:
        print(f"  grow   {rec['var']}: dp={rec['dp']} min={rec['pmin']} max={rec['pmax']}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    f = parse_binomial(args.poly, args.p, args.vars)
    A = parse_monomial(args.monomial, f.m)
    refuse_unwritable(1, args.p, args.n)  # before p^n is built
    result, steps = member_scan(A, f, PrimePower(args.p, args.n))
    if args.format == "json":
        payload = {
            "monomial": list(A),
            "member": result.member,
            "witness": result.witness,
            "witness_m": result.witness_m,
            "mmax_scanned": result.mmax_scanned,
            "steps": [
                {"m": M, "intermediate": list(i), "candidate": list(c), "convergent": conv}
                for M, i, c, conv in steps
            ],
        }
        _dump_json({"data": payload})
        return EXIT_OK
    print(f"monomial {A}: member={result.member} witness={result.witness}"
          f"{'' if result.witness_m is None else ' M=' + str(result.witness_m)}"
          f" mmax_scanned={result.mmax_scanned}")
    for M, inter, cand, conv in steps:
        print(f"  M={M}: intermediate={inter} candidate={cand} convergent={conv}")
    return EXIT_OK


def _cmd_check(args) -> int:
    instances = load_corpus(args.corpus)  # read first: a bad corpus line outranks a bad flag
    if args.workers < 1:  # kept only for bench/worker.py's `--workers 1`; ROADMAP item 2 drops it
        raise DomainError(f"workers must be a positive integer, got {args.workers}")
    report = cross_check(instances)
    if args.format == "json":
        _dump_json({"data": report.entries, "all_agree": report.all_agree})
    else:
        for entry in report.entries:
            compared = len(entry["values"]) > 1
            status = "ok" if entry["agree"] else "MISMATCH" if compared else "UNCHECKED"
            vals = " ".join(f"{k}={v}" for k, v in entry["values"].items())
            print(f"{status} {entry['poly']} p={entry['p']} n={entry['n']} {vals}")
        print(f"{len(report.entries)} instances, all_agree={report.all_agree}")
    return EXIT_OK if report.all_agree else EXIT_MISMATCH


_HANDLERS = {
    "hk": _cmd_hk,
    "table": _cmd_table,
    "mult": _cmd_mult,
    "classify": _cmd_classify,
    "trace": _cmd_trace,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except ResourceError as exc:
        _emit_error(exc, args.format)
        return EXIT_RESOURCE
    except (HKError, OSError) as exc:
        _emit_error(exc, args.format)
        return EXIT_USAGE


def _emit_error(exc, fmt: str):
    if fmt == "json":
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ResourceError):
            error["required"] = _int_or_null(exc.required)
            error["budget"] = _int_or_null(exc.budget)
        _dump_json({"error": error}, sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def _int_or_null(x: int):
    """x as `_dump_json` writes it, or None when x is too long to write in decimal."""
    try:
        return _jsonable(x)
    except ResourceError:
        return None


def main():  # console entry point
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))
