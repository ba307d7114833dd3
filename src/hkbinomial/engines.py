"""Engine selection, reports, and the cross-check harness.

Three routes compute the same exact length:

* closed: the iterative closed form (fast, guarded by applicability)
* direct: the membership criterion over all q^m standard monomials,
  counted in O(m*q) as one sum over the scan bound, with no monomial
  tested alone (refused past q^m = `keycheck.ENUM_CAP`, 10^7)
* oracle: a bit-parallel count of the relation graph's live paths
  (refused past `oracle.ORACLE_CAP`, 10^6 nodes)

`hk` with engine="auto" answers every binomial without enumeration: the
shapes the closed form excludes (no growing variable, or a lead exponent
>= q) have a monomial ideal, whose length is a product ("monomial" route);
every other shape goes to the closed form.  That test reads only the
exponents, so only the closed route classifies the binomial; a report
keeps what its route computed and derives the rest (p, m, the
classification, a closed report's `mmax_params`) on demand.  direct and
oracle run only when asked for by name.  `cross_check` compares auto
`hk`'s answer with direct's and oracle's within their budgets, and fails
an instance that disagrees or compared fewer than two values; the closed
form's boundary conventions are only trusted because this gate exists.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Binomial, _literal, check_field, parse_binomial, render
from .classify import Classification, classify, classification_summary
from .closedform import PiecewisePoly, hk_closed_form_tables, is_monomial_shape, mmax_params
from .closedform import trail_complement_count
from .errors import DomainError, HKError, ParseError, ResourceError
from .keycheck import hk_direct_count
from .oracle import OracleReport, hk_oracle_report

ENGINES = ("auto", "closed", "direct", "oracle")


def decimal_str(x: int) -> str:
    """str(x), or a ResourceError when x has more decimal digits than the
    interpreter converts (`sys.get_int_max_str_digits`)."""
    try:
        return str(x)
    except ValueError:  # int -> str raises it only for the digit limit
        x = abs(x)
        digits = int(math.log10(x)) + 1
        digits += (x >= 10**digits) - (x < 10 ** (digits - 1))
        limit = sys.get_int_max_str_digits()
        raise ResourceError(
            f"an integer of {digits} decimal digits is over the interpreter's limit of {limit}",
            required=digits,
            budget=limit,
        ) from None


def refuse_unwritable(m: int, p: int, n: int):
    """Refuse before computing, whatever the engine, when Kunz's bound
    HK(q) >= q^(m-1), or q itself for m = 1 (which a trace passes: its scan
    writes exponents >= q), has more decimal digits than the interpreter converts.
    Since log10(2) < 1/3, q^power has at most limit digits whenever
    3*(limit - 1) >= n*power*bits(p), which needs no logarithm."""
    limit, power = sys.get_int_max_str_digits(), max(m - 1, 1)
    if limit == 0 or 3 * (limit - 1) >= n * power * p.bit_length():
        return
    below_log10_p = Fraction(math.log10(p)) * (1 - Fraction(1, 10**12))  # past float error
    digits = math.floor(n * power * below_log10_p) + 1
    if 0 < limit < digits:
        subject, bound = ("q", "") if m == 1 else ("the value", f" (HK(q) >= q^{power})")
        raise ResourceError(f"{subject} has at least {digits} decimal digits{bound}, over the "
                            f"interpreter's limit of {limit}", digits, limit)


@dataclass
class HKReport:
    n: int
    q: int
    value: int
    engine: str  # "monomial", "closed", "direct" or "oracle"
    f: Binomial
    oracle: OracleReport | None = None
    by_bound: PiecewisePoly | None = None  # the closed form's non-members by scan bound
    timing_ms: float = 0.0  # from entry to `hk`: the field check and what the route computes

    @property
    def p(self) -> int:
        return self.f.p

    @property
    def m(self) -> int:
        return self.f.m

    @property
    def classification(self) -> Classification:
        """f's sorted difference classification, computed when read (`classify`
        is cached on the exponents); only the closed route computes it in `hk`."""
        return classify(self.f)

    @property
    def mmax_params(self) -> tuple | None:
        """MmaxParams per shrinking variable on a closed report, else None; the
        closed value reads the same top scan bounds from the classification."""
        return mmax_params(self.classification, self.p, self.n) if self.engine == "closed" else None

    @property
    def guard_notes(self) -> list:
        """Always empty: no route adds notes.  Kept as a payload key."""
        return []

    def data_dict(self) -> dict:
        """Deterministic payload, formatted here from the engines' records;
        timing and by_bound deliberately excluded.  `value` is a decimal string
        (ResourceError when too long); other ints are plain, and the CLI writes them."""
        value = decimal_str(self.value)  # first, so a refusal names the value's digits
        out = {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "m": self.m,
            "value": value,
            "engine": self.engine,
            "guard_notes": self.guard_notes,
            "classification": classification_summary(self.classification),
        }
        if self.engine == "closed":
            out["mmax_params"] = [
                {"var": f"x{prm.var}", "a": prm.a, "b": prm.b, "top_value": prm.top_value}
                for prm in self.mmax_params
            ]
        if self.oracle is not None:
            orc = self.oracle
            out["oracle"] = {"nodes": orc.nodes, "dead": orc.dead_nodes, "merges": orc.merges,
                             "live_merged_classes": orc.live_merged_classes}
        return out

    def json_dict(self) -> dict:
        """`data_dict()` and the timing, with the same plain ints."""
        return {"data": self.data_dict(), "timing": {"ms": self.timing_ms}}


def hk(f: Binomial, p: int | None = None, n: int = 1, engine: str = "auto") -> HKReport:
    """Evaluate the length for q = p^n with the requested engine.

    engine="auto" returns the trail complement count (engine "monomial")
    when `is_monomial_shape` holds on f's exponents and the closed form
    otherwise; it never enumerates.  A named engine runs alone and raises
    NotApplicableError or ResourceError (past its own budget) instead of
    switching routes.  A report keeps only what its route computed: the
    value, a closed report's count by scan bound (`by_bound`) and an oracle
    report's counts; p, m, the classification and a closed report's
    `mmax_params` are derived when read.  Only the closed route classifies
    f; `timing_ms` covers the field check and what the route computes.
    """
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}")
    started = time.perf_counter()
    if p is None:
        p = f.p
    q = check_field(f, p, n)
    by_bound = orc = None
    if engine == "auto" and is_monomial_shape(f.lead.exps, f.trail.exps, q.q):
        value, used = trail_complement_count(q.q, f.trail.exps), "monomial"
    elif engine in ("auto", "closed"):
        value, by_bound = hk_closed_form_tables(f, p, n)
        used = "closed"
    elif engine == "direct":
        value, used = hk_direct_count(f, q), "direct"
    else:
        orc = hk_oracle_report(f, q)
        value, used = orc.length, "oracle"
    return HKReport(n=n, q=q.q, value=value, engine=used, f=f, oracle=orc, by_bound=by_bound,
                    timing_ms=(time.perf_counter() - started) * 1000.0)


@dataclass
class CheckReport:
    entries: list
    all_agree: bool


def _check_instance(item):
    f, p, n = item
    rep = hk(f, p, n)
    values, skipped = {rep.engine: rep.value}, {}
    for engine in ("direct", "oracle"):
        try:
            values[engine] = hk(f, p, n, engine=engine).value
        except ResourceError as exc:
            skipped[engine] = f"budget: {exc}"
    agree = len(values) > 1 and len(set(values.values())) == 1
    return {
        "poly": render(f),
        "p": p,
        "n": n,
        "values": {k: decimal_str(v) for k, v in sorted(values.items())},
        "skipped": dict(sorted(skipped.items())),
        "agree": agree,
    }


def cross_check(instances) -> CheckReport:
    """Compare auto `hk` with direct and oracle on each (binomial, p, n) instance,
    in input order, so reports are deterministic.  An engine past its budget is
    noted in the entry's `skipped`; an entry with fewer than two values fails."""
    entries = [_check_instance(item) for item in instances]
    return CheckReport(entries=entries, all_agree=all(e["agree"] for e in entries))


def load_corpus(path: str) -> list:
    """Read a corpus file: one JSON object {"poly", "p", "n"} per line.  A bad line
    raises its own error class with the `path:line` prefix; a ResourceError keeps
    its keys."""
    with open(path, "rb") as fh:  # each line decoded alone, so a bad byte keeps its number
        lines = fh.read().splitlines()
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            out.append(_corpus_entry(line))
        except HKError as exc:
            keys = (exc.required, exc.budget) if isinstance(exc, ResourceError) else ()
            raise type(exc)(f"{path}:{lineno}: bad corpus entry: {exc}", *keys) from exc
    return [entry for entry in out if entry]  # a blank line gives ()


_DECODER = json.JSONDecoder(parse_int=_literal)  # json.loads(..., parse_int=) builds one per line


def _corpus_entry(raw: bytes) -> tuple:
    """(f, p, n) from one corpus line, or () when it is blank.  The line is refused
    as `refuse_unwritable` refuses it, and an over-long int as the parser does; a
    line that is not UTF-8, or not a JSON object with the three keys, is a ParseError,
    with json.loads's message (a leading BOM included, which it alone checks)."""
    try:
        line = raw.decode("utf-8").strip()
        if line.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj = _DECODER.decode(line) if line else None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON: {exc}") from exc
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise ParseError("not JSON: nested too deeply to decode") from None
    if not line:
        return ()
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("poly", "p", "n"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    poly, p, n = obj["poly"], obj["p"], obj["n"]
    if type(poly) is not str:
        raise DomainError(f"poly must be a string, got {poly!r}")
    if type(p) is not int or type(n) is not int:
        raise DomainError(f"p and n must be integers, got p={p!r} n={n!r}")
    if n < 1:  # before Kunz's bound, which refuses nothing at n < 1
        raise DomainError(f"exponent n must be positive, got {n}")
    f = parse_binomial(poly, p)
    refuse_unwritable(f.m, p, n)  # before anything is computed
    return f, p, n
