import gc
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from hkbinomial import cli, closedform, engines, hk, multiplicity, parse_binomial, render
from hkbinomial.algebra import MAX_VARS
from hkbinomial.closedform import hk_closed_form_tables
from hkbinomial.errors import ResourceError


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hk_verbose_level_top_is_piecewise(capsys):
    argv = ["hk", "--poly", "x1^3 - x2^2", "--p", "5", "--verbose", "--format", "json"]
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, argv + ["--n", "40"])
    assert code == 0
    assert time.perf_counter() - started < 1.0
    assert len(out.encode()) < 10_000
    tables = json.loads(out)["data"]["tables"]
    assert isinstance(tables["by_bound"]["length"], str)  # V > 2^53 stays exact
    # the pieces' Newton forms give back every value of a count by scan bound of four pieces
    poly = "x1^2*x2^2 - x3^3"
    _, ref = hk_closed_form_tables(parse_binomial(poly, 5), 5, 3)
    code, out, _ = run_cli(
        capsys, ["hk", "--poly", poly, "--p", "5", "--n", "3", "--verbose", "--format", "json"]
    )
    by_bound = json.loads(out)["data"]["tables"]["by_bound"]
    cuts = by_bound["starts"] + [by_bound["length"]]
    values = [
        sum(d * math.comb(u, k) for k, d in enumerate(diffs))
        for lo, hi, diffs in zip(cuts, cuts[1:], by_bound["diffs"])
        for u in range(hi - lo)
    ]
    assert len(by_bound["starts"]) == 4
    assert code == 0 and values == [ref(x) for x in range(ref.length)]


def test_value_and_verbose_payload_do_not_need_g_chain(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("g_chain is not on the value path")

    monkeypatch.setattr(closedform, "g_chain", refuse)
    f = parse_binomial("x1^2*x2 - x2*x3", 3)
    for engine in ("auto", "closed"):
        rep = hk(f, 3, 2, engine=engine)
        assert (rep.engine, rep.value) == ("closed", hk(f, 3, 2, engine="oracle").value)
    argv = ["hk", "--poly", "x1^2*x2 - x2*x3", "--p", "3", "--n", "2", "--verbose"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0 and "by_bound" in json.loads(out)["data"]["tables"]


def test_degenerate_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["hk", "--poly", "x1 + x1", "--p", "2", "--n", "1"])
    assert code == 2
    assert "2 distinct monomials" in err or "degenerate" in err.lower()


def test_json_error_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, ["hk", "--poly", "x1 + x1", "--p", "2", "--n", "1", "--format", "json"]
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "DegenerateBinomialError"


_CLS_ONE_OF_EACH = {  # x1^2*x2 - x2*x3: one variable of each kind
    "delta": [-2, 0, 1], "m": 3, "neg": [{"a": 2, "b": 0, "nmax": 2, "nmin": 0, "var": "x1"}],
    "perm": [1, 2, 3], "pos": [{"dp": 1, "pmax": 1, "pmin": 0, "var": "x3"}],
    "r": 1, "s": 1, "t": 1, "zero": [{"var": "x2", "zmax": 1, "zmin": 1}],
}
_NEG_X2_X1 = [{"a": 2, "b": 0, "nmax": 2, "nmin": 0, "var": "x2"},
              {"a": 2, "b": 0, "nmax": 2, "nmin": 0, "var": "x1"}]
HK_GOLDEN = [  # (poly, p, n, engine, the `data` of `hk --format json --verbose`)
    ("x1^3*x2 - x1*x2", 3, 2, "auto", {
        "classification": {
            "delta": [-2, 0], "m": 2, "neg": [{"a": 2, "b": 1, "nmax": 3, "nmin": 1, "var": "x1"}],
            "perm": [1, 2], "pos": [], "r": 1, "s": 1, "t": 0,
            "zero": [{"var": "x2", "zmax": 1, "zmin": 1}]},
        "engine": "monomial", "guard_notes": [], "m": 2, "n": 2, "p": 3, "q": 9, "value": "17"}),
    ("x1^3 - x2^2", 5, 2, "auto", {
        "classification": {
            "delta": [-3, 2], "m": 2, "neg": [{"a": 3, "b": 0, "nmax": 3, "nmin": 0, "var": "x1"}],
            "perm": [1, 2], "pos": [{"dp": 2, "pmax": 2, "pmin": 0, "var": "x2"}],
            "r": 1, "s": 0, "t": 1, "zero": []},
        "engine": "closed", "guard_notes": [], "m": 2,
        "mmax_params": [{"a": 3, "b": 0, "top_value": 8, "var": "x1"}],
        "n": 2, "p": 5, "q": 25,
        "tables": {"by_bound": {"diffs": [[6, 0], [2]], "length": 8, "starts": [0, 7]}},
        "value": "50"}),
    ("x1^2*x2^2 - x3^3", 5, 2, "auto", {
        "classification": {
            "delta": [-2, -2, 3], "m": 3, "neg": _NEG_X2_X1, "perm": [1, 2, 3],
            "pos": [{"dp": 3, "pmax": 3, "pmin": 0, "var": "x3"}],
            "r": 2, "s": 0, "t": 1, "zero": []},
        "engine": "closed", "guard_notes": [], "m": 3,
        "mmax_params": [{"a": 2, "b": 0, "top_value": 12, "var": "x2"},
                        {"a": 2, "b": 0, "top_value": 12, "var": "x1"}],
        "n": 2, "p": 5, "q": 25,
        "tables": {"by_bound": {"diffs": [[264, -24, 0], [32], [0, 0, 0], [0]], "length": 12,
                                "starts": [0, 7, 8, 11]}},
        "value": "1664"}),
    ("x1^3*x2^3*x3 - x3^2*x4^4", 3, 2, "auto", {
        "classification": {
            "delta": [-3, -3, 1, 4], "m": 4,
            "neg": [{"a": 3, "b": 0, "nmax": 3, "nmin": 0, "var": "x2"},
                    {"a": 3, "b": 0, "nmax": 3, "nmin": 0, "var": "x1"}],
            "perm": [1, 2, 3, 4],
            "pos": [{"dp": 1, "pmax": 2, "pmin": 1, "var": "x3"},
                    {"dp": 4, "pmax": 4, "pmin": 0, "var": "x4"}],
            "r": 2, "s": 0, "t": 2, "zero": []},
        "engine": "closed", "guard_notes": [], "m": 4,
        "mmax_params": [{"a": 3, "b": 0, "top_value": 2, "var": "x2"},
                        {"a": 3, "b": 0, "top_value": 2, "var": "x1"}],
        "n": 2, "p": 3, "q": 9,
        "tables": {"by_bound": {"diffs": [[1026], [135]], "length": 2, "starts": [0, 1]}},
        "value": "3231"}),
    ("x1^2*x2 - x2*x3", 3, 2, "direct", {
        "classification": _CLS_ONE_OF_EACH, "engine": "direct", "guard_notes": [], "m": 3,
        "n": 2, "p": 3, "q": 9, "value": "153"}),
    ("x1^2*x2 - x2*x3", 3, 2, "oracle", {
        "classification": _CLS_ONE_OF_EACH, "engine": "oracle", "guard_notes": [], "m": 3,
        "n": 2, "oracle": {"dead": 448, "live_merged_classes": 56, "merges": 448, "nodes": 729},
        "p": 3, "q": 9, "value": "153"}),
]


@pytest.mark.parametrize("poly,p,n,engine,data", HK_GOLDEN,
                         ids=["monomial", "closed-m2", "closed-m3", "closed-m4", "direct", "oracle"])
def test_hk_verbose_payload_is_golden_on_every_route(capsys, poly, p, n, engine, data):
    # p, m, mmax_params and guard_notes are derived when read; the payload keeps its bytes
    argv = ["hk", "--poly", poly, "--p", str(p), "--n", str(n), "--engine", engine,
            "--format", "json", "--verbose"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    golden = '{"data": ' + json.dumps(data, sort_keys=True) + ', "timing": {"ms": '
    assert out.startswith(golden) and list(json.loads(out)) == ["data", "timing"]


def test_resource_exit_code(capsys):
    # q^m = 3^16 is over both enumerating engines' budgets; auto needs neither
    base = ["hk", "--poly", "x1^3*x2 - x1*x2", "--p", "3", "--n", "8"]
    code, out, _ = run_cli(capsys, base + ["--format", "json"])
    assert code == 0
    data = json.loads(out)["data"]
    assert (data["value"], data["engine"], data["guard_notes"]) == ("13121", "monomial", [])
    for engine in ("direct", "oracle"):
        code, out, _ = run_cli(capsys, base + ["--engine", engine])
        assert code == 3 and out == ""
        code, out, _ = run_cli(capsys, base[:6] + ["1", "--engine", engine])
        assert (code, out.strip()) == (0, "5")


def test_usage_error(capsys):
    assert cli.run(["hk", "--poly", "x1 - x2"]) == 2  # missing --p/--n
    assert cli.run(["hk", "--help"]) == 0
    capsys.readouterr()


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--poly", "x1^3 - x2^2", "--p", "5", "--n-range", "1..3",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,q,hk,engine,estimate_num,estimate_den"
    assert lines[1] == "1,5,10,closed,2,1"
    assert lines[3] == "3,125,250,closed,2,1"


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--poly", "x1^3 - x2^2", "--p", "5", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert (data["r"], data["s"], data["t"]) == (1, 0, 1)


def test_classify_plain_lists_a_fixed_variable(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--poly", "x1^3*x2 - x2*x3^2", "--p", "5"])
    assert code == 0
    assert "  fixed  x2: power=1" in out.splitlines()


@pytest.mark.parametrize("monomial, message", [
    ("", "empty monomial"),
    ("4,1,2", "expected 2 exponents, got 3"),
    ("x3^2", "variable x3 exceeds declared count 2"),
], ids=["empty", "length", "variable"])
def test_trace_refuses_a_bad_monomial(capsys, monomial, message):
    argv = ["trace", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--monomial", monomial]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_trace_plain(capsys):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--monomial", "4,1"],
    )
    assert code == 0
    assert "member=False" in out
    assert "M=1" in out and "convergent=False" in out


def test_trace_json_steps(capsys):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1",
         "--monomial", "x1^4*x2", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["member"] is False
    assert data["mmax_scanned"] == 1
    assert data["steps"][0]["intermediate"] == [1, 1]
    assert data["steps"][0]["candidate"] == [1, 3]


def test_mult_plain(capsys):
    code, out, _ = run_cli(capsys, ["mult", "--poly", "x1^3 - x2^2", "--p", "5"])
    assert code == 0
    assert out.splitlines() == [
        "e_HK = 2",
        "for n >= 3, period 2 in n, with q = 5^n:",
        "  n = 0 (mod 2): HK = 2*q^1",
        "  n = 1 (mod 2): HK = 2*q^1",
    ]
    code, out, _ = run_cli(capsys, ["mult", "--poly", "x1^2*x2 - x2*x3", "--p", "3"])
    assert (code, out.splitlines()[0], out.splitlines()[-1]) == (
        0, "e_HK = 2", "  n = 0 (mod 1): HK = 2*q^2 - 1*q^1"
    )
    code, out, _ = run_cli(capsys, ["mult", "--poly", "x1^9*x2^2*x3 - x2^5*x3^9*x4^2", "--p", "2"])
    assert (code, out.splitlines()[0]) == (0, "e_HK = 310/27")
    assert "  n = 3 (mod 6): HK = 310/27*q^3 - 205/9*q^2 - 68/3*q^1 + 16/27*q^0" in out.splitlines()


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("command", ["hk", "table"])
def test_value_over_digit_limit_exits_3(capsys, command, fmt):
    # HK(5^6200) has more decimal digits than the interpreter writes (4300 by default)
    argv = [command, "--poly", "x1^3*x2 - x2^2*x3^2", "--p", "5", "--format", fmt]
    argv += ["--n", "6200"] if command == "hk" else ["--n-range", "6200..6200"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    if fmt == "json":
        error = json.loads(err)["error"]
        assert error["type"] == "ResourceError"
        # both formats name the same integer: the value's 8668 digits (from q^2), not q's 4334
        _, _, plain = run_cli(capsys, argv + ["--format", "plain"])  # the last --format wins
        assert plain.startswith(f"error: the value has at least {error['required']} decimal digits ")
    else:
        assert err.startswith("error: the value has at least ") and len(err.splitlines()) == 1


def test_digit_limit_names_the_value_in_every_subcommand(tmp_path, capsys):
    # q = 5^6151 has 4300 digits, at the limit, so only the exact check after
    # computing refuses HK(q) = 5q - 6, and both name its 4301 digits
    ns = ["--n-range", "6151..6151"]
    for argv in (["hk", "--n", "6151"], ["table"] + ns):
        code, out, err = run_cli(capsys, argv + ["--poly", "x1^3*x2^3 - x1^2*x2^3", "--p", "5"])
        assert (code, out) == (3, "")
        assert err.startswith("error: an integer of 4301 decimal digits "), argv
    # check skips direct and oracle there, and refuses the closed value of x1^6 - x2^5
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"poly": "x1^6 - x2^5", "p": 5, "n": 6151}) + "\n")
    code, out, err = run_cli(capsys, ["check", "--corpus", str(corpus)])
    assert (code, out) == (3, "")
    assert err.startswith("error: an integer of 4301 decimal digits ")


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_table_refuses_q_past_the_digit_limit_in_every_format(capsys, fmt):
    # m = 1: q = (10^20 + 39)^215 has 4301 digits, one more than the lower bound that
    # refuses before computing counts, so q itself is refused before anything is printed
    argv = ["table", "--poly", "x1^3 - x1", "--p", str(10**20 + 39), "--n-range", "215..215"]
    code, out, err = run_cli(capsys, argv + ["--format", fmt])
    assert (code, out) == (3, "")
    assert "an integer of 4301 decimal digits is over the interpreter's limit of 4300" in err


M3, M1 = ("x1^3*x2 - x2^2*x3^2", 1397941), ("x1^3 - x1", 2096911)


@pytest.mark.parametrize(
    "argv, case, n, subject",
    [
        ([cmd] + engine, M3, 1000000, "the value")
        for engine in ([], ["--engine", "direct"], ["--engine", "oracle"])
        for cmd in ("hk", "table")
    ] + [(["hk"], M1, 3000000, "q"), (["table"], M1, 3000000, "q"),
         (["check"], M3, 1000000, "the value"),
         (["trace", "--monomial", "4,1"], ("x1^3 - x2^2", 6989701), 10000000, "q")],
    ids=["hk", "table", "hk-direct", "table-direct", "hk-oracle", "table-oracle",
         "hk-m1", "table-m1", "check", "trace"],
)
def test_value_too_long_by_kunz_bound_refuses_before_computing(tmp_path, capsys, argv, case, n,
                                                              subject):
    # m = 3: HK(q) >= q^2 = 5^2000000 has 1397941 digits; computing took 21.7 s,
    # direct's budget error took over a second to write q^3, and check ran every
    # engine first.  m = 1: the bound q^0 refuses nothing, but every report writes
    # q = 5^3000000 (2096911 digits); hk --format json took 1.7 s to exit 3.  trace
    # writes exponents >= q once its scan converges; at n = 10^7 it built p^n twice (16 s)
    poly, digits = case
    if argv == ["check"]:
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"poly": poly, "p": 5, "n": n}) + "\n")
        argv, subject = argv + ["--corpus", str(corpus)], f"{corpus}:1: bad corpus entry: {subject}"
    else:
        n_flag = ["--n-range", f"1..{n}"] if argv[0] == "table" else ["--n", str(n)]
        argv = argv + n_flag + ["--poly", poly, "--p", "5"]
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert time.perf_counter() - started < 0.25
    error = json.loads(err)["error"]
    assert (code, out, error["type"]) == (3, "", "ResourceError")
    assert (error["required"], error["budget"]) == (digits, sys.get_int_max_str_digits())
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {subject} has at least {digits} decimal digits")


@pytest.mark.parametrize(
    "argv", [["hk", "--engine", "direct"], ["hk", "--engine", "oracle"], ["check"]]
)
def test_budget_error_over_digit_limit_exits_3(tmp_path, capsys, argv):
    # q^m = 5^7500 is over every budget and has more digits than the interpreter
    # writes, while Kunz's bound q^2 (3495 digits) does not refuse before computing;
    # check skips the budget errors, so there Kunz's bound q^2 = 5^12400 refuses the line
    poly, p, n = "x1^3*x2 - x2^2*x3^2", 5, 2500
    if argv == ["check"]:
        n = 6200
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"poly": poly, "p": p, "n": n}) + "\n")
        argv = argv + ["--corpus", str(corpus)]
    else:
        argv = argv + ["--poly", poly, "--p", str(p), "--n", str(n)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv,required,budget",
    [
        (["--engine", "oracle", "--n", "3"], 5**9, 10**6),
        (["--n", "6200"], "digits of the value", sys.get_int_max_str_digits()),
        (["--engine", "direct", "--n", "2500"], None, 10**7),  # 5^7500: too long to write
    ],
)
def test_json_resource_error_has_required_and_budget(capsys, argv, required, budget):
    poly = "x1^3*x2 - x2^2*x3^2"
    code, out, err = run_cli(capsys, ["hk", "--poly", poly, "--p", "5", "--format", "json"] + argv)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["budget"]) == ("ResourceError", budget)
    if required == "digits of the value":  # q = 5^6200 is over the limit too, with fewer
        value = hk(parse_binomial(poly, 5), 5, 6200).value
        assert 10 ** (error["required"] - 1) <= value < 10 ** error["required"]
    else:
        assert error["required"] == required


def _ints(obj):
    """Every int (not bool) in a JSON value."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _ints(v)]
    return [obj] if type(obj) is int else []


BIG_P, BIG_E = 10**18 + 3, 2**53 + 1  # p > 2^53 makes q and HK large; an exponent 2^53 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hk", "--poly", "x1^3 - x2^2", "--p", str(BIG_P), "--n", "1"],
        ["hk", "--poly", f"x1^{BIG_E}*x2 - x2^2", "--p", "5", "--n", "1"],
        ["hk", "--poly", "x1^3 - x2^2", "--p", str(BIG_P), "--n", "1", "--engine", "closed",
         "--verbose"],
        ["table", "--poly", "x1^3 - x2^2", "--p", str(BIG_P), "--n-range", "1..2"],
        ["mult", "--poly", "x1^3 - x2^2", "--p", str(BIG_P)],
        ["classify", "--poly", f"x1^{2**53}*x2 - x2^2", "--p", "5"],  # a delta of -2^53
        ["trace", "--poly", "x1^3 - x2^2", "--p", str(BIG_P), "--n", "1",
         "--monomial", f"{3 * 2**53},2"],
        ["check"],
    ],
    ids=["hk-p", "hk-exponent", "hk-closed-verbose", "table", "mult", "classify", "trace",
         "check"],
)
def test_every_json_int_survives_a_double(tmp_path, capsys, argv):
    # every payload goes through one writer, which turns each int outside
    # (-2^53, 2^53) into a decimal string: p, the classification, the trace's
    # vectors and scan bound, and each corpus entry's p included
    if argv == ["check"]:
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"poly": "x1^3 - x2^2", "p": BIG_P, "n": 1}) + "\n")
        argv = argv + ["--corpus", str(corpus)]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    payload.pop("timing", None)
    if argv[0] == "check":  # q^2 = BIG_P^2 is over both budgets: one value, unchecked
        (entry,) = payload["data"]
        assert (code, entry["agree"], len(entry["values"])) == (1, False, 1)
    else:
        assert code == 0
    assert [x for x in _ints(payload) if not -(2**53) < x < 2**53] == []
    assert any(f'"{big}"' in out for big in (BIG_P, BIG_E, 2**53, 3 * 2**53))  # as a string


LONG = "9" * (sys.get_int_max_str_digits() + 100)  # one literal int() refuses to convert
NINES = "9" * sys.get_int_max_str_digits()  # the longest it converts: plus 1, one digit more


@pytest.mark.parametrize(
    "argv, digits",
    [
        (["hk", "--poly", f"{LONG}*x1 - x2", "--p", "5", "--n", "1"], len(LONG)),
        (["table", "--poly", f"x{LONG} - x2", "--p", "5", "--n-range", "1..1"], len(LONG)),
        (["mult", "--poly", f"x1^{LONG}*x2 - x2^2", "--p", "5"], len(LONG)),
        (["classify", "--poly", f"x1^{LONG}*x2 - x2^2", "--p", "5"], len(LONG)),
        (["trace", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--monomial", f"4,{LONG}"],
         len(LONG)),
        (["trace", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--monomial", f"x1^{LONG}"],
         len(LONG)),
        (["check", f"x1^{LONG}*x2 - x2^2"], len(LONG)),
        # like factors: each literal converts, their sum does not
        (["classify", "--poly", f"x1^{NINES}*x1 - x2", "--p", "5"], len(NINES) + 1),
        (["trace", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--monomial", f"x1^{NINES}*x1"],
         len(NINES) + 1),
        (["check", f"x1^{NINES}*x1 - x2"], len(NINES) + 1),
    ],
    ids=["coefficient", "variable", "exponent", "classify", "monomial-list", "monomial",
         "check", "like-factors", "like-factors-monomial", "like-factors-check"],
)
def test_over_long_integer_literal_is_a_resource_error(tmp_path, capsys, argv, digits):
    # int() and str() raise a bare ValueError past the interpreter's digit limit: a traceback
    prefix, limit = "", sys.get_int_max_str_digits()
    if argv[0] == "check":
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"poly": argv[1], "p": 5, "n": 1}) + "\n")
        argv, prefix = ["check", "--corpus", str(corpus)], f"{corpus}:1: bad corpus entry: "
    literal = "literal " if digits == len(LONG) else ""
    message = f"{prefix}an integer {literal}of {digits} decimal digits is over the interpreter's"
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    error = json.loads(err)["error"]
    assert (code, out, error["type"]) == (3, "", "ResourceError")
    assert (error["required"], error["budget"]) == (digits, limit)
    assert error["message"] == f"{message} limit of {limit}"
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message} limit of {limit}\n"


def test_variable_count_past_max_vars_is_refused_before_any_vector(capsys):
    # the first took 16.7 s and 2.5 GB before the bound: the most variables whose
    # Kunz bound hk, table and check can write at q = 2, so none of them answers past it
    argvs = [["classify", "--poly", "x1^2 - x3000000", "--p", "5"],
             ["trace", "--poly", "x1^2 - x2", "--vars", "3000000", "--p", "5", "--n", "1",
              "--monomial", "1,1"],
             ["mult", "--poly", f"x1^2 - x{MAX_VARS + 1}", "--p", "5"]]
    for argv in argvs:
        started = time.perf_counter()
        code, out, err = run_cli(capsys, argv + ["--format", "json"])
        assert time.perf_counter() - started < 0.25
        error = json.loads(err)["error"]
        assert (code, out, error["type"], error["budget"]) == (3, "", "ResourceError", MAX_VARS)
        assert error["message"] == f"{error['required']} variables, over the limit of {MAX_VARS}"
    assert parse_binomial(f"x1 - x{MAX_VARS}", 2).m == MAX_VARS
    engines.refuse_unwritable(MAX_VARS, 2, 1)
    with pytest.raises(ResourceError):
        engines.refuse_unwritable(MAX_VARS + 1, 2, 1)


def _key_paths(obj, path=""):
    """Every key path of a JSON value; the items of a list share `path[]`."""
    if isinstance(obj, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in obj.items()]
        return set().union(*({key} | _key_paths(v, key) for key, v in items))
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, path + "[]") for v in obj))
    return set()


_CLASSIFICATION_KEYS = [
    "delta", "m", "neg", "neg[].a", "neg[].b", "neg[].nmax", "neg[].nmin", "neg[].var",
    "perm", "pos", "pos[].dp", "pos[].pmax", "pos[].pmin", "pos[].var", "r", "s", "t",
    "zero", "zero[].var", "zero[].zmax", "zero[].zmin",
]
_REPORT_KEYS = [
    "data", "data.engine", "data.guard_notes", "data.m", "data.n", "data.p", "data.q",
    "data.value", "timing", "timing.ms", "data.classification",
] + [f"data.classification.{key}" for key in _CLASSIFICATION_KEYS]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["hk", "--n", "2", "--verbose"],
            _REPORT_KEYS + [
                "data.mmax_params", "data.mmax_params[].var", "data.mmax_params[].a",
                "data.mmax_params[].b", "data.mmax_params[].top_value", "data.tables",
                "data.tables.by_bound", "data.tables.by_bound.diffs",
                "data.tables.by_bound.length", "data.tables.by_bound.starts",
            ],
        ),
        (
            ["hk", "--n", "1", "--engine", "oracle"],
            _REPORT_KEYS + [
                "data.oracle", "data.oracle.dead", "data.oracle.live_merged_classes",
                "data.oracle.merges", "data.oracle.nodes",
            ],
        ),
        (["classify"], ["data"] + [f"data.{key}" for key in _CLASSIFICATION_KEYS]),
        (
            ["hk", "--n", "2"],
            _REPORT_KEYS + [
                "data.mmax_params", "data.mmax_params[].var", "data.mmax_params[].a",
                "data.mmax_params[].b", "data.mmax_params[].top_value",
            ],
        ),
    ],
)
def test_json_payload_key_sets(capsys, argv, keys):
    # pinned so that a change to a payload's fields is deliberate; the binomial
    # has a shrinking, a fixed and a growing variable, so every row kind is present
    argv = argv + ["--poly", "x1^2*x2 - x2*x3", "--p", "3", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert sorted(_key_paths(json.loads(out))) == sorted(keys)


def test_check_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"poly": "x1^3 - x2^2", "p": 5, "n": 1}\n'
        '{"poly": "x1^3*x2 - x1*x2", "p": 3, "n": 1}\n'
    )
    argv = ["check", "--corpus", str(corpus), "--format", "json", "--workers", "1"]  # the bench's
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    assert len(payload["data"]) == 2


def test_check_runs_one_loop_whatever_workers_says(tmp_path, capsys, monkeypatch):
    # --workers is accepted and does nothing: no value starts a thread, and the
    # entries keep input order, byte for byte the same at every value
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"poly": "x1^3*x2 - x1*x2", "p": 3, "n": 1}\n'
        '{"poly": "x1^3 - x2^2", "p": 5, "n": 1}\n'
    )

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    outs = []
    for workers in ("1", "4", str(10**9)):
        argv = ["check", "--corpus", str(corpus), "--format", "json", "--workers", workers]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert [(e["p"], e["n"]) for e in json.loads(outs[0])["data"]] == [(3, 1), (5, 1)]


def test_check_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"poly": "x1^3 - x2^2", "p": 5, "n": 1}\n')
    real = engines.hk_direct_count

    def broken(f, q, enum_cap=10**7):
        return real(f, q, enum_cap=enum_cap) + 1

    monkeypatch.setattr(engines, "hk_direct_count", broken)
    code, out, _ = run_cli(capsys, ["check", "--corpus", str(corpus)])
    assert code == 1
    assert "MISMATCH" in out


UNCHECKED_LINES = [
    # a monomial shape at q^m = 5^16: direct and oracle are over budget
    ("x1^2*x2 - x1", 8, "monomial", "390625"),
    # the closed form at q^m = 5^24: the same
    ("x1^3 - x2^2", 12, "closed", "488281250"),
]


@pytest.mark.parametrize("poly, n, engine, value", UNCHECKED_LINES)
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_check_entry_with_one_value_is_unchecked(tmp_path, capsys, fmt, poly, n, engine, value):
    # one value compares nothing: the entry fails, as a mismatch does
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"poly": poly, "p": 5, "n": n}) + "\n")
    code, out, err = run_cli(capsys, ["check", "--corpus", str(corpus), "--format", fmt])
    assert (code, err) == (1, "")
    if fmt == "json":
        payload = json.loads(out)
        (entry,) = payload["data"]
        assert payload["all_agree"] is False
        assert (entry["agree"], entry["values"]) == (False, {engine: value})
        assert sorted(entry["skipped"]) == ["direct", "oracle"]
    else:
        line = f"UNCHECKED {render(parse_binomial(poly, 5))} p=5 n={n} {engine}={value}"
        assert out == line + "\n1 instances, all_agree=False\n"


def test_check_names_each_verdict_on_a_mixed_corpus(tmp_path, capsys, monkeypatch):
    # direct is off by one at p = 3 only, so one line agrees and two are mismatches,
    # the last with two values: q^m = 3^14 is over the oracle's budget
    lines = [(poly, 5, n) for poly, n, _, _ in UNCHECKED_LINES]
    lines += [("x1^3 - x2^2", 5, 1), ("x1^3*x2 - x1*x2", 3, 1), ("x1^3 - x2^2", 3, 7)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"poly": a, "p": p, "n": n}) + "\n" for a, p, n in lines))
    real = engines.hk_direct_count

    def broken(f, q, enum_cap=10**7):
        return real(f, q, enum_cap=enum_cap) + (q.p == 3)

    monkeypatch.setattr(engines, "hk_direct_count", broken)
    code, out, _ = run_cli(capsys, ["check", "--corpus", str(corpus)])
    assert code == 1
    *rows, total = out.splitlines()
    assert [row.split()[0] for row in rows] == [
        "UNCHECKED", "UNCHECKED", "ok", "MISMATCH", "MISMATCH"]
    assert total == "5 instances, all_agree=False"
    code, out, _ = run_cli(capsys, ["check", "--corpus", str(corpus), "--format", "json"])
    entries = json.loads(out)["data"]
    assert code == 1
    assert [(e["agree"], len(e["values"])) for e in entries] == [
        (False, 1), (False, 1), (True, 3), (False, 3), (False, 2)]


_BASE_ARGV = {
    "hk": ["--poly", "x1^3 - x2^2", "--p", "5", "--n", "1"],
    "table": ["--poly", "x1^3 - x2^2", "--p", "5", "--n-range", "1..2"],
    "mult": ["--poly", "x1^3 - x2^2", "--p", "5"],
    "classify": ["--poly", "x1^3 - x2^2", "--p", "5"],
    "trace": ["--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--monomial", "4,1"],
    "check": [],  # --corpus is added by the test
}
_UNREAD_FLAGS = [
    *[(cmd, ["--workers", "1"]) for cmd in ("hk", "table", "mult", "classify", "trace")],
    *[(cmd, ["--verbose"]) for cmd in ("table", "mult", "classify", "trace", "check")],
    *[(cmd, [cap, "5"]) for cmd in _BASE_ARGV for cap in ("--enum-cap", "--oracle-cap")],
    *[(cmd, ["--format", "csv"]) for cmd in ("hk", "mult", "classify", "trace", "check")],
    ("mult", ["--n-range", "1..2"]),
    ("hk", ["--format", "xml"]),
]


@pytest.mark.parametrize(
    "command,flag", [pytest.param(c, f, id=" ".join([c] + f)) for c, f in _UNREAD_FLAGS]
)
def test_flag_a_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"poly": "x1^3 - x2^2", "p": 5, "n": 1}\n')
    argv = [command] + _BASE_ARGV[command]
    if command == "check":
        argv += ["--corpus", str(corpus)]
    assert run_cli(capsys, argv)[0] == 0
    code, out, err = run_cli(capsys, argv + flag)
    assert (code, out) == (2, "")
    assert flag[0] in err


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_bad_budget_is_a_usage_error_in_the_requested_format(tmp_path, capsys, fmt):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"poly": "x1^3 - x2^2", "p": 5, "n": 1}\n')
    argv = ["check", "--corpus", str(corpus), "--workers", "0", "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    message = "workers must be a positive integer, got 0"
    if fmt == "json":
        assert json.loads(err) == {"error": {"type": "DomainError", "message": message}}
    else:
        assert err == f"error: {message}\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize(
    "argv",
    [["table", "--poly", "x1^3 - x2^2", "--p", "5", "--n-range", "1..300"],  # about 60 KB
     ["mult", "--poly", "x1^2*x2 - x2^860", "--p", "3"]],  # period 858: about 34 KB
    ids=["table", "mult"],
)
def test_closed_stdout_ends_hkb_as_it_ends_any_filter(argv):
    # `hkb table ... | head -1` printed "error: [Errno 32] Broken pipe" and exited 2;
    # now SIGPIPE ends it with nothing on stderr (shell status 141), as it ends `seq`.
    # The pipe is cut to one page so that the output cannot all fit in it before the close
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe's size cannot be set on this platform")
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    hkb = [sys.executable, "-c", "from hkbinomial.cli import main; main()"]
    proc = subprocess.Popen(hkb + argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        line += os.read(read_end, 1)
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert line.startswith((b"n=1 q=5 hk=10 ", b"e_HK = "))
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


@pytest.mark.parametrize("p", ["0", "1", "-5"])
@pytest.mark.parametrize(
    "argv",
    [["hk", "--n", "1"], ["table", "--n-range", "1..2"], ["mult"],
     ["classify"], ["trace", "--n", "1", "--monomial", "1,1"]],
    ids=["hk", "table", "mult", "classify", "trace"],
)
def test_non_prime_p_is_a_usage_error(capsys, argv, p):
    code, out, err = run_cli(capsys, argv + ["--poly", "x1^3 - x2^2", "--p", p])
    assert (code, out) == (2, "") and err == f"error: {p} is not prime\n"


def test_classify_at_a_large_prime_is_fast(capsys):
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, ["classify", "--poly", "x1^3 - x2^2", "--p", str(10**18 + 3)])
    assert code == 0 and out
    assert time.perf_counter() - started < 1.0


def test_classify_past_the_primality_bound_is_a_resource_error(capsys):
    argv = ["classify", "--poly", "x1^3 - x2^2", "--p", "3317044064679887385961981"]
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    error = json.loads(err)["error"]
    assert (code, out, error["type"]) == (3, "", "ResourceError")
    assert error["required"] == error["budget"] == "3317044064679887385961981"


@pytest.mark.parametrize(
    "line,error_type,message",
    [
        ('{"poly": "x1^3 - x2^2", "p": 0, "n": 1}', "DomainError", "0 is not prime"),
        ('{"poly": "x1^3 - x2^2", "p": 5, "n": 0}', "DomainError", "exponent n must be positive"),
        ('{"poly": "x1^3 - x2^2", "p": 5}', "ParseError", "missing key 'n'"),
        ('{"poly": "x1^3 +", "p": 5, "n": 1}', "ParseError", "empty factor in term"),
        ('{"poly": "x1^3 - x2^2", "p": 5, "n": 1', "ParseError", "not JSON: "),
        ("[" * 100_000, "ParseError", "not JSON: nested too deeply"),
        ('{"poly": "x1\udcff", "p": 5, "n": 1}', "ParseError", "not UTF-8: "),  # byte 0xff
        ('\ufeff{"poly": "x1^3 - x2^2", "p": 5, "n": 1}', "ParseError",
         "not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ],
    ids=["p-0", "n-0", "missing-key", "bad-poly", "bad-json", "deep-json", "not-utf8", "bom"],
)
def test_bad_corpus_line_is_a_usage_error_of_its_own_class(tmp_path, capsys, line, error_type,
                                                           message):
    # the class the fault has outside a corpus (classify --p 0 is a DomainError), not HKError
    corpus = tmp_path / "corpus.jsonl"
    text = '{"poly": "x1^3 - x2^2", "p": 5, "n": 1}\n' + line + "\n"
    corpus.write_bytes(text.encode("utf-8", "surrogateescape"))
    prefix = f"{corpus}:2: bad corpus entry: "
    code, out, err = run_cli(capsys, ["check", "--corpus", str(corpus), "--format", "json"])
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    error = json.loads(err)["error"]
    assert error["type"] == error_type and error["message"].startswith(prefix + message)
    assert run_cli(capsys, ["check", "--corpus", str(corpus)])[:2] == (2, "")


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--poly", "x1^3 - x2^2", "--p", "5", "--n-range", "1..2", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"data": [
        {"n": 1, "q": 5, "hk": "10", "engine": "closed", "estimate": {"num": "2", "den": "1"}},
        {"n": 2, "q": 25, "hk": "50", "engine": "closed", "estimate": {"num": "2", "den": "1"}},
    ]}


def test_mult_json_and_csv(capsys):
    # fractions are strings; csv went with the per-n rows, which table still writes
    argv = ["mult", "--poly", "x1^9*x2^2*x3 - x2^5*x3^9*x4^2", "--p", "2", "--format"]
    code, out, _ = run_cli(capsys, argv + ["json"])
    data = json.loads(out)["data"]
    assert code == 0
    assert {k: data[k] for k in ("m", "p", "n0", "period", "e_hk")} == {
        "m": 4, "p": 2, "n0": 9, "period": 6, "e_hk": "310/27",
    }
    assert data["classes"][3] == {
        "residue": 3, "coefficients": ["16/27", "-68/3", "-205/9", "310/27"],
    }
    assert run_cli(capsys, argv + ["csv"])[:2] == (2, "")


def test_mult_over_budget_is_a_resource_error(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(multiplicity, "closed_form_at", lambda *a: calls.append(a))
    argv = ["mult", "--poly", "x1 - x3000", "--p", "5", "--format", "json"]
    gc.collect()  # earlier tests' garbage: a full pass over it is not the refusal's cost
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - started < 0.1
    error = json.loads(err)["error"]
    assert (code, out, error["type"], calls) == (3, "", "ResourceError", [])
    assert int(error["required"]) > error["budget"] == multiplicity.WORK_BUDGET  # required > 2^53


def test_mult_answers_a_large_period_at_a_large_prime(capsys):
    argv = ["mult", "--poly", "x1^97*x2 - x2^10*x3^5", "--p", "1000003"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out.startswith("e_HK = 1410/97\n")


def test_corpus_line_with_an_over_long_int_is_a_resource_error(tmp_path, capsys):
    # json.loads raises a bare ValueError on such an int: the interpreter's text, exit 2
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"poly": "x1^3 - x2^2", "p": 5, "n": 1' + "0" * 4400 + "}\n")
    code, out, err = run_cli(capsys, ["check", "--corpus", str(corpus), "--format", "json"])
    assert (code, out, len(err.splitlines())) == (3, "", 1)
    error = json.loads(err)["error"]
    assert (error["type"], error["required"], error["budget"]) == (
        "ResourceError", 4401, sys.get_int_max_str_digits())
    assert error["message"].startswith(f"{corpus}:1: bad corpus entry: an integer literal of 4401")


@pytest.mark.parametrize("digits, code", [(4300, 2), (4301, 3)])
def test_corpus_sign_is_not_a_digit(tmp_path, capsys, digits, code):
    # int() takes "-" and 4300 digits, so only 4301 is over the limit; n < 1 is refused
    # as the line is read, with its prefix, not later by the engines without one
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"poly": "x1^3 - x2^2", "p": 5, "n": -' + "1" * digits + "}\n")
    prefix = f"{corpus}:1: bad corpus entry: "
    message = {2: "exponent n must be positive, got -11",
               3: "an integer literal of 4301 decimal digits"}[code]
    for fmt in ("plain", "json"):
        got, out, err = run_cli(capsys, ["check", "--corpus", str(corpus), "--format", fmt])
        assert (got, out, len(err.splitlines())) == (code, "", 1)
        text = json.loads(err)["error"]["message"] if fmt == "json" else err.removeprefix("error: ")
        assert text.startswith(prefix + message)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_corpus_line_keeps_its_resource_error(tmp_path, capsys, fmt):
    # p past the exact primality bound: classify exits 3 on it, and so does check
    p = 3317044064679887385961981
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"poly": "x1^3 - x2^2", "p": 5, "n": 1}) + "\n"
                      + json.dumps({"poly": "x1^3 - x2^2", "p": p, "n": 1}) + "\n")
    code, out, err = run_cli(capsys, ["check", "--corpus", str(corpus), "--format", fmt])
    assert (code, out) == (3, "")
    if fmt == "json":
        error = json.loads(err)["error"]
        assert (error["type"], error["required"], error["budget"]) == ("ResourceError", str(p), str(p))
        message = error["message"]
    else:
        message = err.removeprefix("error: ")
    assert message.startswith(f"{corpus}:2: bad corpus entry: ")


def test_hk_verbose_names_the_engine_on_stderr(capsys):
    argv = ["hk", "--poly", "x1^3 - x2^2", "--p", "5", "--n", "1", "--verbose"]
    assert run_cli(capsys, argv) == (0, "10\n", "engine: closed\n")
    assert run_cli(capsys, argv + ["--engine", "oracle"]) == (0, "10\n", "engine: oracle\n")
    assert run_cli(capsys, argv[:-1]) == (0, "10\n", "")


@pytest.mark.parametrize("command", ["table", "mult"])
@pytest.mark.parametrize("n_range", ["1..", "3..2", "0..2"])
def test_bad_n_range_is_a_usage_error(capsys, command, n_range):
    argv = [command, "--poly", "x1^3 - x2^2", "--p", "5", "--n-range", n_range]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    if command == "mult":  # its answer holds for every n, so it takes no range at all
        assert err.endswith(f"error: unrecognized arguments: --n-range {n_range}\n")
        return
    message = f"bad range {n_range!r}" + (", expected a..b" if n_range == "1.." else "")
    assert err == f"error: {message}\n"
    # text that is not a..b does not parse; an empty or non-positive range is out of domain
    kind = "ParseError" if n_range == "1.." else "DomainError"
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"type": kind, "message": message}}
