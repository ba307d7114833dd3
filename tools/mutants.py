"""Mutation probe: which tests notice a one-token change of the value path.

Run from anywhere, with no arguments: `python tools/mutants.py`.

Each mutant makes one change inside one function of VALUE_PATH: `+` and
`-` swap (also in `+=` and `-=`), `<` and `<=`, `>` and `>=`, `*` and `//`
(also in `*=` and `//=`), or an int constant becomes one more.  Error
messages (f-strings) are not mutated.  A mutant is named by its module and
function, the source text of the node before and after, and its index
among the same change in that function: `module.function: old -> new [k]`,
never by line number.

The probe copies the repository to WORKERS temporary directories and first
runs each test file clean, once timed and once with a profiler that records
which VALUE_PATH functions the file calls.  Then it runs WORKERS mutants at
once, each in a copy of its own: it writes the mutated function into the
copy and runs every test file that calls that function, and every file that
starts a subprocess (the profiler does not see into those), each in its own
pytest process, one after another, with a timeout of three times the
file's clean time plus five seconds.  Every failing test is recorded.  A
timeout ends every process the file's run started; it keeps the failures
the run had printed and records the test that was running as
`<test>::timeout` (`<file>::timeout` if none had started).
The one test that reads this list (SELF_CHECK) is not run: it reads the
mutated source, so it would fail under any mutant that renames a survivor.
That record, mutant -> failing tests, is the kill matrix, written to
`.mutants/kill_matrix.json` under the repository root.

A mutant no test kills is a survivor.  The survivors must be exactly the
entries of `tools/mutants_accepted.txt`, each a line `name  # reason`
saying why the mutant is equivalent or unreachable.  The exit status is
0 when they are, 1 otherwise.  On 2 cores the probe takes about an hour.
"""

import ast
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCEPTED = ROOT / "tools" / "mutants_accepted.txt"
OUT = ROOT / ".mutants" / "kill_matrix.json"
VALUE_PATH = {
    "algebra": ("is_prime", "deglex_compare", "Term.__post_init__", "PrimePower.__post_init__",
                "Binomial.__post_init__", "_literal", "decimal_str", "_refuse_many_vars",
                "_parse_term", "parse_binomial", "render_term", "parse_monomial"),
    "classify": ("_classify",),
    "closedform": ("ceil_div", "_mmax_at", "_phi_at", "is_monomial_shape", "trail_complement_count",
                   "PiecewisePoly.__init__", "PiecewisePoly.__call__", "_newton", "closed_form_at"),
    "engines": ("refuse_unwritable", "hk", "_check_instance", "load_corpus", "_corpus_entry"),
    "cli": ("_jsonable", "_parse_range", "_cmd_table", "_cmd_check", "run", "_int_or_null"),
    "keycheck": ("_check_standard", "_lead_scan_bound", "member_scan", "hk_direct_count"),
    "multiplicity": ("_two_variable_case", "hk_1dim", "hk_quasi_polynomial", "_interpolate"),
    "oracle": ("hk_oracle_report", "_box", "_repeat", "node_index"),
}
WORKERS = 2  # mutants run at once, each in its own copy of the repository
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
# reads the mutants' names from the source, so a mutant of a function with an
# accepted survivor renames that survivor and fails it: not run under the probe
SELF_CHECK = "tests/test_surface.py::test_the_accepted_survivors_name_mutants_the_probe_still_makes"
# a test's line in `pytest -v` output once it has run: its id and outcome
STATUS = re.compile(r"(.*?) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b")
# profiles one test file's pytest run: argv[1] the file, argv[2] where to write what it called
TRACER = """
import json, pathlib, sys, pytest
called = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and "hkbinomial" in code.co_filename:
        called.add(code.co_filename.rsplit("/", 1)[-1][:-3] + "." + code.co_qualname.split(".<locals>")[0])
sys.setprofile(profile)
pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]])
sys.setprofile(None)
pathlib.Path(sys.argv[2]).write_text(json.dumps(sorted(called)))
"""


def functions(module):
    """(qualified name, node) of the module's VALUE_PATH functions, in that order."""
    tree = ast.parse((ROOT / "src" / "hkbinomial" / f"{module}.py").read_text(encoding="utf-8"))
    found = {}
    for top in tree.body:
        inner = top.body if isinstance(top, ast.ClassDef) else []
        for node in [top] + inner:
            if isinstance(node, ast.FunctionDef):
                found[f"{top.name}.{node.name}" if node is not top else node.name] = node
    return [(name, found[name]) for name in VALUE_PATH[module]]


def sites(func):
    """(slot, key, replacement, shown) for each change the probe makes in func's
    body, in a fixed order, f-strings skipped: the change sets slot[key] to the
    replacement, and `shown` is the node whose text names it, the changed node
    or a constant's parent."""
    body = [node for stmt in func.body for node in ast.walk(stmt)]
    skip = {id(n) for s in body if isinstance(s, ast.JoinedStr) for n in ast.walk(s)}
    parent = {id(child): node for node in body for child in ast.iter_child_nodes(node)}
    out = []
    for node in body:
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append((vars(node), "op", SWAPS[type(node.op)](), node))
        elif isinstance(node, ast.Compare):
            out += [(node.ops, i, SWAPS[type(op)](), node) for i, op in enumerate(node.ops)
                    if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((vars(node), "value", node.value + 1, parent[id(node)]))
    return out


def mutants():
    """[(name, module, function, site number)], deterministic."""
    out = []
    for module in VALUE_PATH:
        for qualname, func in functions(module):
            seen = {}
            for k, (slot, key, new, shown) in enumerate(sites(func)):
                before = ast.unparse(shown)
                slot[key], old = new, slot[key]
                after = ast.unparse(shown)
                slot[key] = old
                seen[before, after] = seen.get((before, after), -1) + 1
                out.append((f"{module}.{qualname}: {before} -> {after} [{seen[before, after]}]",
                            module, qualname, k))
    return out


def mutated_source(module, qualname, k):
    """The module's source with site k of the function changed."""
    path = ROOT / "src" / "hkbinomial" / f"{module}.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    func = dict(functions(module))[qualname]
    slot, key, new, _ = sites(func)[k]
    slot[key] = new
    indent = " " * func.col_offset
    body = [indent + line if line else line for line in ast.unparse(func).splitlines()]
    lines[min(n.lineno for n in [func, *func.decorator_list]) - 1 : func.end_lineno] = body
    return "\n".join(lines) + "\n"


def accepted():
    """{name: reason} from tools/mutants_accepted.txt."""
    out = {}
    for line in ACCEPTED.read_text(encoding="utf-8").splitlines():
        if line.strip():
            name, _, reason = line.partition("  # ")
            out[name] = reason.strip()
    return out


def run_file(work, test_file, timeout):
    """Failing test ids of one pytest run of test_file.  On a timeout, the tests
    that failed before it, and the test that was running, named `<test id>::timeout`
    (`<file>::timeout` when none had started)."""
    report, log = work / ".report.xml", work / ".pytest.out"
    report.unlink(missing_ok=True)
    # -v names each test before it runs, and -u writes that name at once, so a
    # killed run's log ends with the test that hung
    argv = [sys.executable, "-B", "-u", "-m", "pytest", "-v", "-p", "no:cacheprovider",
            f"--junitxml={report}", f"--deselect={SELF_CHECK}", test_file]
    # a session of its own, so a timeout also ends the processes the tests
    # started (a mutated demo that loops would otherwise outlive the probe)
    with open(log, "wb") as out, subprocess.Popen(
            argv, cwd=work, stdout=out, stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return _timed_out(test_file, log.read_text(encoding="utf-8", errors="replace"))
    if not report.exists():  # pytest itself failed
        return [f"{test_file}::no-report"]
    return [f"{case.get('classname')}::{case.get('name')}" for case in ET.parse(report).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None]


def _timed_out(test_file, log):
    """The failing tests and the hung test of a killed `pytest -v` run's log, as
    junit ids (`tests.test_cli::test_x[...]`), the hung one with `::timeout`."""
    failed, running = [], None
    for line in log.splitlines():
        if line.startswith(test_file + "::"):
            done = STATUS.match(line)
            nodeid = done[1] if done else line.strip()
            test = test_file[:-3].replace("/", ".") + nodeid[len(test_file):]
            running = None if done else test
            if done and done[2] in ("FAILED", "ERROR"):
                failed.append(test)
    return failed + [f"{running or test_file}::timeout"]


def main():
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    copies = [scratch / str(i) for i in range(WORKERS)]
    try:
        for work in copies:
            shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
                ".git", ".mutants", "__pycache__", ".bench_run", ".pytest_cache"))
        work = copies[0]
        files = sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py"))
        clean, reach = {}, {}
        for test_file in files:
            started = time.perf_counter()
            if run_file(work, test_file, 600):
                raise SystemExit(f"{test_file} fails unmutated")
            clean[test_file] = time.perf_counter() - started
            if "subprocess" in (ROOT / test_file).read_text(encoding="utf-8"):
                reach[test_file] = None  # runs for every mutant
                continue
            calls = work / ".calls.json"
            subprocess.run([sys.executable, "-B", "-c", TRACER, test_file, str(calls)],
                           cwd=work, capture_output=True, timeout=600)
            reach[test_file] = set(json.loads(calls.read_text()))
        free = queue.Queue()
        for work in copies:
            free.put(work)

        def run_mutant(mutant):
            """Failing tests of every file that reaches the mutant, in a free copy."""
            _, module, qualname, k = mutant
            work = free.get()
            target = work / "src" / "hkbinomial" / f"{module}.py"
            try:
                target.write_text(mutated_source(module, qualname, k), encoding="utf-8")
                return [test for test_file in files
                        if reach[test_file] is None or f"{module}.{qualname}" in reach[test_file]
                        for test in run_file(work, test_file, 3 * clean[test_file] + 5)]
            finally:
                shutil.copy(ROOT / "src" / "hkbinomial" / f"{module}.py", target)
                free.put(work)

        matrix = {}
        every = mutants()
        OUT.parent.mkdir(exist_ok=True)
        with ThreadPoolExecutor(WORKERS) as pool:
            for i, (mutant, failing) in enumerate(zip(every, pool.map(run_mutant, every)), 1):
                matrix[mutant[0]] = failing
                OUT.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")  # so far
                print(f"[{i}/{len(every)}] {len(failing)} kills  {mutant[0]}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    survivors = {name for name, kills in matrix.items() if not kills}
    listed = set(accepted())
    for name in sorted(survivors - listed):
        print(f"SURVIVES, not accepted: {name}")
    for name in sorted(listed - survivors):
        print(f"ACCEPTED, but killed or gone: {name}")
    print(f"{len(matrix)} mutants, {len(survivors)} survive; kill matrix in {OUT}")
    return 0 if survivors == listed else 1


if __name__ == "__main__":
    sys.exit(main())
