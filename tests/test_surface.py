"""Every name the library defines has a caller outside the tests.

A top-level function or class, or a public method or property, defined in
`src/hkbinomial/*.py` must be referenced somewhere in `src/`, `bench/`,
`demos/` or `pyproject.toml`.  Its own definition does not count, and
neither does its re-export from `__init__.py`: a name only the tests reach
belongs in `tests/`.  References are read from the syntax tree (names,
attributes, imported names, and string constants equal to a name, as in
`getattr`-style lookups) and matched by name alone, so a mention in a
comment or docstring does not count.

Every dataclass field and `__slots__` entry defined in `src/` must be
read as an attribute (`x.field`) or named in a string constant somewhere in
`src/`, `bench/` or `demos/`: a field that is only ever written is dead
weight.  Passing it by keyword does not count.

Every flag of `hkb` must be read as `args.<dest>` in `cli.py`, so a flag
cannot outlive the code that used it, and the flags README names are the
flags `hkb` takes, no more and no fewer.

JSON is written in one place: `json.dumps` is called only in
`cli._dump_json`, which applies the 2^53 integer rule to every payload, and
no module but `cli.py` names `JSON_INT_LIMIT`, so that rule cannot drift
back to one field at a time.

The closed form is one body on an integer q: in `closedform.py` only the
public (p, n) wrappers name `PrimePower` or `check_field`, and
`multiplicity.py` interpolates that body: it imports from no module of the
package but `algebra`, `classify`, `closedform` and `errors`, so never from
the engine dispatcher's `engines`, and `hk_quasi_polynomial` leaves the
monomial shapes to the body.

The enumerating engines stand alone: `keycheck.py` and `oracle.py` import
from no module of the package but `algebra` and `errors`, so the direct count
cannot grow into the closed form it checks.

Every library attribute that the benchmark's tracer replaces by name
(`tracer.interpose(module, "attr", ...)` in `bench/worker.py`) must exist,
so a rename that would break `bench/run.py --trace 1` fails here.  So must
everything else the benchmark reads of the library: the `hkb check` argv it
runs parses, every report attribute it reads exists, and every name it
imports from `hkbinomial` exists.

The test extra is what the tests import: the top-level modules imported
under `tests/`, less the standard library, `hkbinomial` and `tests`, are
the names `pyproject.toml` lists in its `test` extra, so a test
dependency can be neither left undeclared nor declared after its last use.
No file under `tests/` imports a `tests.test_*` module: pytest already
imports each test file under its bare name, so such an import loads it a
second time; what test files share lives in `conftest.py` or a reference
module.  Every top-level name of a reference module (`tests/*_reference.py`,
`tests/dense_rank.py`) is reached from a test file, directly or through
another reached name, so a reference cannot outlive its tests.

The mutation probe's list of accepted survivors is not stale: the probe's
mutant generator (`tools/mutants.py`, read without running any test) is
deterministic, and every entry of `tools/mutants_accepted.txt` names a
mutant it still makes and gives a one-line reason.
"""

import argparse
import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import hkbinomial
from hkbinomial import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hkbinomial"


def defined_names():
    """(module, name) for each top-level def/class and public method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (path.stem, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return out


def trees_outside_tests():
    """Syntax trees of the code in `src/`, `bench/` and `demos/`."""
    for d in ("src", "bench", "demos"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path != PACKAGE / "__init__.py":  # only re-exports: imports and __all__
                yield ast.parse(path.read_text(encoding="utf-8"))


def referenced_names():
    """Identifiers used by the code outside `tests/`."""
    used = set()
    for tree in trees_outside_tests():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    used.add(node.value)
    used.update(re.findall(r"[A-Za-z_]\w*", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    return used


def test_every_library_name_has_a_caller_outside_tests():
    used = referenced_names()
    unused = [
        f"{module}.{name}"
        for module, name in defined_names()
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unused == [], f"defined in src/ but reached only from tests/: {unused}"


def declared_fields():
    """(class, field) for each dataclass field and `__slots__` entry in src/."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            for item in node.body:
                if dataclass and isinstance(item, ast.AnnAssign):
                    out.append((node.name, item.target.id))
                elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    out.extend((node.name, slot) for slot in ast.literal_eval(item.value))
    return out


def read_fields():
    """Attribute names loaded, and string constants, in the code outside `tests/`."""
    read = set()
    for tree in trees_outside_tests():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def test_every_field_is_read_outside_tests():
    read = read_fields()
    fields = declared_fields()
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert len(fields) >= 40 and unread == [], f"fields only ever written: {unread}"


def cli_actions():
    """Every argparse action of `hkb` and of each of its subcommands."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser._actions + [a for cmd in sub.choices.values() for a in cmd._actions]


def test_every_cli_flag_is_read():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }
    dests = {a.dest for a in cli_actions() if not isinstance(a, argparse._HelpAction)}
    unread = sorted(dests - read)
    assert "workers" in dests and unread == [], f"hkb flags cli.py never reads: {unread}"


def test_readme_names_every_flag_and_only_those():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sections = readme.split("\n## ")
    cli_text = "\n".join(sec for sec in sections if not sec.startswith("Install"))  # pip's flags
    named = set(re.findall(r"--[a-z][a-z-]*", cli_text))
    taken = {flag for a in cli_actions() for flag in a.option_strings if flag.startswith("--")}
    taken.discard("--help")
    assert "--workers" in named and named == taken, (
        f"named in README only: {sorted(named - taken)}; taken by hkb only: {sorted(taken - named)}"
    )


def test_every_attribute_the_bench_traces_exists():
    tree = ast.parse((ROOT / "bench" / "worker.py").read_text(encoding="utf-8"))
    traced = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "interpose"
    ]
    missing = [
        f"{module}.{attr}"
        for module, attr in traced
        if not hasattr(importlib.import_module(f"hkbinomial.{module}"), attr)
    ]
    assert len(traced) >= 10 and missing == [], f"bench/worker.py traces missing names: {missing}"


def test_the_bench_reads_only_what_the_library_has(tmp_path):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "bench").glob("*.py"))}
    funcs = {node.name: node for node in ast.walk(trees["worker.py"])
             if isinstance(node, ast.FunctionDef)}
    (argv,) = [node.value for node in ast.walk(funcs["run_cli"]) if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["argv"]]
    corpus = str(tmp_path / "corpus.jsonl")
    words = [corpus if isinstance(e, ast.Name) else ast.literal_eval(e) for e in argv.elts]
    args = cli._build_parser().parse_args(words)  # SystemExit on a flag hkb no longer takes
    assert (args.command, args.corpus) == ("check", corpus)

    rep = hkbinomial.hk(hkbinomial.parse_binomial("x1^3 - x2^2", 5), 5, 2)
    read = {node.attr for name in ("hk_info", "run_values") for node in ast.walk(funcs[name])
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "rep"}
    missing = sorted(attr for attr in read if not hasattr(rep, attr))
    assert {"value", "engine"} <= read and missing == [], f"bench reads missing: {missing}"

    imported = {(name, alias.name) for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "hkbinomial"
                for alias in node.names}
    missing = sorted(f"{name}: {attr}" for name, attr in imported if not hasattr(hkbinomial, attr))
    assert len(imported) >= 10 and missing == [], f"bench imports missing names: {missing}"


def test_json_is_written_in_one_place():
    writers, limit_named = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "dumps" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                owner = node
                while not isinstance(owner, (ast.FunctionDef, ast.Module)):
                    owner = parent[owner]
                writers.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
            names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if "JSON_INT_LIMIT" in names and path.name != "cli.py":
                limit_named.append(path.name)
    assert writers == ["cli._dump_json"], f"json.dumps called outside cli._dump_json: {writers}"
    assert limit_named == [], f"JSON_INT_LIMIT named outside cli.py: {limit_named}"


def test_the_closed_form_body_takes_q_alone():
    wrappers = {"mmax_params", "phi_recursive", "g_chain", "hk_closed_form_tables"}
    tree = ast.parse((PACKAGE / "closedform.py").read_text(encoding="utf-8"))
    naming = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in ("PrimePower", "check_field")
    }
    assert naming and naming <= wrappers, f"q built outside the (p, n) wrappers: {naming - wrappers}"
    reached = package_imports(PACKAGE / "multiplicity.py")
    allowed = {"algebra", "classify", "closedform", "errors"}
    assert "closedform" in reached and reached <= allowed, (
        f"multiplicity.py imports from {sorted(reached - allowed)}")
    tree = ast.parse((PACKAGE / "multiplicity.py").read_text(encoding="utf-8"))
    (body,) = [top for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == "hk_quasi_polynomial"]
    split = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    split &= {"is_monomial_shape", "trail_complement_count"}
    assert not split, f"hk_quasi_polynomial splits the route itself: {sorted(split)}"


def package_imports(path):
    """The modules of the package that a module imports from."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hkbinomial":
                inner = module.removeprefix("hkbinomial").strip(".")
                out |= {inner} if inner else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.removeprefix("hkbinomial.") for alias in node.names
                    if alias.name.split(".")[0] == "hkbinomial"}
    return out


def test_the_enumerating_engines_stand_alone():
    for name in ("keycheck", "oracle"):
        reached = package_imports(PACKAGE / f"{name}.py")
        assert "algebra" in reached and reached <= {"algebra", "errors"}, (
            f"{name}.py imports from {sorted(reached - {'algebra', 'errors'})}")


def test_readme_lists_the_exit_codes_hkb_has():
    # the codes after "Exit codes:" are exactly cli's, so neither changes alone
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = readme.split("Exit codes: ", 1)[1]
    sentence = re.sub(r"\([^)]*\)", "", sentence).split(".", 1)[0]
    listed = [int(re.match(r"\s*(\d+) ", item).group(1)) for item in sentence.split(",")]
    codes = [cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_USAGE, cli.EXIT_RESOURCE]
    assert listed == sorted(codes), f"README lists exit codes {listed}, hkb has {sorted(codes)}"


def test_the_test_extra_is_what_the_tests_import():
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"hkbinomial", "tests"}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = ast.literal_eval(re.search(r"^test = (\[.*\])$", pyproject, re.M).group(1))
    assert imported == {re.match(r"[\w.-]+", req).group() for req in extra}, (imported, extra)


def test_no_test_module_imports_another():
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.startswith("tests.test_")]
    assert found == [], f"test modules imported by other files: {found}"


def test_every_reference_name_is_reached_from_a_test():
    def used(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    uses = {}  # (reference module, top-level name) -> the names its definition uses
    for path in [*(ROOT / "tests").glob("*_reference.py"), ROOT / "tests" / "dense_rank.py"]:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in getattr(node, "targets", [node]):
                name = getattr(target, "name", getattr(target, "id", None))
                if name:
                    uses[path.stem, name] = used(node)
    reached, grown = set(), set().union(*(used(ast.parse(path.read_text(encoding="utf-8")))
                                          for path in (ROOT / "tests").glob("test_*.py")))
    while grown != reached:  # what a reached name's definition uses is reached too
        reached = grown
        grown = reached.union(*(names for (_, name), names in uses.items() if name in reached))
    unreached = sorted(f"{stem}.{name}" for stem, name in uses if name not in reached)
    assert len(uses) > 10 and unreached == [], f"reference names no test reaches: {unreached}"


def test_the_accepted_survivors_name_mutants_the_probe_still_makes():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    names = [name for name, *_ in probe.mutants()]
    assert names == [name for name, *_ in probe.mutants()] and len(set(names)) == len(names)
    accepted = probe.accepted()  # name -> the reason on its line
    stale = sorted(set(accepted) - set(names))
    unexplained = sorted(name for name, reason in accepted.items() if not reason)
    assert len(names) > 300 and stale == [] and unexplained == [], (stale, unexplained)
