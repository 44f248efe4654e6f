"""Import hygiene: every name a ``cpv`` or test module imports is used where
it is imported, every name a ``cpv`` or test function binds is read
(``_``-prefixed names aside), every private helper is read somewhere in
``cpv``, every public function, class, method and property is reached from
``cpv``, the functions the benchmark wraps or the package exports (not from
tests alone), no
module holds an ``assert`` statement, no ``cpv`` module imports ``cpv.cli``,
importing ``cpv.cli`` loads no code generator, a command loads only the
``cpv`` modules it runs and compiles no more of their AST nodes than its
budget, and no record but ``core.Verdict`` has an ``ok`` field.

A name imported at module level counts as used when it is read anywhere in
the module (annotations included, also those written as strings) or listed
in ``__all__``; a name imported inside a function must be read in that
function.  A method or property counts as reached when its attribute name
is read in ``cpv``; a name the benchmark reads only in its own code counts
for nothing.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_builtin_golden import CASES

import cpv
from cpv.mechanisms import _BUILTINS

MODULES = sorted(Path(cpv.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = Path(__file__).resolve().parent.parent / "bench"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports_by_scope(node: ast.AST, scope: ast.AST):
    """``(scope, import)`` for each import below ``node`` (``__future__``
    aside); its scope is the innermost function holding it, else ``scope``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import) or (
            isinstance(child, ast.ImportFrom) and child.module != "__future__"
        ):
            yield scope, child
        yield from imports_by_scope(child, child if isinstance(child, FUNCTIONS) else scope)


def bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names]


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module | ast.FunctionDef) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(tree: ast.Module) -> list[str]:
    """``name (line n)`` for each imported name its scope never reads."""
    used: dict[ast.AST, set[str]] = {}
    unused = []
    for scope, node in imports_by_scope(tree, tree):
        if scope not in used:
            used[scope] = used_names(scope)
        unused += [f"{n} (line {node.lineno})" for n in bound_names(node) if n not in used[scope]]
    return sorted(unused)


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS]
)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# (source, the names the guard reports)
GUARD_CASES = {
    "module level": ("import math\nimport random\nx = math.pi\n", ["random (line 2)"]),
    "in a function": ("def f():\n    import random\n    return 1\n", ["random (line 2)"]),
    "read only in another function": (
        "def f():\n    from json import dumps\n\ndef g():\n    return dumps\n",
        ["dumps (line 2)"],
    ),
    "listed in __all__": ("from math import pi\n__all__ = ['pi']\n", []),
    "read where imported": (
        "import math\ndef f():\n    from json import dumps\n    return dumps(math.pi)\n", []
    ),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_unused_import_guard(case):
    source, expected = GUARD_CASES[case]
    assert unused_imports(ast.parse(source)) == expected


def imports_of_cli(tree: ast.Module) -> list[str]:
    """``line n`` for each statement of ``tree`` that imports ``cpv.cli``;
    a relative import counts from the package ``cpv``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cpv" if node.level else "", node.module]))
            names = {module, *(f"{module}.{a.name}" for a in node.names)}
        else:
            continue
        if "cpv.cli" in names:
            lines.append(f"line {node.lineno}")
    return lines


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_the_cli(path):
    # Under ``python -m cpv.cli`` the running module is ``__main__``, so an
    # import of ``cpv.cli`` compiles and runs all of it a second time.
    lines = imports_of_cli(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} imports cpv.cli at {lines}"


# (source, the imports the guard reports)
CLI_IMPORT_CASES = {
    "import": ("import cpv.cli\n", ["line 1"]),
    "import as": ("import cpv.cli as cli\n", ["line 1"]),
    "from the module": ("def f():\n    from cpv.cli import main\n    return main\n", ["line 2"]),
    "from the package": ("from cpv import cli, core\n", ["line 1"]),
    "relative": ("from . import cli\nfrom .cli import main\nfrom .core import SCHEMA\n",
                 ["line 1", "line 2"]),
    "another module": ("import cpv.core\nfrom cpv import jsonwriter\n", []),
    "a name like it": ("import cpv.clinic\nfrom cpv.cli_tools import x\n", []),
}


@pytest.mark.parametrize("case", sorted(CLI_IMPORT_CASES))
def test_cli_import_guard(case):
    source, expected = CLI_IMPORT_CASES[case]
    assert imports_of_cli(ast.parse(source)) == expected


SCOPES = (*FUNCTIONS, ast.Lambda, ast.ClassDef)


def own_nodes(function: ast.AST):
    """The nodes of ``function``'s body outside the functions, lambdas and
    classes nested in it."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(tree: ast.Module) -> list[str]:
    """``function: name (line n)`` for each name a function binds (by
    assignment, a loop, a comprehension, ``with`` or ``except``) that neither
    it nor a function nested in it reads; ``_``-prefixed names, parameters,
    imports and ``global`` or ``nonlocal`` names aside."""
    unused = []
    for function in (n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)):
        read = {
            n.id for n in ast.walk(function) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        nodes = list(own_nodes(function))
        shared = {
            name for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names
        }
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.ExceptHandler) and node.name:
                name = node.name
            else:
                continue
            if not name.startswith("_") and name not in read | shared:
                unused.append(f"{function.name}: {name} (line {node.lineno})")
    return sorted(unused)


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS]
)
def test_no_unused_locals(path):
    unused = unused_locals(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} binds names it never reads: {unused}"


# (source, the names the guard reports)
LOCALS_CASES = {
    "loop index never read": (
        "def f(xs):\n    for i, x in enumerate(xs):\n        print(x)\n", ["f: i (line 2)"]
    ),
    "assigned, never read": ("def f():\n    a = 1\n    return 2\n", ["f: a (line 2)"]),
    "caught, never read": (
        "def f():\n    try:\n        pass\n    except ValueError as exc:\n        pass\n",
        ["f: exc (line 4)"],
    ),
    "comprehension target": ("def f(xs):\n    return [1 for x in xs]\n", ["f: x (line 2)"]),
    "underscore exempt": ("def f(xs):\n    for _i, x in enumerate(xs):\n        print(x)\n", []),
    "parameter exempt": ("def f(unused):\n    return 1\n", []),
    "read by a nested function": (
        "def f():\n    a = 1\n    def g():\n        return a\n    return g\n", []
    ),
    "nonlocal, read by the outer function": (
        "def f():\n    a = 0\n    def g():\n        nonlocal a\n        a = 1\n"
        "    g()\n    return a\n", [],
    ),
    "module level exempt": ("a = 1\nfor i in range(2):\n    pass\n", []),
}


@pytest.mark.parametrize("case", sorted(LOCALS_CASES))
def test_unused_local_guard(case):
    source, expected = LOCALS_CASES[case]
    assert unused_locals(ast.parse(source)) == expected


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    # ``python -O`` drops assert statements; a self-check raises explicitly.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_cli_import_generates_no_code():
    # Every command starts a fresh interpreter.  ``dataclasses`` generates and
    # compiles methods per class at import and pulls in ``inspect``; neither
    # may come back into the start-up path of ``cpv.cli``.  Nor may
    # ``jsonschema``: importing it costs more than all of ``cpv.cli``, whose
    # own table checks the cpv-1 format.
    src = str(Path(cpv.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import cpv.cli; "
        "print(sorted({'dataclasses', 'inspect', 'jsonschema'} & set(sys.modules)))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert res.stdout.strip() == "[]", res.stdout


# argparse: its import, with gettext (and locale at its first message),
# and building the parsers cost about 5 ms at every start; cpv.cli reads its
# command line from its own table.
ARGV_PARSERS = ("argparse", "gettext", "locale")


# The families of built-ins, which the registry cpv.mechanisms imports when
# a built-in of the family is built; command modules like the others.
BUILDER_MODULES = {"cpv.auctions", "cpv.clocks", "cpv.matching"}
COMMAND_MODULES = {
    "cpv.check", "cpv.jsonwriter", "cpv.mechanisms", "cpv.privacy", "cpv.properties", "cpv.run",
    "cpv.search", "cpv.synthesis", "cpv.tatonnement", "cpv.variants", *BUILDER_MODULES,
}
# The modules that build, read and split protocols: loaded where a command
# builds a protocol or reads one, and the count fibres only for count queries.
PROTOCOL_MODULES = {"cpv.counts", "cpv.protocol", "cpv.treereader"}


def test_every_module_but_the_start_up_set_is_a_command_or_protocol_module():
    names = {f"cpv.{path.stem}" for path in MODULES if path.stem != "__init__"}
    assert names - {"cpv.cli", "cpv.core", "cpv.reader"} == COMMAND_MODULES | PROTOCOL_MODULES


def modules_loaded_by(statement: str, also: tuple = ()) -> set[str]:
    """The ``cpv`` modules, and those of ``also``, that a fresh interpreter
    holds after ``statement``."""
    src = str(Path(cpv.__file__).resolve().parent.parent)
    probe = (
        f"import json, sys; sys.path.insert(0, {src!r}); {statement}; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith('cpv') or m in {also!r})))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    return set(json.loads(res.stdout.strip().splitlines()[-1]))


def test_cli_import_loads_no_command_module():
    # Without a bytecode cache every loaded module is compiled at every start.
    assert not modules_loaded_by("import cpv.cli") & COMMAND_MODULES


def test_cli_import_loads_the_reader_and_nothing_more():
    # Every command but builtin reads a file, so the cpv-1 reader starts with
    # the cli; cpv.protocol is imported only where a protocol is built or read.
    assert modules_loaded_by("import cpv.cli") == {"cpv", "cpv.cli", "cpv.core", "cpv.reader"}


def test_validate_on_a_table_instance_loads_no_command_module(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "schema": "cpv-1", "agents": 1, "alphabet": ["a", "b"],
        "rule": {"table": [{"profile": ["a"], "outcome": "x"}, {"profile": ["b"], "outcome": "y"}]},
    }))
    loaded = modules_loaded_by(f"from cpv.cli import main; main(['validate', {str(path)!r}])")
    assert "cpv.cli" in loaded and not loaded & (COMMAND_MODULES | PROTOCOL_MODULES), loaded


def test_validate_on_a_bundle_with_a_phase_loads_no_command_module(checked_files):
    # The loader checks the phase against the tree, which needs no command module.
    path = checked_files["count_ascending_kplus1_price"]
    assert "phase" in json.loads(Path(path).read_text())["protocol"]
    loaded = modules_loaded_by(f"from cpv.cli import main; main(['validate', {path!r}])")
    assert "cpv.cli" in loaded and not loaded & COMMAND_MODULES, loaded


def test_builtin_loads_mechanisms_alone():
    # of the command modules: the registry, with the family of the rule built
    argv = ["builtin", "first_price", "--params", '{"n": 2, "values": [1, 2]}']
    loaded = modules_loaded_by(f"from cpv.cli import main; main({argv!r})")
    assert loaded & (COMMAND_MODULES - BUILDER_MODULES) == {"cpv.mechanisms"}, loaded
    assert loaded & BUILDER_MODULES == {"cpv.auctions"}, loaded
    assert not loaded & PROTOCOL_MODULES, loaded


# The modules that building each ``_BUILTINS`` row loads beside cpv, cpv.core
# and the registry cpv.mechanisms: its family and what the family builds
# on.  A rule loads no protocol module; a protocol loads cpv.protocol, and
# cpv.counts where it asks count queries; the families of matching rules
# load the per-profile tests of cpv.properties.
FAMILY_MODULES = {
    "auctions": {"cpv.auctions"},
    "clocks": {"cpv.auctions", "cpv.clocks", "cpv.protocol"},
    "matching": {"cpv.matching"},
}
BUILTIN_EXTRA_MODULES = {
    **dict.fromkeys(
        ["efficient_completions_2x2", "house_ir_efficient_family", "school_stable_family"],
        {"cpv.properties"},
    ),
    **dict.fromkeys(["serial_dictatorship protocol", "fair_two_query"], {"cpv.protocol"}),
    **dict.fromkeys(["count_ascending_kplus1_price", "double_auction_count"], {"cpv.counts"}),
    "multicount_stable_matching": {"cpv.counts", "cpv.protocol"},
}


# (case, row of _BUILTINS); serial_dictatorship is both a rule and a protocol
BUILTIN_ROWS = [(f"{name}{' protocol' * (name == 'serial_dictatorship' and bundle)}", row)
                for row, (name, bundle, *_) in enumerate(_BUILTINS)]


@pytest.mark.parametrize("case,row", BUILTIN_ROWS, ids=[case for case, _ in BUILTIN_ROWS])
def test_each_builtin_loads_its_family_alone(case, row):
    name, bundle, family, _, _ = _BUILTINS[row]
    statement = (f"from cpv.mechanisms import _BUILTINS, _entry; "
                 f"_entry(*_BUILTINS[{row}][2:])({CASES[name][0]!r})")
    loaded = modules_loaded_by(statement)
    assert loaded == {"cpv", "cpv.core", "cpv.mechanisms", *FAMILY_MODULES[family],
                      *BUILTIN_EXTRA_MODULES.get(case, ())}, loaded
    assert bundle or not loaded & PROTOCOL_MODULES, loaded


# The command modules that `check --property` loads, per property, beside
# cpv.check itself.
CHECK_MODULES = {
    "cp": {"cpv.privacy"},
    **dict.fromkeys(["icp", "gcp"], {"cpv.privacy", "cpv.variants"}),
    "tatonnement": {"cpv.privacy", "cpv.tatonnement"},
    **dict.fromkeys(["corners", "nonbossy"], {"cpv.privacy", "cpv.synthesis"}),
    **dict.fromkeys(["osp", "efficient", "ir", "stable", "sp"], {"cpv.properties"}),
}


@pytest.fixture(scope="module")
def checked_files(tmp_path_factory) -> dict[str, str]:
    """A count clock bundle, on which every property but stability is
    defined, and the school instance for stability."""
    from cpv.cli import main

    root = tmp_path_factory.mktemp("checked")
    files = {}
    for name, params in [
        ("count_ascending_kplus1_price", '{"k": 1, "n": 2, "values": [1, 2]}'),
        ("school_count_instance", "{}"),
    ]:
        files[name] = str(root / f"{name}.json")
        assert main(["builtin", name, "--params", params, "--emit", files[name]]) == 0
    return files


@pytest.mark.parametrize("prop", sorted(CHECK_MODULES))
def test_check_loads_the_modules_of_its_property(prop, checked_files):
    name = "school_count_instance" if prop == "stable" else "count_ascending_kplus1_price"
    argv = ["check", "--property", prop, checked_files[name]]
    loaded = modules_loaded_by(f"from cpv.cli import main; main({argv!r})")
    assert loaded & COMMAND_MODULES == {"cpv.check", *CHECK_MODULES[prop]}, loaded


@pytest.fixture(scope="module")
def first_price_file(tmp_path_factory) -> str:
    """A first-price rule, which has a CP protocol."""
    from cpv.cli import main

    path = str(tmp_path_factory.mktemp("rule") / "fp.json")
    assert main(["builtin", "first_price", "--params", '{"n": 2, "values": [1, 2, 3]}',
                 "--emit", path]) == 0
    return path


@pytest.mark.parametrize("emit", [False, True], ids=["plain", "emit"])
def test_synth_loads_the_writer_only_to_emit(emit, first_price_file, tmp_path):
    argv = ["synth", first_price_file, *(["--emit", str(tmp_path / "p.json")] if emit else [])]
    # exit 0: a protocol, which is emitted only with --emit
    loaded = modules_loaded_by(f"from cpv.cli import main; assert main({argv!r}) == 0")
    # the decider lives in cpv.search; the corners scan in cpv.synthesis is not compiled
    assert loaded & COMMAND_MODULES == {"cpv.privacy", "cpv.search"} | (
        {"cpv.jsonwriter"} if emit else set()
    ), loaded


def test_synth_witness_loads_the_decider_alone(tmp_path):
    from cpv.cli import main

    path = str(tmp_path / "sp.json")
    assert main(["builtin", "second_price", "--params", '{"n": 3, "values": [1, 2, 3]}',
                 "--emit", path]) == 0
    # exit 1: a witness, minimized
    loaded = modules_loaded_by(f"from cpv.cli import main; assert main(['synth', {path!r}]) == 1")
    # cpv.privacy checks a protocol found; a witness needs none
    assert loaded & COMMAND_MODULES == {"cpv.search"}, loaded


def test_enumerate_without_emit_loads_no_writer(first_price_file):
    argv = ["enumerate", first_price_file]
    # exit 0: a protocol found, and not written
    loaded = modules_loaded_by(f"from cpv.cli import main; assert main({argv!r}) == 0")
    assert loaded & COMMAND_MODULES == {"cpv.privacy", "cpv.search"}, loaded


# Compile budgets: the AST nodes of the ``cpv`` source that one command of
# each kind the three benchmark workloads run compiles, pinned where they
# stand.  Without a bytecode cache every module a command loads is compiled
# at its start, at about 1.5 us a node (two-core x86-64 VM), so code that a
# command does not run belongs in a module it does not load.  The files are
# those of ``workload_files``; an entry is (command line, exit code, budget).
COMPILE_BUDGETS = {
    "validate table": (["validate", "table"], 0, 7930),
    "validate bundle": (["validate", "dfp"], 0, 11123),
    "builtin rule --emit": (
        ["builtin", "first_price", "--params", '{"n": 2, "values": [1, 2]}', "--emit", "out"], 0,
        12465,
    ),
    "builtin clock --emit": (
        ["builtin", "descending_first_price", "--params", '{"n": 2, "values": [1, 2]}',
         "--emit", "out"], 0, 15776,
    ),
    "builtin count clock --emit": (
        ["builtin", "count_ascending_kplus1_price", "--params",
         '{"k": 1, "n": 2, "values": [1, 2]}', "--emit", "out"], 0, 16447,
    ),
    "enumerate --emit": (
        ["enumerate", "--queries", "elicit,count", "--emit", "out", "table"], 0, 15034,
    ),
    "enumerate nonexistent": (["enumerate", "--emit", "out", "sp"], 1, 12290),
    "synth --emit": (["synth", "--emit", "out", "table"], 0, 15034),
    "synth witness": (["synth", "--emit", "out", "sp"], 1, 12290),
    "check cp rule and protocol": (["check", "--property", "cp", "table", "protocol"], 0, 12647),
    "check cp count bundle": (["check", "--property", "cp", "cap"], 0, 13318),
    "check icp": (["check", "--property", "icp", "dfp"], 0, 13003),
    "check gcp": (["check", "--property", "gcp", "dfp"], 0, 13003),
    "check tatonnement": (["check", "--property", "tatonnement", "dfp"], 0, 13320),
    "check tatonnement count bundle": (["check", "--property", "tatonnement", "cap"], 0, 13991),
    "check efficient": (["check", "--property", "efficient", "cap"], 0, 15038),
    "check corners": (["check", "--property", "corners", "sp"], 1, 13593),
}


def compiled_nodes(modules: set[str]) -> int:
    """The AST nodes of the source files of the ``cpv`` modules named."""
    root = Path(cpv.__file__).parent
    files = [root / f"{'__init__' if m == 'cpv' else m.split('.')[1]}.py" for m in modules]
    return sum(sum(1 for _ in ast.walk(ast.parse(f.read_text()))) for f in files)


@pytest.fixture(scope="module")
def workload_files(tmp_path_factory, auction_bundle) -> dict[str, str]:
    """A random rule table as ``random_search`` writes it, with the protocol
    found for it; second price, with no protocol; and two clock bundles, the
    second asking count queries."""
    from cpv.cli import main

    root = tmp_path_factory.mktemp("workload")
    labels = ["t0", "t1", "t2"]
    outcomes = [["x", "x", "y"], ["z", "z", "y"], ["w", "w", "w"]]
    files = {name: str(root / f"{name}.json") for name in ("table", "protocol", "sp", "cap", "out")}
    Path(files["table"]).write_text(json.dumps({
        "schema": "cpv-1", "agents": 2, "alphabet": labels,
        "rule": {"table": [{"profile": [labels[a], labels[b]], "outcome": outcomes[a][b]}
                           for a in range(3) for b in range(3)]},
    }))
    assert main(["enumerate", "--emit", files["protocol"], files["table"]]) == 0
    assert main(["builtin", "second_price", "--params", '{"n": 3, "values": [1, 2, 3]}',
                 "--emit", files["sp"]]) == 0
    assert main(["builtin", "count_ascending_kplus1_price", "--params",
                 '{"k": 2, "n": 4, "values": [1, 2, 3]}', "--emit", files["cap"]]) == 0
    return {**files, "dfp": auction_bundle}


@pytest.mark.parametrize("command", sorted(COMPILE_BUDGETS))
def test_compile_budget(command, workload_files):
    argv, code, budget = COMPILE_BUDGETS[command]
    argv = [workload_files.get(arg, arg) for arg in argv]
    loaded = modules_loaded_by(f"from cpv.cli import main; assert main({argv!r}) == {code}")
    nodes = compiled_nodes({m for m in loaded if m.split(".")[0] == "cpv"})
    assert nodes <= budget, f"{command} compiles {nodes} AST nodes of cpv, over {budget}: " + \
        ", ".join(f"{m} {compiled_nodes({m})}" for m in sorted(loaded) if m.split(".")[0] == "cpv")


def test_cli_import_loads_no_argument_parser():
    assert not modules_loaded_by("import cpv.cli", also=ARGV_PARSERS) & set(ARGV_PARSERS)


@pytest.mark.parametrize("argv", [
    ["validate", "bundle"], ["check", "--property", "cp", "bundle"], ["synth", "rule"],
    ["enumerate", "rule"], ["builtin", "first_price", "--params", '{"n": 2, "values": [1, 2]}'],
], ids=lambda argv: argv[0])
def test_commands_load_no_argument_parser(argv, checked_files, first_price_file):
    files = {"bundle": checked_files["count_ascending_kplus1_price"], "rule": first_price_file}
    argv = [files.get(arg, arg) for arg in argv]
    loaded = modules_loaded_by(f"from cpv.cli import main; main({argv!r})", also=ARGV_PARSERS)
    assert "cpv.cli" in loaded and not loaded & set(ARGV_PARSERS), loaded


@pytest.mark.parametrize("argv", [["validate"], ["check", "--property", "cp"]], ids=" ".join)
def test_a_table_instance_without_values_imports_no_fractions(argv, tmp_path):
    # fractions, and decimal with it, serve only model values.
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "schema": "cpv-1", "agents": 1, "alphabet": ["a", "b"],
        "rule": {"table": [{"profile": ["a"], "outcome": "x"}, {"profile": ["b"], "outcome": "y"}]},
        "protocol": {"tree": {
            "query": {"kind": "elicit", "agent": 1, "cells": [["a"], ["b"]]}, "children": [{}, {}]
        }},
    }))
    statement = f"from cpv.cli import main; main({[*argv, str(path)]!r})"
    loaded = modules_loaded_by(statement, also=("fractions", "decimal"))
    assert "cpv.cli" in loaded and not loaded & {"fractions", "decimal"}, loaded


@pytest.fixture(scope="module")
def auction_bundle(tmp_path_factory) -> str:
    """The descending clock for first price, whose model holds integer values."""
    from cpv.cli import main

    path = str(tmp_path_factory.mktemp("auction") / "dfp.json")
    assert main(["builtin", "descending_first_price", "--params",
                 '{"n": 2, "values": [1, 2, 3]}', "--emit", path]) == 0
    assert json.loads(Path(path).read_text())["model"]["values"] == [[1, 2, 3]] * 2
    return path


@pytest.mark.parametrize(
    "argv", [["check", "--property", "cp"], ["check", "--property", "corners"], ["synth"]],
    ids=" ".join,
)
def test_integer_model_values_import_no_fractions(argv, auction_bundle):
    # Integer values load as int; only a value that is not one needs fractions.
    statement = f"from cpv.cli import main; main({[*argv, auction_bundle]!r})"
    loaded = modules_loaded_by(statement, also=("fractions", "decimal"))
    assert "cpv.cli" in loaded and not loaded & {"fractions", "decimal"}, loaded


def test_instance_records_are_still_read_from_mechanisms():
    from cpv import core
    from cpv.mechanisms import DomainModel, Instance, ProtocolBundle

    assert (DomainModel, Instance, ProtocolBundle) == (
        core.DomainModel, core.Instance, core.ProtocolBundle
    )


def private_definitions(tree: ast.Module):
    """``(name, first line, last line)`` of each module-level name and each
    method whose name starts with one underscore."""
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body, node in ((b, n) for b in scopes for n in b):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and body is tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def loaded_names(tree: ast.AST):
    """``(name, line)`` for each name and attribute that ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unread(trees: dict[str, ast.Module], definitions, outside: frozenset = frozenset()):
    """``module: name (line n)`` for each of ``definitions(tree)`` that no
    module of ``trees`` reads outside its own definition and that
    ``outside`` does not name."""
    reads = [(n, path, line) for path, tree in trees.items() for n, line in loaded_names(tree)]
    return sorted(
        f"{path}: {name} (line {first})"
        for path, tree in trees.items()
        for name, first, last in definitions(tree)
        if name not in outside
        and not any(n == name and not (p == path and first <= line <= last) for n, p, line in reads)
    )


def cpv_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def test_every_private_helper_is_read():
    # A helper left behind by a refactor is read nowhere but in its own body.
    unread_names = unread(cpv_trees(), private_definitions)
    assert not unread_names, f"private names read nowhere in cpv: {unread_names}"


def public_definitions(tree: ast.Module):
    """``(name, first line, last line)`` of each public module-level function
    and class, and of each public method or property of a module-level
    class."""
    members = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for node in tree.body + members:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def bench_reads(trees: dict[str, ast.Module]) -> set[str]:
    """The names the benchmark reads from ``cpv``: each part of the
    ``attribute or Class.method`` strings of ``TARGETS`` in ``trees``, the
    benchmark's modules, which ``bench/spans.py`` wraps by name.  What the
    benchmark's own code reads is not counted, so a name it also gives to
    its own code hides no ``cpv`` name."""
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
            ):
                for _, attr, _ in ast.literal_eval(node.value):
                    names.update(attr.split("."))
    return names


def test_every_public_name_is_reached():
    # What only tests read belongs in the tests (``tests/oracles.py``), not in
    # the program.
    bench = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in BENCH.glob("*.py")}
    outside = frozenset(bench_reads(bench) | set(cpv.__all__))
    unreached = unread(cpv_trees(), public_definitions, outside)
    assert not unreached, f"public names that only tests reach: {unreached}"


# (modules, the benchmark's modules, the names the guard reports)
REACH_CASES = {
    "read only by tests": ({"m.py": "def helper():\n    return 1\n"}, {}, ["m.py: helper (line 1)"]),
    "read only in its own body": (
        {"m.py": "def f(n):\n    return f(n - 1) if n else 0\n"}, {}, ["m.py: f (line 1)"]
    ),
    "read by another module": (
        {"a.py": "def f():\n    return 1\n", "b.py": "from a import f\nx = f()\n"}, {}, []
    ),
    "read as an attribute": (
        {"a.py": "class C:\n    pass\n", "b.py": "import a\nx = a.C\n"}, {}, []
    ),
    "wrapped by the bench": (
        {"m.py": "class C:\n    def g(self):\n        pass\n\ndef f():\n    return C\n"},
        {"spans.py": "TARGETS = (('m', 'f', 'm.f'), ('m', 'C.g', 'm.g'))\n"}, [],
    ),
    # the bench's oracle has a method of the same name, which cpv never reads
    "named like the bench's own code": (
        {"m.py": "class C:\n    def contains(self):\n        pass\n\nx = C()\n"},
        {"oracle.py": "class R:\n    def contains(self):\n        pass\n\nR().contains()\n"},
        ["m.py: contains (line 2)"],
    ),
    "method read only by tests": (
        {"m.py": "class C:\n    def unread(self):\n        pass\n\nx = C()\n"}, {},
        ["m.py: unread (line 2)"],
    ),
    "method read as an attribute": (
        {"m.py": "class C:\n    @property\n    def p(self):\n        return 1\n\nx = C().p\n"},
        {}, [],
    ),
    "private names exempt": ({"m.py": "def _f():\n    return 1\n"}, {}, []),
}


@pytest.mark.parametrize("case", sorted(REACH_CASES))
def test_public_name_guard(case):
    sources, bench, expected = REACH_CASES[case]
    trees = {name: ast.parse(source) for name, source in sources.items()}
    outside = bench_reads({name: ast.parse(source) for name, source in bench.items()})
    assert unread(trees, public_definitions, frozenset(outside)) == expected


def record_fields(tree: ast.Module):
    """``(class, field)`` for each field of each ``@record`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_only_the_verdict_records_ok():
    # A property check returns a core.Verdict; everything else returns what it
    # found, or raises, so no second ok-plus-payload record wraps a result.
    holders = sorted(
        f"{path.name}: {name}"
        for path in MODULES
        for name, field in record_fields(ast.parse(path.read_text(), filename=str(path)))
        if field == "ok" and (path.name, name) != ("core.py", "Verdict")
    )
    assert not holders, f"records other than core.Verdict with an ok field: {holders}"
