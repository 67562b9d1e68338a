"""Every name a package or test module imports is used in that module.

A stdlib ``ast`` scan standing in for a linter's unused-import rule, over
the package and the test modules.  Names are matched per module, not per
scope; ``__init__.py`` is skipped because its imports are the package's
re-exports.  Also: importing the CLI loads no scipy, each engine importing
what it calls on first use, and each command loads only what it runs; no
command loads sympy or mpmath, ties included; no module of the package
imports scipy, so no command, suite or engine loads it.  And one home per
decision: only ``model.py`` names the drift tolerance, only ``model.py`` and
``regimes.py`` name a drift case, and the private names one package module
imports from another are pinned.  Every public function, class, method and
property of the package has a caller in it, or a stated reader.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import oscillax
from oscillax.cli import main
from oscillax.model import DriftCase

MODULES = sorted(p for p in Path(oscillax.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "line 1: math", "line 2: path"]


def test_no_unused_imports():
    assert MODULES and TEST_MODULES
    found = {str(p.relative_to(p.parent.parent)): unused_imports(p.read_text())
             for p in MODULES + TEST_MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


# public names no code in the package calls, each kept for a stated reader
UNCALLED_ALLOWED = {
    "fluctuation_constants",                        # criterion 8
    "max_pairwise_rel_diff",                        # criterion 8's agreement
    "limit_operator_E", "limit_operator_E_ell",     # criterion 10
    "t_ref",                                        # the tilted DP (ROADMAP item 7)
    # benchmark entry points
    "banded_power_sequences", "search_subcase_fixtures", "subcase_witnesses",
}


def _members(cls: ast.ClassDef) -> list:
    """(name, statement) of each public method or property of a class,
    ``property(...)`` assignments included."""
    out = []
    for k, node in enumerate(cls.body):
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, k))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id == "property"):
            out += [(t.id, k) for t in node.targets if isinstance(t, ast.Name)]
    return [(name, k) for name, k in out if not name.startswith("_")]


def uncalled_defs(sources: list[str]) -> set[str]:
    """Public top-level functions and classes, and the public methods and
    properties of those classes, that no code outside their own body names:
    a docstring mention, a re-export or a self-call is no caller.  A member
    is named only as an attribute, so a local variable of its name is no
    caller either; names are matched by name alone, so one caller of a
    method name serves every class that defines it."""
    defs, callers = {}, {}   # name -> where it is defined; (name, kind) -> where it is named
    for i, tree in enumerate(map(ast.parse, sources)):
        for j, top in enumerate(tree.body):
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defs.setdefault(top.name, []).append((i, j))
            # a name inside a member of a class is named from that member
            where = {}
            if isinstance(top, ast.ClassDef):
                for name, k in _members(top):
                    defs.setdefault(name, []).append((i, j, k))
                where = {id(node): (i, j, k) for k, member in enumerate(top.body)
                         for node in ast.walk(member)}
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    key = (node.id, ast.Name) if isinstance(node, ast.Name) else (
                        node.attr, ast.Attribute)
                    callers.setdefault(key, set()).add(where.get(id(node), (i, j)))

    def outside(name, at):
        """where ``name`` is named outside every body in ``at``: a top-level
        def bare or as an attribute, a member only as an attribute"""
        kinds = (ast.Attribute, ast.Name) if any(len(a) == 2 for a in at) else (ast.Attribute,)
        return {loc for kind in kinds for loc in callers.get((name, kind), ())
                if not any(loc[:len(a)] == a for a in at)}

    return {name for name, at in defs.items() if not outside(name, at)}


def test_scan_flags_an_uncalled_def():
    assert uncalled_defs([
        'def a():\n    """Calls b."""\n    return a()\n',
        "def b():\n    pass\n\nclass C:\n    pass\n\nx = C()\n",
        "def _d():\n    pass\n",
    ]) == {"a", "b"}


def test_scan_flags_an_uncalled_method_or_property():
    # e is called by f of its own class and f by nobody; g is a property
    # that only a local variable of its name meets, h a property()
    # assignment that code reads, and j a method whose only caller is itself
    assert uncalled_defs([
        "class C:\n    def e(self):\n        pass\n\n    def f(self):\n"
        "        return self.e()\n\n    @property\n    def g(self):\n        return 1\n\n"
        "    h = property(lambda self: 2)\n\n    def j(self):\n        return self.j()\n\n"
        "    def _k(self):\n        pass\n\ng = C().h\n",
    ]) == {"f", "g", "j"}


def test_every_public_def_has_a_caller():
    uncalled = uncalled_defs([p.read_text() for p in MODULES])
    assert uncalled - UNCALLED_ALLOWED == set(), "delete these or give them a caller"
    assert UNCALLED_ALLOWED - uncalled == set(), "these have a caller now: unlist them"


def named(source: str) -> set[str]:
    """The identifiers a module's code names: variables, attributes and
    imported names (not its docstrings or comments)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_only_model_names_the_drift_tolerance():
    # whether a law drifts is decided once, by LatticeDist.centered and the
    # model's drift case
    assert named("from .model import ZERO_DRIFT_TOL as T\nx = model.ZERO_DRIFT_TOL\n") >= {
        "T", "ZERO_DRIFT_TOL"}
    found = {p.name for p in MODULES + [Path(oscillax.__file__)]
             if "ZERO_DRIFT_TOL" in named(p.read_text())}
    assert found == {"model.py"}


CASE_STRING = re.compile(r"\([PZN],[PZN]\)")


def drift_cases_named(source: str) -> set[str]:
    """The drift cases a module's code names: each ``DriftCase`` member read
    as an attribute, and each "(X,Y)" inside a string that is not a
    docstring."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DriftCase.__members__:
            out.add(DriftCase[node.attr].value)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(CASE_STRING.findall(node.value))
    return out


def test_scan_finds_named_drift_cases():
    assert drift_cases_named('"""Docs on (P,P)."""\ndef f(m):\n    """(Z,Z)"""\n'
                             '    return m.drift_case is DriftCase.PZ or m.value in ("(N,N)",)'
                             ' or f"not {m} (Z,P)"\n') == {"(P,Z)", "(N,N)", "(Z,P)"}


def test_only_model_and_regimes_name_a_drift_case():
    # which drift cases switch forever or have a centered side is decided
    # once, by DriftCase.markovian and centered_side, and every other
    # question by regimes.classify: no other module lists drift cases
    found = {p.name for p in MODULES + [Path(oscillax.__file__)]
             if drift_cases_named(p.read_text())}
    assert found == {"model.py", "regimes.py"}


def private_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) of each private name imported from a package module."""
    return {(node.module.split(".")[-1], alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.level or node.module.startswith("oscillax"))
            for alias in node.names if alias.name.startswith("_")}


def test_scan_finds_private_imports():
    assert private_imports("from .model import _a, b\nfrom oscillax.evolve import _c\n"
                           "from os import _exit\nfrom . import _d\n") == {
        ("model", "_a"), ("evolve", "_c")}


def test_private_imports_are_pinned():
    # a module-private decision has one home: the only private names one
    # package module takes from another are the DP core switching runs, the
    # kernel band its power recurrence reads, and the two-sided support check
    found = {(p.stem, *pair) for p in MODULES for pair in private_imports(p.read_text())}
    assert found == {("switching", "evolve", "_advance"), ("switching", "evolve", "_band"),
                     ("switching", "evolve", "_zeros"), ("ladder", "model", "_require_two_sided")}


HEAVY = ("scipy.linalg", "scipy.fft", "scipy.special", "sympy", "mpmath")


def loaded(code: str) -> list[str]:
    """The scipy, sympy and mpmath modules a fresh interpreter holds after ``code``."""
    src = str(Path(oscillax.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += "; print(sorted(m for m in sys.modules if m.startswith(('scipy', 'sympy', 'mpmath'))))"
    out = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                         capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the DPs, the Green solves and the kernel powers use no scipy
    assert loaded("import oscillax.cli") == []


def test_each_command_loads_only_what_it_runs(tmp_path):
    def run(*argv):
        return loaded(f"from oscillax.cli import main; "
                      f"assert main({[*argv, '-o', str(tmp_path / argv[0])]!r}) == 0")

    # fixtures first: it writes the models the other commands read
    assert not any(m.startswith(HEAVY) for m in run("fixtures"))
    for argv in (["simulate", str(tmp_path / "fixtures" / "FIX-ZZ.json"), "-n", "8",
                  "--paths", "100"],
                 ["classify", str(tmp_path / "fixtures" / "FIX-PP-B2.json")],
                 # ties: rho == rho' is decided exactly, without sympy
                 ["classify", str(tmp_path / "fixtures" / "FIX-PP-B1.json")],
                 # lambda == lambda' and rho == rho', then the DP fit against them
                 ["verify", str(tmp_path / "fixtures" / "FIX-PP-A1.json"),
                  "--suite", "asymptotics"]):
        assert not any(m.startswith(HEAVY) for m in run(*argv)), argv[:2]
    # the DPs run on numpy alone: evolve, kernel and the asymptotics fit load
    # no scipy at all
    for argv in (["evolve", str(tmp_path / "fixtures" / "FIX-ZZ.json"), "--from", "0",
                  "--to", "0", "-n", "64"],
                 ["kernel", str(tmp_path / "fixtures" / "FIX-ZZ.json"), "-n", "16"],
                 ["verify", str(tmp_path / "fixtures" / "FIX-PP-B3.json"),
                  "--suite", "asymptotics"]):
        assert run(*argv) == [], argv[:2]


def test_spectrum_and_classify_load_no_scipy(tmp_path):
    # the killed-walk Green solves run by characteristic roots and the
    # kernel powers by a first-step recurrence in numpy, so neither command,
    # nor the banded powers of a full window or of a row subset, loads any
    # scipy module
    argv = [["fixtures", "-o", str(tmp_path)]]
    argv += [["spectrum", str(tmp_path / f"{name}.json"), "-o", str(tmp_path / name)]
             for name in ("FIX-ZZ", "FIX-PN", "FIX-ZP", "FIX-PP")]
    argv += [["classify", str(tmp_path / f"{name}.json"), "-o", str(tmp_path / name)]
             for name in ("FIX-ZZ", "FIX-PZ")]
    assert loaded("import contextlib, io; from oscillax.cli import main; "
                  "from oscillax.evolve import Window; from oscillax.fixtures import fix_zz; "
                  "from oscillax.switching import banded_power_sequences; "
                  "out = contextlib.redirect_stdout(io.StringIO()); out.__enter__(); "
                  f"assert all(main(a) == 0 for a in {argv!r}); "
                  "banded_power_sequences(fix_zz(), 64, Window(-16, 16), ells=[1, 2, 3]); "
                  "banded_power_sequences(fix_zz(), 64, Window(-16, 16), ells=[1, 2, 3], "
                  "rows=[-7, 5]); "
                  "out.__exit__(None, None, None)") == []


def test_criterion_8_and_every_suite_load_no_scipy(tmp_path):
    # criterion 8's direct route solves by block cyclic reduction in numpy:
    # the convergence suite's tail constant and fluctuation_constants, each
    # in a fresh interpreter, load no scipy module
    assert main(["fixtures", "-o", str(tmp_path)]) == 0
    for name in ("FIX-ZZ", "FIX-PZ"):
        assert loaded(f"from oscillax.cli import main; assert main(['verify', "
                      f"{str(tmp_path / f'{name}.json')!r}, '--suite', 'all', '-n', '1024', "
                      f"'-o', {str(tmp_path / name)!r}]) == 0") == [], name
    assert loaded("from oscillax.fixtures import MU_A; from oscillax.model import dist; "
                  "from oscillax.ladder import fluctuation_constants; "
                  "fluctuation_constants(dist(MU_A))") == []


def scipy_importers(source: str) -> set[str]:
    """The functions of a module that import from scipy ("<module>" for the
    module body), by an ast scan."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Import):
                found.update(scope for alias in child.names if alias.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom):
                found.update([scope] if (child.module or "").split(".")[0] == "scipy" else [])
            else:
                visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_scipy_importers():
    assert scipy_importers("import scipy\ndef f():\n    from scipy.linalg import solve\n"
                           "def g():\n    import os, scipy.fft\ndef h():\n    import numpy\n"
                           ) == {"<module>", "f", "g"}


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency: no module body or function of the
    # package imports scipy
    found = {(p.name, name) for p in MODULES + [Path(oscillax.__file__)]
             for name in scipy_importers(p.read_text())}
    assert found == set()


def test_first_passage_dp_loads_no_scipy():
    # a float first-passage DP of eight start rows at once
    assert loaded("from oscillax.fixtures import fix_zz; "
                  "from oscillax.evolve import Window, first_passage_rows; "
                  "first_passage_rows(fix_zz().media[0], range(-8, 0), 64, Window(-16, 16))") == []
