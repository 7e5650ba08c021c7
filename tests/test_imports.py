"""Modules of the package use only each other's public names, the
package root re-exports none, no function or class name is defined in
two modules, every public function and method is reached by a command
or the acceptance gate, and the commands load neither ``numpy.ma`` nor
scipy."""

import ast
import collections
import importlib
import os
import pathlib
import subprocess
import sys
import tempfile

from test_cli_golden import CASES, _run_case

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdom"
ACCEPTANCE = SRC.parents[1] / "tests" / "test_acceptance.py"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_names_across_modules():
    found = []
    for mod, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("sdom")):
                found += [f"{mod}:{node.lineno} {a.name}" for a in node.names if _private(a.name)]
    assert found == []


def test_package_root_imports_no_names():
    """Every name has one home: the package root imports nothing from
    its submodules, so each name is imported from its defining module."""
    tree = TREES["__init__.py"]
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("sdom")))
        or (isinstance(node, ast.Import) and any(a.name.startswith("sdom") for a in node.names))
    ]
    assert found == []


def test_one_definition_per_name():
    """No module-level function or class name is defined in two modules,
    private names included."""
    homes = collections.defaultdict(list)
    for mod, tree in TREES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                homes[stmt.name].append(mod)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


# Public names that neither a command nor the acceptance gate reaches,
# kept on purpose, with the reason each stays.
KEPT = {
    "get_thread_count": "bench/tracer.py imports it",
    "shifted_modes": "the acceptance gate reaches it only through best_of_shifted (ROADMAP item 8)",
}


def _names(node) -> collections.Counter:
    """How often each name and attribute name is used in ``node``."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _code(attr):
    """The code object behind a class attribute: a method, a classmethod
    or staticmethod, or a property's getter."""
    fn = getattr(attr, "__func__", None) or getattr(attr, "fget", None) or attr
    return fn.__code__


def _codes_run() -> set:
    """The code objects of every Python function that runs during the
    golden CLI corpus, recorded with a profile hook (the corpus runs at
    one thread, so every call happens on this thread)."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for case in CASES:
        with tempfile.TemporaryDirectory() as work_dir:
            sys.setprofile(hook)
            try:
                _run_case(case, work_dir)
            finally:
                sys.setprofile(None)
    return seen


def test_every_public_function_is_reached():
    """A public module-level function, or a method of a public class, is
    reached when it runs during the golden corpus or the acceptance gate
    names it."""
    acceptance = _names(ast.parse(ACCEPTANCE.read_text()))
    ran = _codes_run()
    unreached = {}
    for mod, tree in TREES.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            obj = getattr(importlib.import_module(f"sdom.{mod[:-3]}"), stmt.name)
            if isinstance(stmt, ast.FunctionDef):
                if _code(obj) not in ran and stmt.name not in acceptance:
                    unreached[stmt.name] = mod
                continue
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    if _code(vars(obj)[sub.name]) not in ran and sub.name not in acceptance:
                        unreached[f"{stmt.name}.{sub.name}"] = mod
    assert sorted(unreached) == sorted(KEPT), unreached


# Runs in a fresh interpreter: the README examples, then the names of the
# modules loaded that the set-up cost and the resident set would pay for.
_FOOTPRINT = """
import sys, tempfile
from sdom import cli
for name in ("dominate", "separation", "weights", "maximal"):
    with tempfile.TemporaryDirectory() as out:
        assert cli.main([name, "--config", f"examples/{name}.json", "--out", out]) == 0, name
print("loaded:", *(m for m in sys.modules if m == "numpy.ma" or m.split(".")[0] == "scipy"))
"""


def test_commands_load_neither_numpy_ma_nor_scipy():
    """numpy.ma costs 0.2 to 0.9 MiB resident and scipy far more; no
    command needs either (``np.unique`` would load numpy.ma)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT], cwd=SRC.parents[1], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"
