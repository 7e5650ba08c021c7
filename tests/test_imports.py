"""Modules of the package use only each other's public names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdom"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_names_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("sdom")):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if _private(a.name)]
    assert found == []


# Public names that neither another module nor the acceptance gate uses,
# kept on purpose, with the reason each stays.
KEPT = {
    "custom_kernel": "the tests build their constant-kernel fakes with it",
    "apply_truncated": "the reference truncation the tests compare the maximal gaps with",
    "get_thread_count": "bench/tracer.py imports it",
}
ACCEPTANCE = SRC.parents[1] / "tests" / "test_acceptance.py"


def _public_defs(tree):
    """(qualified name, name, node) of the module-level public functions
    and the public methods of public classes (dunder methods excluded)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _uses(tree, skip=None):
    """Names and attribute names used in ``tree``, outside ``skip``."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside
    }


def test_every_public_function_is_reached():
    # methods are matched by name: any use of a same-named attribute counts
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    del trees["__init__.py"]
    acceptance = _uses(ast.parse(ACCEPTANCE.read_text()))
    unreached = {}
    for mod, tree in trees.items():
        others = set().union(*(_uses(t) for m, t in trees.items() if m != mod))
        for qual, name, node in _public_defs(tree):
            if name not in others | acceptance | _uses(tree, skip=node):
                unreached[name] = f"{mod}:{qual}"
    assert sorted(unreached) == sorted(KEPT), unreached
