"""Every name a `moesense` module imports is used in that module, and every
module-level function and class is named outside its own definition."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "moesense").glob("*.py"))

# Imported only so that the benchmark's tracer (perfbench/tracer.py) can wrap
# them where `cli` would call them; nothing in `cli` calls them itself.
UNUSED_ON_PURPOSE = {"cli.py": {"decide", "decimate", "fuse", "predict_posterior"}}

# Module-level definitions that nothing in `moesense` names, each with the
# caller outside it that keeps it.
CALLED_FROM_OUTSIDE = {
    "classifiers.svm_objective": "tests/test_classifiers.py, the SVM tests' objective oracle",
}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.add(alias.asname or alias.name.split(".")[0])
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == UNUSED_ON_PURPOSE.get(path.name, set())


def test_cli_only_parses_and_formats():
    # the experiments live in `evaluate`; `cli` holds the commands and the parser
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported if name and name.split(".")[0] == "numpy"}
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom x import a, b\nprint(np, a)\n")
    assert unused_imports(tree) == {"math", "b"}


def named(node: ast.AST) -> Counter:
    """How often each name is used, read as an attribute, or imported under `node`."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in n.names)
    return found


def uncalled(modules: dict[str, ast.Module]) -> set[str]:
    """The module-level functions and classes, as "module.name", that no
    module names outside their own definition."""
    everywhere = sum((named(tree) for tree in modules.values()), Counter())
    return {f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and everywhere[node.name] == named(node)[node.name]}


def test_every_helper_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert uncalled(modules) == set(CALLED_FROM_OUTSIDE)


def test_the_guard_sees_a_helper_without_a_caller():
    modules = {"a": ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\n"
                              "class C:\n    pass\n\nclass D:\n    pass\n"),
               "b": ast.parse("from .a import g\nimport a\n\ndef h():\n    return g(), a.C\n")}
    assert uncalled(modules) == {"a.f", "a.D", "b.h"}
