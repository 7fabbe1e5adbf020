"""Every name a `moesense` module imports is used in that module."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "moesense").glob("*.py"))

# Imported only so that the benchmark's tracer (perfbench/tracer.py) can wrap
# them where `cli` would call them; nothing in `cli` calls them itself.
UNUSED_ON_PURPOSE = {"cli.py": {"decide", "decimate", "predict_posterior"}}


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


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom x import a, b\nprint(np, a)\n")
    assert unused_imports(tree) == {"math", "b"}
