"""Every name a `moesense` module imports is used in that module, every
module-level function and class is named outside its own definition, every
method and property is read as an attribute outside its own definition, and
every parameter of every function is read in its body."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "moesense").glob("*.py"))

# Imported only so that the benchmark's tracer (perfbench/tracer.py) can wrap
# them where `cli` would call them; nothing in `cli` calls them itself.
UNUSED_ON_PURPOSE = {"cli.py": {"decide", "decimate", "fuse", "predict_posterior"}}

# Module-level definitions that nothing in `moesense` names, and methods and
# properties that nothing in it reads, each with the caller outside it that keeps it.
CALLED_FROM_OUTSIDE = {
    "evaluate.ResultTable.fieldnames": "perfbench/workloads.py, which digests a sweep table",
    "gating.TemplateLibrary.centroids": "perfbench/tests/test_tracer.py and tests/test_gating.py, "
                                        "which count the gate's pearson calls",
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
    # and it checks no dataset rule of its own: its one raise is the missing manifest
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert [ast.unparse(node.exc.func) for node in raises] == ["InputError"]
    assert "no manifest.csv" in ast.unparse(raises[0])
    assert "TrainingError" not in {alias.name for node in ast.walk(tree)
                                   if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import math\nimport numpy as np\nfrom x import a, b\nprint(np, a)\n")
    assert unused_imports(tree) == {"math", "b"}


def kind_copies(tree: ast.Module) -> set[str]:
    """Where `tree` imports `FeatureKind`, as "import", or a class in it keeps
    a `kind`, as "Class.kind": a field, or an assignment to `self.kind`."""
    found = {"import" for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name.split(".")[-1] == "FeatureKind"}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        fields = {n.target.id for n in cls.body
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
        stored = {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store) and ast.unparse(n.value) == "self"}
        found |= {f"{cls.name}.kind" for names in (fields, stored) if "kind" in names}
    return found


def test_classifiers_keep_no_feature_kind():
    # an expert's feature kind is its registry entry's; the bundle routes by it
    tree = ast.parse((SOURCES[0].parent / "classifiers.py").read_text(encoding="utf-8"))
    assert kind_copies(tree) == set()


def test_the_guard_sees_a_kept_feature_kind():
    source = ("from .features import FeatureKind, FeatureVector\n\n"
              "class Model:\n    def __init__(self, kind):\n        self.kind = kind\n\n"
              "class Dataset:\n    kind: object\n\n"
              "class Reader:\n    def read(self, x):\n        self.n = x.kind\n")
    assert kind_copies(ast.parse(source)) == {"import", "Model.kind", "Dataset.kind"}
    assert kind_copies(ast.parse("import features.FeatureKind\n")) == {"import"}


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


def read_attributes(node: ast.AST) -> Counter:
    """How often each attribute is read under `node`."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def uncalled(modules: dict[str, ast.Module]) -> set[str]:
    """The module-level functions and classes, as "module.name", that no
    module names outside their own definition, and the methods and
    properties, as "module.Class.name", that no module reads as an attribute
    outside their own definition; a bare name, such as a local variable of
    the same name, does not count. Dunder methods are called by Python."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    everywhere = sum((named(tree) for tree in modules.values()), Counter())
    read = sum((read_attributes(tree) for tree in modules.values()), Counter())
    found = set()
    for module, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (*functions, ast.ClassDef))
                    and everywhere[node.name] == named(node)[node.name]):
                found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found |= {f"{module}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, functions) and not m.name.startswith("__")
                          and read[m.name] == read_attributes(m)[m.name]}
    return found


def test_every_helper_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert uncalled(modules) == set(CALLED_FROM_OUTSIDE)


def test_the_guard_sees_a_helper_without_a_caller():
    modules = {"a": ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\n"
                              "class C:\n    pass\n\nclass D:\n    pass\n"),
               "b": ast.parse("from .a import g\nimport a\n\ndef h():\n    return g(), a.C\n")}
    assert uncalled(modules) == {"a.f", "a.D", "b.h"}


def test_the_guard_sees_a_method_without_a_caller():
    source = ("class C:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n"
              "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "    def hidden(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n\n"
              "def f(c):\n    hidden = c\n    return C().size, hidden\n\nf(None)\n")
    modules = {"a": ast.parse(source)}
    assert uncalled(modules) == {"a.C.recursive", "a.C.hidden", "a.C._private"}


def unread_parameters(tree: ast.Module) -> set[str]:
    """The parameters, as "function.parameter", that no name in their
    function's body reads; `self`, `cls`, `*args` and `**kwargs` aside."""
    unread = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{node.name}.{a.arg}" for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                       if a.arg not in {"self", "cls", *read}}
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_the_guard_sees_a_parameter_never_read():
    tree = ast.parse("def f(a, b, *args, c, d=1, **kw):\n    b = a\n    return lambda e: d\n\n"
                     "class C:\n    def m(self, x, y):\n        def inner():\n            return x\n"
                     "        return inner\n\n    @classmethod\n    def k(cls, z):\n        return z\n")
    assert unread_parameters(tree) == {"f.b", "f.c", "m.y"}
