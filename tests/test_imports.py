"""Every name a `moesense` module imports is used in that module, every
module-level function and class is named outside its own definition, every
method and property is read as an attribute outside its own definition,
every parameter of every function is read in its body, and only `detect`
decimates a stream and then extracts its features."""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "moesense").glob("*.py"))

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


def stale_entries(entries: dict[str, str], root: Path) -> set[tuple[str, str]]:
    """The (entry, file) pairs of `entries` whose file, a path under `root`
    in the entry's text, is missing or does not read the entry's name: a
    function by name, a method or property as an attribute of anything but
    `self`. An entry that names no file is stale too."""
    stale = set()
    for entry, callers_text in entries.items():
        name = entry.split(".")[-1]
        files = re.findall(r"[\w/]+\.py", callers_text)
        if not files:
            stale.add((entry, ""))
        for file in files:
            path = root / file
            if not path.is_file():
                stale.add((entry, file))
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reads = named(tree) if entry.count(".") == 1 else Counter(
                n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load) and ast.unparse(n.value) != "self")
            if not reads[name]:
                stale.add((entry, file))
    return stale


def test_every_outside_caller_reads_what_keeps_it():
    # so an entry goes once the outside caller it names drops its call
    assert stale_entries(CALLED_FROM_OUTSIDE, ROOT) == set()


def test_the_guard_sees_a_stale_outside_caller(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "uses.py").write_text("def f(lib, t):\n    return lib.centroids(1), t.size\n")
    (tmp_path / "pkg" / "own.py").write_text("class T:\n    def f(self):\n        return self.size\n")
    (tmp_path / "pkg" / "names.py").write_text("from gating import helper\n")
    entries = {"gating.TemplateLibrary.centroids": "pkg/uses.py, and pkg/gone.py",
               "evaluate.Table.size": "pkg/own.py and pkg/uses.py",
               "gating.helper": "pkg/names.py", "gating.other": "pkg/uses.py",
               "gating.T.f": "a caller outside the repository"}
    assert stale_entries(entries, tmp_path) == {
        ("gating.TemplateLibrary.centroids", "pkg/gone.py"), ("evaluate.Table.size", "pkg/own.py"),
        ("gating.other", "pkg/uses.py"), ("gating.T.f", "")}


# `detect` is the one path the benchmark's call-count pins follow: it decimates
# the stream, then extracts, for the gate and for each selected expert.
PINNED_PATH = {"decimate", "extract_feature"}


def callers(modules: dict[str, ast.Module], names: set[str]) -> set[str]:
    """Where `modules` call one of `names`, by bare name or as an attribute:
    each module-level function and method, as "module.name" or
    "module.Class.name", whose body (nested functions included) does, and
    "module" or "module.Class" for a call outside any of them."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def calls(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Call) and (getattr(n.func, "id", None) in names
                                                or getattr(n.func, "attr", None) in names)
                   for n in ast.walk(node))

    def where(prefix: str, node: ast.AST) -> str:
        return f"{prefix}.{node.name}" if isinstance(node, functions) else prefix

    found = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found |= {where(f"{module}.{node.name}", m) for m in node.body if calls(m)}
            elif calls(node):
                found.add(where(module, node))
    return found


def test_only_detect_decimates_then_extracts():
    # every other path slices an amplitude series through `StreamFeatures`
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert callers(modules, PINNED_PATH) == {"pipeline.detect"}


def test_the_guard_sees_a_second_caller():
    detect = ("def decimate(stream, rate):\n    return stream\n\n"
              "def detect(stream, rate):\n    def features():\n"
              "        return extract_feature(decimate(stream, rate))\n    return features()\n")
    second = ("from . import pipeline\nfrom .simulate import decimate\n\n"
              "def sweep(stream):\n    return [decimate(stream, r) for r in (1, 2)]\n\n"
              "class Table:\n    def row(self, stream):\n"
              "        return pipeline.extract_feature(stream)\n\n"
              "    def size(self):\n        return decimate\n\n"
              "    LAST = decimate(None, 1)\n\n"
              "CACHE = pipeline.decimate(None, 1)\n")
    modules = {"pipeline": ast.parse(detect), "evaluate": ast.parse(second)}
    assert callers(modules, PINNED_PATH) == {"pipeline.detect", "evaluate.sweep",
                                             "evaluate.Table.row", "evaluate.Table", "evaluate"}


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
