"""Every name a module of the package imports is used in that module, every
private module-level name it defines is read there, every public function
or class is read by the engine or the acceptance tests, every method is
read by the engine, the acceptance tests or the benchmarks, and the sparse
value type and its unchecked constructors are written once."""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "beauville_lab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
BENCHMARKS = ROOT / "benchmarks"


def unused_imports(source: str):
    """The names source imports but never reads, with their lines."""
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unread_private_names(source: str):
    """The private module-level functions, classes and constants source
    defines but never reads, with their lines."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((name.id, node.lineno) for target in targets
                           for name in ast.walk(target) if isinstance(name, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # dunders such as __version__ are read by the import system and tools
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, json\nfrom a.b import c as d, e\n"
              "print(os.sep, e)\n")
    assert unused_imports(source) == [(2, "json"), (3, "d")]


def test_no_unused_imports_in_the_package():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_detector_finds_unread_private_names():
    source = ("__version__ = '1'\n_A, _B = 1, 2\n_C: int = _A\n"
              "def _f():\n    return _g()\ndef _g():\n    x = 1\n"
              "class _K:\n    _inner = 0\n")
    assert unread_private_names(source) == [(2, "_B"), (3, "_C"), (4, "_f"), (8, "_K")]


def test_no_unread_private_names_in_the_package():
    found = {path.name: unread_private_names(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def reads(tree: ast.AST) -> Counter:
    """How often tree reads each name, as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                   or isinstance(node, ast.Attribute))


def read_names(source: str):
    """The names source reads, as a name or as an attribute."""
    return set(reads(ast.parse(source)))


def public_definitions(source: str):
    """The public module-level functions and classes of source, with their
    lines."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_detector_finds_public_definitions_and_reads():
    source = ("import m\nclass A:\n    pass\ndef b():\n    return m.c(A)\n"
              "def _d():\n    pass\nE = 1\n")
    assert public_definitions(source) == [(2, "A"), (4, "b")]
    assert read_names(source) == {"m", "c", "A"}


def test_every_public_name_is_read_by_the_engine_or_the_acceptance_tests():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, modules.values()),
                       read_names(ACCEPTANCE.read_text(encoding="utf-8")))
    unread = {name: [d for d in public_definitions(source) if d[1] not in read]
              for name, source in modules.items()}
    assert {name: defs for name, defs in unread.items() if defs} == {}


def unread_methods(engine, outside=frozenset()):
    """The non-dunder methods of the classes of engine, a {file name:
    source} dict, that no source of engine reads outside the method's own
    body and that outside, a set of names, does not hold, as (file name,
    line, Class.method)."""
    trees = {name: ast.parse(source) for name, source in engine.items()}
    total = sum(map(reads, trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef)
                        and not (method.name.startswith("__") and method.name.endswith("__"))
                        and method.name not in outside
                        and total[method.name] == reads(method)[method.name]):
                    found.append((name, method.lineno, f"{cls.name}.{method.name}"))
    return found


def test_detector_finds_unread_methods():
    engine = {"a.py": ("class A:\n    def used(self):\n        return 0\n"
                       "    def rec(self):\n        return self.rec()\n"
                       "    def __len__(self):\n        return 0\n"
                       "    def bench(self):\n        pass\n"),
              "b.py": "def f(x):\n    return x.used()\n"}
    assert unread_methods(engine, {"bench"}) == [("a.py", 4, "A.rec")]


def test_every_method_is_read_by_the_engine_the_acceptance_tests_or_the_benchmarks():
    engine = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    outside = set().union(*(read_names(path.read_text(encoding="utf-8"))
                            for path in [ACCEPTANCE, *sorted(BENCHMARKS.glob("*.py"))]))
    assert unread_methods(engine, outside) == []


# -- one sparse value type ------------------------------------------------------------

# the modules whose values have an unchecked constructor of their own:
# Labelled._like, and the scalar and matrix _make
UNCHECKED_MAKERS = {"lincomb.py", "scalars.py", "sparse.py"}


def unchecked_constructors(source: str):
    """The module-level unchecked constructors of source, with their lines:
    a function _make, or a binding of a terms slot's setter."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_make":
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "__set__" \
                and isinstance(node.value.value, ast.Attribute) \
                and node.value.value.attr == "terms":
            found.append((node.lineno, ast.unparse(node.value)))
    return found


def terms_slot_classes(module):
    """The names of the classes module defines whose values hold a terms slot."""
    return [name for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and isinstance(getattr(obj, "terms", None), types.MemberDescriptorType)]


def test_detector_finds_unchecked_constructors_and_terms_slots():
    source = ("_new = object.__new__\n_set_terms = Poly.terms.__set__\n"
              "_set_num = SparseMat.num.__set__\ndef _make(terms):\n    pass\n"
              "class A:\n    def _make(self):\n        pass\n")
    assert unchecked_constructors(source) == [(2, "Poly.terms.__set__"), (4, "_make")]
    module = types.ModuleType("fake")
    exec("class Copy:\n    __slots__ = ('terms',)\n"
         "class Plain:\n    terms = {}\n", vars(module))
    assert terms_slot_classes(module) == ["Copy"]


def test_no_module_but_the_value_modules_has_an_unchecked_constructor():
    found = {path.name: unchecked_constructors(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name not in UNCHECKED_MAKERS}
    assert {name: makers for name, makers in found.items() if makers} == {}


def test_every_class_with_a_terms_slot_is_a_labelled_kind():
    from beauville_lab.lincomb import Labelled

    copies = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"beauville_lab.{path.stem}")
        copies[path.name] = [name for name in terms_slot_classes(module)
                             if not issubclass(getattr(module, name), Labelled)]
    assert {name: classes for name, classes in copies.items() if classes} == {}
    # the check sees the kinds it should
    assert {"Poly", "TautExpr"} <= {cls.__name__ for cls in Labelled.__subclasses__()}
