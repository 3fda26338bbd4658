"""Every imported name in the package modules and the tests is read somewhere,
and so is every private module-level name of the package.

The import check is by name per file: an import binding counts as used if the
same name is loaded anywhere in the file or listed in its ``__all__``.
``__future__`` imports are exempt, and so is ``plaqising/__init__.py``, whose
imports are the package's exports.

The private check is by name across the package: a module-level ``_name``
function, class or constant of ``src/plaqising`` must be loaded, as a name or
an attribute, in some package module.  A helper that only tests call is an
orphan.

The unnamed-definition check is by name across the repository: a
module-level function or class of ``src/plaqising`` must be loaded, as a name
or an attribute, somewhere under ``src/``, ``tests/`` or ``bench/`` outside
its own definition.  Imports and ``__all__`` strings do not count, so a
helper whose last call site was removed fails even while it is exported.

The public-surface check is by name across the package: every public
module-level function and public method of ``src/plaqising`` must be loaded,
as a name or an attribute, in some package module outside its own
definition.  A function that only tests call belongs in ``tests/oracles.py``.
The one exemption, by name, is ``cli._Parser.error``: argparse calls it.

The route-independence check reads the imports of ``ed.py`` and
``freefermion.py``, lazy ones included: neither module imports the other, so
the 2D ED route and the free-fermion route that the duality check compares
share no module but the Pauli and lattice layers.

The export checks are by name per module: every ``__all__`` entry of a
package module is bound at its top level (defined, assigned or imported),
and the package ``__all__`` lists exactly the names ``__init__.py`` imports,
plus ``__version__``.

The unread-export check is by name across the repository: every ``__all__``
entry of a package module, ``__init__.py`` included, must be loaded, as a
name or an attribute, somewhere under ``src/``, ``tests/`` or ``bench/``
outside ``__init__.py`` and the module that defines it.  A class that only
its own module builds is not an export.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "plaqising").glob("*.py"))
NAMING = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
FILES = sorted(
    [p for p in SRC if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    read.update(_exports(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys as system\n" \
          "from a.b import c, d as e\n__all__ = ['c']\nprint(os.sep)\n"
    assert _unused_imports(src) == ["line 3: e", "line 2: system"]


def _orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions that no source in ``sources`` loads."""
    read: set[str] = set()
    defined: list[tuple[str, int, str]] = []
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(fname, node.lineno, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
    return [f"{fname} line {line}: {name}" for fname, line, name in defined
            if name not in read]


def test_every_private_module_name_is_read_in_the_package():
    assert _orphaned_privates({p.name: p.read_text() for p in SRC}) == []


def test_the_check_sees_an_orphaned_private_name():
    a = ("_LIMIT = 3\n_T: int = 1\n"
         "def _used():\n    return _LIMIT\ndef _orphan():\n    pass\n")
    b = "import a\nclass _Box:\n    pass\nprint(a._used(), a._T)\n"
    assert _orphaned_privates({"a.py": a, "b.py": b}) == [
        "a.py line 5: _orphan", "b.py line 2: _Box"]


def _loaded_names(tree: ast.AST) -> Counter:
    """How often each name is loaded, as a name or an attribute, in ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _unnamed_definitions(defining: dict[str, str], naming: list[str]) -> list[str]:
    """Module-level functions and classes of ``defining`` that no source in
    ``naming`` loads outside the definition itself."""
    loads = Counter()
    for source in naming:
        loads.update(_loaded_names(ast.parse(source)))
    found = []
    for fname, source in defining.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and loads[node.name] == _loaded_names(node)[node.name]):
                found.append(f"{fname} line {node.lineno}: {node.name}")
    return found


def test_every_package_definition_is_named_somewhere():
    naming = [p.read_text() for p in NAMING]
    assert _unnamed_definitions({p.name: p.read_text() for p in SRC}, naming) == []


def test_the_check_sees_an_unnamed_definition():
    a = ("def used():\n    return 1\ndef recursive(n):\n    return recursive(n - 1)\n"
         "class Exported:\n    pass\n__all__ = ['Exported']\n")
    b = "from a import used, Exported\nprint(used())\n"
    assert _unnamed_definitions({"a.py": a}, [a, b]) == [
        "a.py line 3: recursive", "a.py line 5: Exported"]


# public methods that a library calls rather than the package
_CALLED_BY_A_LIBRARY = frozenset({"_Parser.error"})


def _uncalled_public(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """Public module-level functions and methods of ``sources`` that no
    source loads outside their own definition, unless ``exempt`` names them
    as ``function`` or ``Class.method``."""
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    loads = Counter()
    for tree in trees.values():
        loads.update(_loaded_names(tree))
    found = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)]
            else:
                continue
            found += [f"{fname} line {fn.lineno}: {name}" for name, fn in defs
                      if not fn.name.startswith("_") and name not in exempt
                      and loads[fn.name] == _loaded_names(fn)[fn.name]]
    return found


def test_every_public_function_and_method_is_called_in_the_package():
    sources = {p.name: p.read_text() for p in SRC}
    assert _uncalled_public(sources, _CALLED_BY_A_LIBRARY) == []


def test_the_check_sees_an_uncalled_public_function_and_method():
    a = ("def used():\n    return 1\ndef unused(n):\n    return unused(n)\n"
         "class Box:\n    def size(self):\n        return 2\n"
         "    def spare(self):\n        return self.spare()\n"
         "    def error(self):\n        pass\n"
         "    def _private(self):\n        pass\n")
    b = "from a import used, unused, Box\nprint(used(), Box().size())\n"
    assert _uncalled_public({"a.py": a, "b.py": b}, {"Box.error"}) == [
        "a.py line 3: unused", "a.py line 8: Box.spare"]
    assert _uncalled_public({"a.py": a, "b.py": b}) == [
        "a.py line 3: unused", "a.py line 8: Box.spare", "a.py line 10: Box.error"]


def _imported_modules(source: str) -> set[str]:
    """The last dotted part of every module that ``source`` imports from or
    imports, at any depth: ``from .ed import x`` and ``import pkg.ed`` give
    ``ed``, and ``from . import ed`` gives ``ed`` too."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            if not node.module or node.module == "plaqising":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


@pytest.mark.parametrize("module,other", [("ed", "freefermion"), ("freefermion", "ed")])
def test_the_two_routes_import_nothing_from_each_other(module, other):
    source = (ROOT / "src" / "plaqising" / f"{module}.py").read_text()
    assert other not in _imported_modules(source)


def test_the_check_sees_an_import_of_the_other_route():
    src = ("from .errors import InvalidSpec\nimport numpy as np\n"
           "def f():\n    from .ed import gap_from_levels\n"
           "    from . import lattice\n    import plaqising.pauli\n"
           "    from plaqising import sweep\n")
    assert _imported_modules(src) == {
        "errors", "numpy", "ed", "lattice", "pauli", "plaqising", "sweep"}


def _undefined_exports(source: str) -> list[str]:
    """``__all__`` entries that the module does not bind at its top level."""
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return [name for name in _exports(tree) if name not in bound]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    assert _undefined_exports(path.read_text()) == []


def test_the_check_sees_an_undefined_export():
    src = ("from x import a\nimport y.z\nb = 1\nc: int = 2\n"
           "def d():\n    pass\nclass E:\n    pass\n"
           "__all__ = ['a', 'y', 'b', 'c', 'd', 'E', 'gone']\n")
    assert _undefined_exports(src) == ["gone"]


def test_package_exports_are_exactly_its_imports():
    tree = ast.parse((ROOT / "src" / "plaqising" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(_exports(tree)) == sorted(imported + ["__version__"])


def _unread_exports(package: dict[str, str], naming: dict[str, str]) -> list[str]:
    """``__all__`` entries of the ``package`` modules that no source in
    ``naming`` loads outside an ``__init__.py`` and the entry's defining module."""
    trees = {fname: ast.parse(source) for fname, source in package.items()}
    home: dict[str, str] = {}
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                home[node.name] = fname
            elif isinstance(node, ast.Assign):
                home.update((t.id, fname) for t in node.targets if isinstance(t, ast.Name))
    loads = {fname: _loaded_names(ast.parse(source)) for fname, source in naming.items()}
    return [f"{fname}: {name}" for fname, tree in trees.items() for name in _exports(tree)
            if not any(counts[name] for other, counts in loads.items()
                       if other != home.get(name, fname)
                       and not other.endswith("__init__.py"))]


def test_every_export_is_read_outside_its_module():
    naming = {str(p.relative_to(ROOT)): p.read_text() for p in NAMING}
    package = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    assert _unread_exports(package, naming) == []


def test_the_check_sees_an_unread_export():
    a = ("def used():\n    return 1\ndef own():\n    return 2\nclass Built:\n    pass\n"
         "print(own(), Built())\n__all__ = ['used', 'own', 'Built']\n")
    init = "from a import used, own, Built\n__all__ = ['used', 'own', 'Built']\n"
    b = "import a\nprint(a.used())\n"
    package = {"a.py": a, "__init__.py": init}
    assert _unread_exports(package, {**package, "b.py": b}) == [
        "a.py: own", "a.py: Built", "__init__.py: own", "__init__.py: Built"]
