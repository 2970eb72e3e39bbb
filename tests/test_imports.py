"""Every name a patchmask module imports is used in that module, every
module-level function or class is referred to by some code in the package,
and every name in a module's __all__ is bound in that module.

No linter ships with the test dependencies, so these are the one check for
imports that a refactor leaves behind, and for library code that only the
tests call; PUBLIC_ONLY names the public entry points that only callers
outside the package call. A name listed in a module's __all__ counts as used: that is how
a package re-exports it. A re-export is no reference, though, so __init__
is left out of the second scan.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patchmask"


def imported_names(tree):
    """(bound name, line) for each import in the module, __future__ aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.append((alias.asname or alias.name, node.lineno))
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .a import b, c as d\n"
        "from .e import f\n"
        "__all__ = ['f']\n"
        "np.zeros(d)\n"
    )
    assert unused_imports(source) == ["os (line 1)", "b (line 3)"]


def referenced_names(tree, skip=None):
    """Names read as variables or attributes anywhere in tree outside skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_definitions(sources):
    """module.name of each module-level function or class in sources (module
    name -> source) that no module refers to outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()
             if module != "__init__"}
    everywhere = {module: referenced_names(tree) for module, tree in trees.items()}
    unreferenced = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in everywhere.items() if other != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in elsewhere
                    and node.name not in referenced_names(tree, skip=node)):
                unreferenced.append(f"{module}.{node.name}")
    return unreferenced


# public entry points that no module of the package calls, sorted:
# patchify makes a caller's Image into a grid and load_image reads a file
# into an Image, while the CLI loads through load_patches and render_mask
# takes the grid
PUBLIC_ONLY = ["patch_grid.patchify", "pnm.load_image"]


def test_every_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert sorted(unreferenced_definitions(sources)) == PUBLIC_ONLY


def test_scan_finds_an_unreferenced_definition():
    sources = {
        "__init__": "from .a import Unused, dead, used\n__all__ = ['Unused', 'dead', 'used']\n",
        "a": (
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def dead(n):\n    return dead(n - 1) if n else 0\n\n"
            "class Unused:\n    pass\n"
        ),
        "b": "from . import a\na.used()\n",
    }
    assert unreferenced_definitions(sources) == ["a.dead", "a.Unused"]


def unbound_exports(source):
    """Names in the module's __all__ that no import, def, class or
    assignment at its top level binds: `from module import *` raises
    AttributeError on each."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(name for name, _ in imported_names(node))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unbound_export():
    source = (
        "from .a import b, c as d\n"
        "E = 1\n"
        "def f():\n    pass\n"
        "class G:\n    pass\n"
        "__all__ = ['b', 'c', 'd', 'E', 'f', 'G', 'Stale']\n"
    )
    assert unbound_exports(source) == ["c", "Stale"]
