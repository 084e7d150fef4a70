"""The package holds only what the program, the benchmark and the demos call.

Every name in a copra_beam module's __all__ must resolve, and some .py file
under src/copra_beam, bench or demos must use it: as a name, an attribute or
an imported name. Its definition, docstrings and the __all__ strings do not
count, and neither do the tests; a name only tests call belongs in
tests/conftest.py. The demos show the library's use, so they use only its
public names: no name they import or read from copra_beam starts with "_".
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "copra_beam"
CALLERS = (PACKAGE, ROOT / "bench", ROOT / "demos")


def _used_names():
    used = set()
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    return used


def test_every_public_name_resolves_and_has_a_caller():
    used = _used_names()
    unresolved, uncalled = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module("copra_beam." + path.stem)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                unresolved.append("%s.%s" % (path.stem, name))
            elif name not in used:
                uncalled.append("%s.%s" % (path.stem, name))
    assert unresolved == []
    assert uncalled == []


def _private_names(path):
    """The names starting with "_" that a file imports from copra_beam or
    reads as an attribute of a name it imported from copra_beam."""
    tree = ast.parse(path.read_text(), str(path))
    imported, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "copra_beam")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("copra_beam"):
            imported.update(a.asname or a.name for a in node.names)
            private += [a.name for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                private.append(node.attr)
    return private


def test_demos_use_only_public_names():
    found = {path.name: _private_names(path) for path in sorted((ROOT / "demos").glob("*.py"))}
    assert {name: private for name, private in found.items() if private} == {}
