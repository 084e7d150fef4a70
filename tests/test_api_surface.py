"""The package holds only what the program, the benchmark and the demos call.

Every name in a copra_beam module's __all__ must resolve, and some .py file
under src/copra_beam, bench or demos must use it: as a name, an attribute or
an imported name. Its definition, docstrings and the __all__ strings do not
count, and neither do the tests; a name only tests call belongs in
tests/conftest.py.
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
