"""Locate and import the copra_beam package of this checkout.

Every process the benchmark starts imports the program through ``load`` so
that an installed copy elsewhere can never stand in for the source under test.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import copra_beam and fail unless it comes from this checkout's src/."""
    package = SRC / "copra_beam"
    if not (package / "__init__.py").is_file():
        raise SystemExit("benchmark: no program source at %s" % package)
    module = importlib.import_module("copra_beam")
    if Path(module.__file__).resolve().parent != package.resolve():
        raise SystemExit("benchmark: copra_beam imported from %s, not %s"
                         % (module.__file__, package))
    return module
