import ast
import sys
from pathlib import Path

import mfglab

RUNTIME_DEPENDENCIES = {"numpy", "scipy", "mfglab"}


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by source from outside the standard
    library, numpy, scipy and the package (relative imports are its own)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES
    return [name for name in names if name.split(".")[0] not in allowed]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mfglab import *", namespace)
    for name in mfglab.__all__:
        assert namespace[name] is getattr(mfglab, name), name


def test_runtime_imports_are_numpy_scipy_and_stdlib_only():
    sources = sorted(Path(mfglab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        assert _foreign_imports(path.read_text()) == [], path.name
    # the guard itself: a foreign import is caught in either form, and a
    # module name inside a string (the CLI's plot script) is not an import
    assert _foreign_imports("import os, matplotlib.pyplot as plt\n"
                            "from requests import get\nfrom . import torus\n"
                            "from scipy.optimize import linprog\n"
                            "s = 'import matplotlib'\n") == ["matplotlib.pyplot", "requests"]
