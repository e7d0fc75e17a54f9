"""No module of the package imports scipy.

The package runs on numpy alone: even the logistic-regression fit has its
own L-BFGS minimizer, because importing scipy.optimize costs more than half
a second and about 50 MB of a fresh process, against milliseconds for a
fit. An import of scipy anywhere in the package, even one deferred into a
function, would put that cost back on a command; this test fails on it
before it ships.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isatraits"


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _imported_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] if node.level == 0 else []
    if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if called in ("__import__", "import_module") and isinstance(node.args[0].value, str):
            return [node.args[0].value]
    return []


def scipy_imports(source: str) -> list[int]:
    """The line of each import of scipy or a submodule, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if any(_is_scipy(name) for name in _imported_names(node)))


def test_no_scipy_import_anywhere():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in scipy_imports(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(PACKAGE)}:{line}")
    assert offenders == []


def test_guard_sees_every_import_form():
    source = "\n".join([
        "import scipy",
        "import numpy, scipy.linalg as la",
        "from scipy.optimize import minimize",
        "from . import scipy_like",
        "import scipyx",
        "class Model:",
        "    from scipy import special",
        "def fit():",
        "    import scipy.optimize",
        "    return importlib.import_module('scipy.stats')",
        "lazy = lambda: __import__('scipy')",
    ])
    assert scipy_imports(source) == [1, 2, 3, 7, 9, 10, 11]
