"""scipy may be imported only inside a function of classify/logistic.py.

Importing scipy.optimize costs more than half a second of a fresh process,
and only the logistic-regression fit needs it. A module-level import
anywhere in the package would put that cost back on every command,
`predict` included; this test fails on it before it ships.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isatraits"
ALLOWED = PACKAGE / "classify" / "logistic.py"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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


def scipy_imports(source: str) -> list[tuple[int, bool]]:
    """(line, inside a function) for each import of scipy or a submodule."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if any(_is_scipy(name) for name in _imported_names(child)):
                found.append((child.lineno, in_function))
            visit(child, in_function or isinstance(child, SCOPES))

    visit(ast.parse(source), False)
    return found


def test_scipy_imported_only_inside_logistic_functions():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, in_function in scipy_imports(path.read_text(encoding="utf-8")):
            if not (path == ALLOWED and in_function):
                offenders.append(f"{path.relative_to(PACKAGE)}:{line}")
    assert offenders == []


def test_logistic_fit_is_the_one_import():
    assert [inside for _, inside in scipy_imports(ALLOWED.read_text(encoding="utf-8"))] == [True]


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
    assert scipy_imports(source) == [
        (1, False), (2, False), (3, False), (7, False), (9, True), (10, True), (11, True),
    ]
