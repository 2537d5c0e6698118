"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vpboot"
# The package root imports names to re-export them, not to use them.
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
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
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []


def _svd_calls(source: str) -> int:
    return sum(isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "svd"
        or isinstance(node.func, ast.Name) and node.func.id == "svd")
        for node in ast.walk(ast.parse(source)))


def test_the_package_has_one_svd_call():
    # Every rank, projection and fit goes through ordination._svd_basis.
    assert sum(_svd_calls(p.read_text()) for p in PACKAGE.glob("*.py")) == 1
    assert _svd_calls("u = np.linalg.svd(a)\nsvd(b)\nnp.svd\n") == 2


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom math import inf, nan\nprint(nan)\n"
    assert _unused_imports(source) == ["inf (line 2)", "os (line 1)"]
