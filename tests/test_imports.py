"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "elastonet"


def unused_imports(source):
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_reports_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import a, b\nprint(np.pi, b)\n"
    assert unused_imports(source) == ["a", "os"]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
