"""Every name a module of the package imports is used in that module.

A `# noqa` comment exempts nothing.  The exemptions are named below:
perfbench/selftest.py checks that the tracer wraps deloop's binding of
iso_test, which deloop never calls, and the tracer's TARGETS wrap
decompose's binding of end_ring, which decompose no longer calls.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "syzygy"
KEPT = {"deloop.py": ["iso_test"], "decompose.py": ["end_ring"]}


def unused_imports(text: str) -> list:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert [name for _, name in unused_imports(path.read_text())] == KEPT.get(path.name, [])


def test_the_scan_finds_an_unused_import():
    text = "import json\nfrom os import path, sep  # noqa\nfrom re import sub, match\nsub('', '', '')\n"
    assert unused_imports(text) == [(1, "json"), (2, "path"), (2, "sep"), (3, "match")]
