"""Every name a module of the package imports is used in that module.

A name imported for another reader, such as the one the benchmark's tracer
wraps in deloop, is marked `# noqa` on its import line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "syzygy"


def unused_imports(text: str) -> list:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    text = "import json\nfrom os import path, sep  # noqa\nfrom re import sub, match\nsub('', '', '')\n"
    assert unused_imports(text) == [(1, "json"), (3, "match")]
