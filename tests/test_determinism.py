"""`decompose` draws no random number outside `iso_test`, and `deloop` none.

Krull-Schmidt splits and certificates are deterministic: only the random
rounds of `iso_test` read numpy's generator.  The scan finds every use of
`np.random` (or `numpy.random`) and names the module-level function that
holds it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "syzygy"


def random_uses(text: str) -> list:
    """(line, enclosing module-level function or None) of every
    np.random or numpy.random, and of every import of numpy.random."""
    found = []
    for top in ast.parse(text).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append((node.lineno, owner))
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "numpy.random"
                    or node.module == "numpy" and any(a.name == "random" for a in node.names)):
                found.append((node.lineno, owner))
            elif isinstance(node, ast.Import) and any(a.name == "numpy.random" for a in node.names):
                found.append((node.lineno, owner))
    return sorted(found)


def test_decompose_draws_only_in_iso_test():
    uses = random_uses((SRC / "decompose.py").read_text())
    assert uses and {owner for _, owner in uses} == {"iso_test"}, uses


def test_deloop_draws_nothing():
    assert random_uses((SRC / "deloop.py").read_text()) == []


def test_the_scan_finds_random_draws():
    text = ("import numpy as np\nfrom numpy import random\nimport numpy.random\n"
            "def f():\n    return np.random.default_rng(0)\n"
            "class C:\n    def g(self):\n        from numpy.random import default_rng\n"
            "x = numpy.random.rand()\n# np.random in a comment\n")
    assert random_uses(text) == [(2, None), (3, None), (5, "f"), (8, "C"), (9, None)]
