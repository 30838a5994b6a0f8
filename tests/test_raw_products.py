"""No function of the package but `linalg.matmul` multiplies arrays itself.

Every F_p product goes through `linalg.matmul` (or `linalg.bilinear`),
which alone picks int64 or float64 BLAS, tiles a product and checks that
no sum can wrap int64.  A raw numpy product, or `@`, elsewhere would
reduce with its own `% p` and skip that check; in linalg.py itself, only
the body of `matmul` may hold one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "syzygy"
RAW = {"einsum", "matmul", "dot", "tensordot", "inner", "vdot"}


def raw_products(text: str) -> list:
    """(line, what) of every numpy product named in RAW, read as np.<name>
    or imported from numpy, and of every @ or @=."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@="))
        elif (isinstance(node, ast.Attribute) and node.attr in RAW
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"np.{a.name}") for a in node.names if a.name in RAW]
    return sorted(found)


def kernel_lines(text: str) -> range:
    """The lines of the module-level function matmul."""
    fn = next(node for node in ast.parse(text).body
              if isinstance(node, ast.FunctionDef) and node.name == "matmul")
    return range(fn.lineno, fn.end_lineno + 1)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_raw_product_outside_the_kernel(path):
    text = path.read_text()
    kernel = kernel_lines(text) if path.name == "linalg.py" else range(0)
    assert [(line, what) for line, what in raw_products(text) if line not in kernel] == []


def test_the_scan_finds_raw_products():
    text = ("import numpy as np\nfrom numpy import dot, zeros\nx = a @ b\n"
            "y = np.einsum('i,i', a, b) % p\nz @= w\nf = np.matmul\n"
            "g = np.linalg.norm(x)\nh = linalg.matmul(a, b, p)\n# a @ b in a comment\n")
    assert raw_products(text) == [(2, "np.dot"), (3, "@"), (4, "np.einsum"), (5, "@="),
                                  (6, "np.matmul")]
