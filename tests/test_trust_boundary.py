"""Reverify does not lean on the code whose outputs it checks.

`reverify_report` rebuilds the modules a certificate names and checks the
stored matrices with exact arithmetic.  The functions it runs in `checks`
name nothing imported from `decompose`, which searches for the
certificates, and from `deloop` only the names exempted below, each with
its reason.  The scan is scoped to functions because `checks` keeps the
checks themselves, which do search, in the same module.
"""

import ast
from pathlib import Path

import pytest

CHECKS = Path(__file__).resolve().parent.parent / "src" / "syzygy" / "checks.py"

REVERIFY = {"resolve_algebra_desc", "resolve_module_ref", "corner_projective",
            "sigma_triple_module", "_sample_module", "_lemma5_level", "_level",
            "_stored_ints", "_resolve_sample", "_verify_certificate", "reverify_report"}
REVERIFY_PREFIXES = ("_resolve_", "_verify_")

# deloop name -> why reverify may read it
DELOOP_EXEMPT = {
    "default_pool": "pool descriptors name a module of the delooping pool by its index",
    "verify_del_witness": "the exact check of a stored witness, split pairs included",
    "DEFAULT_HORIZON": "the bound on a stored delooping level",
}


def _reverify_functions(tree) -> dict:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
            and (node.name in REVERIFY or node.name.startswith(REVERIFY_PREFIXES))}


def boundary_breaches(text: str) -> list:
    """(function, name) for every name a reverify function reads from
    decompose, or from deloop outside DELOOP_EXEMPT, either bare after a
    `from .decompose import` or as an attribute of the imported module."""
    tree = ast.parse(text)
    imported, aliases = {}, {}  # bare name -> its module; module alias -> module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module in ("decompose", "deloop"):
                    imported[a.asname or a.name] = (node.module, a.name)
                elif node.module is None and a.name in ("decompose", "deloop"):
                    aliases[a.asname or a.name] = a.name
    breaches = []
    for fname, fn in _reverify_functions(tree).items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in imported:
                module, name = imported[node.id]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                module, name = aliases[node.value.id], node.attr
            else:
                continue
            if module == "decompose" or name not in DELOOP_EXEMPT:
                breaches.append((fname, f"{module}.{name}"))
    return sorted(set(breaches))


def test_every_named_reverify_function_exists():
    found = _reverify_functions(ast.parse(CHECKS.read_text()))
    assert REVERIFY <= set(found)
    assert any(name.startswith("_resolve_") for name in found)
    assert any(name.startswith("_verify_") for name in found)


def test_reverify_names_no_search_code():
    assert boundary_breaches(CHECKS.read_text()) == []


@pytest.mark.parametrize("text, breaches", [
    ("from .decompose import end_ring\ndef _verify_x(m):\n    return end_ring(m)\n",
     [("_verify_x", "decompose.end_ring")]),
    ("from . import decompose\ndef reverify_report(d):\n    return decompose.iso_test\n",
     [("reverify_report", "decompose.iso_test")]),
    ("from . import deloop\ndef _resolve_x(c):\n    return deloop.del_bounds(c), "
     "deloop.default_pool(c)\n", [("_resolve_x", "deloop.del_bounds")]),
    ("from .deloop import del_algebra as da\ndef _level(v):\n    return da(v)\n",
     [("_level", "deloop.del_algebra")]),
    ("from .decompose import iso_test\ndef check_lemma1(a):\n    return iso_test(a)\n", []),
])
def test_the_scan_finds_breaches(text, breaches):
    assert boundary_breaches(text) == breaches
