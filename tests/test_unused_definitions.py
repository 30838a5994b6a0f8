"""Every definition of the package is read by the package itself.

A module-level function or class, or a method other than a dunder, that
only tests read is dead API.  Exempt are the click commands, the names
the benchmark's tracer wraps (perfbench/tracer.py TARGETS) and the few
oracles in EXEMPT.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "syzygy"
TRACER = ROOT / "perfbench" / "tracer.py"

EXEMPT = {
    "modules.validate_module": "the module-law oracle that tests use",
}


def _tracer_targets() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {f"{layer}.{qual}" for layer, quals in mod.TARGETS.items() for qual in quals}


def _is_command(node) -> bool:
    """Decorated by a click `.command(...)` or `.group(...)`."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unused_definitions(texts: dict, exempt=frozenset()) -> list:
    """"module.qualname" of every definition in texts ({module: source})
    whose name no module reads, as a name or as an attribute."""
    defs, reads = [], set()
    for module, text in texts.items():
        tree = ast.parse(text)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_command(node):
                continue
            defs.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return sorted(q for q, name in defs if name not in reads and q not in exempt)


def test_no_definition_only_tests_read():
    texts = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_definitions(texts, _tracer_targets() | set(EXEMPT)) == []


def test_the_scan_finds_an_unused_definition():
    texts = {
        "m": "class A:\n"
             "    def __init__(self): pass\n"
             "    def used(self): pass\n"
             "    def unused(self): pass\n"
             "def helper(): return A().used()\n"
             "def orphan(): pass\n"
             "def traced(): pass\n"
             "@main.command('run')\n"
             "def run_cmd(): pass\n",
        "n": "from m import helper\nhelper()\n",
    }
    assert unused_definitions(texts) == ["m.A.unused", "m.orphan", "m.traced"]
    assert unused_definitions(texts, {"m.traced"}) == ["m.A.unused", "m.orphan"]
