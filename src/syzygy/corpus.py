"""Bundled algebra corpus and the algebra-definition file format.

An algebra file is a JSON document with either a quiver presentation:

    {"id": "...", "field": {"p": 32003},
     "quiver": {"vertices": [...], "arrows": [{"name","from","to"}, ...]},
     "relations": [[{"coef": 1, "path": ["a","b"]}, ...], ...]}

or a construction applied to another entry:

    {"id": "...", "construction": {"op": "cover", "base": "a2"}}

Supported ops: opposite, trivext, cover, lambda, and the deliberately
broken trivext_broken used as a negative control.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import algebra
from .algebra import QuiverPresentation, StructureAlgebra
from .errors import CorpusError

BUNDLED_DIR = Path(__file__).parent / "corpus_data"


@dataclass
class CorpusEntry:
    id: str
    raw: dict
    source: str

    @property
    def expect_fail(self) -> bool:
        return bool(self.raw.get("expect_fail", False))


def parse_json(text: str, source: str):
    """The JSON document in text; bad syntax, or nesting too deep to
    decode, is a CorpusError naming source."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CorpusError(f"{source}: nested too deeply") from exc


def _require(raw: dict, key: str, source: str):
    if key not in raw:
        raise CorpusError(f"{source}: missing key {key!r}")
    return raw[key]


def _check_shape(raw: dict, source: str):
    if not isinstance(raw.get("id", ""), str):
        raise CorpusError(f"{source}: id must be a string")
    has_quiver = "quiver" in raw
    has_construction = "construction" in raw
    if has_quiver == has_construction:
        raise CorpusError(
            f"{source}: exactly one of 'quiver' or 'construction' is required"
        )
    field = raw.get("field")
    if "field" in raw and not (isinstance(field, dict) and type(field.get("p")) is int):
        raise CorpusError(f"{source}: field must be an object with an integer 'p'")
    if has_quiver:
        q = raw["quiver"]
        if not isinstance(q, dict):
            raise CorpusError(f"{source}: quiver must be an object")
        if not isinstance(q.get("vertices"), list) or not q["vertices"] \
                or not all(isinstance(v, str) for v in q["vertices"]):
            raise CorpusError(f"{source}: quiver.vertices must be a non-empty list of names")
        for key, value in (("quiver.arrows", q.get("arrows", [])),
                           ("relations", raw.get("relations", []))):
            if not isinstance(value, list):
                raise CorpusError(f"{source}: {key} must be a list")
        for i, arr in enumerate(q.get("arrows", [])):
            if not isinstance(arr, dict) or not all(
                    isinstance(arr.get(k), str) for k in ("name", "from", "to")):
                raise CorpusError(f"{source}: quiver.arrows[{i}] must be an "
                                  "object with names 'name', 'from' and 'to'")
        for i, rel in enumerate(raw.get("relations", [])):
            if not isinstance(rel, list) or not rel:
                raise CorpusError(f"{source}: relations[{i}] must be a non-empty list")
            for j, term in enumerate(rel):
                if not isinstance(term, dict) or type(term.get("coef")) is not int \
                        or not isinstance(term.get("path"), list) \
                        or not all(isinstance(a, str) for a in term["path"]):
                    raise CorpusError(f"{source}: relations[{i}][{j}] needs an "
                                      "integer 'coef' and a 'path' list of arrow names")
    else:
        c = raw["construction"]
        op = c.get("op") if isinstance(c, dict) else None
        if op not in CONSTRUCTION_OPS:
            raise CorpusError(
                f"{source}: construction.op must be one of {CONSTRUCTION_OPS}, got {op!r}"
            )
        if not isinstance(c.get("base"), str):
            raise CorpusError(f"{source}: construction.base must be an entry id")


def read_file(path) -> str:
    """The text of the UTF-8 file at path; a path that is missing, is not
    a readable file, or does not decode is a CorpusError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CorpusError(f"{path}: no such file") from exc
    except OSError as exc:  # a directory, a permission
        raise CorpusError(f"{path}: not a readable file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_entry_file(path) -> CorpusEntry:
    path = Path(path)
    raw = parse_json(read_file(path), str(path))
    if not isinstance(raw, dict):
        raise CorpusError(f"{path}: top level must be an object")
    _check_shape(raw, str(path))
    entry_id = raw.get("id", path.stem)
    return CorpusEntry(id=entry_id, raw=raw, source=str(path))


def load_corpus(directory=None) -> list[CorpusEntry]:
    """All entries of a directory (default: the bundled corpus), by id."""
    directory = BUNDLED_DIR if directory is None else Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"{directory}: not a directory")
    entries = [load_entry_file(f) for f in sorted(directory.glob("*.json"))]
    seen = set()
    for e in entries:
        if e.id in seen:
            raise CorpusError(f"{e.source}: duplicate entry id {e.id!r}")
        seen.add(e.id)
    return sorted(entries, key=lambda e: e.id)


def broken_trivial_extension(a: StructureAlgebra) -> StructureAlgebra:
    """Trivial extension with the y*x' cross term dropped — a deliberately
    wrong product used as a negative control (the unit law fails)."""
    t = algebra.trivial_extension(a)
    n = a.dim
    mul = t.mul.copy()  # never write into the memoized T(A)
    mul[n:, :n, n:] = 0
    return StructureAlgebra(a.p, mul, t.unit, t.radical, t.idempotents,
                            name=f"Tbroken({a.name})" if a.name else "Tbroken")


_CONSTRUCTORS = dict(algebra.CONSTRUCTIONS, trivext_broken=broken_trivial_extension)
CONSTRUCTION_OPS = tuple(_CONSTRUCTORS)


def build_algebra(entry: CorpusEntry, resolved: dict, p: int | None = None) -> StructureAlgebra:
    raw = entry.raw
    if "quiver" in raw:
        prime = p if p is not None else _require(raw, "field", entry.source)["p"]
        q = raw["quiver"]
        arrows = [(arr["name"], arr["from"], arr["to"]) for arr in q.get("arrows", [])]
        relations = [
            [(term["coef"], list(term["path"])) for term in rel]
            for rel in raw.get("relations", [])
        ]
        pres = QuiverPresentation(list(q["vertices"]), arrows, relations)
        return algebra.from_quiver(pres, prime, name=entry.id)
    c = raw["construction"]
    base_id = c["base"]
    if base_id not in resolved:
        raise CorpusError(f"{entry.source}: unknown base entry {base_id!r}")
    base = resolved[base_id]
    out = _CONSTRUCTORS[c["op"]](base)
    out.name = entry.id
    return out


def resolve_corpus(entries: list[CorpusEntry], p: int | None = None) -> dict:
    """id -> StructureAlgebra, resolving construction recipes (acyclic)."""
    by_id = {e.id: e for e in entries}
    resolved: dict[str, StructureAlgebra] = {}

    def visit(entry_id: str, pending: tuple):
        if entry_id in resolved:
            return
        if entry_id not in by_id:
            raise CorpusError(f"unknown corpus entry {entry_id!r}")
        entry = by_id[entry_id]
        raw = entry.raw
        if "construction" in raw:
            base_id = raw["construction"]["base"]
            if base_id in pending:
                raise CorpusError(
                    f"{entry.source}: construction cycle through {base_id!r}"
                )
            visit(base_id, pending + (entry_id,))
        resolved[entry_id] = build_algebra(entry, resolved, p)

    for e in entries:
        visit(e.id, ())
    return resolved


def entry_algebra(entry: CorpusEntry, p: int | None = None) -> StructureAlgebra:
    """The algebra of one entry; a construction builds its chain of bases
    from the bundled corpus, and nothing else of it."""
    bundled = {e.id: e for e in load_corpus()} if "construction" in entry.raw else {}
    chain, base = [], entry.raw.get("construction", {}).get("base")
    while base in bundled and bundled[base] not in chain:  # a cycle: resolve_corpus raises
        chain.append(bundled[base])
        base = chain[-1].raw.get("construction", {}).get("base")
    return build_algebra(entry, resolve_corpus(chain, p), p)
