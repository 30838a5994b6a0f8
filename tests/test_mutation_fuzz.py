"""Mutated inputs never crash the command line.

Each example takes a bundled corpus file or a small stored report, makes
one mutation at one place in its JSON (drop a key, change a type, nest a
value, up to far deeper than the decoder allows, swap in a name that
does not exist, or add a loop to the quiver, bare or with its square as a
relation) and runs `algebra validate`, `paper verify --algebra` and
`report --reverify` on the result.  Every run must end with a documented
exit code (0, 1, 2 or 3) and no exception may escape; a stored entry
swapped for a value that is no int in 0..p-1 must fail reverify (exit 1).
"""

import functools
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from syzygy import corpus
from syzygy.cli import main

TEXTS = {p.name: p.read_text() for p in corpus.BUNDLED_DIR.glob("*.json")}
DEEP = "@@nest-here@@"  # placeholder of the nested value in the dumped text
VALUES = [0, -1, 2**70, 1.5, "x", None, True, [], {}]  # what a retype swaps in
# 0 and true (read as 1 among ints) may leave a stored entry valid; the
# rest are no int in 0..p-1 and fail any certificate that stores them


@functools.cache
def _report_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a2.json"
        r = CliRunner().invoke(main, ["paper", "verify", "--algebra", "a2",
                                      "--report", str(path)])
        assert r.exit_code == 0, r.output
        return path.read_text()


def _add_loop(doc, path, nilpotent) -> str:
    """The text of doc with a loop z at the vertex path picks and, when
    nilpotent, the relation z*z; a doc without a quiver is kept as it is."""
    quiver = doc.get("quiver") if isinstance(doc, dict) else None
    if isinstance(quiver, dict) and quiver.get("vertices"):
        v = quiver["vertices"][(path[0] if path else 0) % len(quiver["vertices"])]
        quiver["arrows"].append({"name": "z", "from": v, "to": v})
        if nilpotent:
            doc["relations"].append([{"coef": 1, "path": ["z", "z"]}])
    return json.dumps(doc)


def _mutate(doc, path, kind, value, depth) -> str:
    """The text of doc after one mutation at the place path leads to: at
    each level path picks a child (its index modulo the number of
    children) until it runs out or meets a value with no children."""
    if kind in ("loop", "nilpotent-loop"):
        return _add_loop(doc, path, kind == "nilpotent-loop")
    parent, key, node = None, None, doc
    for step in path:
        if not (isinstance(node, dict | list) and node):
            break
        key = sorted(node)[step % len(node)] if isinstance(node, dict) else step % len(node)
        parent, node = node, node[key]
    new = {"drop": node, "retype": value, "nest": DEEP, "unknown": "no_such_name"}[kind]
    if parent is None:
        doc = {} if kind == "drop" else new
    elif kind == "drop":
        del parent[key]
    else:
        parent[key] = new
    text = json.dumps(doc)
    if kind == "nest":
        text = text.replace(json.dumps(DEEP), "[" * depth + json.dumps(node) + "]" * depth)
    return text


def _runs_cleanly(args):
    r = CliRunner().invoke(main, args)
    assert r.exit_code in (0, 1, 2, 3), (args, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        (args, r.output, r.exc_info)
    return r


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(name=st.one_of(st.just("report"), st.sampled_from(sorted(TEXTS))),
       path=st.lists(st.integers(0, 63), max_size=8),
       kind=st.sampled_from(["drop", "retype", "nest", "unknown", "loop",
                             "nilpotent-loop"]),
       value=st.sampled_from(VALUES),
       depth=st.sampled_from([1, 40, 900, 100_000]))
def test_mutated_inputs_exit_with_a_documented_code(tmp_path, name, path, kind, value, depth):
    doc = json.loads(TEXTS[name] if name in TEXTS else _report_text())
    text = _mutate(doc, path, kind, value, depth)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    if name == "report":
        (work / name).write_text(text)
        _runs_cleanly(["report", str(work / name), "--reverify"])
        return
    for other, other_text in TEXTS.items():
        (work / other).write_text(text if other == name else other_text)
    _runs_cleanly(["algebra", "validate", str(work / name)])
    _runs_cleanly(["paper", "verify", str(work), "--algebra", Path(name).stem])


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_a_swapped_action_entry_exits_with_a_documented_code(tmp_path, value):
    """Each swap value in one entry of a stored witness's explicit action,
    a place the random paths above rarely reach."""
    doc = json.loads(_report_text())
    cert = next(c for row in doc["checks"] for c in row["evidence"].get("certificates", [])
                if c["kind"] == "del_witness")
    cert["witness"]["action"][0][0][0] = value
    (tmp_path / "report").write_text(json.dumps(doc))
    r = _runs_cleanly(["report", str(tmp_path / "report"), "--reverify"])
    assert value in (0, True) or r.exit_code == 1, r.output


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_a_swapped_payload_entry_exits_with_a_documented_code(tmp_path, value):
    """Each swap value in the first entry of the first stored matrix of one
    certificate of every kind that stores one; what is no int in 0..p-1
    fails each of them."""
    doc = json.loads(_report_text())
    tampered = {}  # kind -> the FAILED line of its tampered certificate
    for row in doc["checks"]:
        for i, cert in enumerate(row["evidence"].get("certificates", [])):
            first = next((cert[k][0] for k in ("matrix", "rows_a", "phi", "pi_u")
                          if cert.get(k) and cert[k][0]), None)
            if first is not None and cert["kind"] not in tampered:
                first[0] = value
                tampered[cert["kind"]] = f"FAILED a2 {row['check_id']} #{i} ({cert['kind']})"
    assert len(tampered) == 7  # every kind but del_witness, whose action is swapped above
    (tmp_path / "report").write_text(json.dumps(doc))
    r = _runs_cleanly(["report", str(tmp_path / "report"), "--reverify"])
    assert value in (0, True) or (
        r.exit_code == 1 and all(line in r.output for line in tampered.values())), r.output
