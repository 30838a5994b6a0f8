import json

import pytest

from syzygy import corpus
from syzygy.algebra import validate_algebra
from syzygy.corpus import CorpusEntry
from syzygy.errors import CorpusError


def test_bundled_corpus_loads_sorted():
    entries = corpus.load_corpus()
    ids = [e.id for e in entries]
    assert ids == sorted(ids)
    assert "a2" in ids and "square" in ids and "nakayama3" in ids
    assert "mutant_broken_trivext" in ids


def test_bundled_corpus_builds_and_validates():
    entries = corpus.load_corpus()
    resolved = corpus.resolve_corpus(entries)
    for e in entries:
        rep = validate_algebra(resolved[e.id])
        if e.expect_fail:
            assert not rep.ok
        else:
            assert rep.ok, (e.id, rep.violations)


def test_mutant_is_flagged_expect_fail():
    entries = {e.id: e for e in corpus.load_corpus()}
    assert entries["mutant_broken_trivext"].expect_fail
    assert not entries["a2"].expect_fail


def test_parse_error_has_position(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"id": "x",\n  "field": oops}\n')
    with pytest.raises(CorpusError) as exc:
        corpus.load_entry_file(f)
    assert "line 2" in str(exc.value)
    assert "column" in str(exc.value)


def test_shape_requires_quiver_or_construction(tmp_path):
    f = tmp_path / "both.json"
    f.write_text(json.dumps({
        "id": "both",
        "quiver": {"vertices": ["1"], "arrows": []},
        "construction": {"op": "cover", "base": "a2"},
    }))
    with pytest.raises(CorpusError, match="exactly one"):
        corpus.load_entry_file(f)
    f2 = tmp_path / "neither.json"
    f2.write_text(json.dumps({"id": "neither", "field": {"p": 7}}))
    with pytest.raises(CorpusError, match="exactly one"):
        corpus.load_entry_file(f2)


def test_shape_diagnostics_name_the_bad_item(tmp_path):
    f = tmp_path / "arrows.json"
    f.write_text(json.dumps({
        "id": "arrows",
        "field": {"p": 7},
        "quiver": {"vertices": ["1"], "arrows": [{"name": "a", "from": "1"}]},
    }))
    with pytest.raises(CorpusError, match=r"arrows\[0\]"):
        corpus.load_entry_file(f)
    f2 = tmp_path / "rel.json"
    f2.write_text(json.dumps({
        "id": "rel",
        "field": {"p": 7},
        "quiver": {"vertices": ["1"],
                   "arrows": [{"name": "a", "from": "1", "to": "1"}]},
        "relations": [[{"coef": 1}]],
    }))
    with pytest.raises(CorpusError, match=r"relations\[0\]\[0\]"):
        corpus.load_entry_file(f2)


def test_duplicate_ids_rejected(tmp_path):
    doc = {"id": "dup", "field": {"p": 7},
           "quiver": {"vertices": ["1"], "arrows": []}}
    (tmp_path / "x.json").write_text(json.dumps(doc))
    (tmp_path / "y.json").write_text(json.dumps(doc))
    with pytest.raises(CorpusError, match="duplicate"):
        corpus.load_corpus(tmp_path)


def test_construction_cycle_detected():
    entries = [
        CorpusEntry("a", {"id": "a", "construction": {"op": "cover", "base": "b"}}, "a"),
        CorpusEntry("b", {"id": "b", "construction": {"op": "cover", "base": "a"}}, "b"),
    ]
    with pytest.raises(CorpusError, match="cycle"):
        corpus.resolve_corpus(entries)


def test_unknown_base_rejected():
    entries = [
        CorpusEntry("a", {"id": "a", "construction": {"op": "cover", "base": "nope"}}, "a"),
    ]
    with pytest.raises(CorpusError, match="unknown"):
        corpus.resolve_corpus(entries)


def test_entry_algebra_with_construction(tmp_path):
    f = tmp_path / "derived.json"
    f.write_text(json.dumps({
        "id": "derived", "construction": {"op": "lambda", "base": "a2"}}))
    a = corpus.entry_algebra(corpus.load_entry_file(f))
    # Lambda(a2): dim(A) + dim(T(Sigma)) + dim(Sigma) = 3 + 4 + 2
    assert a.dim == 9
    assert validate_algebra(a).ok


def test_prime_override():
    entries = corpus.load_corpus()
    a = corpus.resolve_corpus(entries, p=101)["a2"]
    assert a.p == 101


def test_empty_corpus_is_fine(tmp_path):
    assert corpus.load_corpus(tmp_path) == []
