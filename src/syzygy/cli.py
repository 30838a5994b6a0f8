"""Command-line interface.

Exit codes: 0 = success / all checks PASS, 1 = a check or validation
FAILed, 2 = usage or parse error (with file/line/column diagnostics),
3 = arithmetic guard tripped (size or modulus limits exceeded, or a
characteristic too small for a trace form).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import checks, corpus, deloop
from .algebra import CONSTRUCTIONS, validate_algebra
from .errors import (
    CharTooSmall,
    CorpusError,
    ResourceGuard,
    SyzygyError,
)
from .modules import canonical_modules

_prime_option = click.option("--prime", type=int, default=None, envvar="SYZYGY_PRIME",
                             help="Override the field characteristic of input files.")


def guarded(f):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except CorpusError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (CharTooSmall, ResourceGuard) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            # modulus guards and malformed numeric input
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except SyzygyError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Exact homological computations for finite-dimensional algebras."""


@main.group("algebra")
def algebra_group():
    """Load, validate, and derive algebras from definition files."""


def _load(path, prime):
    entry = corpus.load_entry_file(path)
    return entry, corpus.entry_algebra(entry, prime)


def _load_valid(path, prime):
    """_load, refusing an algebra that fails validate_algebra."""
    entry, a = _load(path, prime)
    violations = validate_algebra(a).violations
    if violations:
        raise SyzygyError(f"{path}: invalid algebra: {violations[0]}")
    return entry, a


def _summary(a):
    return {
        "id": a.name,
        "p": a.p,
        "dim": a.dim,
        "radical_dim": int(a.radical.shape[0]),
        "simples": int(a.idempotents.shape[0]),
    }


@algebra_group.command("validate")
@click.argument("file", type=click.Path())
@_prime_option
@guarded
def algebra_validate(file, prime):
    """Check every structural invariant of an algebra file."""
    _, a = _load(file, prime)
    rep = validate_algebra(a)
    out = _summary(a)
    out["ok"] = rep.ok
    out["violations"] = rep.violations
    click.echo(json.dumps(out, sort_keys=True))
    sys.exit(0 if rep.ok else 1)


@algebra_group.command("build")
@click.argument("file", type=click.Path())
@click.option("--construction", type=click.Choice(list(CONSTRUCTIONS)),
              default=None, help="Derived algebra to build from the input.")
@_prime_option
@guarded
def algebra_build(file, construction, prime):
    """Build an algebra (optionally a derived one) and print its shape."""
    _, a = _load(file, prime)
    if construction is not None:
        a = CONSTRUCTIONS[construction](a)
        a.name = f"{construction}({Path(file).stem})"
    rep = validate_algebra(a)
    out = _summary(a)
    out["construction"] = construction
    out["ok"] = rep.ok
    click.echo(json.dumps(out, sort_keys=True))
    sys.exit(0 if rep.ok else 1)


def _vertex_names(entry, a) -> list:
    """The vertex name of each simple, by index, or the index itself for an
    entry without named vertices: simple i prints as S<name i>, and its
    projective as P<name i>."""
    n = a.idempotents.shape[0]
    return entry.raw.get("quiver", {}).get("vertices", []) or [str(i) for i in range(n)]


def _vertex_index(entry, a, name, kind: str = "S"):
    """Resolve a --simple name (kind S) or a --module P-name (kind P): a
    vertex name, with an optional prefix of its kind, or else a plain
    0-based index, never one behind the prefix.  A simple is never named by
    a P-name."""
    names = _vertex_names(entry, a)
    if kind == "S" and name[:1] == "P" and len(name) > 1 and name not in names:
        raise CorpusError(f"{name!r} names a projective, not a simple; vertices are {names}")
    candidates = [name]
    if name[:1] == kind and len(name) > 1:
        candidates.append(name[1:])
    for cand in candidates:
        if cand in names:
            return names.index(cand)
    try:
        idx = int(name)
    except ValueError:
        idx = -1
    if 0 <= idx < len(names):
        return idx
    noun = "simple" if kind == "S" else "projective"
    raise CorpusError(f"unknown {noun} {name!r}; vertices are {names}")


@main.group("del")
def del_group():
    """Delooping-level bounds."""


def _fmt_bounds(label, b):
    upper = "?" if b.upper is None else b.upper
    tag = "exact" if b.exact else "interval"
    return f"del({label}) = [{b.lower}, {upper}] ({tag}) witness={b.witness_tag}"


@del_group.command("bounds")
@click.argument("file", type=click.Path())
@click.option("--simple", "simple_name", default=None,
              help="Restrict to one simple module (default: all, aggregated).")
@click.option("--horizon", type=int, default=deloop.DEFAULT_HORIZON, show_default=True)
@_prime_option
@guarded
def del_bounds_cmd(file, simple_name, horizon, prime):
    """Certified interval for the delooping level."""
    entry, a = _load_valid(file, prime)
    if simple_name is not None:
        idx = _vertex_index(entry, a, simple_name)
        s = canonical_modules(a)[1][idx]
        b = deloop.del_bounds(s, horizon=horizon)
        click.echo(_fmt_bounds(f"S{_vertex_names(entry, a)[idx]}", b))
    else:
        agg, per = deloop.del_algebra(a, horizon=horizon)
        for name, b in zip(_vertex_names(entry, a), per):
            click.echo(_fmt_bounds(f"S{name}", b))
        click.echo(_fmt_bounds(a.name or "A", agg))
    sys.exit(0)


@main.command("pd")
@click.argument("file", type=click.Path())
@click.option("--module", "module_spec", required=True,
              help="Module to resolve: 'regular', S<vertex>, or P<vertex>.")
@click.option("--cap", type=int, default=deloop.DEFAULT_PD_CAP, show_default=True)
@_prime_option
@guarded
def pd_cmd(file, module_spec, cap, prime):
    """Projective dimension: finite value, a repeated syzygy class set (infinite), or unknown."""
    entry, a = _load_valid(file, prime)
    regular, simples, projectives = canonical_modules(a)
    if module_spec in ("regular", "A"):
        x, label = regular, module_spec
    else:
        kind = "P" if module_spec[:1] == "P" else "S"
        idx = _vertex_index(entry, a, module_spec, kind)
        x = projectives[idx].module if kind == "P" else simples[idx]
        label = f"{kind}{_vertex_names(entry, a)[idx]}"
    r = deloop.projective_dimension(x, cap=cap)
    if r.kind == "finite":
        click.echo(f"pd({label}) = {r.value}")
    elif r.kind == "infinite":
        click.echo(f"pd({label}) = infinite "
                   f"(syzygies {r.cycle[0]} and {r.cycle[1]} have the same summand classes)")
    else:
        click.echo(f"pd({label}) unknown within cap {cap}")
    sys.exit(0)


@main.group("paper")
def paper_group():
    """Corpus-wide verification of the documented structure results."""


@paper_group.command("verify")
@click.argument("corpus_dir", type=click.Path(), required=False)
@click.option("--check", "only_check", default=None,
              type=click.Choice(list(checks.CHECK_IDS)), help="Run one check only.")
@click.option("--algebra", "only_algebra", default=None, help="Run one entry only.")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the canonical JSON report here.")
@click.option("--seed", type=int, default=1, envvar="SYZYGY_SEED",
              show_default=True, help="Base seed for randomized steps.")
@_prime_option
@guarded
def paper_verify(corpus_dir, only_check, only_algebra, report_path, seed, prime):
    """Run every check over a corpus directory (default: bundled corpus)."""
    entries = corpus.load_corpus(corpus_dir)
    config = checks.Config(seed=seed, prime=prime)
    reports, ok = checks.run_corpus(entries, config, only_check=only_check,
                                    only_algebra=only_algebra)
    doc = checks.report_document(
        reports, config, [e.id for e in entries],
        [e.id for e in entries if e.expect_fail])
    if report_path is not None:
        Path(report_path).write_text(checks.serialize_report(doc))
    click.echo(checks.format_report_text(doc), nl=False)
    sys.exit(0 if ok else 1)


@main.command("report")
@click.argument("file", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--reverify", is_flag=True,
              help="Re-check every stored certificate with exact arithmetic.")
@click.option("--corpus-dir", type=click.Path(), default=None,
              help="Corpus the report refers to (default: bundled).")
@guarded
def report_cmd(file, fmt, reverify, corpus_dir):
    """Render a stored report, optionally re-verifying its certificates."""
    path = Path(file)
    if not path.is_file():
        raise CorpusError(f"{file}: no such report file")
    doc = corpus.parse_json(path.read_text(), file)
    # every field that rendering and reverifying a report read
    config = doc.get("config") if isinstance(doc, dict) else None
    if not (isinstance(config, dict) and "version" in doc and "seed" in config
            and isinstance(config.get("prime"), int | None)
            and isinstance(doc.get("checks"), list)
            and all(isinstance(c, dict) and isinstance(c.get("evidence"), dict)
                    and isinstance(c["evidence"].get("certificates", []), list)
                    and all(isinstance(c.get(k), str)
                            for k in ("verdict", "algebra_id", "check_id"))
                    for c in doc["checks"])):
        raise CorpusError(f"{file}: not a syzygy report")
    if fmt == "json":
        click.echo(checks.serialize_report(doc), nl=False)
    else:
        click.echo(checks.format_report_text(doc), nl=False)
    if reverify:
        entries = corpus.load_corpus(corpus_dir)
        results, ok = checks.reverify_report(doc, entries)
        bad = [r for r in results if not r["ok"]]
        click.echo(f"reverify: {len(results) - len(bad)}/{len(results)} certificates ok")
        for r in bad:
            click.echo(f"  FAILED {r['algebra_id']} {r['check_id']} "
                       f"#{r['certificate']} ({r['kind']}): {r['detail']}")
        sys.exit(0 if ok else 1)
    sys.exit(0)


if __name__ == "__main__":
    main()
