"""Seeded bound quivers for the ks_large workload, and its oracle.

Every instance is a basic algebra A given by a bound quiver; the workload
decomposes the regular module of T(A).  Because T(A) is basic with one
primitive idempotent per vertex, the answer is known without the program:
one class per vertex, each of multiplicity one, and the summand of vertex
i has dimension 2 * (number of nonzero paths of A starting at i).  The
generator computes those path counts from the shape alone.

The list of shapes is fixed, so every seed does the same amount of work;
the seed picks the vertex and arrow names (and so the basis order), the
scalar of each commutativity relation and the decomposition seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRIMES = (32003, 1048573)  # the default prime and the largest prime <= 2^20

# (family, parameter); the dimension of T(A) is in the comment.  The
# five dim-20 algebras sit in the middle of the sorted list, so the median
# op is one of them and not a jump between two sizes.
SHAPES = (
    ("cyclic_nakayama", (3, 3)),   # 18
    ("linear_nakayama", (4, 4)),   # 20
    ("commutative_square", None),  # 18
    ("cyclic_nakayama", (4, 3)),   # 24
    ("linear_nakayama", (4, 4)),   # 20
    ("linear_nakayama", (4, 3)),   # 18
    ("square_with_tail", None),    # 28
    ("linear_nakayama", (4, 4)),   # 20
    ("linear_nakayama", (5, 3)),   # 24
    ("linear_nakayama", (4, 4)),   # 20
    ("square_with_branch", None),  # 24
    ("commutative_square", None),  # 18
    ("linear_nakayama", (4, 4)),   # 20
)


@dataclass
class Instance:
    """One generated algebra: the presentation, the prime, the expected
    dimension of e_v A for every vertex v, and the decomposition seed."""

    name: str
    vertices: list
    arrows: list  # (name, source, target)
    relations: list  # [(coef, [arrow names])] per relation
    prime: int
    proj_dims: dict  # vertex -> dim e_v A
    decompose_seed: int


def _names(rng: random.Random, prefix: str, k: int) -> list:
    labels = [f"{prefix}{i}" for i in range(k)]
    rng.shuffle(labels)
    return labels


def _cyclic_nakayama(rng, n, loewy):
    v = _names(rng, "v", n)
    a = _names(rng, "a", n)
    arrows = [(a[i], v[i], v[(i + 1) % n]) for i in range(n)]
    relations = [[(1, [a[(i + k) % n] for k in range(loewy)])] for i in range(n)]
    return v, arrows, relations, {v[i]: loewy for i in range(n)}


def _linear_nakayama(rng, n, loewy):
    v = _names(rng, "v", n)
    a = _names(rng, "a", n - 1)
    arrows = [(a[i], v[i], v[i + 1]) for i in range(n - 1)]
    relations = [[(1, [a[i + k] for k in range(loewy)])]
                 for i in range(n - loewy)]
    return v, arrows, relations, {v[i]: min(loewy, n - i) for i in range(n)}


def _poset_quiver(rng, edges, commuting, n):
    """A quiver on n vertices from covering edges of a poset, with one
    commutativity relation x*y = c*z*w (c a random unit) per square."""
    v = _names(rng, "v", n)
    a = _names(rng, "a", len(edges))
    arrows = [(a[k], v[s], v[t]) for k, (s, t) in enumerate(edges)]
    index = {e: a[k] for k, e in enumerate(edges)}
    relations = []
    for (x, y), (z, w) in commuting:
        coef = rng.randrange(1, PRIMES[0])  # a unit for both primes
        relations.append([(1, [index[x], index[y]]),
                          (-coef, [index[z], index[w]])])
    above = {i: {i} for i in range(n)}
    for _ in range(n):
        for s, t in edges:
            above[s] |= above[t]
    return v, arrows, relations, {v[i]: len(above[i]) for i in range(n)}


def _square(rng, extra):
    # 0 -> 1 -> 3 and 0 -> 2 -> 3 commute; `extra` adds covering edges
    edges = [(0, 1), (1, 3), (0, 2), (2, 3)] + list(extra)
    n = 1 + max(max(e) for e in edges)
    commuting = [(((0, 1), (1, 3)), ((0, 2), (2, 3)))]
    return _poset_quiver(rng, edges, commuting, n)


def _build(family, param, rng):
    if family == "cyclic_nakayama":
        return _cyclic_nakayama(rng, *param)
    if family == "linear_nakayama":
        return _linear_nakayama(rng, *param)
    if family == "commutative_square":
        return _square(rng, ())
    if family == "square_with_tail":
        return _square(rng, [(3, 4)])
    if family == "square_with_branch":
        return _square(rng, [(1, 4)])
    raise ValueError(f"unknown family {family!r}")


def generate(seed: int) -> list:
    """The instance list for one seed; the same seed gives the same list."""
    rng = random.Random(seed)
    out = []
    for k, (family, param) in enumerate(SHAPES):
        vertices, arrows, relations, dims = _build(family, param, rng)
        tag = "x".join(str(x) for x in param) if param else ""
        out.append(Instance(
            name=f"{k:02d}-{family}{tag}",
            vertices=sorted(vertices),
            arrows=arrows,
            relations=relations,
            prime=PRIMES[k % 2],
            proj_dims=dims,
            decompose_seed=rng.randrange(1 << 30),
        ))
    return out


def build_algebras(instances, syzygy):
    """T(A) for every instance, through the public constructors."""
    algebra = syzygy.algebra
    out = []
    for inst in instances:
        pres = algebra.QuiverPresentation(inst.vertices, inst.arrows,
                                          inst.relations)
        a = algebra.from_quiver(pres, inst.prime, name=inst.name)
        out.append(algebra.trivial_extension(a))
    return out


def oracle_failures(inst: Instance, t, dec, decompose_mod) -> list:
    """Why a decomposition of the regular T(A)-module is wrong; empty if it
    is right.  Checks the class count, the multiplicities, the summand
    dimensions and the exact split (reassemble_check)."""
    problems = []
    n = len(inst.vertices)
    if len(dec.parts) != n:
        problems.append(f"{len(dec.parts)} classes, expected {n}")
    mults = sorted(m for _, m in dec.parts)
    if mults != [1] * len(dec.parts):
        problems.append(f"multiplicities {mults}, expected all 1")
    got = sorted(s.module.dim for s in dec.summands)
    want = sorted(2 * d for d in inst.proj_dims.values())
    if got != want:
        problems.append(f"summand dims {got}, expected {want}")
    if dec.module.dim != t.dim:
        problems.append(f"module dim {dec.module.dim}, expected {t.dim}")
    if not decompose_mod.reassemble_check(dec):
        problems.append("reassemble_check failed")
    return problems
