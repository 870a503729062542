"""The free-rank search and the freeness test against span walks.

``oracle_max_free_rank`` is the branch and bound that ``action`` used
before it tested each candidate against a per-pivot set of refused
vectors: it keeps the whole span of the partial basis in a list and
scans all of it for every candidate. It walks the same candidates in
the same order, so the rank, the echelon basis and the generators of
the fast search must all equal its own on every complex.

``span_elements`` lists all 2^rank elements of a subgroup, and
``oracle_is_free_subgroup`` checks each against the faces, as
``is_free_subgroup`` did before it reduced the faces by the subgroup's
echelon basis instead.
"""

import random

import pytest

from involab import gf2
from involab.action import SignElement, Subgroup, is_free_subgroup, max_free_rank
from involab.scomplex import SimplicialComplex, from_facets


def span_elements(H):
    """All 2^rank elements of H, identity first, by doubling over the basis."""
    out = [0]
    for b in H.basis:
        out += [x ^ b.support for x in out]
    return [SignElement(v) for v in out]


def oracle_is_free_subgroup(K, H):
    return not any(g.support and K.contains_mask(g.support) for g in span_elements(H))


def oracle_max_free_rank(K):
    """Rank and generator supports of the first maximal free subspace."""
    faces = K.faces
    m = K.m
    best_rank = 0
    best_basis = []
    chosen = []
    span_list = [0]  # span of `chosen`, grown and truncated in place

    def extend(last_pivot):
        nonlocal best_rank, best_basis
        rank = len(chosen)
        pivot_mask = 0
        for v in chosen:
            pivot_mask |= 1 << gf2.pivot(v)
        for p in range(last_pivot + 1, m):
            if rank + 1 + (m - 1 - p) <= best_rank:
                break
            free_bits = [b for b in range(p) if not (pivot_mask >> b) & 1]
            for sub in range(1 << len(free_bits)):
                w = 1 << p
                for j, b in enumerate(free_bits):
                    if (sub >> j) & 1:
                        w |= 1 << b
                if any((w ^ s) in faces for s in span_list):
                    continue
                chosen.append(w)
                size = len(span_list)
                span_list.extend(w ^ s for s in span_list[:size])
                if len(chosen) > best_rank:
                    best_rank = len(chosen)
                    best_basis = list(chosen)
                extend(p)
                chosen.pop()
                del span_list[size:]

    extend(-1)
    return best_rank, best_basis


def _cycle(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def _distinct(rng, m, size, count):
    """``count`` distinct sorted ``size``-subsets of 1..m."""
    out = set()
    while len(out) < count:
        out.add(tuple(sorted(rng.sample(range(1, m + 1), size))))
    return sorted(out)


def _random_complex(kind, rng):
    if kind == "polygon":
        m = rng.randint(3, 13)
        return from_facets(m, _cycle(rng.sample(range(1, m + 1), m)))
    if kind == "sparse":  # three triangles plus m edges
        m = rng.randint(8, 13)
        return from_facets(m, _distinct(rng, m, 3, 3) + _distinct(rng, m, 2, m))
    if kind == "graph":
        m = rng.randint(1, 11)
        pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * m)))
        singles = [(v,) for v in range(1, m + 1) if rng.random() < 0.8]
        return from_facets(m, singles + edges)
    if kind == "ghost":  # a polygon or some triangles on part of the vertices
        m = rng.randint(4, 12)
        used = rng.sample(range(1, m + 1), rng.randint(3, m - 1))
        if rng.random() < 0.5:
            return from_facets(m, _cycle(used))
        return from_facets(m, [rng.sample(used, 3) for _ in range(2)])
    if kind == "empty":
        return SimplicialComplex(rng.randint(1, 13))
    m = rng.randint(1, 10)  # the full simplex
    return from_facets(m, [range(1, m + 1)])


# 502 complexes in all, at most 13 vertices
KINDS = {"polygon": 120, "sparse": 160, "graph": 120, "ghost": 80, "empty": 12, "simplex": 10}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_search_agrees_with_the_span_scan(kind):
    rng = random.Random(f"free-rank-oracle-{kind}")
    for _ in range(KINDS[kind]):
        K = _random_complex(kind, rng)
        rank, witness = max_free_rank(K)
        want_rank, want_basis = oracle_max_free_rank(K)
        assert rank == want_rank, (kind, K)
        assert [g.support for g in witness.generators] == want_basis, (kind, K)
        assert [b.support for b in witness.basis] == gf2.rref(want_basis), (kind, K)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_freeness_agrees_with_the_span_walk(kind):
    rng = random.Random(f"free-check-oracle-{kind}")
    verdicts = set()
    for _ in range(KINDS[kind]):
        K = _random_complex(kind, rng)
        gens = [rng.randrange(1, 1 << K.m) for _ in range(rng.randint(1, K.m))]
        H = Subgroup.from_generators(SignElement(v) for v in gens)
        verdict = is_free_subgroup(K, H)
        assert verdict == oracle_is_free_subgroup(K, H), (kind, K, gens)
        verdicts.add(verdict)
    if kind not in ("empty", "simplex"):
        assert verdicts == {True, False}  # both answers were exercised
