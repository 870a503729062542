"""The free-rank witness and the freeness test against span walks.

``max_free_rank`` takes its witness from the kernel of the linear
colouring that ``action._colouring`` finds, so its rank m - r rests on
the colouring search finding the least r. ``oracle_max_free_rank`` is
an independent branch and bound over canonical echelon bases: it keeps
the whole span of the partial basis in a list and scans all of it for
every candidate. On every complex the fast rank must equal its rank,
and the fast witness must be free by the span walk and be given by its
canonical echelon basis. The Hypothesis test below makes the same
comparison on random complexes with ghost vertices, graphs are checked
against the chromatic number (s_R = m - ceil(log2(chi + 1))), and a
planted colouring, whether one dimension too small or equal on the two
ends of an edge, must end in CrossCheckError. ``oracle_colouring`` is
the colouring search as a recursive ``assign``: ``_colouring``'s loop
must return the same (r, λ), charge the same steps, and so raise
CapError on the same inputs under a small budget. Both take their plan,
the vertex order, the pruned faces, the step costs and r's start, from
``action._plan``, so the comparison checks the search alone; the
pruning is checked against every face of K that closes at a position.

``span_elements`` lists all 2^rank elements of a subgroup, and
``oracle_is_free_subgroup`` checks each against the faces, as
``is_free_subgroup`` did before it reduced the faces by the subgroup's
echelon basis instead. ``oracle_face_in_span`` is that reduction: it
reduces each face by every basis row in turn, as ``_face_in_span`` did
before it added up per-vertex syndromes, and both must report the same
first face of ``K.faces``, or 0. ``apply``, the action of an element on a cell,
and ``subspace_bases``, every subspace of GF(2)^dim once, serve the
brute-force checks in ``test_action.py`` and ``test_acceptance.py``.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import action, gf2
from involab.action import Subgroup, is_free_subgroup, max_free_rank
from involab.errors import CapError, CrossCheckError
from involab.rzk import Cell
from involab.scomplex import SimplicialComplex, from_facets, polygon_boundary, vertices_of
from test_gf2 import pivot


def apply(g, cell):
    """Image of a cell under the element with support g: same free set,
    sign bits toggled on g minus free."""
    return Cell(cell.free, cell.signs ^ (g & ~cell.free))


def subspace_bases(dim):
    """Every subspace of GF(2)^dim exactly once, as its canonical RREF basis.

    Enumerates by pivot set: a row with pivot p carries ``1 << p`` plus an
    arbitrary subset of the non-pivot positions below p. The count is the
    Galois number, 2825 already at dim 6.
    """
    for r in range(dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            pivot_set = set(pivots)
            free_choices = []
            for p in pivots:
                free_bits = [b for b in range(p) if b not in pivot_set]
                choices = []
                for k in range(1 << len(free_bits)):
                    mask = 1 << p
                    for j, b in enumerate(free_bits):
                        if (k >> j) & 1:
                            mask |= 1 << b
                    choices.append(mask)
                free_choices.append(choices)
            for rows in itertools.product(*free_choices):
                yield list(rows)


def span_elements(H):
    """All 2^rank elements of H, identity first, by doubling over the basis."""
    out = [0]
    for b in H.basis:
        out += [x ^ b for x in out]
    return out


def oracle_is_free_subgroup(K, H):
    return not any(g and g in K.faces for g in span_elements(H))


def oracle_face_in_span(K, H):
    """The first nonzero face of K that H's echelon basis reduces to 0, or 0."""
    rows = [(b, pivot(b)) for b in H.basis]
    for f in K.faces:
        rest = f
        for b, p in rows:
            if rest >> p & 1:
                rest ^= b
        if f and not rest:
            return f
    return 0


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
            pivot_mask |= 1 << pivot(v)
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


def oracle_colouring(K):
    """``action._colouring`` with its search written as a recursive ``assign``,
    one call per position, as it was before the search kept its positions on
    an explicit stack, over the same ``action._plan``: (r, λ, the steps it
    took). It reads ``action.MAX_SEARCH_STEPS`` when called."""
    order, closing, cost, r0 = action._plan(K)
    value = [0] * len(order)
    steps = 0
    budget = action.MAX_SEARCH_STEPS

    def assign(i, d, r):
        nonlocal steps
        steps += cost[i]
        if steps > budget:
            raise CapError(f"the colouring search passed its budget of {budget} steps")
        if i == len(order):
            return True
        forbidden = {0}
        for rest in closing[i]:
            span = [0]
            for u in rest:
                span += [x ^ value[u] for x in span]
            forbidden.update(span)
        for w in range(1, min((1 << d) + 1, 1 << r)):
            if w not in forbidden:
                value[i] = w
                if assign(i + 1, d + (w >> d), r):
                    return True
        return False

    r = next(r for r in range(r0, len(order) + 1) if assign(0, 0, r))
    colouring = [0] * K.m
    for v, w in zip(order, value):
        colouring[v] = w
    return r, colouring, steps


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
    if kind == "skeleton":  # the k-faces of a simplex, all or most of them
        m, full = rng.randint(3, 8), rng.random() < 0.5
        tops = itertools.combinations(range(1, m + 1), rng.randint(2, m - 1))
        return from_facets(m, [t for t in tops if full or rng.random() < 0.9])
    if kind == "empty":
        return SimplicialComplex(rng.randint(1, 13))
    m = rng.randint(1, 10)  # the full simplex
    return from_facets(m, [range(1, m + 1)])


# 532 complexes in all, at most 13 vertices
KINDS = {"polygon": 120, "sparse": 160, "graph": 120, "ghost": 80, "skeleton": 30, "empty": 12,
         "simplex": 10}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_search_agrees_with_the_span_scan(kind):
    rng = random.Random(f"free-rank-oracle-{kind}")
    for _ in range(KINDS[kind]):
        K = _random_complex(kind, rng)
        rank, witness = max_free_rank(K)
        assert rank == oracle_max_free_rank(K)[0] == witness.rank, (kind, K)
        assert oracle_is_free_subgroup(K, witness), (kind, K)
        assert witness.generators == witness.basis == tuple(gf2.rref(witness.basis)), (kind, K)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_freeness_agrees_with_the_span_walk(kind):
    rng = random.Random(f"free-check-oracle-{kind}")
    verdicts = set()
    for _ in range(KINDS[kind]):
        K = _random_complex(kind, rng)
        gens = [rng.randrange(1, 1 << K.m) for _ in range(rng.randint(1, K.m))]
        H = Subgroup(gens)
        verdict = is_free_subgroup(K, H)
        assert verdict == oracle_is_free_subgroup(K, H), (kind, K, gens)
        verdicts.add(verdict)
    if kind not in ("empty", "simplex"):
        assert verdicts == {True, False}  # both answers were exercised


def test_the_plan_forbids_what_every_face_closing_at_a_position_forbids():
    """The pruning keeps only the largest faces closing at each position: a
    face f one earlier neighbour u short of the face f + u forbids no value
    that f + u does not. So for any values of the earlier positions, the
    spans of closing[i] must forbid the same set as every face closing at i."""
    def forbidden(rests, value):
        out = {0}
        for rest in rests:
            span = [0]
            for u in rest:
                span += [x ^ value[u] for x in span]
            out.update(span)
        return out

    rng, pruned = random.Random("colouring-plan"), 0
    for kind in sorted(KINDS):
        for _ in range(KINDS[kind]):
            K = _random_complex(kind, rng)
            order, closing, cost, _ = action._plan(K)
            assert sorted(order) == [v for v in range(K.m) if 1 << v in K.faces], (kind, K)
            pos = {v + 1: i for i, v in enumerate(order)}
            closing_faces = [[] for _ in order]  # by position: the others' positions
            for f in K.faces:
                if f & (f - 1):  # a vertex alone forbids only 0
                    rest = sorted(pos[v] for v in vertices_of(f))
                    closing_faces[rest.pop()].append(rest)
            pruned += sum(map(len, closing_faces)) - sum(map(len, closing))
            for _ in range(3):
                value = [rng.randrange(1, 1 << 6) for _ in order]
                for i, rests in enumerate(closing):
                    assert forbidden(rests, value) == forbidden(closing_faces[i], value), (
                        kind, K, i, value)
            assert cost == [1 + sum(1 << len(rest) for rest in rests) for rests in closing] + [1], (
                kind, K)
    assert pruned  # the pruning dropped faces somewhere


@st.composite
def complexes_with_ghosts(draw):
    """At most 10 vertices, facets of at most 4; vertices in no facet are ghosts."""
    m = draw(st.integers(0, 10))
    if not m:
        return SimplicialComplex(0)
    facet = st.sets(st.integers(1, m), min_size=1, max_size=min(m, 4))
    return from_facets(m, draw(st.lists(facet, max_size=3 * m)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(complexes_with_ghosts())
def test_search_stopped_by_the_colouring_agrees_with_the_exhaustive_search(K):
    rank, witness = max_free_rank(K)
    assert rank == oracle_max_free_rank(K)[0] == witness.rank
    assert oracle_is_free_subgroup(K, witness)
    assert witness.generators == witness.basis == tuple(gf2.rref(witness.basis))


def oracle_search(K):
    return oracle_colouring(K)[:2]


def colouring_outcome(colouring, K, budget):
    """(r, λ) from ``colouring``, or the CapError message, with
    MAX_SEARCH_STEPS at ``budget``."""
    with mock.patch.object(action, "MAX_SEARCH_STEPS", budget):
        try:
            return colouring(K)
        except CapError as exc:
            return str(exc)


def test_search_loop_agrees_with_the_recursive_search():
    capped = {budget: set() for budget in (50, 500, action.MAX_SEARCH_STEPS)}
    for kind in sorted(KINDS):
        rng = random.Random(f"colouring-oracle-{kind}")
        for _ in range(KINDS[kind]):
            K = _random_complex(kind, rng)
            for budget, verdicts in capped.items():
                outcome = colouring_outcome(action._colouring, K, budget)
                assert outcome == colouring_outcome(oracle_search, K, budget), (kind, K, budget)
                verdicts.add(isinstance(outcome, str))
            *colouring, steps = oracle_colouring(K)  # the loop charges exactly these steps
            assert colouring_outcome(action._colouring, K, steps) == tuple(colouring), (kind, K)
            assert isinstance(colouring_outcome(action._colouring, K, steps - 1), str), (kind, K)
    assert capped == {50: {True, False}, 500: {True, False}, action.MAX_SEARCH_STEPS: {False}}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(complexes_with_ghosts(), st.sampled_from([50, 500, action.MAX_SEARCH_STEPS]))
def test_search_loop_agrees_with_the_recursive_search_on_ghosts(K, budget):
    assert colouring_outcome(action._colouring, K, budget) == colouring_outcome(
        oracle_search, K, budget)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(complexes_with_ghosts(), st.data())
def test_syndromes_find_the_face_that_the_basis_reduction_finds(K, data):
    # generators reach two bits past K's vertices, so some basis rows have
    # their pivot outside the vertex range
    vectors = st.integers(0, (1 << K.m + 2) - 1)
    H = Subgroup(data.draw(st.lists(vectors, max_size=K.m + 2)))
    assert action._face_in_span(K, H) == oracle_face_in_span(K, H)


@pytest.mark.parametrize("generators,face", [
    ([0b1_0011, 0b100_0001], 0),  # pivots 4 and 6 lie past the square's vertices
    ([0b0011, 0b10_0101], 0b0011),  # the edge {1, 2} beside a row with pivot 5
])
def test_syndromes_take_basis_rows_outside_the_vertex_range(generators, face):
    K, H = polygon_boundary(4), Subgroup(generators)
    assert action._face_in_span(K, H) == oracle_face_in_span(K, H) == face


def chromatic_number(edges, vertices):
    """Fewest colours of a proper colouring of the graph on ``vertices``,
    by trying every colouring that opens colours in vertex order."""
    def colourable(k, colour):
        if len(colour) == len(vertices):
            return True
        v = vertices[len(colour)]
        for c in range(min(k, max(colour.values(), default=-1) + 2)):
            if all(colour.get(b if a == v else a) != c for a, b in edges if v in (a, b)):
                if colourable(k, {**colour, v: c}):
                    return True
        return False

    return next(k for k in range(len(vertices) + 1) if colourable(k, {}))


@pytest.mark.parametrize("m", range(1, 9))
def test_graphs_follow_the_chromatic_number(m):
    rng = random.Random(f"chromatic-{m}")
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for _ in range(25):
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        vertices = sorted({v for e in edges for v in e}
                          | set(rng.sample(range(1, m + 1), rng.randint(0, m))))
        K = from_facets(m, [(v,) for v in vertices] + edges)
        chi = chromatic_number(edges, vertices)  # chi.bit_length() == ceil(log2(chi + 1))
        assert max_free_rank(K)[0] == m - chi.bit_length(), (m, vertices, edges)


HEXAGON = from_facets(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
COLOURING = action._colouring


def one_dimension_too_small(K):
    r, colouring = COLOURING(K)
    return r - 1, colouring


def equal_on_an_edge(K):
    return 2, [1, 1, 2, 2, 3, 3]  # onto GF(2)^2, so the kernel has rank 4, but e_1 + e_2 is in it


@pytest.mark.parametrize("K,planted,error", [
    (HEXAGON, one_dimension_too_small, "kernel has rank 4, not 5$"),
    (from_facets(7, [(1, 2, 3), (3, 4), (5,)]), one_dimension_too_small,
     "kernel has rank 4, not 5$"),
    (SimplicialComplex(4), one_dimension_too_small, "kernel has rank 4, not 5$"),
    (HEXAGON, equal_on_an_edge, r"fixes the face \((1, 2|3, 4|5, 6)\)$"),
], ids=["hexagon", "mixed", "empty", "edge"])
def test_a_colouring_bound_above_the_free_rank_is_caught(K, planted, error, monkeypatch):
    monkeypatch.setattr(action, "_colouring", planted)
    with pytest.raises(CrossCheckError, match=error):
        max_free_rank(K)
