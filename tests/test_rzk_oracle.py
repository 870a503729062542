"""The closed-surface and orientation checks against a Cell-keyed oracle.

``oracle_verify`` and ``oracle_orientability`` are the dictionary-based
implementations that ``rzk`` used before it checked the surface on K:
edge -> squares and vertex -> edges / squares tables keyed by Cell, and
breadth-first searches over every square. They are kept here, apart from
the package, so that every report flag and the per-square signs that
``square_signs`` expands from ``rzk``'s per-face sigma are compared with
them on seeded random complexes, and the oracle must find every closed
surface orientable, since ``orientability`` returns sigma and no verdict.
``oracle_link_is_single_cycle`` is the repeated arc sweep that the link
check ran before it walked the cycle; ``rzk._cycle_walk`` is compared with
it, and its walks are checked to be walks. ``oracle_edge_words`` writes
K's edges as two-letter words over its vertices, and ``oracle_word_flags``
is ``verify_closed_surface`` as it was before the edge check read K's
vertex degrees: it counted the uses of each vertex id in those words.
``orientability``'s sigma is compared with ``orient`` on the same words,
the sign propagation that oriented K before sigma was read off the walk.
The word oracles list no cell, so they are compared on complexes too
large for the Cell-keyed oracle.

``boundary`` and ``_edge_direction`` are the per-cell geometry of the
squares; the closed-form cell counts are compared with the enumerated
cells.
"""

import random
from collections import deque

import pytest

from involab.errors import NotASurfaceError, ValidationError
from involab.rzk import (
    Cell,
    _cycle_walk,
    build,
    euler_characteristic,
    orientability,
    verify_closed_surface,
)
from involab.scomplex import SimplicialComplex, from_facets

from test_cover_oracle import edge_uses, orient


def _subsets_ascending(mask):
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def boundary(cell):
    """Codimension-1 faces: per free coordinate, the +1 then the -1 side."""
    out = []
    free, signs = cell
    rest = free
    while rest:
        b = rest & -rest
        rest ^= b
        out.append(Cell(free ^ b, signs))
        out.append(Cell(free ^ b, signs | b))
    return tuple(out)


def _edge_direction(square, edge):
    """Direction (+1 along the free axis) induced on a boundary edge by the
    counterclockwise traversal of the square in its (x_i, x_j) frame, i < j."""
    i_bit = square.free & -square.free
    j_bit = square.free ^ i_bit
    if edge.free == i_bit:
        return 1 if (edge.signs & j_bit) else -1
    return -1 if (edge.signs & i_bit) else 1


def _edge_to_squares(C):
    table = {e: [] for e in C.cells(1)}
    for sq in C.cells(2):
        for e in boundary(sq):
            table[e].append(sq)
    return table


def _bfs_reaches_all(adj, start, count):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == count


def _vertex_components(C):
    verts = C.cells(0)
    adj = {v: [] for v in verts}
    for e in C.cells(1):
        a, b = Cell(0, e.signs), Cell(0, e.signs | e.free)
        adj[a].append(b)
        adj[b].append(a)
    seen, components = set(), 0
    for v in verts:
        if v in seen:
            continue
        components += 1
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return components


def oracle_verify(C):
    """(edges_in_two_squares, vertex_links_single_cycle, connected)."""
    e2s = _edge_to_squares(C)
    edges_ok = all(len(sqs) == 2 for sqs in e2s.values())
    vertex_edges = {v: [] for v in C.cells(0)}
    for e in C.cells(1):
        vertex_edges[Cell(0, e.signs)].append(e)
        vertex_edges[Cell(0, e.signs | e.free)].append(e)
    vertex_squares = {v: [] for v in C.cells(0)}
    for sq in C.cells(2):
        for corner_bits in _subsets_ascending(sq.free):
            vertex_squares[Cell(0, sq.signs | corner_bits)].append(sq)

    def link_is_single_cycle(v):
        nodes = vertex_edges[v]
        if not nodes:
            return False
        index = {e: k for k, e in enumerate(nodes)}
        arcs = []
        for sq in vertex_squares[v]:
            through = [e for e in boundary(sq) if e in index]
            if len(through) != 2:
                return False
            arcs.append((index[through[0]], index[through[1]]))
        if len(arcs) != len(nodes):
            return False
        adj = [[] for _ in nodes]
        for a, b in arcs:
            adj[a].append(b)
            adj[b].append(a)
        if any(len(x) != 2 for x in adj):
            return False
        return _bfs_reaches_all(adj, 0, len(nodes))

    links_ok = all(link_is_single_cycle(v) for v in C.cells(0))
    return edges_ok, links_ok, _vertex_components(C) == 1


def oracle_orientability(C):
    if not all(oracle_verify(C)):
        raise NotASurfaceError("not a closed surface")
    e2s = _edge_to_squares(C)
    orient = {}
    for start in C.cells(2):
        if start in orient:
            continue
        orient[start] = 1
        queue = deque([start])
        while queue:
            sq = queue.popleft()
            for e in boundary(sq):
                a, b = e2s[e]
                other = b if a == sq else a
                needed = (
                    -orient[sq] * _edge_direction(sq, e) * _edge_direction(other, e)
                )
                if other not in orient:
                    orient[other] = needed
                    queue.append(other)
                elif orient[other] != needed:
                    return False, None
    return True, orient


def square_signs(C, sigma):
    """The sign of every square from ``orientability``'s per-face sigma:
    Cell(I, s) gets (-1)^popcount(s) * sigma[I]."""
    return {sq: (-1) ** sq.signs.bit_count() * sigma[sq.free] for sq in C.cells(2)}


def _assert_indexed_surface_matches_cells(C):
    counts = [len(C.cells(d)) for d in range(C.dim + 1)]
    assert (C.vertex_count, C.edge_count, C.square_count) == tuple((counts + [0, 0])[:3])
    assert euler_characteristic(C.K) == sum((-1) ** d * n for d, n in enumerate(counts))
    assert all(len(C.cells(d)) == 0 for d in range(C.dim + 1, C.dim + 4))
    for d in range(C.dim + 1):
        assert all(c.free.bit_count() == d for c in C.cells(d))
        assert list(C.cells(d)) == sorted(set(C.cells(d)))


def _cycle(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def _random_complex(kind, rng):
    if kind == "polygon":
        m = rng.randint(3, 8)
        order = rng.sample(range(1, m + 1), m)
        return m, _cycle(order)
    if kind == "ghost":
        m = rng.randint(4, 8)
        return m, _cycle(rng.sample(range(1, m + 1), rng.randint(3, m - 1)))
    if kind == "two-cycles":
        m = rng.randint(6, 8)
        order = rng.sample(range(1, m + 1), m)
        cut = rng.randint(3, m - 3)
        return m, _cycle(order[:cut]) + _cycle(order[cut:])
    if kind == "graph":
        m = rng.randint(1, 8)
        pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        singles = [(v,) for v in range(1, m + 1) if rng.random() < 0.8]
        return m, singles + edges
    m = rng.randint(2, 8)  # a single edge
    return m, [tuple(rng.sample(range(1, m + 1), 2))]


@pytest.mark.parametrize("kind", ["polygon", "ghost", "two-cycles", "graph", "edge"])
def test_glued_checks_agree_with_the_cell_oracle(kind):
    rng = random.Random(f"rzk-oracle-{kind}")
    closed_seen = 0
    for _ in range(40):
        m, facets = _random_complex(kind, rng)
        C = build(from_facets(m, facets))
        _assert_indexed_surface_matches_cells(C)
        rep = verify_closed_surface(C)
        flags = (rep.edges_in_two_squares, rep.vertex_links_single_cycle, rep.connected)
        assert flags == oracle_verify(C), (m, facets)
        if rep.closed_surface:
            closed_seen += 1
            signs = square_signs(C, orientability(C))
            assert (True, signs) == oracle_orientability(C), (m, facets)
        else:
            with pytest.raises(NotASurfaceError):
                orientability(C)
            with pytest.raises(NotASurfaceError):
                oracle_orientability(C)
    # polygons are closed surfaces; ghosts, two cycles and single edges never
    # are; a random graph is one exactly when it happens to be a polygon
    if kind == "polygon":
        assert closed_seen == 40
    elif kind != "graph":
        assert closed_seen == 0


@pytest.mark.parametrize(
    "K",
    [
        SimplicialComplex(0),
        SimplicialComplex(1),
        from_facets(1, [[1]]),
        *(from_facets(m, _cycle(list(range(1, m + 1))) + [(1, 2, 3)]) for m in (3, 4, 6)),
        from_facets(5, [[2, 4, 5]] + _cycle([1, 3, 2, 5, 4])),
    ],
    ids=["m0", "m1-ghost", "m1-vertex", "tri-3", "tri-4", "tri-6", "tri-5-shuffled"],
)
def test_small_and_three_dimensional_complexes_match_the_cells(K):
    C = build(K)
    _assert_indexed_surface_matches_cells(C)
    assert C.dim == max(f.bit_count() for f in K.faces)


def oracle_link_is_single_cycle(nodes, arcs):
    """One cycle through all the nodes: degree 2 everywhere, and one node's
    reach grown by sweeping every arc once per node covers them all."""
    ends = sorted(b for arc in arcs for b in (arc & -arc, arc & (arc - 1)))
    if not nodes or ends != sorted(nodes * 2):
        return False
    reached = nodes[0]
    for _ in nodes:
        for arc in arcs:
            if arc & reached:
                reached |= arc
    return reached == sum(nodes)


def _random_link(kind, rng):
    """(nodes, arcs): unit bits in random order, and arcs as two-bit masks."""
    n = rng.randint(6, 40)
    bits = [1 << b for b in rng.sample(range(64), n)]
    if kind == "cycle":
        arcs = [a | b for a, b in _cycle(bits)]
    elif kind == "cycles":  # two or more disjoint cycles through every node
        arcs, start = [], 0
        while n - start >= 6 and (start == 0 or rng.random() < 0.5):
            cut = rng.randint(start + 3, n - 3)
            arcs += [a | b for a, b in _cycle(bits[start:cut])]
            start = cut
        arcs += [a | b for a, b in _cycle(bits[start:])]
    else:  # a cycle with an arc dropped, added or bent outside, or a cycle outside added
        arcs = [a | b for a, b in _cycle(bits)]
        change = rng.randrange(4)
        if change == 0:
            arcs.pop(rng.randrange(n))
        elif change == 1:
            a, b = rng.sample(bits, 2)
            arcs.append(a | b)
        elif change == 2:
            k = rng.randrange(n)
            arcs[k] = (arcs[k] & -arcs[k]) | 1 << 64
        else:
            arcs += [a | b for a, b in _cycle([1 << 64, 1 << 65, 1 << 66])]
    rng.shuffle(arcs)
    rng.shuffle(bits)
    return bits, arcs


@pytest.mark.parametrize("kind", ["cycle", "cycles", "broken"])
def test_link_walk_agrees_with_the_arc_sweep(kind):
    rng = random.Random(f"link-oracle-{kind}")
    for _ in range(300):
        nodes, arcs = _random_link(kind, rng)
        want = oracle_link_is_single_cycle(nodes, arcs)
        walk = _cycle_walk(nodes, arcs)
        assert (walk is not None) == want == (kind == "cycle"), (nodes, arcs)
        if walk is not None:
            # a permutation of the arcs from arcs[0], each sharing one node with the next
            assert sorted(walk) == sorted(arcs) and walk[0] == arcs[0], (nodes, arcs)
            assert all((a & b).bit_count() == 1 for a, b in zip(walk, walk[1:] + walk[:1]))
    assert _cycle_walk([], []) is None and not oracle_link_is_single_cycle([], [])


def oracle_edge_words(C):
    """K's edges as words over its vertex ids, and the uses of every id.

    Edge {i < j} is ``((j, 1), (i, -1))``: the directions that square
    Cell({i, j}, 0) induces on edges Cell(j, 0) and Cell(i, 0).
    """
    words = [((e.bit_length() - 1, 1), ((e & -e).bit_length() - 1, -1)) for e in C.faces(2)]
    return words, edge_uses(words, C.m)


def oracle_word_flags(C):
    """(edges_in_two_squares, vertex_links_single_cycle, connected) from
    K's edge words; ValidationError above dimension 2."""
    if C.dim > 2:
        raise ValidationError(f"closed-surface checks support dimension <= 2, got {C.dim}")
    _, uses = oracle_edge_words(C)
    edges_ok = sum(len(u) == 2 for u in uses) == len(C.faces(1))
    links_ok = oracle_link_is_single_cycle(C.faces(1), C.faces(2))
    return edges_ok, links_ok, len(C.faces(1)) == C.m


def _outcome(check, C):
    try:
        return tuple(check(C))
    except ValidationError as exc:
        return ValidationError, str(exc)


def _large_complex(kind, rng):
    m = rng.randint(3, 60)
    order = rng.sample(range(1, m + 1), m)
    if kind == "polygon":
        return m, _cycle(order)
    if kind == "ghost":  # a polygon on some vertices, possibly with a vertex in no edge
        cycle = _cycle(order[: rng.randint(3, m)])
        return m, cycle + [(v,) for v in order if rng.random() < 0.3]
    if kind == "graph":  # random edges, some on a vertex of degree 2
        pairs = {tuple(sorted(rng.sample(order, 2))) for _ in range(rng.randint(0, 2 * m))}
        return m, [(v,) for v in order if rng.random() < 0.8] + sorted(pairs)
    return m, _cycle(order) + [tuple(rng.sample(order, 3)) for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("kind", ["polygon", "ghost", "graph", "triangle"])
def test_degree_count_agrees_with_the_edge_words(kind):
    rng = random.Random(f"word-flags-{kind}")
    seen = set()
    for _ in range(150):
        m, facets = _large_complex(kind, rng)
        C = build(from_facets(m, facets))
        want = _outcome(oracle_word_flags, C)
        assert _outcome(verify_closed_surface, C) == want, (m, facets)
        seen.add(want)
    # each kind reaches the outcomes it should, so no flag is vacuous
    reached = {
        "polygon": {(True, True, True)},
        "ghost": {(True, True, False), (False, False, False), (False, False, True)},
        "graph": {(False, False, True), (False, False, False)},
        "triangle": {(ValidationError, "closed-surface checks support dimension <= 2, got 3")},
    }
    assert reached[kind] <= seen, seen


def test_walk_signs_agree_with_the_edge_word_orientation():
    """sigma against the sign propagation on K's edge words, m up to 60."""
    rng = random.Random("walk-signs")
    for _ in range(150):
        m, facets = _large_complex("polygon", rng)
        C = build(from_facets(m, facets))
        signs = orient(*oracle_edge_words(C))
        assert signs is not None, (m, facets)
        assert orientability(C) == dict(zip(C.faces(2), signs)), (m, facets)


def test_complete_graph_flags_match_the_edge_words():
    m = 40
    C = build(from_facets(m, [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]))
    assert tuple(verify_closed_surface(C)) == oracle_word_flags(C) == (False, False, True)
