"""The closed-surface and orientation checks against a Cell-keyed oracle.

``oracle_verify`` and ``oracle_orientability`` are the dictionary-based
implementations that ``rzk`` used before it handed the squares to
``glue`` as integer boundary words: edge -> squares and vertex -> edges
/ squares tables keyed by Cell, and breadth-first searches over them.
They are kept here, apart from the package, so that every report flag,
every orientability verdict and the per-square assignment of the fast
path are compared with them on seeded random complexes.
"""

import random
from collections import deque

import pytest

from involab.errors import NotASurfaceError
from involab.rzk import Cell, build, orientability, verify_closed_surface
from involab.scomplex import from_facets


def _subsets_ascending(mask):
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _edge_direction(square, edge):
    i_bit = square.free & -square.free
    j_bit = square.free ^ i_bit
    if edge.free == i_bit:
        return 1 if (edge.signs & j_bit) else -1
    return -1 if (edge.signs & i_bit) else 1


def _edge_to_squares(C):
    table = {e: [] for e in C.cells(1)}
    for sq in C.cells(2):
        for e in C.boundary(sq):
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
            through = [e for e in C.boundary(sq) if e in index]
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
            for e in C.boundary(sq):
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
        rep = verify_closed_surface(C)
        flags = (rep.edges_in_two_squares, rep.vertex_links_single_cycle, rep.connected)
        assert flags == oracle_verify(C), (m, facets)
        if rep.closed_surface:
            closed_seen += 1
            assert orientability(C) == oracle_orientability(C), (m, facets)
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
