"""Building the cubical model and verifying the closed-surface reports.

The connectivity and incidence oracles here recount everything from raw
cells so that the report flags are never checked against themselves.
"""

import random
from collections import Counter, deque

import pytest

from involab import rzk
from involab.errors import CapError, CrossCheckError, NotASurfaceError, ValidationError
from involab.rzk import (
    Cell,
    CubicalSurface,
    build,
    euler_characteristic,
    genus,
    orientability,
    polygon_genus,
    surface_report,
    verify_closed_surface,
)
from involab.scomplex import SimplicialComplex, from_facets, polygon_boundary

from test_rzk_oracle import _edge_direction, boundary, square_signs


def component_count(C):
    """Brute-force BFS on the 1-skeleton; independent of the report code."""
    verts = C.cells(0)
    adj = {v: [] for v in verts}
    for e in C.cells(1):
        a, b = Cell(0, e.signs), Cell(0, e.signs | e.free)
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), 0
    for v in verts:
        if v in seen:
            continue
        comps += 1
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return comps


@pytest.mark.parametrize(
    "m,v,e,f",
    [(3, 8, 12, 6), (4, 16, 32, 16), (5, 32, 80, 40), (6, 64, 192, 96)],
)
def test_polygon_cell_counts(m, v, e, f):
    C = build(polygon_boundary(m))
    assert (C.vertex_count, C.edge_count, C.square_count) == (v, e, f)
    # closed forms: V = 2^m, F = m 2^(m-2), E = 2F
    assert v == 2**m and f == m * 2 ** (m - 2) and e == 2 * f
    # relabelled polygon: same counts, and cells(d) still comes out sorted
    labels = list(range(1, m + 1))
    random.Random(m).shuffle(labels)
    shuffled = build(from_facets(m, [[labels[i - 1], labels[i]] for i in range(m)]))
    assert (shuffled.vertex_count, shuffled.edge_count, shuffled.square_count) == (v, e, f)
    for d in range(3):
        assert list(shuffled.cells(d)) == sorted(shuffled.cells(d))


@pytest.mark.parametrize("m", range(3, 11))
def test_euler_formula_matches_built_counts(m):
    K = polygon_boundary(m)
    C = build(K)
    assert euler_characteristic(K) == C.vertex_count - C.edge_count + C.square_count
    assert euler_characteristic(K) == 2 ** (m - 2) * (4 - m)


def test_euler_formula_needs_no_build():
    # m = 40 would be 2^40 vertices; the closed form must not care
    K = polygon_boundary(40)
    assert euler_characteristic(K) == 2**38 * (4 - 40)


def test_build_cap(monkeypatch):
    # build lists nothing, so any m builds; cells() refuses m > MAX_CELL_M
    # before it lists a cell
    monkeypatch.setattr(rzk, "MAX_CELL_M", 5)
    assert len(build(polygon_boundary(5)).cells(0)) == 32
    with pytest.raises(CapError, match="cell-listing cap 5"):
        build(polygon_boundary(6)).cells(0)
    monkeypatch.undo()
    assert rzk.MAX_CELL_M == 20
    C = build(polygon_boundary(21))
    assert surface_report(C)["genus"] == polygon_genus(21)
    with pytest.raises(CapError, match="cell-listing cap 20"):
        CubicalSurface(polygon_boundary(21)).cells(0)


def test_boundary_of_boundary_cancels():
    C = build(polygon_boundary(5))
    for sq in C.cells(2):
        edge_corners = Counter()
        for e in boundary(sq):
            for v in boundary(e):
                edge_corners[v] += 1
        # each corner of the square is hit by exactly two of its edges
        assert all(count == 2 for count in edge_corners.values())


def test_verify_polygon_is_closed_surface():
    C = build(polygon_boundary(5))
    rep = verify_closed_surface(C)
    assert rep.closed_surface
    assert rep.edges_in_two_squares and rep.vertex_links_single_cycle and rep.connected
    # every vertex lies in exactly m squares
    per_vertex = Counter()
    for sq in C.cells(2):
        f, s = sq.free, sq.signs
        sub = 0
        while True:
            per_vertex[Cell(0, s | sub)] += 1
            if sub == f:
                break
            sub = (sub - f) & f
    assert set(per_vertex.values()) == {5}
    assert len(per_vertex) == C.vertex_count


def test_two_disjoint_triangles_is_connected_but_pinched():
    # all six singletons are faces, so every coordinate can be flipped along
    # an edge: the complex is connected; what fails is the vertex link,
    # which is two disjoint 3-cycles at every vertex.
    K = from_facets(6, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    C = build(K)
    assert component_count(C) == 1
    rep = verify_closed_surface(C)
    assert rep.connected
    assert rep.edges_in_two_squares
    assert not rep.vertex_links_single_cycle
    assert not rep.closed_surface


def test_a_vertex_of_degree_three_fails_edge_check():
    # K_4: every edge of the surface lies in three squares
    C = build(from_facets(4, [[a, b] for a in range(1, 5) for b in range(a + 1, 5)]))
    rep = verify_closed_surface(C)
    assert rep.connected
    assert not rep.edges_in_two_squares and not rep.closed_surface


def test_single_edge_fails_edge_check():
    C = build(from_facets(2, [[1, 2]]))
    rep = verify_closed_surface(C)
    assert not rep.edges_in_two_squares
    assert not rep.closed_surface


def test_isolated_vertices_disconnected():
    C = build(SimplicialComplex(2))
    rep = verify_closed_surface(C)
    assert component_count(C) == 4
    assert not rep.connected
    assert not rep.vertex_links_single_cycle


def test_ghost_coordinate_disconnects():
    # vertex 4 is in no face: its coordinate is frozen, giving two copies
    K = from_facets(4, [[1, 2], [2, 3], [1, 3]])
    C = build(K)
    assert component_count(C) == 2
    assert not verify_closed_surface(C).connected


def test_verify_rejects_high_dimension():
    C = build(from_facets(3, [[1, 2, 3]]))
    with pytest.raises(ValidationError):
        verify_closed_surface(C)


@pytest.mark.parametrize("m", range(3, 9))
def test_orientable_with_consistent_assignment(m):
    C = build(polygon_boundary(m))
    sigma = orientability(C)
    assert sorted(sigma) == C.faces(2)
    orient = square_signs(C, sigma)
    assert set(orient.values()) <= {1, -1}
    assert len(orient) == C.square_count
    # re-verify consistency directly: shared edges get opposite directions
    edge_squares = {e: [] for e in C.cells(1)}
    for sq in C.cells(2):
        for e in boundary(sq):
            edge_squares[e].append(sq)
    for e, sqs in edge_squares.items():
        s1, s2 = sqs
        assert (
            orient[s1] * _edge_direction(s1, e)
            == -orient[s2] * _edge_direction(s2, e)
        )


def test_orientability_rejects_non_surface():
    C = build(from_facets(2, [[1, 2]]))
    with pytest.raises(NotASurfaceError):
        orientability(C)
    with pytest.raises(NotASurfaceError):
        genus(C)


def test_genus_checks_the_answer_against_the_polygon(monkeypatch):
    # a closed surface here is the one over the m-gon: orientable, polygon_genus(m)
    C = build(polygon_boundary(6))
    monkeypatch.setattr(rzk, "polygon_genus", lambda m: -1)
    with pytest.raises(CrossCheckError, match="the m-gon gives"):
        genus(C)


@pytest.mark.parametrize(
    "m,expected", [(3, 0), (4, 1), (5, 5), (6, 17), (7, 49), (8, 129)]
)
def test_genus_small(m, expected):
    assert genus(build(polygon_boundary(m))) == expected
    assert polygon_genus(m) == expected


@pytest.mark.parametrize("m", range(3, 11))
def test_genus_matches_formula(m):
    g = genus(build(polygon_boundary(m)))
    assert g == polygon_genus(m)
    assert g == 1 + 2 ** (m - 3) * (m - 4)  # exact already at m = 3: genus 0


def test_surface_report_shape():
    rep = surface_report(build(polygon_boundary(4)))
    assert rep == {
        "m": 4,
        "V": 16,
        "E": 32,
        "F": 16,
        "chi": 0,
        "closed_surface": True,
        "orientable": True,
        "genus": 1,
    }


def test_closed_report_enumerates_no_cell_and_glues_m_words(monkeypatch):
    def refuse(self, d):
        raise AssertionError(f"cells({d}) enumerated")

    monkeypatch.setattr(CubicalSurface, "cells", refuse)
    m = 20  # 2^20 vertices and 5 * 2^20 squares, none listed
    C = build(polygon_boundary(m))
    rep = surface_report(C)
    assert rep["closed_surface"] is True and rep["orientable"] is True
    assert rep["genus"] == polygon_genus(m)
    assert sorted(orientability(C)) == C.faces(2)  # one sign per edge of K


def test_surface_report_enumerates_no_cell(monkeypatch):
    def refuse(self, d):
        raise AssertionError(f"cells({d}) enumerated")

    monkeypatch.setattr(CubicalSurface, "cells", refuse)
    m = 20  # 2^20 vertices, none of them listed
    K = from_facets(m, [(i, i % m + 1) for i in range(1, m + 1)] + [(1, 2, 3)])
    rep = surface_report(build(K))
    V, E, F, T = 2**m, m * 2 ** (m - 1), (m + 1) * 2 ** (m - 2), 2 ** (m - 3)
    assert (rep["V"], rep["E"], rep["F"]) == (V, E, F)
    assert rep["chi"] == V - E + F - T == euler_characteristic(K)
    assert rep["closed_surface"] is False and rep["genus"] is None


def test_surface_report_non_surface():
    rep = surface_report(build(from_facets(2, [[1, 2]])))
    assert rep["closed_surface"] is False
    assert rep["orientable"] is None and rep["genus"] is None


def test_surface_report_high_dimension():
    rep = surface_report(build(from_facets(3, [[1, 2, 3]])))
    assert rep["closed_surface"] is False
    assert rep["V"] == 8 and rep["E"] == 12 and rep["F"] == 6
    assert rep["chi"] == 8 - 12 + 6 - 1  # one solid 3-cell
