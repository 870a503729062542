"""Face-set construction, closure, and the text format."""

import pytest

from involab.action import max_free_rank
from involab.errors import CapError, ValidationError
from involab.scomplex import (
    MAX_FACES,
    MAX_VERTICES,
    SimplicialComplex,
    from_facets,
    mask_of,
    parse_complex,
    polygon_boundary,
    vertices_of,
)


def faces_as_vertex_sets(K):
    return {vertices_of(f) for f in K.faces}


def facets(K):
    """Maximal faces, in increasing mask order."""
    return [f for f in sorted(K.faces) if f and not any(g != f and f & g == f for g in K.faces)]


def test_polygon_triangle_faces():
    K = polygon_boundary(3)
    assert faces_as_vertex_sets(K) == {
        (), (1,), (2,), (3,), (1, 2), (2, 3), (1, 3),
    }


def test_polygon_square_faces():
    K = polygon_boundary(4)
    assert faces_as_vertex_sets(K) == {
        (), (1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 4),
    }


@pytest.mark.parametrize("m", range(3, 13))
def test_polygon_face_count(m):
    K = polygon_boundary(m)
    assert len(K.faces) == 2 * m + 1
    assert K.dim == 1


@pytest.mark.parametrize("m", [0, 1, 2])
def test_polygon_needs_three_vertices(m):
    with pytest.raises(ValidationError):
        polygon_boundary(m)


@pytest.mark.parametrize("m", range(3, 9))
def test_downward_closed_exhaustively(m):
    K = polygon_boundary(m)
    for f in K.faces:
        sub = f
        while sub:
            assert sub in K.faces
            sub = (sub - 1) & f


def test_from_facets_closure():
    K = from_facets(3, [[1, 2, 3]])
    assert len(K.faces) == 8  # the full simplex on three vertices
    K2 = from_facets(4, [[1, 2], [2, 3], [3, 4], [4, 1]])
    assert K2 == polygon_boundary(4)


def test_from_facets_ghost_vertices():
    K = from_facets(5, [[1, 2]])
    assert mask_of([5], 5) not in K.faces
    assert mask_of([1], 5) in K.faces and mask_of([1, 2], 5) in K.faces


def test_from_facets_out_of_range():
    with pytest.raises(ValidationError):
        from_facets(4, [[1, 9]])
    with pytest.raises(ValidationError):
        from_facets(4, [[0]])


def test_empty_complex_has_empty_face():
    K = SimplicialComplex(3)
    assert 0 in K.faces
    assert K.dim == -1


@pytest.mark.parametrize("m,faces,message", [
    (3, frozenset({0, -1}), "exceeds ambient"),  # a negative mask
    (3, frozenset({0, 1, -8}), "exceeds ambient"),
    (3, frozenset({0, 0b1000}), "exceeds ambient"),  # the mask 2^m
    (3, frozenset({0, 1, 1 << 40}), "exceeds ambient"),
    (0, frozenset({0, 1}), "exceeds ambient"),
    (3, frozenset({1, 2}), "empty face"),
    (3, frozenset(), "empty face"),
    (-1, frozenset({0}), "nonnegative"),
])
def test_constructor_refuses_masks_out_of_range_and_a_missing_empty_face(m, faces, message):
    with pytest.raises(ValidationError, match=message):
        SimplicialComplex(m, faces)


def test_constructor_takes_the_masks_up_to_the_whole_vertex_set():
    K = SimplicialComplex(3, frozenset({0, 1, 2, 3, 7}))
    assert K.dim == 2 and max(K.faces) == (1 << K.m) - 1


def test_vertices_of_walks_the_set_bits():
    assert vertices_of(0) == ()
    assert vertices_of(1 << 700 | 1 << 5 | 1) == (1, 6, 701)
    with pytest.raises(ValueError):
        vertices_of(-1)


def test_facets():
    K = polygon_boundary(4)
    # increasing mask order: {1,2} < {2,3} < {1,4} < {3,4}
    assert [vertices_of(f) for f in facets(K)] == [
        (1, 2), (2, 3), (1, 4), (3, 4),
    ]
    assert facets(from_facets(4, [[1, 2, 3]])) == [mask_of([1, 2, 3], 4)]


def test_mask_round_trip():
    assert vertices_of(mask_of([3, 1, 5], 6)) == (1, 3, 5)


def test_parse_complex_basic():
    text = """
    # pentagon boundary
    5
    1 2
    2 3
    3 4
    4 5
    5 1   # closing edge
    """
    assert parse_complex(text) == polygon_boundary(5)


def test_parse_complex_m_only():
    K = parse_complex("4\n")
    assert K.m == 4 and K.faces == frozenset({0})


def test_parse_complex_splits_on_any_whitespace_up_to_a_comment():
    text = "\t4 #m\n1\t2#an edge\n 2   3 \r\n#4 1\n3 4 # 1\n"
    assert parse_complex(text) == from_facets(4, [[1, 2], [2, 3], [3, 4]])


@pytest.mark.parametrize(
    "text",
    ["", "# nothing\n", "x\n", "3\n1 2 y\n", "4\n1 9\n", "3 4\n1 2\n"],
)
def test_parse_complex_rejects(text):
    with pytest.raises(ValidationError):
        parse_complex(text)


def test_sizes_that_drive_memory_are_capped_before_allocation():
    # each would have built a mask of 10^12 bits or 2^24 faces before any cap
    with pytest.raises(CapError, match="vertex cap"):
        parse_complex("1000000000000\n1000000000000\n")
    with pytest.raises(CapError, match="vertex cap"):
        polygon_boundary(10**12)
    with pytest.raises(CapError, match="face cap"):
        parse_complex("24\n" + " ".join(map(str, range(1, 25))) + "\n")
    assert len(polygon_boundary(MAX_VERTICES).faces) == 2 * MAX_VERTICES + 1
    full = from_facets(20, [range(1, 21)])  # exactly at the face cap
    assert len(full.faces) == MAX_FACES
    # the library constructors check the cap too: 10^12 ghost vertices would
    # have had max_free_rank build 10^12-bit witness rows
    with pytest.raises(CapError, match=f"m={10**12} exceeds the vertex cap {MAX_VERTICES}"):
        SimplicialComplex(10**12)
    with pytest.raises(CapError, match=f"m={10**12} exceeds the vertex cap {MAX_VERTICES}"):
        from_facets(10**12, [[1]])
    with pytest.raises(CapError, match="vertex cap"):
        from_facets(MAX_VERTICES + 1, [[MAX_VERTICES + 1]])
    assert SimplicialComplex(MAX_VERTICES).faces == {0}
    assert max_free_rank(SimplicialComplex(MAX_VERTICES))[0] == MAX_VERTICES
