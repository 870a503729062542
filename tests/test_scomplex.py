"""Face-set construction, closure, and the text format."""

import re
import tracemalloc
from fractions import Fraction

import pytest

from involab import scomplex
from involab.action import Subgroup, lemma_generators, max_free_rank, orientation_sign
from involab.cover import build_cover, parse_phi, presentation
from involab.errors import CapError, ValidationError
from involab.fgenus import H, lambert_w
from involab.rzk import build, polygon_genus, surface_report
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


def test_from_facets_refuses_a_negative_m_before_it_reads_a_facet():
    def facets():
        raise AssertionError("a facet was read")
        yield [1, 2]

    with pytest.raises(ValidationError, match="^m must be nonnegative$"):
        from_facets(-2, [[1, 2]])
    with pytest.raises(ValidationError, match="^m must be nonnegative$"):
        from_facets(-2, facets())
    with pytest.raises(CapError, match="vertex cap"):
        from_facets(MAX_VERTICES + 1, facets())


@pytest.mark.parametrize("m,shown", [(2.5, "2.5"), (3.0, "3.0"), ("3", "'3'"), (None, "None")])
def test_a_non_int_m_is_refused_before_a_facet_is_read(m, shown):
    def facets():
        raise AssertionError("a facet was read")
        yield [1, 2]

    with pytest.raises(ValidationError, match=rf"^m must be an int, got {re.escape(shown)}$"):
        SimplicialComplex(m)
    with pytest.raises(ValidationError, match=rf"^m must be an int, got {re.escape(shown)}$"):
        from_facets(m, facets())


def test_a_bool_m_counts_as_an_int():
    assert SimplicialComplex(True, [1]).faces == frozenset({0, 1})
    assert from_facets(False, []) == SimplicialComplex(0)


@pytest.mark.parametrize("bad,shown", [(1.5, "1.5"), (2.0, "2.0"), ("1", "'1'")])
def test_a_non_int_face_mask_or_vertex_is_refused(bad, shown):
    with pytest.raises(ValidationError, match=rf"^face mask {re.escape(shown)} is not an int$"):
        SimplicialComplex(3, [1, bad])
    with pytest.raises(ValidationError, match=rf"^vertex {re.escape(shown)} is not an int$"):
        from_facets(3, [[1, 2], [3, bad]])
    with pytest.raises(ValidationError, match=rf"^vertex {re.escape(shown)} is not an int$"):
        mask_of([bad], 3)


def test_a_face_set_or_facet_that_is_not_iterable_is_refused():
    with pytest.raises(ValidationError, match="^faces must be iterable, got 5$"):
        SimplicialComplex(3, 5)
    with pytest.raises(ValidationError, match="^facets must be iterable, got 5$"):
        from_facets(3, 5)
    with pytest.raises(ValidationError, match="^a facet must be iterable, got 5$"):
        from_facets(3, [5])


WRONG_TYPES = {
    "parse_complex(5)": (parse_complex, (5,), "source must be a str or an iterable of lines, got 5"),
    "parse_phi(5, 2)": (parse_phi, (5, 2), "source must be a str or an iterable of lines, got 5"),
    "parse_complex([b'3'])": (parse_complex, ([b"3\n"],), r"source line 1 must be a str, got b'3\\n'"),
    "parse_complex(['3', None])": (parse_complex, (["3\n", None],), "source line 2 must be a str, got None"),
    "parse_phi('1 0', 2.0)": (parse_phi, ("1 0", 2.0), "d must be an int, got 2.0"),
    "build_cover(B, 5)": (build_cover, (presentation(True, 1), 5), "phi must be an iterable of rows, got 5"),
    "polygon_boundary(3.5)": (polygon_boundary, (3.5,), "m must be an int, got 3.5"),
    "polygon_boundary('5')": (polygon_boundary, ("5",), "m must be an int, got '5'"),
    "lemma_generators(5.0)": (lemma_generators, (5.0,), "m must be an int, got 5.0"),
    "polygon_genus(5.0)": (polygon_genus, (5.0,), "m must be an int, got 5.0"),
    "Subgroup((1.5,))": (Subgroup, ((1.5,),), "generator 1.5 is not a nonnegative int"),
    "Subgroup(('3',))": (Subgroup, (("3",),), "generator '3' is not a nonnegative int"),
    "Subgroup((3, -1))": (Subgroup, ((3, -1),), "generator -1 is not a nonnegative int"),
    "Subgroup((0.0, 3))": (Subgroup, ((0.0, 3),), "generator 0.0 is not a nonnegative int"),
    "Subgroup((None,))": (Subgroup, ((None,),), "generator None is not a nonnegative int"),
    "Subgroup(5)": (Subgroup, (5,), "generators must be iterable, got 5"),
    "H('5')": (H, ("5",), "H needs an int, float or mpf genus, got '5'"),
    "H(None)": (H, (None,), "H needs an int, float or mpf genus, got None"),
    "H(1j)": (H, (1j,), "H needs an int, float or mpf genus, got 1j"),
    "H(Fraction(7, 2))": (H, (Fraction(7, 2),),
                          re.escape("H needs an int, float or mpf genus, got Fraction(7, 2)")),
    "lambert_w('x')": (lambert_w, ("x",), "lambert_w needs a real x, got 'x'"),
    "lambert_w(None)": (lambert_w, (None,), "lambert_w needs a real x, got None"),
    "orientation_sign(C, 1.5)": (orientation_sign, (build(polygon_boundary(4)), 1.5),
                                 "an element must be a nonnegative int, got 1.5"),
    "orientation_sign(C, -1)": (orientation_sign, (build(polygon_boundary(4)), -1),
                                "an element must be a nonnegative int, got -1"),
}


@pytest.mark.parametrize("fn,args,message", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_an_argument_of_the_wrong_type_is_a_validation_error(fn, args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        fn(*args)


def test_make_and_replace_build_through_the_constructor():
    """A complex from ``_make`` or ``_replace`` is checked and closed like
    one from the constructor."""
    K = polygon_boundary(4)
    assert K._replace(faces=frozenset({7})) == SimplicialComplex(4, [7])
    assert SimplicialComplex._make((3, frozenset({7}))) == SimplicialComplex(3, [7])
    assert K._replace(m=5) == SimplicialComplex(5, K.faces)
    with pytest.raises(ValidationError, match="^m must be an int, got 3.5$"):
        K._replace(m=3.5)
    with pytest.raises(ValidationError, match="exceeds ambient"):
        K._replace(m=2)


def test_a_bool_face_mask_or_vertex_counts_as_an_int():
    assert SimplicialComplex(3, [True]).faces == frozenset({0, 1})
    assert from_facets(3, [[True, 2]]) == from_facets(3, [[1, 2]])


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
    (3, [1, 0b1000], "exceeds ambient"),  # any iterable of masks, no empty face needed
    (3, iter((0b11, 0b1000)), "exceeds ambient"),  # a one-shot iterator
    (-1, frozenset({0}), "nonnegative"),
])
def test_constructor_refuses_masks_out_of_range_and_a_missing_empty_face(m, faces, message):
    with pytest.raises(ValidationError, match=message):
        SimplicialComplex(m, faces)


@pytest.mark.parametrize("faces,vertex_lists", [
    ({0b111}, [[1, 2, 3]]),
    ({0b11}, [[1, 2]]),  # an edge without its vertices
    ({1, 0b11}, [[1], [1, 2]]),
    ({1, 2}, [[1], [2]]),  # the empty face is added, not required
    (set(), []),
])
def test_a_hand_built_face_set_is_closed(faces, vertex_lists):
    K = SimplicialComplex(3, faces)
    assert K == from_facets(3, vertex_lists)
    assert max_free_rank(K) == max_free_rank(from_facets(3, vertex_lists))
    assert surface_report(build(K)) == surface_report(build(from_facets(3, vertex_lists)))


def test_the_full_triangle_built_by_hand_is_the_full_triangle():
    K = SimplicialComplex(3, frozenset({0, 0b111}))
    assert K == from_facets(3, [[1, 2, 3]])
    assert max_free_rank(K)[0] == 0  # every vertex set is a face
    report = surface_report(build(K))
    assert (report["V"], report["E"], report["F"], report["chi"]) == (8, 12, 6, 1)


def test_constructor_takes_the_masks_up_to_the_whole_vertex_set():
    K = SimplicialComplex(3, frozenset({0, 1, 2, 3, 7}))
    assert K.dim == 2 and max(K.faces) == (1 << K.m) - 1


@pytest.mark.parametrize("k", [13, 16])
def test_a_complex_is_rebuilt_from_its_own_faces_past_the_face_cap(k):
    """The full k-simplex's faces have 3^k subsets in all, repeats counted,
    which is past the cap; the facet alone has 2^k."""
    K = from_facets(k, [range(1, k + 1)])
    assert sum(1 << f.bit_count() for f in K.faces) > MAX_FACES >= len(K.faces)
    assert SimplicialComplex(K.m, K.faces) == K
    assert SimplicialComplex(K.m, [*K.faces, *K.faces]) == K  # a repeated mask counts once


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


@pytest.mark.parametrize("text", ["-2\n1 2\n", "-2\n"])
def test_parse_complex_refuses_a_negative_m_on_its_header_line(text):
    with pytest.raises(ValidationError, match="^line 1: m must be nonnegative, got -2$"):
        parse_complex(text)


def test_parse_complex_keeps_no_line_past_its_facet():
    """10^5 facet lines: a list of every line's tokens, kept until the
    facets are read, peaked at about 29 MB; one line at a time, 6.5 MB."""
    text = "3\n" + "1 2\n" * 10**5
    tracemalloc.start()
    try:
        K = parse_complex(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K == from_facets(3, [[1, 2]])
    assert peak < 12 * 2**20, peak


def test_parse_complex_stops_at_the_facet_past_the_face_cap(monkeypatch):
    """Each facet line's mask is a distinct nonempty face, so the line whose
    mask passes MAX_FACES distinct ones is refused before another is read."""
    monkeypatch.setattr(scomplex, "MAX_FACES", 4)

    def lines():
        yield "5\n"
        yield from ["1 2\n", "2 1\n", "2 3\n", "1 2 # again\n", "3 4\n", "4 5\n", "1\n"]
        raise AssertionError("a line past the cap was read")

    with pytest.raises(CapError, match="^line 8: the facets exceed the face cap of 4 faces$"):
        parse_complex(lines())


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
    # the constructor closes what it is given, so it checks the face cap too
    with pytest.raises(CapError, match="face cap"):
        SimplicialComplex(24, [(1 << 24) - 1])
    with pytest.raises(CapError, match="face cap"):  # neither 20-set lies below the other
        SimplicialComplex(21, [(1 << 20) - 1, ((1 << 20) - 1) << 1])
    assert len(SimplicialComplex(20, [(1 << 20) - 1]).faces) == MAX_FACES
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
