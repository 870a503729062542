"""Sign-flip action: fixed points, free subgroups, orientation parity.

Two oracles keep the fast criteria honest. Fixed points are re-decided
by scanning built cells for one whose free set contains the support.
Subspace questions are re-decided by enumerating every subspace of
GF(2)^m (completeness of the enumeration is itself certified against
the Gaussian binomial counts) and checking each span element by hand.
"""

import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import action, gf2
from involab.action import (
    MAX_SEARCH_STEPS,
    Subgroup,
    is_free_subgroup,
    lemma_generators,
    max_free_rank,
    orientation_sign,
)
from involab.errors import CapError, CrossCheckError, NotASurfaceError, ValidationError
from involab.rzk import Cell, build, orientability
from involab.scomplex import SimplicialComplex, from_facets, mask_of, polygon_boundary, vertices_of

from test_action_oracle import (
    K24,
    TRIANGLES_16,
    TRIANGLES_60,
    apply,
    span_elements,
    subspace_bases,
)
from test_gf2 import pivot
from test_rzk_oracle import square_signs


def fixes_some_cell(C, g):
    """Oracle: g fixes a cell (hence a point) iff support fits in its free set."""
    for d in range(C.dim + 1):
        for cell in C.cells(d):
            if g & ~cell.free == 0:
                return True
    return False


def gaussian_binomial(m, k):
    num = den = 1
    for i in range(k):
        num *= 2**m - 2**i
        den *= 2**k - 2**i
    return num // den


def test_apply_flips_signs_off_free_set():
    # edge with free coordinate 2 on m=4, all fixed signs +1
    e = Cell(free=0b0010, signs=0)
    image = apply(mask_of([1, 2], 4), e)
    assert image.free == e.free
    assert image.signs == 0b0001  # coordinate 1 flipped, 2 absorbed by the free set


def test_apply_is_an_involution_everywhere():
    C = build(polygon_boundary(4))
    cells = [c for d in range(3) for c in C.cells(d)]
    for g in range(1 << 4):
        for c in cells:
            assert apply(g, apply(g, c)) == c
            assert apply(g, c).signs & apply(g, c).free == 0


def test_apply_respects_composition():
    C = build(polygon_boundary(4))
    cells = [c for d in range(3) for c in C.cells(d)]
    for g in (0b0011, 0b1010, 0b1111):
        for h in (0b0001, 0b1100):
            for c in cells:
                assert apply(g, apply(h, c)) == apply(g ^ h, c)


def test_has_fixed_point_examples():
    K = polygon_boundary(5)
    assert mask_of([2, 3], 5) in K.faces
    assert mask_of([1, 3], 5) not in K.faces
    assert mask_of([1, 2, 3], 5) not in K.faces
    assert 0 in K.faces  # the identity fixes everything


@pytest.mark.parametrize(
    "K",
    [
        polygon_boundary(4),
        polygon_boundary(5),
        polygon_boundary(6),
        from_facets(4, [[1, 2], [3]]),
        from_facets(5, [[1, 2], [2, 3], [1, 3], [4, 5]]),
        SimplicialComplex(3),
    ],
)
def test_has_fixed_point_agrees_with_cell_scan(K):
    C = build(K)
    for g in range(1 << K.m):
        assert (g in K.faces) == fixes_some_cell(C, g)


def test_subgroup_rref_basis():
    gens = [mask_of(v, 6) for v in ([1, 3], [3, 5], [2, 4], [4, 6])]
    H = Subgroup(gens)
    assert H.rank == 4
    assert [vertices_of(g) for g in H.generators] == [
        (1, 3), (3, 5), (2, 4), (4, 6),
    ]
    pivots = [pivot(b) for b in H.basis]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for i, b in enumerate(H.basis):
        for j, other in enumerate(H.basis):
            if i != j:
                assert not (other >> pivot(b)) & 1
    assert len(set(span_elements(H))) == 16


def test_is_free_subgroup_examples():
    K = polygon_boundary(4)
    free = Subgroup([mask_of([1, 3], 4), mask_of([2, 4], 4)])
    assert is_free_subgroup(K, free)
    pinned = Subgroup([mask_of([1, 2], 4), mask_of([2, 4], 4)])
    assert not is_free_subgroup(K, pinned)  # {1,2} is an edge of the square


def test_is_free_subgroup_reduces_a_hand_built_basis():
    """Generators whose echelon basis is not reduced get the reduced one,
    and freeness is read off it; passed in as the basis, the unreduced
    rows are refused."""
    K = polygon_boundary(4)
    a, b = mask_of([1, 3], 4), mask_of([3, 4], 4)
    assert not is_free_subgroup(K, Subgroup((a, b)))  # b is an edge of the square
    rng = random.Random(1)
    for _ in range(2000):
        m = rng.randint(3, 6)
        K = from_facets(m, [rng.sample(range(1, m + 1), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 6))])
        basis = gf2.rref(rng.randrange(1, 1 << m) for _ in range(rng.randint(1, m)))
        reduced = tuple(basis)
        for i in range(len(basis)):  # add lower-pivot rows: still echelon, not reduced
            for j in range(i):
                if rng.random() < 0.5:
                    basis[i] ^= basis[j]
        H = Subgroup(basis)
        assert H.basis == reduced
        if tuple(basis) != reduced:
            with pytest.raises(ValidationError, match="reduced echelon basis"):
                Subgroup(basis, basis)
        in_span = any(f and gf2.in_span(f, basis) for f in K.faces)
        assert is_free_subgroup(K, H) == (not in_span), (K, basis)


def test_a_subgroup_reports_the_span_of_its_generators():
    """The basis, and so the rank and the vertex lists, come from the
    generators; a hand-built basis that differs is refused."""
    assert Subgroup((3, 3)) == ((3, 3), (3,)) and Subgroup((3, 3)).rank == 1
    assert Subgroup((0b101,)).basis_vertex_lists() == [[1, 3]]
    assert Subgroup((0b110, 0b11), (0b11, 0b101)).basis == (0b11, 0b101)
    for generators, basis in [((3, 3), (3, 3)), ((0b101,), (0b11,)), ((0b11,), ())]:
        with pytest.raises(ValidationError, match="reduced echelon basis"):
            Subgroup(generators, basis)


def test_make_and_replace_check_a_subgroup_like_its_constructor():
    H = Subgroup((3, 5, 6))
    assert H._replace(generators=(5, 3)) == ((5, 3), (3, 5))
    assert Subgroup._make(((0b110, 0b11), (0b11, 0b101))) == Subgroup((0b110, 0b11))
    with pytest.raises(ValidationError, match="reduced echelon basis"):
        H._replace(generators=(1,))  # the basis (3, 5) is kept, and checked
    with pytest.raises(ValidationError, match="reduced echelon basis"):
        Subgroup._make(((3,), (1,)))
    with pytest.raises(ValidationError, match="^generator 1.5 is not a nonnegative int$"):
        H._replace(generators=(1.5,))


@pytest.mark.parametrize(
    "m,expected",
    [
        (3, [(1, 2, 3)]),
        (4, [(1, 3), (2, 4)]),
        (5, [(1, 3), (2, 4), (1, 4, 5)]),
        (6, [(1, 3), (3, 5), (2, 4), (4, 6)]),
        (7, [(1, 3), (3, 5), (2, 4), (4, 6), (1, 6, 7)]),
        (8, [(1, 3), (3, 5), (5, 7), (2, 4), (4, 6), (6, 8)]),
    ],
)
def test_lemma_generator_supports(m, expected):
    H = lemma_generators(m)
    assert [vertices_of(g) for g in H.generators] == expected


@pytest.mark.parametrize("m", range(3, 13))
def test_lemma_generators_free_of_rank_m_minus_2(m):
    K = polygon_boundary(m)
    H = lemma_generators(m)
    assert H.rank == m - 2
    assert is_free_subgroup(K, H)


@pytest.mark.parametrize("m", range(3, 7))
def test_lemma_elements_fix_no_cell(m):
    K = polygon_boundary(m)
    C = build(K)
    H = lemma_generators(m)
    elements = span_elements(H)
    assert len(elements) == 2 ** (m - 2)
    for g in elements:
        if g == 0:
            assert fixes_some_cell(C, g)  # the identity fixes everything
        else:
            assert not fixes_some_cell(C, g)
        assert (g in K.faces) == fixes_some_cell(C, g)


@pytest.mark.parametrize("m", range(3, 8))
def test_orientation_parity(m):
    C = build(polygon_boundary(m))
    orient = square_signs(C, orientability(C))
    for g in range(1 << m):
        expected = -1 if g.bit_count() % 2 else 1
        assert orientation_sign(C, g) == expected
        # constancy across all 2-cells, not just the sampled one
        transported = {
            orient[c] * orient[apply(g, c)] * (-1) ** (g & c.free).bit_count()
            for c in C.cells(2)
        }
        assert transported == {expected}


def test_orientation_sign_rejects_non_surface():
    C = build(from_facets(2, [[1, 2]]))
    with pytest.raises(NotASurfaceError):
        orientation_sign(C, 0b01)


def exhaustive_max_free_rank(K):
    """Oracle: scan every subspace of GF(2)^m, certified complete by count."""
    per_rank = {}
    best = 0
    for basis in subspace_bases(K.m):
        per_rank[len(basis)] = per_rank.get(len(basis), 0) + 1
        span = [0]
        for b in basis:
            span += [x ^ b for x in span]
        if all(v not in K.faces for v in span if v):
            best = max(best, len(basis))
    for k, count in per_rank.items():
        assert count == gaussian_binomial(K.m, k)
    return best


@pytest.mark.parametrize("m", range(3, 7))
def test_max_free_rank_matches_exhaustive_search(m):
    K = polygon_boundary(m)
    rank, witness = max_free_rank(K)
    assert rank == m - 2
    assert rank == exhaustive_max_free_rank(K)
    assert witness.rank == rank
    assert is_free_subgroup(K, witness)


@st.composite
def small_complexes(draw):
    """A complex on at most 6 vertices, generated by random facets."""
    m = draw(st.integers(1, 6))
    vertex_sets = st.sets(st.integers(1, m), min_size=1, max_size=m)
    return from_facets(m, draw(st.lists(vertex_sets, max_size=6)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_complexes())
def test_max_free_rank_matches_exhaustive_search_on_random_complexes(K):
    rank, witness = max_free_rank(K)
    assert rank == exhaustive_max_free_rank(K)
    assert witness.rank == rank
    assert is_free_subgroup(K, witness)


def test_cross_check_free_rejects_a_face_in_the_span(monkeypatch):
    # neither generator is a face, but their sum {2,3,4} is the facet
    K = from_facets(4, [[2, 3, 4]])
    H = Subgroup(mask_of(s, 4) for s in ([1, 2], [1, 3, 4]))
    assert not any(b in K.faces for b in H.basis)
    assert not is_free_subgroup(K, H)
    # a faulty colouring onto GF(2)^2 whose kernel is H: vertices 1 and 2
    # share a value and 2, 3, 4 sum to 0, so the rank check m - r passes
    monkeypatch.setattr(action, "_colouring", lambda K: (2, [1, 1, 2, 3]))
    with pytest.raises(CrossCheckError, match=r"fixes the face \(2, 3, 4\)"):
        max_free_rank(K)


def test_max_free_rank_trivial_cases():
    assert max_free_rank(from_facets(1, [[1]]))[0] == 0
    assert max_free_rank(from_facets(3, [[1, 2, 3]]))[0] == 0
    # no faces at all: the whole group acts freely
    rank, witness = max_free_rank(SimplicialComplex(3))
    assert rank == 3
    assert witness.basis == (0b001, 0b010, 0b100)


def test_max_free_rank_deterministic_witness():
    K = polygon_boundary(5)
    r1, w1 = max_free_rank(K)
    r2, w2 = max_free_rank(K)
    assert (r1, w1.basis_vertex_lists()) == (r2, w2.basis_vertex_lists())
    assert w1.basis_vertex_lists() == [[1, 3], [2, 4], [1, 2, 5]]


def test_complete_graphs_stop_at_the_colouring_bound():
    # K_m needs m distinct nonzero values, so the rank is m - ceil(log2(m + 1)); a
    # subspace search took more than 30 s on these from m = 16, and 5 s on the
    # random 2-complex at m = 24
    start = time.perf_counter()
    cases = [(from_facets(m, itertools.combinations(range(1, m + 1), 2)), m - m.bit_length())
             for m in range(16, 25)]
    cases.append((TRIANGLES_60, 21))
    for K, want in cases:
        rank, witness = max_free_rank(K)
        assert rank == want == witness.rank
        assert is_free_subgroup(K, witness)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("K,steps", [(K24, 577), (TRIANGLES_16, 2_259), (TRIANGLES_60, 98_538)],
                         ids=["K24", "triangles-16", "triangles-60"])
def test_the_search_takes_the_steps_that_its_budget_comment_states(K, steps):
    """The step counts in MAX_SEARCH_STEPS's comment and the README: a change
    to the plan's order or costs moves them."""
    with mock.patch.object(action, "MAX_SEARCH_STEPS", steps):
        action._colouring(K)
    with mock.patch.object(action, "MAX_SEARCH_STEPS", steps - 1):
        with pytest.raises(CapError, match=f"budget of {steps - 1} steps"):
            action._colouring(K)


def test_max_free_rank_cap():
    # no cap on m: the step budget bounds the search's time, the vertex and
    # face caps its memory, and the search keeps its positions on a stack,
    # not on the call stack, so the 1024-gon needs no recursion depth
    assert max_free_rank(SimplicialComplex(25))[0] == 25
    assert max_free_rank(polygon_boundary(1024))[0] == 1022
    K = from_facets(25, itertools.combinations(range(1, 26), 3))
    with pytest.raises(CapError, match=f"budget of {MAX_SEARCH_STEPS} steps"):
        max_free_rank(K)


def test_lemma_generators_rejects_small_m():
    with pytest.raises(ValidationError):
        lemma_generators(2)


@pytest.mark.parametrize("m", [1025, 1 << 80])
def test_lemma_generators_refuses_m_above_the_vertex_cap(m):
    assert lemma_generators(1024).rank == 1022
    with pytest.raises(CapError, match=f"^m={m} exceeds the vertex cap 1024$"):
        lemma_generators(m)


def test_orientation_sign_refuses_an_element_outside_the_vertices():
    C = build(polygon_boundary(4))
    assert orientation_sign(C, 0b1111) == 1
    with pytest.raises(ValidationError, match="^the element 16 has support outside the 4 vertices$"):
        orientation_sign(C, 1 << 4)
    with pytest.raises(ValidationError, match="has support outside the 4 vertices$"):
        orientation_sign(C, 1 << 50)
