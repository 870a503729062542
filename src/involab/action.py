"""The coordinate sign-flip action on a cubical surface.

(Z/2)^m acts on [-1,1]^m by flipping signs of coordinates; the element
supported on S sends x_i to -x_i for i in S. The action restricts to the
complex over any K and permutes its cells: a cell keeps its free set and
has its sign bits toggled on support \\ free. An element is its support,
an int bitmask over K's vertices (bit i-1 = vertex i) like K's faces:
composition is XOR, and the identity is 0.

Fixed points are governed by a single membership test: an element g has
a fixed point on the complex iff ``g in K.faces`` (the fixed set needs
all supported coordinates at 0 simultaneously, which a block over the
face I permits exactly when support is contained in I, and downward
closure turns that into membership). A subgroup therefore acts freely
iff no nonzero element of its span has a face as support, that is iff
no nonzero face of K lies in the span, which reducing each face by the
echelon basis decides. The tests keep independent brute-force routes,
scanning built cells for a fixed one and walking all 2^rank elements of
the span, so the criterion never has to be taken on faith.

The largest free rank is the real Buchstaber number s_R(K) = m - r
(Fukukawa-Masuda 2011; Ayzenberg, arXiv:1003.0637), r the least
dimension of a linear colouring: a map from K's vertices to GF(2)^r
keeping every face independent, whose kernel acts freely (the quotient
by a free subgroup is one). A colouring search gives r and a colouring
λ, and the witness is ker λ, of rank m - r; its freeness is checked
against the faces, so the rank is certified from both sides. No m is
refused: MAX_SEARCH_STEPS bounds the search's time, and the vertex and
face caps of ``scomplex`` its memory.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import gf2
from .errors import CapError, CrossCheckError, ValidationError
from .rzk import CubicalSurface, orientability
from .scomplex import SimplicialComplex, mask_of, vertices_of

# The colouring search's budget. A step is one visit to a position or one span
# element of the values it must avoid, 130-330 ns on every family measured, while a
# visit took from 5 us (sparse complexes) to 1 ms (all 5-sets of 16 vertices).
# Steps taken: K_24 577 (25 visits), every triangle on 16 vertices 2,259 (17),
# the m = 24, 60-triangle complex of test_complete_graphs_stop_at_the_colouring_bound
# 98,538 (5,274), 180 random 2-complexes at m = 20-24 with 40-120 triangles at
# most 293,346 (17,026 visits, 0.1 s). All triangles on 17 vertices (a full search
# takes far over 30 s) and all 3-, 4- or 5-sets on up to 24 exit 3 after 1-1.7 s.
MAX_SEARCH_STEPS = 6_000_000


class _SubgroupFields(NamedTuple):
    generators: tuple[int, ...]
    basis: tuple[int, ...]


class Subgroup(_SubgroupFields):
    """A subgroup of (Z/2)^m given by generators.

    ``generators`` is whatever the caller supplied (order preserved);
    ``basis`` is derived from them, the canonical reduced echelon basis of
    their span, pivots (highest set bits) strictly increasing, so
    rank == len(basis). A basis passed in must be that one, or the
    constructor raises ValidationError.
    """

    __slots__ = ()

    def __new__(cls, generators: Iterable[int], basis: Iterable[int] | None = None) -> "Subgroup":
        gens = tuple(generators)
        reduced = tuple(gf2.rref(gens))
        if basis is not None and (basis := tuple(basis)) != reduced:
            raise ValidationError(f"basis {basis} is not {reduced}, the reduced echelon "
                                  f"basis of the span of the generators {gens}")
        return super().__new__(cls, gens, reduced)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_vertex_lists(self) -> list[list[int]]:
        return [list(vertices_of(b)) for b in self.basis]


def _face_in_span(K: SimplicialComplex, H: Subgroup) -> int:
    """A nonzero face of K in the span of H, or 0 if there is none.

    Against H's reduced echelon basis the reduction of a vector is linear:
    it takes off the row b of each pivot p the vector has, and no row holds
    another's pivot. So each vertex v has a syndrome, the reduction of e_v:
    e_v off the pivots, b ^ e_p at the pivot p of row b, and a face lies in
    the span iff the syndromes of its vertices add up to 0. That takes
    O(sum of |f|), not O(|K| rank) or 2^rank.
    """
    syndrome = [1 << v for v in range(K.m)]
    for b in H.basis:
        p = b.bit_length() - 1
        if p < K.m:  # a pivot at m or above is in no face
            syndrome[p] = b ^ 1 << p
    for f in K.faces:
        rest, g = 0, f
        while g:
            low = g & -g
            rest ^= syndrome[low.bit_length() - 1]
            g ^= low
        if f and not rest:
            return f
    return 0


def is_free_subgroup(K: SimplicialComplex, H: Subgroup) -> bool:
    """True iff every nonidentity element of H moves every point, that is
    iff no nonzero face of K lies in the span of H."""
    return not _face_in_span(K, H)


def lemma_generators(m: int) -> Subgroup:
    """The standard free subgroup of rank m-2 over the m-gon.

    Even m = 2k: supports {1,3}, {3,5}, ..., {2k-3, 2k-1} on the odd
    vertices and {2, 4}, {4, 6}, ..., {2k-2, 2k} on the even ones.
    Odd m = 2k+1: the same two families plus the triple {1, 2k, 2k+1}.
    Every nonzero combination has support off the polygon's face set,
    so the subgroup acts freely; is_free_subgroup re-checks regardless.
    """
    if not isinstance(m, int):  # a bool is an int
        raise ValidationError(f"m must be an int, got {m!r}")
    if m < 3:
        raise ValidationError(f"lemma generators need m >= 3, got {m}")
    k = m // 2
    supports: list[list[int]] = []
    supports += [[2 * i - 1, 2 * i + 1] for i in range(1, k)]
    supports += [[2 * i, 2 * i + 2] for i in range(1, k)]
    if m % 2:
        supports.append([1, 2 * k, 2 * k + 1])
    return Subgroup(mask_of(s, m) for s in supports)


def orientation_sign(C: CubicalSurface, g: int) -> int:
    """+1 if g preserves the global orientation of C, -1 if it reverses it.

    g maps square Cell(I, s) to Cell(I, s ^ (g & ~I)) and acts on its
    frame as the reflection in each coordinate of g & I. With square
    signs (-1)^popcount(s) sigma[I] (see ``orientability``) the image's
    sign differs by (-1)^|g & ~I| and the frame by (-1)^|g & I|, so the
    sign is (-1)^|g| on every square.
    """
    orientability(C)  # raises NotASurfaceError unless C is a closed surface
    return -1 if g.bit_count() % 2 else 1


def _plan(K: SimplicialComplex) -> tuple[list[int], list[list[list[int]]], list[int], int]:
    """The colouring search's plan (order, closing, cost, r0). Vertices are
    assigned in decreasing edge degree, each a value in the span of those
    before or the next unit vector (breaking the GL(r) symmetry) outside
    the span of the rest of every largest face that it closes. r starts at
    dim K + 1 and at the bit length of a greedy clique, which needs distinct
    nonzero values; one unit vector per vertex always works.
    """
    faces, m = K.faces, K.m
    nbr = [0] * m
    for f in faces:
        if f.bit_count() == 2:
            nbr[f.bit_length() - 1] |= f & -f
            nbr[(f & -f).bit_length() - 1] |= f & (f - 1)
    order = sorted((v for v in range(m) if 1 << v in faces), key=lambda v: -nbr[v].bit_count())
    pos, before, clique = [0] * m, [0], 0
    for i, v in enumerate(order):
        pos[v] = i
        before.append(before[i] | 1 << v)
        if clique & nbr[v] == clique:  # v meets the whole clique so far
            clique |= 1 << v
    closing: list[list[list[int]]] = [[] for _ in order]  # by position: the others' positions
    cost = [1] * (len(order) + 1)  # by position: a visit and the span elements it builds
    for f in faces:
        if f & (f - 1):
            rest, g = [], f
            while g:
                rest.append(pos[(g & -g).bit_length() - 1])
                g &= g - 1
            rest.sort()
            last = rest.pop()
            grow = nbr[order[last]] & before[last] & ~f  # earlier vertices that may enlarge f
            while grow and f | grow & -grow not in faces:
                grow &= grow - 1
            if not grow:
                closing[last].append(rest)
                cost[last] += 1 << len(rest)
    return order, closing, cost, max(K.dim + 1, clique.bit_count().bit_length())


def _colouring(K: SimplicialComplex) -> tuple[int, list[int]]:
    """The least r in which K has a linear colouring, and one such colouring
    λ as its values on the vertices (ghost vertices map to 0); s_R(K) = m - r.
    The search runs ``_plan`` over a stack of one frame per assigned position,
    not a recursion, so no m is too deep for it. Past MAX_SEARCH_STEPS steps
    it raises CapError.
    """
    order, closing, cost, r = _plan(K)
    frames: list[list] = []  # by position: forbidden set, value, d (unit vectors before it)
    steps = d = 0
    while True:
        i = len(frames)
        steps += cost[i]
        if steps > MAX_SEARCH_STEPS:
            raise CapError(f"the colouring search passed its budget of {MAX_SEARCH_STEPS} steps")
        if i == len(order):
            break
        forbidden = {0}
        for rest in closing[i]:
            span = [0]
            for u in rest:
                w = frames[u][1]
                span += [x ^ w for x in span]
            forbidden.update(span)
        frames.append([forbidden, 0, d])
        while frames:  # the deepest position takes its next value, or is dropped if none is left
            frame = frames[-1]
            forbidden, w, d = frame
            w += 1
            while w in forbidden:
                w += 1
            if w < min((1 << d) + 1, 1 << r):
                frame[1] = w
                d += w >> d
                break
            frames.pop()
        else:  # no colouring into GF(2)^r: search r + 1 from the first position, whose d is 0
            r += 1
    colouring = [0] * K.m
    for v, frame in zip(order, frames):
        colouring[v] = frame[1]
    return r, colouring


def max_free_rank(K: SimplicialComplex) -> tuple[int, Subgroup]:
    """Largest rank of a freely acting subgroup, with a deterministic witness.

    ``_colouring`` gives the least r and a colouring λ into GF(2)^r. The
    witness is ker λ: in one echelon form of the rows (λ(e_v) << m) | e_v,
    the rows with no bit at m or above are its canonical basis. Two
    checks raise CrossCheckError: the kernel's rank must be m - r (a
    larger kernel means λ is not onto, so r was not the least), and no
    face may lie in it.
    """
    m = K.m
    r, colouring = _colouring(K)
    rows = gf2.rref(w << m | 1 << v for v, w in enumerate(colouring))
    kernel = tuple(b for b in rows if not b >> m)
    witness = Subgroup._make((kernel, kernel))  # some of rref's rows: their own reduced basis
    if witness.rank != m - r:
        raise CrossCheckError(f"the colouring's kernel has rank {witness.rank}, not {m - r}")
    f = _face_in_span(K, witness)
    if f:
        raise CrossCheckError(f"the free-rank witness fixes the face {vertices_of(f)}")
    return m - r, witness
