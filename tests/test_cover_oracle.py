"""The one-sheet cover classification against a gluing of every sheet.

``oracle_boundaries`` is the per-sheet gluing that ``cover.build_cover``
did before it classified the cover from sheet 0's walk alone: one polygon
word per sheet, read off the base word while accumulating phi-images, with
edge (i, q) numbered i * 2^n + q. ``oracle_cover`` runs ``edge_uses``
and ``orient`` on those words, counts components both from the
vertices (a GF(2) rank of phi's columns) and from the faces (a union of
faces that share an edge id), and raises the same CrossCheckError messages
as the package. Every report field, and every raised message, is compared
with ``build_cover`` exhaustively for n <= 3 over five bases, and on random
matrices and random (often malformed) words.

``edge_uses`` and ``orient`` are the general polygon gluing: how often
each edge id is traversed, and a breadth-first sign propagation that
orients the faces so that every edge is crossed once each way. They were
the package's ``glue`` module until ``rzk`` read its orientation off the
walk round K's cycle; ``test_rzk_oracle.py`` runs them on K's edge words.

``prop2_tower`` gives the epimorphisms whose covers ``test_cover.py`` and
``test_acceptance.py`` compare with the polygon surfaces.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import gf2
from involab.cover import SurfacePresentation, build_cover, presentation
from involab.errors import CrossCheckError

BASES = {
    "rp2": presentation(False, 1),
    "torus": presentation(True, 1),
    "klein": presentation(False, 2),
    "n3": presentation(False, 3),
    "genus2": presentation(True, 2),
}


def columns(B, rows):
    cols = [0] * B.generator_count
    for r, row in enumerate(rows):
        for i in range(B.generator_count):
            if (row >> i) & 1:
                cols[i] |= 1 << r
    return cols


def edge_uses(faces, edge_count):
    """For each edge id, its (face index, direction) traversals in face order;
    a face is a word of (edge id, direction) traversals, direction +1 or -1."""
    uses = [[] for _ in range(edge_count)]
    for f, word in enumerate(faces):
        for eid, s in word:
            uses[eid].append((f, s))
    return uses


def orient(faces, uses):
    """Face signs in {+1, -1} under which every edge is traversed once in
    each direction, or None if no such signs exist.

    ``uses`` is ``edge_uses(faces, ...)`` and must list exactly two
    traversals for every edge the faces cross. The first face of each
    component gets +1; the rest of the component is forced from it.
    """
    signs = [0] * len(faces)
    for f0 in range(len(faces)):
        if signs[f0]:
            continue
        signs[f0] = 1
        stack = [f0]
        while stack:
            f = stack.pop()
            for eid, _ in faces[f]:
                (c1, s1), (c2, s2) = uses[eid]
                # opposite directions once signs apply: sign(c1)*s1 = -sign(c2)*s2
                other = c2 if c1 == f else c1
                required = -signs[f] * s1 * s2
                if not signs[other]:
                    signs[other] = required
                    stack.append(other)
                elif signs[other] != required:
                    return None
    return signs


def oracle_boundaries(B, phi):
    """Face q's boundary as (edge id, direction) traversals, for every sheet q."""
    n = len(phi)
    sheets = 1 << n
    cols = columns(B, phi)
    boundaries = []
    for q in range(sheets):
        v = q
        path = []
        for i, s in B.word:
            shift = cols[i]
            start = v if s > 0 else v ^ shift
            path.append((i * sheets + start, s))
            v ^= shift
        if v != q:
            raise CrossCheckError("relator did not close up in the cover")
        boundaries.append(tuple(path))
    return boundaries


def face_components(boundaries):
    """Components of the glued polygons, joining faces that share an edge id."""
    parent = list(range(len(boundaries)))

    def root(f):
        while parent[f] != f:
            f = parent[f]
        return f

    first_face = {}
    for f, word in enumerate(boundaries):
        for eid, _ in word:
            parent[root(f)] = root(first_face.setdefault(eid, f))
    return sum(parent[f] == f for f in range(len(parent)))


def prop2_tower(B):
    """Quotient tower: epimorphisms onto (Z/2)^n for n = B.generator_count down to 1.

    Generators are killed one at a time in order a_1, b_1, a_2, ...; the
    rank-n member projects mod-2 homology onto the last n generator
    coordinates, so its matrix rows are the standard basis vectors
    e_(d-n+1), ..., e_d.
    """
    d = B.generator_count
    return [(n, tuple(1 << (d - n + r) for r in range(n))) for n in range(d, 0, -1)]


def oracle_cover(B, phi):
    """``to_report()`` of the cover glued sheet by sheet; raises like the package."""
    rows = tuple(phi)
    n = len(rows)
    sheets = 1 << n
    edge_count = B.generator_count * sheets
    boundaries = oracle_boundaries(B, rows)
    uses = edge_uses(boundaries, edge_count)
    for eid, u in enumerate(uses):
        if len(u) != 2:
            raise CrossCheckError(f"edge {eid} traversed {len(u)} times; expected exactly 2")
    components = 1 << (n - gf2.rank(columns(B, rows)))
    by_faces = face_components(boundaries)
    if by_faces != components:
        raise CrossCheckError(
            f"component mismatch: vertices give {components}, faces give {by_faces}"
        )
    orientable = orient(boundaries, uses) is not None
    algebraic = gf2.in_span(B.orientation_character, rows)
    if algebraic != orientable:
        raise CrossCheckError(
            f"orientability mismatch: character test says {algebraic}, "
            f"sign propagation says {orientable}"
        )
    chi = 2 * sheets - edge_count
    genus = None
    if components == 1:
        if orientable:
            if chi % 2:
                raise CrossCheckError(f"orientable cover with odd chi={chi}")
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
    return {
        "n": n,
        "base": {"orientable": B.orientable, "genus": B.genus},
        "chi": chi,
        "components": components,
        "orientable": orientable,
        "genus": genus,
    }


def outcome(classify, B, phi):
    try:
        return classify(B, phi)
    except CrossCheckError as exc:
        return f"CrossCheckError: {exc}"


def agree(B, phi):
    expected = outcome(oracle_cover, B, phi)
    got = outcome(lambda B, phi: build_cover(B, phi).to_report(), B, phi)
    assert got == expected, (B, phi)
    return expected


@pytest.mark.parametrize("name", list(BASES))
def test_one_sheet_matches_the_glued_cover_exhaustively(name):
    """Every matrix with n <= 3 rows over the base."""
    B = BASES[name]
    for n in range(4):
        for rows in itertools.product(range(1 << B.generator_count), repeat=n):
            assert isinstance(agree(B, rows), dict)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([(True, g) for g in (1, 2, 3)] + [(False, g) for g in range(1, 7)]),
    st.data(),
)
def test_one_sheet_matches_the_glued_cover_on_random_matrices(base, data):
    """d <= 6 generators, n <= 8 rows."""
    B = presentation(*base)
    rows = data.draw(st.lists(st.integers(0, (1 << B.generator_count) - 1), max_size=8))
    assert isinstance(agree(B, rows), dict)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([(True, 1), (True, 2)] + [(False, g) for g in range(1, 5)]), st.data())
def test_one_sheet_raises_like_the_glued_cover_on_random_words(base, data):
    """Words that may not close up, may cross a generator other than
    twice, may join faces differently from vertices, or may carry a
    wrong orientation label: the same report or the same message."""
    d = presentation(*base).generator_count
    # each generator twice, in any order and directions, then maybe one
    # letter dropped or repeated
    gens = data.draw(st.permutations([i for i in range(d) for _ in "ab"]))
    word = [(i, data.draw(st.sampled_from([1, -1]))) for i in gens]
    k = data.draw(st.integers(0, len(word) - 1))
    word[k:k + 1] = data.draw(st.sampled_from([[word[k]], [], [word[k]] * 2]))
    B = SurfacePresentation(*base, tuple(word))
    agree(B, data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=4)))


@pytest.mark.parametrize(
    "B, rows, message",
    [
        (SurfacePresentation(False, 1, ((0, 1),)), [0b1], "did not close"),
        (SurfacePresentation(False, 2, ((0, 1), (0, 1))), [], "edge 1 traversed 0 times"),
        (SurfacePresentation(False, 1, ((0, 1),) * 4), [0b1], "edge 0 traversed 4 times"),
        # b b^-1 gives the polygon a second vertex, so joining the sheets by
        # phi's columns undercounts: each face here is glued only to itself
        (SurfacePresentation(False, 2, ((0, 1), (0, 1), (1, 1), (1, -1))), [0b10],
         "component mismatch: vertices give 1, faces give 2"),
        (SurfacePresentation(True, 1, BASES["klein"].word), [], "orientability mismatch"),
    ],
    ids=["open", "unused", "four-times", "two-vertex", "mislabelled"],
)
def test_malformed_words_raise_the_same_message(B, rows, message):
    expected = agree(B, rows)
    assert isinstance(expected, str) and message in expected
