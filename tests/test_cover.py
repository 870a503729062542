"""Regular (Z/2)^n covers of one-polygon surfaces.

The frozen examples are classical: the double cover of the projective
plane is the sphere, the orientation double cover of N3 has genus 2,
and the Klein bottle has both a Klein and a torus double cover. The
sweep tests re-derive Euler characteristic, component count, and
orientability from the matrix alone and compare against the built
complex, which additionally runs its own internal cross-checks.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import gf2
from involab.cover import (
    MAX_COVER_RANK,
    MAX_GENERATORS,
    CoverComplex,
    SurfacePresentation,
    build_cover,
    parse_phi,
    presentation,
)
from involab.errors import CapError, CrossCheckError, ValidationError
from test_cover_oracle import face_components, oracle_boundaries, prop2_tower

TORUS = presentation(True, 1)
GENUS2 = presentation(True, 2)
RP2 = presentation(False, 1)
KLEIN = presentation(False, 2)
N3 = presentation(False, 3)


def test_presentation_words():
    assert TORUS.word == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert KLEIN.word == ((0, 1), (0, 1), (1, 1), (1, 1))
    assert GENUS2.generator_count == 4
    assert GENUS2.euler_characteristic == -2
    assert N3.generator_count == 3
    assert N3.euler_characteristic == -1
    assert TORUS.orientation_character == 0
    assert N3.orientation_character == 0b111


def test_presentation_rejects_genus_zero():
    with pytest.raises(ValidationError):
        presentation(True, 0)
    with pytest.raises(ValidationError):
        presentation(False, 0)


def test_rank_bound():
    # the rank bound for a free action on the cover side is the generator count
    assert TORUS.generator_count == 2
    assert GENUS2.generator_count == 4
    assert RP2.generator_count == 1
    assert N3.generator_count == 3


def test_trivial_cover_is_the_base():
    for B, genus in [(TORUS, 1), (KLEIN, 2), (N3, 3), (GENUS2, 2)]:
        cover = build_cover(B, [])
        assert cover.sheets == 1
        assert cover.chi == B.euler_characteristic
        assert cover.components == 1
        assert cover.orientable == B.orientable
        assert cover.genus == genus


def test_projective_plane_double_cover_is_sphere():
    cover = build_cover(RP2, [0b1])
    assert (cover.sheets, cover.chi) == (2, 2)
    assert cover.orientable and cover.genus == 0
    assert cover.components == 1


def test_klein_bottle_double_covers():
    same = build_cover(KLEIN, [0b01])
    assert not same.orientable
    assert (same.chi, same.genus) == (0, 2)  # another Klein bottle

    torus = build_cover(KLEIN, [0b11])
    assert torus.orientable
    assert (torus.chi, torus.genus) == (0, 1)


def test_orientation_double_cover_of_n3():
    cover = build_cover(N3, [0b111])
    assert cover.orientable
    assert (cover.chi, cover.genus) == (-2, 2)


def test_disconnected_cover_has_no_genus():
    cover = build_cover(TORUS, [0b01, 0b00])
    assert cover.sheets == 4
    assert cover.components == 2
    assert cover.genus is None


def test_to_report_shape():
    report = build_cover(N3, [0b111]).to_report()
    assert report == {
        "n": 1,
        "base": {"orientable": False, "genus": 3},
        "chi": -2,
        "components": 1,
        "orientable": True,
        "genus": 2,
    }


def test_every_edge_traversed_twice():
    cover = build_cover(GENUS2, [0b0011, 0b1100])
    boundaries = oracle_boundaries(GENUS2, [0b0011, 0b1100])
    counts = Counter(eid for path in boundaries for eid, _ in path)
    assert len(counts) == cover.edge_count
    assert set(counts.values()) == {2}


def test_deck_group_translates_face_boundaries():
    sheets = build_cover(TORUS, [0b01, 0b10]).sheets
    boundaries = oracle_boundaries(TORUS, [0b01, 0b10])
    for t in range(sheets):
        for q in range(sheets):
            translated = tuple(
                ((eid // sheets) * sheets + ((eid % sheets) ^ t), s)
                for eid, s in boundaries[q]
            )
            assert boundaries[q ^ t] == translated


@pytest.mark.parametrize(
    "B",
    [RP2, TORUS, KLEIN, N3],
    ids=["rp2", "torus", "klein", "n3"],
)
def test_cover_laws_exhaustively(B):
    """chi, components, and orientability for every matrix with n <= 3 rows."""
    d = B.generator_count
    w = B.orientation_character
    for n in range(4):
        for rows in itertools.product(range(1 << d), repeat=n):
            cover = build_cover(B, rows)
            assert cover.chi == cover.sheets * B.euler_characteristic
            assert cover.components == 1 << (n - gf2.rank(rows))
            assert cover.components == face_components(oracle_boundaries(B, rows))
            assert cover.orientable == gf2.in_span(w, rows)
            if cover.components == 1 and cover.orientable:
                assert cover.chi == 2 - 2 * cover.genus


def span_set(rows):
    """Every GF(2) combination of the rows, by doubling; no gf2 routine."""
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([(True, g) for g in (1, 2, 3)] + [(False, g) for g in range(1, 7)]),
    st.data(),
)
def test_cover_laws_on_random_matrices(base, data):
    """The laws the f-resolver relies on, for random phi with d <= 6 and
    n <= 6: chi multiplies by 2^n, components = 2^(n - rank phi), and the
    cover is orientable iff w is in the row space."""
    B = presentation(*base)
    d = B.generator_count
    rows = data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=6))
    n = len(rows)
    span = span_set(rows)
    rank = len(span).bit_length() - 1
    cover = build_cover(B, rows)
    assert cover.chi == (1 << n) * B.euler_characteristic
    assert cover.components == 1 << (n - rank) == face_components(oracle_boundaries(B, rows))
    assert cover.orientable == (B.orientation_character in span)
    if cover.components == 1:
        assert cover.chi == (2 - 2 * cover.genus if cover.orientable else 2 - cover.genus)


def test_cover_orientable_matches_character_test():
    assert not build_cover(KLEIN, [0b01]).orientable
    assert build_cover(KLEIN, [0b11]).orientable
    assert build_cover(TORUS, [0b10]).orientable


def test_prop2_tower_of_genus2():
    tower = prop2_tower(GENUS2)
    assert tower == [
        (4, (0b0001, 0b0010, 0b0100, 0b1000)),
        (3, (0b0010, 0b0100, 0b1000)),
        (2, (0b0100, 0b1000)),
        (1, (0b1000,)),
    ]
    top = build_cover(GENUS2, tower[0][1])
    assert top.components == 1
    assert top.orientable
    assert top.genus == 17  # chi = 16 * (-2), so 1 + 2^3 * (4 - 2)


def test_prop2_tower_of_n3():
    assert prop2_tower(N3) == [(3, (0b001, 0b010, 0b100)), (2, (0b010, 0b100)), (1, (0b100,))]
    for n, rows in prop2_tower(N3):
        cover = build_cover(N3, rows)
        assert cover.components == 1
        assert cover.chi == -(1 << n)


def test_generator_cap():
    assert presentation(False, MAX_GENERATORS).generator_count == MAX_GENERATORS
    with pytest.raises(CapError):
        presentation(False, MAX_GENERATORS + 1)
    with pytest.raises(CapError):
        presentation(True, MAX_GENERATORS // 2 + 1)


def test_phi_row_must_fit_generators():
    with pytest.raises(ValidationError):
        build_cover(TORUS, [0b100])
    with pytest.raises(ValidationError):
        build_cover(TORUS, [-1])


def test_build_cover_raises_when_the_relator_does_not_close():
    # a word crossing its one generator once lifts to an open path
    broken = SurfacePresentation(False, 1, ((0, 1),))
    with pytest.raises(CrossCheckError, match="did not close"):
        build_cover(broken, [0b1])


def test_build_cover_raises_when_an_edge_is_not_used_twice():
    # the second generator appears in no letter, so its lifts bound nothing
    broken = SurfacePresentation(False, 2, ((0, 1), (0, 1)))
    with pytest.raises(CrossCheckError, match="traversed 0 times"):
        build_cover(broken, [])


def test_build_cover_raises_when_the_two_orientability_tests_disagree():
    # the Klein bottle word labelled orientable: its character says
    # orientable, sign propagation over the glued polygon says not
    mislabelled = SurfacePresentation(True, 1, KLEIN.word)
    with pytest.raises(CrossCheckError, match="orientability mismatch"):
        build_cover(mislabelled, [])


@pytest.mark.parametrize("orientable, genus", [(True, 11), (False, 22)])
def test_build_cover_glues_no_sheet(orientable, genus):
    """2^20 sheets over a base with 22 generators, classified from one
    sheet: onto or not, orientable or not. ``test_package.py`` pins that
    ``cover`` loads no module but itself and ``gf2``."""
    B = presentation(orientable, genus)
    d, w, n = B.generator_count, B.orientation_character, MAX_COVER_RANK
    units = [1 << r for r in range(n)]
    for rows in [units, [w] + units[1:], units[:-1] + [units[0]], [w] * 2 + units[2:]]:
        cover = build_cover(B, rows)
        assert cover.sheets == 1 << n
        assert cover.chi == (1 << n) * (2 - d)
        assert cover.components == 1 << (n - gf2.rank(rows))
        assert cover.orientable == gf2.in_span(w, rows)


def test_rank_cap():
    with pytest.raises(CapError):
        build_cover(RP2, [1] * 21)


def test_parse_phi():
    text = "# comment\n1 0 1\n\n0 1 1  # trailing\n"
    assert parse_phi(text, 3) == (0b101, 0b110)
    assert parse_phi("", 2) == ()
    with pytest.raises(ValidationError, match="line 1"):
        parse_phi("1 0", 3)
    with pytest.raises(ValidationError, match="line 2"):
        parse_phi("1 1\n2 0\n", 2)


def test_cover_complex_is_frozen():
    cover = build_cover(RP2, [1])
    assert isinstance(cover, CoverComplex)
    with pytest.raises(AttributeError):
        cover.genus = 5
