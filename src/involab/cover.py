"""Surfaces as one-vertex polygon gluings and their regular (Z/2)^n covers.

A closed surface of genus g is presented by a single 2g- or g-handled
polygon word on generators a_1, a_2, ...: the orientable word is the
product of commutators [a_1, a_2][a_3, a_4]..., the nonorientable word is
a_1 a_1 a_2 a_2 ... . One vertex, d edges, one face, chi = 2 - d.

A homomorphism from the free group on the generators to (Z/2)^n that
kills the relator factors through mod-2 homology, so it is just a GF(2)
matrix phi with n rows and d columns. The associated cover has one sheet
per group element, each carrying one vertex and one polygon. The
cover's Euler characteristic is 2^n times the base's by counting, it is
connected iff phi is onto, and it is orientable iff the orientation
character (the mod-2 word map recording which generators reverse
orientation) vanishes on the kernel of phi, equivalently lies in phi's
row space.

The deck group acts on the sheets by XOR, so ``build_cover`` reads every
polygon off sheet 0's walk along the base word, in O(|word| + d·n).
Components are counted from the vertices and from the faces, and
orientability by the row-space test and by sign propagation solved over
the deck group, all four as GF(2) rank or span tests that stop at an
echelon form; a disagreement raises instead of returning anything.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import gf2
from .errors import CapError, CrossCheckError, ValidationError

# build_cover allocates nothing 2^n-sized, and Python prints its report's
# 2^n-sized counts up to n ~ 14,000; what grows is the time of the transpose
# and the eliminations, O(n*d) bit steps for d generators (0.21 s at
# n = 1,000, 2.0 s at n = 3,000 on a 2-vCPU VM). Refuse rank n above this.
MAX_COVER_RANK = 20
MAX_GENERATORS = 1 << 16  # the base word is materialized; refuse more generators


class SurfacePresentation(NamedTuple):
    """One-vertex polygon presentation of a closed surface of genus >= 1."""

    orientable: bool
    genus: int
    word: tuple[tuple[int, int], ...]  # (generator index, +1 or -1)

    @property
    def generator_count(self) -> int:
        return 2 * self.genus if self.orientable else self.genus

    @property
    def euler_characteristic(self) -> int:
        return 2 - self.generator_count

    @property
    def orientation_character(self) -> int:
        """GF(2) vector marking orientation-reversing generators.

        Zero for orientable words; all ones for the standard crosscap
        word, where every generator reverses.
        """
        if self.orientable:
            return 0
        return (1 << self.generator_count) - 1


def presentation(orientable: bool, genus: int) -> SurfacePresentation:
    """Standard presentation; genus 0 has no one-polygon word here."""
    if not isinstance(genus, int):  # a bool is an int
        raise ValidationError(f"genus must be an int, got {genus!r}")
    if genus < 1:
        raise ValidationError(f"presentation needs genus >= 1, got {genus}")
    generators = 2 * genus if orientable else genus
    if generators > MAX_GENERATORS:
        raise CapError(f"{generators} generators exceed the generator cap {MAX_GENERATORS}")
    word: list[tuple[int, int]] = []
    if orientable:
        for i in range(genus):
            a, b = 2 * i, 2 * i + 1
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
    else:
        for i in range(genus):
            word += [(i, 1), (i, 1)]
    return SurfacePresentation(orientable, genus, tuple(word))


class CoverComplex(NamedTuple):
    """A classified regular cover: 2^n sheets over a one-polygon base.

    Cells are indexed, never stored: vertex q and face q run over range(2^n),
    and edge (i, q), id i * 2^n + q, lifts generator i from sheet q. The deck
    group acts on all three by XOR on q, so face q's boundary is sheet 0's
    walk along the base word with every edge's sheet XORed by q.
    """

    base: SurfacePresentation
    n: int
    sheets: int
    edge_count: int
    chi: int
    components: int
    orientable: bool
    genus: int | None

    def to_report(self) -> dict:
        return {
            "n": self.n,
            "base": {"orientable": self.base.orientable, "genus": self.base.genus},
            "chi": self.chi,
            "components": self.components,
            "orientable": self.orientable,
            "genus": self.genus,
        }


def build_cover(B: SurfacePresentation, phi: Sequence[int]) -> CoverComplex:
    """Classify the 2^n-sheeted cover determined by the GF(2) matrix phi.

    Raises ValidationError unless every row of phi is an int that fits
    B's generator columns. Checks on sheet 0's walk, rather than assumes, that the
    relator lifts to closed paths crossing every edge twice, and that both
    derivations of components and of orientability (sign propagation, and
    the orientation character in phi's row space) agree (CrossCheckError
    otherwise).
    """
    d = B.generator_count
    rows = tuple(phi)
    try:
        for r in rows:
            if r < 0 or r >> d:
                raise ValidationError(f"phi row {r:#b} does not fit {d} generator columns")
    except TypeError:  # a bool is an int
        raise ValidationError(f"phi row {r!r} is not an int") from None
    n = len(rows)
    if n > MAX_COVER_RANK:
        raise CapError(f"cover rank n={n} exceeds the sheet cap {MAX_COVER_RANK} (2^n sheets)")
    sheets = 1 << n
    # column i of phi, as an n-bit deck element: the phi-image of a_i
    cols = [0] * d
    for r, row in enumerate(rows):
        while row:
            i = row.bit_length() - 1
            cols[i] |= 1 << r
            row ^= 1 << i

    # sheet 0's walk: on sheet q, a letter (i, s) starting at a crosses edge (i, q ^ a)
    letters: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    v = 0
    for i, s in B.word:
        letters[i].append((v if s > 0 else v ^ cols[i], s))
        v ^= cols[i]
    if v:  # the walk from sheet q ends at q ^ v
        raise CrossCheckError("relator did not close up in the cover")

    # every edge (i, q) is crossed once per letter of generator i; with two
    # letters starting at a and b, faces q and q ^ a ^ b share it, and
    # oriented signs need sign(q ^ a ^ b) = -s1 * s2 * sign(q)
    joins, parities = [], []
    for i, uses in enumerate(letters):
        if len(uses) != 2:
            raise CrossCheckError(
                f"edge {i * sheets} traversed {len(uses)} times; expected exactly 2"
            )
        (a, s1), (b, s2) = uses
        joins.append(a ^ b)
        parities.append(a ^ b | (s1 == s2) << n)

    # vertices are the sheets joined by the columns, faces the sheets
    # joined by the shared edges: components are cosets of either span
    components = 1 << (n - gf2.rank(cols))
    by_faces = 1 << (n - gf2.rank(joins))
    if by_faces != components:
        raise CrossCheckError(
            f"component mismatch: vertices give {components}, faces give {by_faces}"
        )
    # signs exist iff no cycle of joins flips an odd number of times
    orientable = not gf2.in_span(1 << n, parities)

    algebraic = gf2.in_span(B.orientation_character, rows)
    if algebraic != orientable:
        raise CrossCheckError(
            f"orientability mismatch: character test says {algebraic}, "
            f"sign propagation says {orientable}"
        )

    edge_count = d * sheets
    chi = sheets - edge_count + sheets
    genus: int | None = None
    if components == 1:
        if orientable:
            if chi % 2:
                raise CrossCheckError(f"orientable cover with odd chi={chi}")
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
    return CoverComplex(
        base=B,
        n=n,
        sheets=sheets,
        edge_count=edge_count,
        chi=chi,
        components=components,
        orientable=orientable,
        genus=genus,
    )


def parse_phi(source: str | Iterable[str], d: int) -> tuple[int, ...]:
    """Read a GF(2) matrix from a str or an iterable of lines: one row per
    line, d space-separated bits, in the text format of ``scomplex.records``.

    An empty matrix (n = 0) is allowed and denotes the trivial cover; the
    row past ``MAX_COVER_RANK`` is refused before another line is read.
    """
    from .scomplex import records  # here, so that f and figure load no scomplex
    rows = []
    for lineno, tokens in records(source):
        if len(rows) == MAX_COVER_RANK:
            raise CapError(f"line {lineno}: phi has more rows than the sheet cap "
                           f"{MAX_COVER_RANK} (2^n sheets)")
        if len(tokens) != d:
            raise ValidationError(
                f"line {lineno}: expected {d} bits, got {len(tokens)}"
            )
        row = 0
        for i, t in enumerate(tokens):
            if t == "1":
                row |= 1 << i
            elif t != "0":
                raise ValidationError(f"line {lineno}: bit must be 0 or 1, got {t!r}")
        rows.append(row)
    return tuple(rows)
