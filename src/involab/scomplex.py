"""Abstract simplicial complexes on the vertex set {1, ..., m}.

Faces are stored as int bitmasks: vertex i is bit i-1, the empty face is
mask 0 and is always present. A complex is immutable once constructed and
downward closed by construction; ``from_facets`` closes its input, and
``polygon_boundary`` emits the boundary cycle of an m-gon directly.

Vertices may be "ghosts": m counts ambient coordinates, and a vertex that
appears in no face (not even as a singleton) is legal.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import CapError, ValidationError

MAX_VERTICES = 1024  # every constructor refuses m above this, before it builds a mask
MAX_FACES = 1 << 20  # the downward closure refuses facets with more faces in all


def mask_of(vertices: Iterable[int], m: int) -> int:
    """Bitmask of a set of 1-based vertices, validated against [1, m]."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= m:
            raise ValidationError(f"vertex {v} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertices of a face mask."""
    if mask < 0:  # infinitely many set bits
        raise ValueError("a face mask is nonnegative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _downward_closure(facets: list[int]) -> frozenset[int]:
    if sum(1 << f.bit_count() for f in facets) > MAX_FACES:
        raise CapError(f"the facets have more than the face cap of {MAX_FACES} faces")
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    return frozenset(faces)


class _Complex(NamedTuple):  # a NamedTuple body may not define __new__; the subclass checks
    m: int
    faces: frozenset[int]


class SimplicialComplex(_Complex):
    """A downward-closed face set over m ambient vertices.

    ``faces`` always contains 0 (the empty face). Equality and hashing are
    structural. Use the module constructors rather than building by hand;
    they guarantee the closure invariant.
    """

    __slots__ = ()

    def __new__(cls, m: int, faces: frozenset[int] = frozenset({0})) -> SimplicialComplex:
        if m < 0:
            raise ValidationError("m must be nonnegative")
        if m > MAX_VERTICES:
            raise CapError(f"m={m} exceeds the vertex cap {MAX_VERTICES}")
        for f in faces:  # faster than min() and max(); a negative f >> m is -1
            if f >> m:
                raise ValidationError("face mask exceeds ambient vertex set")
        if 0 not in faces:
            raise ValidationError("the empty face must be present")
        return super().__new__(cls, m, faces)

    @property
    def dim(self) -> int:
        """Dimension: largest face cardinality minus one; -1 for {0} alone."""
        return max(map(int.bit_count, self.faces)) - 1


def from_facets(m: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Complex generated by the given facets (downward closure is taken)."""
    if m > MAX_VERTICES:
        raise CapError(f"m={m} exceeds the vertex cap {MAX_VERTICES}")
    masks = [mask_of(f, m) for f in facets]
    return SimplicialComplex(m, _downward_closure(masks))


def polygon_boundary(m: int) -> SimplicialComplex:
    """Boundary of the m-gon: vertices 1..m, edges {i, i+1} cyclically.

    Needs m >= 3. Face count is 2m + 1 (empty face, m vertices, m edges).
    For m = 3 this is the full triangle boundary, every pair is an edge.
    """
    if m < 3:
        raise ValidationError(f"a polygon needs at least 3 vertices, got m={m}")
    if m > MAX_VERTICES:
        raise CapError(f"m={m} exceeds the vertex cap {MAX_VERTICES}")
    edges = [(i, i % m + 1) for i in range(1, m + 1)]
    return from_facets(m, edges)


def parse_complex(text: str) -> SimplicialComplex:
    """Read the plain-text complex format.

    First data line is m; each further non-empty line is one facet as
    space-separated 1-based vertex indices. ``#`` starts a comment, blank
    lines are skipped, surrounding whitespace is ignored.
    """
    data: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            data.append((lineno, tokens))
    if not data:
        raise ValidationError("empty complex description")
    lineno, head = data[0]
    if len(head) != 1:
        raise ValidationError(f"line {lineno}: expected a single integer m")
    try:
        m = int(head[0])
    except ValueError:
        raise ValidationError(f"line {lineno}: m is not an integer") from None
    if m > MAX_VERTICES:
        raise CapError(f"line {lineno}: m={m} exceeds the vertex cap {MAX_VERTICES}")
    facets = []
    for lineno, tokens in data[1:]:
        try:
            verts = [int(t) for t in tokens]
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer vertex") from None
        try:
            facets.append(mask_of(verts, m))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return SimplicialComplex(m, _downward_closure(facets))


def read_complex(path: str) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())
