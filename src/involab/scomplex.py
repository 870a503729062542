"""Abstract simplicial complexes on the vertex set {1, ..., m}.

Faces are stored as int bitmasks: vertex i is bit i-1, and the empty set,
mask 0, is always a face. A complex is immutable once constructed and
downward closed by construction: ``SimplicialComplex`` closes its masks, and
``from_facets`` and ``polygon_boundary`` (through ``from_facets``) call it.

Vertices may be "ghosts": m counts ambient coordinates, and a vertex that
appears in no face (not even as a singleton) is legal.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import CapError, ValidationError

MAX_VERTICES = 1024  # every constructor refuses m above this, before it builds a mask
MAX_FACES = 1 << 20  # SimplicialComplex refuses masks with more subsets than this in all


def mask_of(vertices: Iterable[int], m: int) -> int:
    """Bitmask of a set of 1-based vertices, validated against [1, m]."""
    mask = 0
    try:
        for v in vertices:
            try:
                if not 1 <= v <= m:
                    raise ValidationError(f"vertex {v} out of range 1..{m}")
                mask |= 1 << (v - 1)
            except TypeError:  # a bool is an int
                raise ValidationError(f"vertex {v!r} is not an int") from None
    except TypeError:  # only the iteration itself is left to raise one
        raise ValidationError(f"a facet must be iterable, got {vertices!r}") from None
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


class _Complex(NamedTuple):  # a NamedTuple may not define __new__; the subclass checks and closes
    m: int
    faces: frozenset[int]


class SimplicialComplex(_Complex):
    """A downward-closed face set over m ambient vertices.

    ``faces`` is any iterable of face masks, facets enough: the constructor
    adds every subset of each, the empty set 0 included, after it has
    refused masks outside the m vertices and masks with more than
    ``MAX_FACES`` subsets in all. That count repeats a subset of two masks,
    so past the cap it is taken again without the masks that lie one
    vertex below another mask: a closed face set then counts its facets'
    subsets alone. Equality and hashing are structural. ``_make``, and so
    ``_replace``, calls the constructor too.
    """

    __slots__ = ()

    def __new__(cls, m: int, faces: Iterable[int] = ()) -> SimplicialComplex:
        if not isinstance(m, int):  # a bool is an int
            raise ValidationError(f"m must be an int, got {m!r}")
        if m < 0:
            raise ValidationError("m must be nonnegative")
        if m > MAX_VERTICES:
            raise CapError(f"m={m} exceeds the vertex cap {MAX_VERTICES}")
        try:
            masks = list(faces)
        except TypeError:
            raise ValidationError(f"faces must be iterable, got {faces!r}") from None
        try:
            for f in masks:  # faster than min() and max(); a negative f >> m is -1
                if f >> m:
                    raise ValidationError("face mask exceeds ambient vertex set")
        except TypeError:  # a bool is an int
            raise ValidationError(f"face mask {f!r} is not an int") from None
        if sum(1 << f.bit_count() for f in masks) > MAX_FACES:  # repeats counted
            masks = set(masks)
            below = set()  # the masks one vertex below another given mask
            for f in masks:
                rest = f
                while rest:
                    low = rest & -rest
                    below.add(f ^ low)
                    rest ^= low
            masks -= below
            if sum(1 << f.bit_count() for f in masks) > MAX_FACES:
                raise CapError(f"the facets have more than the face cap of {MAX_FACES} faces")
        closed = {0}
        for f in masks:
            sub = f
            while sub:
                closed.add(sub)
                sub = (sub - 1) & f
        return super().__new__(cls, m, frozenset(closed))

    @classmethod
    def _make(cls, iterable: Iterable) -> SimplicialComplex:
        return cls(*iterable)

    @property
    def dim(self) -> int:
        """Dimension: largest face cardinality minus one; -1 for {0} alone."""
        return max(map(int.bit_count, self.faces)) - 1


def from_facets(m: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Complex generated by facets as 1-based vertex lists; m is checked before one is read."""
    if not isinstance(m, int) or not 0 <= m <= MAX_VERTICES:
        SimplicialComplex(m)  # raises the constructor's type, sign or cap error
    try:
        masks = [mask_of(f, m) for f in facets]
    except TypeError:  # mask_of raises no TypeError
        raise ValidationError(f"facets must be iterable, got {facets!r}") from None
    return SimplicialComplex(m, masks)


def polygon_boundary(m: int) -> SimplicialComplex:
    """Boundary of the m-gon: vertices 1..m, edges {i, i+1} cyclically.

    Needs m >= 3. Face count is 2m + 1 (the empty set, m vertices, m edges).
    For m = 3 this is the full triangle boundary, every pair is an edge.
    """
    if not isinstance(m, int):  # a bool is an int
        raise ValidationError(f"m must be an int, got {m!r}")
    if m < 3:
        raise ValidationError(f"a polygon needs at least 3 vertices, got m={m}")
    return from_facets(m, ((i, i % m + 1) for i in range(1, m + 1)))


def records(source: str | Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line of the text format that has a token.

    ``source`` is a str or an iterable of lines, such as a file opened with
    ``errors="surrogateescape"``, which is read one line at a time. Lines
    end where ``str.splitlines`` ends them and are numbered from 1, so a
    file gives the numbers of its decoded text. ``#`` starts a comment and
    tokens are split at any whitespace. A line holding a lone surrogate,
    which is how surrogateescape decodes a byte that is not UTF-8, is
    refused with that byte, as is a source or a line that is not text.
    """
    try:
        chunks = iter((source,) if isinstance(source, str) else source)
    except TypeError:
        raise ValidationError(f"source must be a str or an iterable of lines, got {source!r}") from None
    n = 0
    for chunk in chunks:
        try:
            lines = str.splitlines(chunk)
        except TypeError:
            raise ValidationError(f"source line {n + 1} must be a str, got {chunk!r}") from None
        for raw in lines:
            n += 1
            if not raw.isascii():
                try:
                    raw.encode()
                except UnicodeEncodeError as exc:  # surrogateescape reads byte b as U+DC00 + b
                    bad = ord(raw[exc.start]) - 0xDC00
                    what = f"byte 0x{bad:02x}" if 0x80 <= bad <= 0xFF else repr(raw[exc.start])
                    raise ValidationError(f"line {n}: {what} is not UTF-8") from None
            tokens = raw.partition("#")[0].split()
            if tokens:
                yield n, tokens


def parse_complex(source: str | Iterable[str]) -> SimplicialComplex:
    """Read the plain-text complex format from a str or an iterable of lines.

    First data line is m; each further non-empty line is one facet as
    space-separated 1-based vertex indices, read by ``records``. Facet
    lines are read one at a time and their masks kept in a set, which is
    refused at the line where it passes ``MAX_FACES``: each mask is a
    distinct nonempty face, so the constructor would refuse it too.
    """
    lines = records(source)
    for lineno, head in lines:  # the header; the facet loop goes on from the next line
        break
    else:
        raise ValidationError("empty complex description")
    if len(head) != 1:
        raise ValidationError(f"line {lineno}: expected a single integer m")
    try:
        m = int(head[0])
    except ValueError:
        raise ValidationError(f"line {lineno}: m is not an integer") from None
    if m < 0:
        raise ValidationError(f"line {lineno}: m must be nonnegative, got {m}")
    if m > MAX_VERTICES:
        raise CapError(f"line {lineno}: m={m} exceeds the vertex cap {MAX_VERTICES}")
    facets = set()
    for lineno, tokens in lines:
        try:
            verts = [int(t) for t in tokens]
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer vertex") from None
        try:
            facets.add(mask_of(verts, m))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        if len(facets) > MAX_FACES:
            raise CapError(f"line {lineno}: the facets exceed the face cap of {MAX_FACES} faces")
    return SimplicialComplex(m, facets)


def read_complex(path: str) -> SimplicialComplex:
    # the package reads files through cli._read; bench/tracing.py still looks this name up
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_complex(fh)
