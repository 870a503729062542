"""Real moment-angle complexes as cubical subcomplexes of the m-cube.

For a simplicial complex K on {1..m}, the space is the union, over faces
I of K, of the blocks [-1,1]^I x {-1,1}^(complement). Its natural cubical
cell structure is encoded without geometry: a cell is a pair of bitmasks

    Cell(free, signs)

where ``free`` is the face I (coordinates ranging over [-1,1]) and
``signs`` fixes the remaining coordinates, bit b set meaning coordinate
b+1 equals -1. Sign bits on free coordinates are zero by convention, so
cells compare and hash as plain tuples. The dimension of a cell is the
popcount of ``free``.

There are 2^(m-|I|) cells with free set I, so every count is a closed
form in K's faces. The sign flips act by cell maps, transitively on the
cells of each face, so the closed-surface and orientation checks run on
K itself and list no cell; a closed surface here is always the one over
the m-gon, so orientable, one walk round K's cycle checks the links and
orients it, and ``genus`` returns the genus alone, checked against
``polygon_genus``. A
square with free coordinates i < j is oriented by the ordered frame
(x_i, x_j); only the consistency of induced boundary directions is ever
asserted, so the convention itself is not load-bearing.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import CapError, CrossCheckError, NotASurfaceError, ValidationError
from .scomplex import SimplicialComplex

MAX_CELL_M = 20  # cells() refuses m above this; it lists 2^(m-|I|) cells per face I


class Cell(NamedTuple):
    free: int
    signs: int

    @property
    def dim(self) -> int:
        return self.free.bit_count()


def _subsets_ascending(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` in increasing numeric order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


class CubicalSurface:
    """The cubical complex over K, indexed by K's faces rather than stored.

    Its d-cells are the pairs (face I of K with d vertices, signs on the
    coordinates outside I), so every count is a closed form in K's faces
    and ``build`` enumerates nothing. ``cells(d)`` lists the d-cells in
    increasing (free, signs) order, computed on first access and kept;
    no report calls it, and it refuses m > MAX_CELL_M, 2^m vertices
    alone being more than it can hold.
    """

    def __init__(self, K: SimplicialComplex):
        self.K = K
        self.m = K.m
        self._faces: dict[int, list[int]] = {}
        for face in sorted(K.faces):
            self._faces.setdefault(face.bit_count(), []).append(face)
        self._cells: dict[int, tuple[Cell, ...]] = {}

    @property
    def dim(self) -> int:
        return max(self._faces)

    def faces(self, d: int) -> list[int]:
        """The faces of K with d vertices, ascending: the free sets of the d-cells."""
        return self._faces.get(d, [])

    def cells(self, d: int) -> tuple[Cell, ...]:
        if self.m > MAX_CELL_M:
            raise CapError(f"m={self.m} exceeds the cell-listing cap {MAX_CELL_M}")
        if d not in self._cells:
            full = (1 << self.m) - 1
            self._cells[d] = tuple(
                Cell(f, s) for f in self.faces(d) for s in _subsets_ascending(full & ~f)
            )
        return self._cells[d]

    def _count(self, d: int) -> int:
        # 2^(m-d) cells per face; no face, no shift, so d > m gives 0
        return sum(1 << (self.m - d) for _ in self.faces(d))

    @property
    def vertex_count(self) -> int:
        return self._count(0)

    @property
    def edge_count(self) -> int:
        return self._count(1)

    @property
    def square_count(self) -> int:
        return self._count(2)


def build(K: SimplicialComplex) -> CubicalSurface:
    """The cubical complex over K; no cell is enumerated here, so any K
    that ``scomplex`` accepts builds, and only ``cells()`` is capped."""
    return CubicalSurface(K)


def euler_characteristic(K: SimplicialComplex) -> int:
    """Closed form sum over faces of (-1)^|I| 2^(m-|I|); no build, no cap."""
    m = K.m
    return sum((-1) ** f.bit_count() * (1 << (m - f.bit_count())) for f in K.faces)


def polygon_genus(m: int) -> int:
    """Genus of the surface over the m-gon boundary: 1 + 2^(m-3) (m-4).

    Integer for every m >= 3 (the m=3 case is 1 + (3-4) = 0, the sphere),
    and equal to (2 - chi)/2 with chi = 2^(m-2) (4-m).
    """
    if m < 3:
        raise ValidationError(f"polygon genus needs m >= 3, got {m}")
    return 1 + (1 << (m - 3)) * (m - 4)


class SurfaceReport(NamedTuple):
    """Outcome of the closed-surface checks, one flag per condition."""

    edges_in_two_squares: bool
    vertex_links_single_cycle: bool
    connected: bool

    @property
    def closed_surface(self) -> bool:
        return (
            self.edges_in_two_squares
            and self.vertex_links_single_cycle
            and self.connected
        )


def _cycle_walk(nodes: list[int], arcs: list[int]) -> list[int] | None:
    """The arcs, each a two-bit mask, in the order of one walk round them
    from arcs[0]'s lower node, or None unless they form one cycle through
    all the nodes, each a single bit; O(nodes + arcs)."""
    if not nodes or len(arcs) != len(nodes):  # a cycle has as many arcs as nodes
        return None
    ends: dict[int, list[int]] = {b: [] for b in nodes}
    for arc in arcs:
        for b in (arc & -arc, arc & (arc - 1)):
            ends.setdefault(b, []).append(arc ^ b)
    if len(ends) > len(nodes) or any(len(e) != 2 for e in ends.values()):
        return None
    # every node has degree 2, so the arcs form disjoint cycles: walk the one through arcs[0]
    start = arcs[0] & -arcs[0]
    walk, prev, here = [arcs[0]], start, arcs[0] ^ start
    while here != start:
        a, b = ends[here]
        prev, here = here, b if a == prev else a
        walk.append(prev | here)
    return walk if len(walk) == len(nodes) else None


def verify_closed_surface(C: CubicalSurface) -> SurfaceReport:
    """Check the three closed-surface conditions on K.

    Every edge must bound exactly two squares, the link of every vertex
    must be one cycle, and the complex must be connected; all three hold
    iff the complex is a closed surface. Complexes with cells above
    dimension 2 are rejected.
    """
    if C.dim > 2:
        raise ValidationError(f"closed-surface checks support dimension <= 2, got {C.dim}")
    # edge Cell(b, t) bounds one square per edge of K at b, so every edge
    # lies in two squares iff every vertex of K lies in two edges of K
    degree = [0] * C.m
    for e in C.faces(2):
        degree[e.bit_length() - 1] += 1
        degree[(e & -e).bit_length() - 1] += 1
    edges_ok = degree.count(2) == len(C.faces(1))

    # The link at vertex 0 stands for all: a node per edge Cell(v, 0), named
    # by its free bit, and an arc per square Cell(e, 0); that is K's 1-skeleton.
    links_ok = _cycle_walk(C.faces(1), C.faces(2)) is not None

    # an edge joins the vertices whose signs differ in its free bit, so the
    # components are the cosets of the span of K's vertices; those are
    # distinct unit vectors, so the span is everything iff all m are there
    connected = len(C.faces(1)) == C.m
    return SurfaceReport(edges_ok, links_ok, connected)


def orientability(C: CubicalSurface) -> dict[int, int]:
    """Orient the squares so that every edge gets opposite directions.

    Returns sigma, mapping each 2-face I of K to the sign of Cell(I, 0);
    square Cell(I, s) then has sign (-1)^popcount(s) sigma[I]. Raises
    NotASurfaceError unless C is a closed surface; then K is one cycle,
    and the walk round it always orients it.

    Square Cell({i < j}, 0) induces +1 on edge Cell(j, 0) and -1 on
    Cell(i, 0). sigma[e] is +1 where the walk climbs along e and -1 where
    it descends, so each e induces +1 on the vertex the walk enters and -1
    on the one it leaves: opposite directions at every Cell(b, 0), and +1
    on the first 2-face. That covers every edge: the two squares at
    Cell(b, t) are the flips by t of the two at Cell(b, 0), and the flip
    multiplies each square's sign (by the formula) and the direction it
    induces on the edge alike, by (-1)^popcount(t).
    """
    report = verify_closed_surface(C)
    if not report.closed_surface:
        raise NotASurfaceError(f"orientability needs a closed surface, got {report}")
    walk = _cycle_walk(C.faces(1), C.faces(2))
    sigma, here = {}, walk[0] & -walk[0]
    for e in walk:
        sigma[e] = 1 if here == e & -e else -1
        here ^= e  # e's other vertex
    return sigma


def genus(C: CubicalSurface) -> int:
    """The genus of a closed surface, which ``orientability`` always orients.

    chi = V - E + F from the closed-form cell counts, and the genus is
    (2 - chi)/2. K is then the m-gon, so the genus must also be
    polygon_genus(m).
    """
    orientability(C)  # raises NotASurfaceError if not closed
    chi = euler_characteristic(C.K)
    if chi % 2:
        raise CrossCheckError(f"orientable surface with odd chi={chi}")
    g = (2 - chi) // 2
    if g != polygon_genus(C.m):
        raise CrossCheckError(f"genus {g} over m={C.m}; the m-gon gives {polygon_genus(C.m)}")
    return g


def surface_report(C: CubicalSurface) -> dict:
    """Report dictionary with the fixed key set used by the command line."""
    chi = euler_characteristic(C.K)
    base = {
        "m": C.m,
        "V": C.vertex_count,
        "E": C.edge_count,
        "F": C.square_count,
        "chi": chi,
    }
    if C.dim > 2 or not verify_closed_surface(C).closed_surface:
        return {**base, "closed_surface": False, "orientable": None, "genus": None}
    return {**base, "closed_surface": True, "orientable": True, "genus": genus(C)}
