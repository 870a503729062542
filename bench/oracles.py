"""Output checks that do not trust the package.

Each check recomputes the expected answer from the job's own inputs with
code written here (face closure, GF(2) elimination, span scans, the
genus decomposition, mpmath's Lambert W) and compares it with what the
program printed. A check returns None when the output is right and a
one-line reason otherwise. Nothing here imports ``involab``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import lru_cache

import mpmath

# The package iterates W to a residual of 1e-13 in 40-digit arithmetic and
# rounds once to float; its H stayed within 1.3e-15 relative of mpmath's
# lambertw on g <= 10^26.5. A wrong H is off by far more than this.
H_REL_TOL = 1e-14
H_CSV_ABS_TOL = 6e-10  # the figure table prints H at nine decimals


def _mask(vertices, m: int) -> int:
    mask = 0
    for v in vertices:
        if not (isinstance(v, int) and 1 <= v <= m):
            raise ValueError(f"vertex {v!r} outside 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def face_set(m: int, facets) -> set[int]:
    """Every subset of every facet, the empty face included, as bitmasks."""
    faces = {0}
    for f in facets:
        verts = list(f)
        for sub in range(1, 1 << len(verts)):
            faces.add(_mask([verts[i] for i in range(len(verts)) if sub >> i & 1], m))
    return faces


def gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = v
                break
            v ^= pivots[p]
    return len(pivots)


def _is_one_cycle_through_all(m: int, faces: set[int]) -> bool:
    """K is 1-dimensional and its graph is one cycle through all m vertices."""
    if any(f.bit_count() > 2 for f in faces):
        return False
    if any(1 << v not in faces for v in range(m)):
        return False
    edges = [f for f in faces if f.bit_count() == 2]
    degree = Counter()
    adj: dict[int, list[int]] = {v: [] for v in range(m)}
    for e in edges:
        a, b = (i for i in range(m) if e >> i & 1)
        degree[a] += 1
        degree[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    if m < 3 or any(degree[v] != 2 for v in range(m)):
        return False
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == m


def closed_surface(data: dict) -> bool:
    """Whether the surface over the job's complex is closed: K is one
    cycle through all m vertices."""
    return _is_one_cycle_through_all(data["m"], face_set(data["m"], data["facets"]))


def check_surface(data: dict, out: str) -> str | None:
    m = data["m"]
    faces = face_set(m, data["facets"])
    by_size = Counter(f.bit_count() for f in faces)
    cells = {d: by_size[d] << (m - d) for d in by_size}
    closed = closed_surface(data)
    expected = {
        "m": m,
        "V": cells.get(0, 0),
        "E": cells.get(1, 0),
        "F": cells.get(2, 0),
        "chi": sum((-1) ** d * c for d, c in cells.items()),
        "closed_surface": closed,
        "orientable": True if closed else None,
        "genus": (1 + (1 << (m - 3)) * (m - 4) if m > 3 else 0) if closed else None,
    }
    got = json.loads(out)
    if got != expected:
        return f"rzk report {got} != expected {expected}"
    return None


def bound_attained(m: int, faces: set[int], dim: int) -> bool:
    """Whether some free subgroup has rank m - dim - 1: the kernel of a
    linear map GF(2)^m -> GF(2)^(dim+1) that is nonzero on every nonempty
    face. The map is searched for by backtracking, one vertex image at a
    time, checking each face once its highest vertex has an image."""
    by_top: list[list[int]] = [[] for _ in range(m)]
    for f in faces:
        if f:
            by_top[f.bit_length() - 1].append(f)
    image = [0] * m

    def place(v: int) -> bool:
        if v == m:
            return True
        for x in range(1, 1 << (dim + 1)):
            image[v] = x
            if all(_image_of(f, image) for f in by_top[v]) and place(v + 1):
                return True
        return False

    return place(0)


def _image_of(face: int, image: list[int]) -> int:
    x = 0
    while face:
        low = face & -face
        x ^= image[low.bit_length() - 1]
        face ^= low
    return x


def check_free_rank(data: dict, out: str) -> str | None:
    m = data["m"]
    faces = face_set(m, data["facets"])
    got = json.loads(out)
    rank, basis = got["rank"], got["basis"]
    try:
        masks = [_mask(b, m) for b in basis]
    except ValueError as exc:
        return f"witness: {exc}"
    if len(masks) != rank or gf2_rank(masks) != rank:
        return f"witness of {len(masks)} vectors is not an independent basis of rank {rank}"
    x = 0
    for i in range(1, 1 << rank):  # Gray code: every nonzero element of the span once
        x ^= masks[(i & -i).bit_length() - 1]
        if x in faces:
            return f"span element {x:#b} of the witness is a face"
    dim = max(f.bit_count() for f in faces) - 1
    bound = m - dim - 1
    if rank > bound:
        return f"rank {rank} exceeds m - dim K - 1 = {bound}"
    if data["polygon"] and rank != m - 2:
        return f"polygon rank {rank} != m - 2 = {m - 2}"
    if rank < bound:
        if bound_attained(m, faces, dim):
            return f"rank {rank} < {bound}, which a free subgroup found here attains"
        # A vector w extends the witness unless w + s is a face for some s
        # in the span; so every vector of GF(2)^m must be a face plus a
        # span element, or the search stopped short of a maximal subgroup.
        span = [0]
        for b in masks:
            span += [x ^ b for x in span]
        covered = {f ^ x for f in faces for x in span}
        if len(covered) != 1 << m:
            w = next(w for w in range(1, 1 << m) if w not in covered)
            return f"witness of rank {rank} extends by {w:#b}: not maximal"
    return None


def _cover_expectation(orientable_base: bool, genus: int, rows: list[int]) -> dict:
    d = 2 * genus if orientable_base else genus
    n = len(rows)
    w = 0 if orientable_base else (1 << d) - 1
    rank = gf2_rank(rows)
    chi = (2 - d) << n
    components = 1 << (n - rank)
    orientable = gf2_rank(rows + [w]) == rank
    cover_genus = None
    if components == 1:
        cover_genus = (2 - chi) // 2 if orientable else 2 - chi
    return {
        "n": n,
        "base": {"orientable": orientable_base, "genus": genus},
        "chi": chi,
        "components": components,
        "orientable": orientable,
        "genus": cover_genus,
    }


def check_cover(data: dict, out: str) -> str | None:
    expected = _cover_expectation(data["orientable"], data["genus"], data["rows"])
    got = json.loads(out)
    if got != expected:
        return f"cover report {got} != expected {expected}"
    return None


def f_bounds(g: int) -> tuple[int, int, bool]:
    """(lower, upper, a_even) from chi = 2 - 2g = a 2^n, n largest with
    a <= 1 and n <= 2 - a; the torus (chi = 0) is a = 0, n = 2."""
    chi = 2 - 2 * g
    if chi == 0:
        return 2, 2, True
    best = None
    n = 0
    while chi % (1 << n) == 0:
        a = chi // (1 << n)
        if a <= 1 and n <= 2 - a:
            best = (n, a)
        n += 1
    n, a = best
    return (n, n, True) if a % 2 == 0 else (n - 1, n, False)


def _min_genus_set(gmax: int) -> set[int]:
    out, n = set(), 1
    while 1 + (1 << (n - 1)) * (n - 2) <= gmax:
        out.add(1 + (1 << (n - 1)) * (n - 2))
        n += 1
    return out


def check_f_exact(data: dict, out: str) -> str | None:
    g = data["g"]
    got = json.loads(out)
    lower, upper, a_even = f_bounds(g)
    if (got["g"], got["f_lower"], got["f_upper"]) != (g, lower, upper):
        return f"f bounds {got['f_lower']}..{got['f_upper']} != {lower}..{upper} at g={g}"
    exact, cert = got["f_exact"], got["certificate"]
    if not got["resolved"]:
        return None if exact is None and cert is None else "unresolved f carries a value"
    if exact is None or not lower <= exact <= upper:
        return f"resolved f={exact} outside {lower}..{upper} at g={g}"
    if a_even and exact != upper:
        return f"f={exact} != n={upper} for even a at g={g}"
    if cert is not None:
        rows = [sum(bit << i for i, bit in enumerate(r)) for r in cert["phi"]]
        h = len(cert["phi"][0])
        cover = _cover_expectation(False, h, rows)
        if cert["cover"] != cover or cover["genus"] != g or len(rows) != exact:
            return f"certificate cover {cert['cover']} is not a genus-{g} cover of rank {exact}"
    return None


@lru_cache(maxsize=None)
def reference_H(g: int) -> float:
    """W((g-1) ln2 / 2) / ln2 + 2 with mpmath's own Lambert W at 40 digits."""
    with mpmath.workdps(40):
        ln2 = mpmath.log(2)
        w = mpmath.lambertw((mpmath.mpf(g) - 1) * ln2 / 2)
        return float(mpmath.re(w) / ln2 + 2)


def check_H(data: dict, out: str) -> str | None:
    g = data["g"]
    got, ref = float(out), reference_H(g)
    if not math.isclose(got, ref, rel_tol=H_REL_TOL):
        return f"H({g}) = {got!r} != {ref!r}"
    return None


def check_figure(data: dict, out: str) -> str | None:
    gmax = data["gmax"]
    lines = out.split("\n")
    if lines[0] != "g,f_lower,f_upper,f_exact,H,equality" or lines[-1] != "":
        return "figure header or trailing newline missing"
    rows = lines[1:-1]
    if len(rows) != gmax + 1:
        return f"figure has {len(rows)} rows, expected {gmax + 1}"
    equal = _min_genus_set(gmax)
    for g, row in enumerate(rows):
        cells = row.split(",")
        lower, upper, _ = f_bounds(g)
        if cells[:3] != [str(g), str(lower), str(upper)]:
            return f"figure row {row!r}: expected g, bounds {g},{lower},{upper}"
        if cells[3] and not lower <= int(cells[3]) <= upper:
            return f"figure row {row!r}: f outside its bounds"
        if abs(float(cells[4]) - reference_H(g)) > H_CSV_ABS_TOL:
            return f"figure row {row!r}: H != {reference_H(g)!r}"
        if cells[5] != ("true" if g in equal else "false"):
            return f"figure row {row!r}: wrong equality flag"
    return None


CHECKS = {
    "surface": check_surface,
    "free_rank": check_free_rank,
    "cover": check_cover,
    "f_exact": check_f_exact,
    "H": check_H,
    "figure": check_figure,
}


def check(job, out: str) -> str | None:
    """Verdict on one job's captured stdout; malformed output is rejected too."""
    try:
        return CHECKS[job.oracle](job.data, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
