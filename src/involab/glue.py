"""Closed surfaces glued from polygons along paired edges.

A face is given by its boundary word, a tuple of (edge id, direction)
traversals with direction +1 or -1, and edge ids index
``range(edge_count)``. The routines here answer two questions of a
gluing: how often each edge is traversed, and whether the faces can be
oriented so that every edge is crossed once in each direction. Their
caller in the package is ``rzk``, which checks the cubical surface over K
on one square per orbit of the sign flips, a two-letter word over K's
vertices for each edge of K. ``cover`` classifies its regular covers on
one sheet without a gluing; the per-sheet cover gluing in
``tests/test_cover_oracle.py`` runs these routines as its oracle.
"""

from __future__ import annotations

from typing import Sequence

Word = tuple[tuple[int, int], ...]


def edge_uses(faces: Sequence[Word], edge_count: int) -> list[list[tuple[int, int]]]:
    """For each edge id, its (face index, direction) traversals in face order."""
    uses: list[list[tuple[int, int]]] = [[] for _ in range(edge_count)]
    for f, word in enumerate(faces):
        for eid, s in word:
            uses[eid].append((f, s))
    return uses


def orient(
    faces: Sequence[Word], uses: Sequence[Sequence[tuple[int, int]]]
) -> list[int] | None:
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
