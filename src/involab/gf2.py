"""Linear algebra over GF(2) with int bitmasks as vectors.

A vector is a Python int; bit b is coordinate b. Addition is XOR, so a
subspace is closed under ^ and every basis computation reduces to integer
bit fiddling. Canonical form used throughout: reduced row echelon, where
the pivot of a row is its highest set bit, pivots are pairwise distinct,
no row contains another row's pivot, and rows are sorted by pivot
ascending. Every subspace has exactly one such basis, which is what makes
witnesses deterministic.
"""

from __future__ import annotations

from typing import Iterable


def pivot(v: int) -> int:
    """Index of the highest set bit. Undefined (raises) for 0."""
    if v <= 0:
        raise ValueError("pivot of a nonpositive vector is undefined")
    return v.bit_length() - 1


def rref(vectors: Iterable[int]) -> list[int]:
    """Canonical RREF basis of the span of ``vectors``.

    Returns rows sorted by pivot ascending; the zero vector contributes
    nothing. Independent of input order and multiplicity.
    """
    # forward: each vector loses its highest bit while another row has it
    # as pivot, and is kept under the first pivot that no row has
    rows: dict[int, int] = {}
    for v in vectors:
        if v < 0:
            raise ValueError("pivot of a nonpositive vector is undefined")
        while v:
            p = v.bit_length() - 1
            b = rows.get(p)
            if b is None:
                rows[p] = v
                break
            v ^= b
    # back: clear the lower pivots from each row, in ascending pivot order;
    # a reduced row holds no pivot but its own, so one pass per row suffices
    reduced: dict[int, int] = {}
    below = 0  # the pivots of the rows reduced so far
    for p in sorted(rows):
        v = rows[p]
        hits = v & below
        while hits:
            q = hits.bit_length() - 1
            v ^= reduced[q]
            hits ^= 1 << q
        reduced[p] = v
        below |= 1 << p
    return list(reduced.values())


def rank(vectors: Iterable[int]) -> int:
    return len(rref(vectors))


def in_span(v: int, basis: Iterable[int]) -> bool:
    """Whether v lies in the span of the given vectors (any basis, any order)."""
    for b in rref(basis):
        if v and (v >> pivot(b)) & 1:
            v ^= b
    return v == 0


def span(basis: Iterable[int]) -> list[int]:
    """All 2^rank elements of the span, as a list starting with 0.

    Iterative doubling: element order is deterministic given basis order.
    """
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out

