"""Linear algebra over GF(2) with int bitmasks as vectors.

A vector is a Python int; bit b is coordinate b. Addition is XOR, so a
subspace is closed under ^ and every basis computation reduces to integer
bit fiddling. A row's pivot is its highest set bit. ``rank`` and
``in_span`` stop at an echelon form, with pairwise distinct pivots; only
``rref`` goes on to the canonical form, reduced row echelon, where also no
row contains another's pivot and rows are sorted by pivot ascending. Each
subspace has exactly one such basis, which makes witnesses deterministic.
"""

from __future__ import annotations

from typing import Iterable


def _echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span, keyed by pivot; rows may hold lower pivots."""
    # each vector loses its highest bit while another row has it as pivot,
    # and is kept under the first pivot that no row has
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
    return rows


def rref(vectors: Iterable[int]) -> list[int]:
    """Canonical RREF basis of the span of ``vectors``.

    Returns rows sorted by pivot ascending; the zero vector contributes
    nothing. Independent of input order and multiplicity.
    """
    rows = _echelon(vectors)
    # clear the lower pivots from each row, in ascending pivot order; a
    # reduced row holds no pivot but its own, so one pass per row suffices
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
    return len(_echelon(vectors))


def in_span(v: int, basis: Iterable[int]) -> bool:
    """Whether v lies in the span of the given vectors (any basis, any order)."""
    if v < 0:
        raise ValueError("pivot of a nonpositive vector is undefined")
    rows = _echelon(basis)
    while v:
        b = rows.get(v.bit_length() - 1)
        if b is None:
            return False
        v ^= b
    return True


def span(basis: Iterable[int]) -> list[int]:
    """All 2^rank elements of the span, as a list starting with 0.

    Iterative doubling: element order is deterministic given basis order.
    """
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out
