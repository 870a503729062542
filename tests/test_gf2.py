"""GF(2) echelon forms against the routine they replaced.

``oracle_rref`` is ``gf2.rref`` as it was before it read each basis
row's pivot inline and sorted the rows by value: it calls ``pivot``
on every row for every vector it reduces, and sorts by pivot. The rows
of a reduced basis have distinct highest bits, so both orders agree,
and the two must return the same list on any input. ``rank`` and
``in_span`` stop at an echelon form of their own, so they are checked
against the oracle's rank too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import gf2


def pivot(v):
    """Index of the highest set bit. Undefined (raises) for 0."""
    if v <= 0:
        raise ValueError("pivot of a nonpositive vector is undefined")
    return v.bit_length() - 1


def oracle_rref(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            if (v >> pivot(b)) & 1:
                v ^= b
        if v == 0:
            continue
        p = pivot(v)
        basis = [b ^ v if (b >> p) & 1 else b for b in basis]
        basis.append(v)
        basis.sort(key=pivot)
    return basis


def _vector_lists(bits):
    # few distinct values, so zeros, repeats and dependent vectors are common
    pool = st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=6)
    return pool.flatmap(lambda values: st.lists(st.sampled_from(values + [0]), max_size=24))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_vector_lists(6), _vector_lists(24), _vector_lists(90)))
def test_rref_matches_the_pivot_calling_oracle(vectors):
    want = oracle_rref(vectors)
    assert gf2.rref(vectors) == want
    assert gf2.rref(iter(vectors)) == want  # one pass over any iterable
    assert gf2.rref(reversed(vectors)) == want  # the span alone decides
    assert gf2.rank(vectors) == len(want)


@given(st.lists(st.integers(0, 255), max_size=12), st.integers(0, 255))
def test_in_span_agrees_with_a_rank_test(vectors, v):
    assert gf2.in_span(v, vectors) == (gf2.rank(vectors + [v]) == gf2.rank(vectors))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_vector_lists(6), _vector_lists(24), _vector_lists(90)), st.data())
def test_rank_and_in_span_match_the_oracle(vectors, data):
    want = oracle_rref(vectors)
    assert gf2.rank(vectors) == len(want)
    # a sum of listed vectors, which lies in the span, with perhaps one bit flipped
    v = 0
    for u in data.draw(st.lists(st.sampled_from(vectors + [0]), max_size=4)):
        v ^= u
    v ^= data.draw(st.sampled_from([0, 1])) << data.draw(st.integers(0, 90))
    assert gf2.in_span(v, vectors) == (len(oracle_rref(vectors + [v])) == len(want))


def test_rref_refuses_a_negative_vector_like_the_oracle():
    for vectors in ([-1], [3, -6]):
        with pytest.raises(ValueError):
            oracle_rref(vectors)
        with pytest.raises(ValueError):
            gf2.rref(vectors)


def test_in_span_refuses_a_negative_vector():
    # reducing -2 by 3 gives -3, and -3 by 3 gives -2 again: no reduction by
    # top bit ends on a negative v
    for v, vectors in ((-2, [3]), (-1, []), (-1, [1]), (3, [1, -2])):
        with pytest.raises(ValueError, match="pivot of a nonpositive vector is undefined"):
            gf2.in_span(v, vectors)
