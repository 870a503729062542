"""GF(2) echelon forms against the routine they replaced.

``oracle_rref`` is ``gf2.rref`` as it was before it read each basis
row's pivot inline and sorted the rows by value: it calls ``gf2.pivot``
on every row for every vector it reduces, and sorts by pivot. The rows
of a reduced basis have distinct highest bits, so both orders agree,
and the two must return the same list on any input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involab import gf2


def oracle_rref(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            if (v >> gf2.pivot(b)) & 1:
                v ^= b
        if v == 0:
            continue
        p = gf2.pivot(v)
        basis = [b ^ v if (b >> p) & 1 else b for b in basis]
        basis.append(v)
        basis.sort(key=gf2.pivot)
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


def test_rref_refuses_a_negative_vector_like_the_oracle():
    for vectors in ([-1], [3, -6]):
        with pytest.raises(ValueError):
            oracle_rref(vectors)
        with pytest.raises(ValueError):
            gf2.rref(vectors)
