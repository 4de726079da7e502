"""Exact elimination: the pivot-keyed SpanBasis against the linear row scan."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cl8.algebra import GaussianRational
from cl8.linalg import SpanBasis, rank_of

from naive import naive_reduce, naive_span_basis


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
gaussians = st.builds(GaussianRational, fractions, fractions)
keys = st.integers(0, 9)  # few keys, so pivots and row entries overlap


@st.composite
def vector_lists(draw):
    """Sparse vectors, all Fraction or all GaussianRational, some with one
    key, some combinations of earlier ones (dependent, or cancelling to 0),
    some with explicit zero coefficients."""
    coeff = draw(st.sampled_from([fractions, gaussians]))
    vecs = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["sparse", "single", "combination"]))
        if kind == "single":
            vec = {draw(keys): draw(coeff)}
        elif kind == "combination" and vecs:
            vec = {}
            for _ in range(draw(st.integers(1, 3))):
                factor = draw(coeff)
                for k, c in draw(st.sampled_from(vecs)).items():
                    vec[k] = vec.get(k, 0) + factor * c
        else:
            vec = draw(st.dictionaries(keys, coeff, max_size=7))
        vecs.append(vec)
    return vecs


@settings(max_examples=150, deadline=None)
@given(vector_lists(), st.data())
def test_span_basis_matches_linear_scan(vecs, data):
    basis = SpanBasis()
    added = [basis.add(v) for v in vecs]
    want_added, rows = naive_span_basis(vecs)
    assert added == want_added
    assert basis._rows == dict(rows)
    assert basis.rank == rank_of(vecs) == sum(want_added)
    for probe in vecs + [data.draw(st.dictionaries(keys, st.sampled_from([Fraction(1), Fraction(-2, 3)])))]:
        assert basis.reduce(probe) == naive_reduce(rows, probe)
        assert basis.contains(probe) == (not naive_reduce(rows, probe))


def test_single_key_vectors():
    basis = SpanBasis()
    assert [basis.add({k: Fraction(k + 1)}) for k in (3, 1, 3, 2, 1)] == [True, True, False, True, False]
    assert basis.reduce({1: Fraction(5), 4: Fraction(1)}) == {4: Fraction(1)}
    assert basis.rank == 3
