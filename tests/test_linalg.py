"""Exact elimination: the pivot-keyed SpanBasis, and express built on it,
against the linear row scans in naive.py; the GF(2) echelon against a
brute-force span."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cl8.algebra import GaussianRational
from cl8.linalg import SpanBasis, express, gf2_echelon, gf2_reduce, rank_of

from naive import naive_express, naive_reduce, naive_span_basis


# A coefficient, and a (key, coefficient) term, is one draw from a fixed
# list: the fewer draws per vector, the cheaper each example.
FRACTIONS = [Fraction(a, b) for a in range(-3, 4) for b in range(1, 4)]
GAUSSIANS = [GaussianRational(x, y) for x in FRACTIONS for y in FRACTIONS]
KEYS = range(10)  # few keys, so pivots and row entries overlap
fractions = st.sampled_from(FRACTIONS)
gaussians = st.sampled_from(GAUSSIANS)
keys = st.sampled_from(KEYS)


def _terms(values):
    return st.sampled_from([(k, c) for k in KEYS for c in values])


COEFFS_AND_TERMS = [(fractions, _terms(FRACTIONS)), (gaussians, _terms(GAUSSIANS))]


@st.composite
def vector_lists(draw):
    """Sparse vectors, all Fraction or all GaussianRational, some with one
    key, some combinations of earlier ones (dependent, or cancelling to 0),
    some with explicit zero coefficients."""
    coeff, term = draw(st.sampled_from(COEFFS_AND_TERMS))
    vecs = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["sparse", "single", "combination"]))
        if kind == "single":
            vec = dict([draw(term)])
        elif kind == "combination" and vecs:
            vec = {}
            for _ in range(draw(st.integers(1, 3))):
                factor = draw(coeff)
                for k, c in draw(st.sampled_from(vecs)).items():
                    vec[k] = vec.get(k, 0) + factor * c
        else:
            vec = dict(draw(st.lists(term, max_size=7)))
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


@settings(max_examples=200, deadline=None)
@given(vector_lists(), st.data())
def test_express_matches_linear_scan(vecs, data):
    """Targets inside the span (combinations, possibly cancelling to 0) and
    random ones, mostly outside it, where both sides give None."""
    coeff = data.draw(st.sampled_from([fractions, gaussians]))
    if data.draw(st.booleans()):
        target = {}
        for i in data.draw(st.lists(st.integers(0, len(vecs) - 1), max_size=4)):
            factor = data.draw(coeff)
            for k, c in vecs[i].items():
                target[k] = target.get(k, 0) + factor * c
    else:
        target = data.draw(st.dictionaries(keys, coeff, max_size=5))
    assert express(target, vecs) == naive_express(target, vecs)


def test_express_coordinates():
    one, two = Fraction(1), Fraction(2)
    vecs = [{0: one, 1: one}, {0: two, 1: two}, {1: one}]
    assert express({0: Fraction(3), 1: Fraction(5)}, vecs) == [3, 0, 2]
    assert express({2: one}, vecs) is None
    assert express({}, vecs) == [0, 0, 0]


def test_single_key_vectors():
    basis = SpanBasis()
    assert [basis.add({k: Fraction(k + 1)}) for k in (3, 1, 3, 2, 1)] == [True, True, False, True, False]
    assert basis.reduce({1: Fraction(5), 4: Fraction(1)}) == {4: Fraction(1)}
    assert basis.rank == 3


@st.composite
def gf2_mask_lists(draw):
    """n <= 8 and up to 8 masks below 2^n, some the XOR of earlier ones, so
    repeated and dependent masks are common."""
    n = draw(st.integers(0, 8))
    masks = []
    for _ in range(draw(st.integers(0, 8))):
        if masks and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=3))
            mask = 0
            for m in picks:
                mask ^= m
        else:
            mask = draw(st.integers(0, (1 << n) - 1))
        masks.append(mask)
    return n, masks


@settings(max_examples=200, deadline=None)
@given(gf2_mask_lists(), st.data())
def test_gf2_echelon_keys_the_cosets_of_the_brute_force_span(case, data):
    n, masks = case
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    rows = gf2_echelon(masks)
    assert 1 << len(rows) == len(span)
    tops = [r.bit_length() - 1 for r in rows]
    assert tops == sorted(set(tops), reverse=True) and all(t >= 0 for t in tops)
    keys = [gf2_reduce(rows, a) for a in range(1 << n)]
    for a, key in enumerate(keys):
        assert a ^ key in span
        assert not any(key >> t & 1 for t in tops)
    a = data.draw(st.integers(0, (1 << n) - 1))
    for b in range(1 << n):
        assert (keys[a] == keys[b]) == (a ^ b in span)
    assert (keys[a] == 0) == (a in span)
