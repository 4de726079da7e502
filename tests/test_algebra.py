"""Exact blade arithmetic against an independent list-based oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cl8.algebra import (
    MV,
    GaussianRational,
    Signature,
    blade_product,
    even_subalgebra_basis,
    involute,
    omega_square,
    volume_element,
)

from naive import all_blades, naive_blade_product, naive_blade_square, naive_multivector_mul


def indices_of(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


SMALL_SIGS = [(p, q) for p in range(5) for q in range(5) if 0 < p + q <= 4]


@pytest.mark.parametrize("p,q", SMALL_SIGS)
def test_blade_product_matches_oracle(p, q):
    sig = Signature(p, q)
    n = p + q
    for a in range(1 << n):
        for b in range(1 << n):
            sign, mask = blade_product(a, b, sig)
            nsign, nidx = naive_blade_product(indices_of(a), indices_of(b), p)
            assert mask == a ^ b
            assert indices_of(mask) == nidx
            assert sign == nsign


@pytest.mark.parametrize("p,q", SMALL_SIGS)
def test_generator_squares(p, q):
    sig = Signature(p, q)
    for i in range(1, p + q + 1):
        e = MV.generator(sig, i)
        sq = e * e
        expected = 1 if i <= p else -1
        assert sq == MV.scalar(sig, expected)


def test_known_products_cl30():
    sig = Signature(3, 0)
    e12 = MV.blade(sig, 0b011)
    e23 = MV.blade(sig, 0b110)
    assert e12 * e23 == MV.blade(sig, 0b101)  # e13
    e1 = MV.generator(sig, 1)
    e2 = MV.generator(sig, 2)
    assert e1 * e2 == MV.blade(sig, 0b011)
    assert e2 * e1 == -MV.blade(sig, 0b011)


def test_conjugation_frozen_example():
    # conjugation = reversion composed with grade involution
    sig = Signature(1, 1)
    x = MV.scalar(sig, 1) + MV.generator(sig, 1) + MV.blade(sig, 0b11)
    got = involute(x, "conjugation")
    expected = MV.scalar(sig, 1) - MV.generator(sig, 1) - MV.blade(sig, 0b11)
    assert got == expected


@pytest.mark.parametrize("kind,signs", [
    ("grade_involution", {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}),
    ("reversion", {0: 1, 1: 1, 2: -1, 3: -1, 4: 1}),
    ("conjugation", {0: 1, 1: -1, 2: -1, 3: 1, 4: 1}),
])
def test_involution_grade_signs(kind, signs):
    sig = Signature(2, 2)
    for mask in range(1 << 4):
        k = bin(mask).count("1")
        x = involute(MV.blade(sig, mask), kind)
        assert x == MV.blade(sig, mask, signs[k])


@pytest.mark.parametrize("p,q", [(p, q) for p in range(6) for q in range(6) if p + q >= 1])
def test_omega_square_matches_oracle_and_periodicity(p, q):
    sig = Signature(p, q)
    n = p + q
    full = tuple(range(1, n + 1))
    assert omega_square(sig) == naive_blade_square(full, p)
    omega = volume_element(sig)
    assert omega * omega == MV.scalar(sig, omega_square(sig))
    t = (p - q) % 8
    if n % 2 == 0:
        assert omega_square(sig) == (1 if t in (0, 4) else -1)
    else:
        assert omega_square(sig) == (1 if t in (1, 5) else -1)


@pytest.mark.parametrize("p,q", [(3, 0), (1, 2), (0, 3), (2, 3)])
def test_volume_element_central_for_odd_n(p, q):
    sig = Signature(p, q)
    omega = volume_element(sig)
    for mask in range(1 << (p + q)):
        b = MV.blade(sig, mask)
        assert omega * b == b * omega


def test_volume_element_anticommutes_with_vectors_for_even_n():
    sig = Signature(1, 3)
    omega = volume_element(sig)
    for i in range(1, 5):
        e = MV.generator(sig, i)
        assert omega * e == -(e * omega)


@pytest.mark.parametrize("p,q", SMALL_SIGS)
def test_even_subalgebra_closed(p, q):
    sig = Signature(p, q)
    basis = even_subalgebra_basis(sig)
    assert len(basis) == 2 ** (p + q - 1)
    assert all(bin(m).count("1") % 2 == 0 for m in basis)
    bset = set(basis)
    for a in basis:
        for b in basis:
            _, m = blade_product(a, b, sig)
            assert m in bset


coeffs = st.integers(min_value=-4, max_value=4)
masks3 = st.integers(min_value=0, max_value=7)
mv_terms = st.lists(st.tuples(masks3, coeffs), max_size=5)


def build(sig, terms):
    x = MV.zero(sig)
    for mask, c in terms:
        x = x + MV.blade(sig, mask, Fraction(c))
    return x


@settings(max_examples=60, deadline=None)
@given(mv_terms, mv_terms, mv_terms)
def test_product_associative_and_distributive(ta, tb, tc):
    sig = Signature(1, 2)
    a, b, c = build(sig, ta), build(sig, tb), build(sig, tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(mv_terms, mv_terms)
def test_reversion_is_antiautomorphism(ta, tb):
    sig = Signature(2, 1)
    a, b = build(sig, ta), build(sig, tb)
    assert involute(a * b, "reversion") == involute(b, "reversion") * involute(a, "reversion")


@settings(max_examples=60, deadline=None)
@given(mv_terms, mv_terms)
def test_grade_involution_is_automorphism(ta, tb):
    sig = Signature(0, 3)
    a, b = build(sig, ta), build(sig, tb)
    assert involute(a * b, "grade_involution") == (
        involute(a, "grade_involution") * involute(b, "grade_involution")
    )


@settings(max_examples=40, deadline=None)
@given(mv_terms, mv_terms)
def test_multivector_product_matches_naive(ta, tb):
    p, q = 1, 2
    sig = Signature(p, q)
    a, b = build(sig, ta), build(sig, tb)
    got = a * b
    xa = {indices_of(m): c for m, c in a.terms.items()}
    xb = {indices_of(m): c for m, c in b.terms.items()}
    want = naive_multivector_mul(xa, xb, p)
    got_dict = {indices_of(m): c for m, c in got.terms.items()}
    assert got_dict == want


def test_gaussian_rational_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1, 0)
    assert i * i == -1
    z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    w = GaussianRational(2, -1)
    assert z + w == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert z * w == GaussianRational(Fraction(7, 4), 1)
    assert z - z == 0
    assert GaussianRational(5, 0) == Fraction(5)
    assert w.conjugate() == GaussianRational(2, 1)


def test_complexified_signature_multivectors():
    sig = Signature(1, 3, complexified=True)
    i = GaussianRational(0, 1)
    e23 = MV.blade(sig, 0b0110)
    x = MV.blade(sig, 0b0110, i)
    assert x * x == MV.scalar(sig, 1)  # (i e23)^2 = -(e23)^2 = +1
    assert e23 * e23 == MV.scalar(sig, -1)
    y = x * x - MV.scalar(sig, 1)
    assert not y


def test_real_signature_rejects_imaginary_coefficients():
    sig = Signature(1, 1)
    with pytest.raises(ValueError):
        MV.blade(sig, 0b01, GaussianRational(0, 1))


@pytest.mark.parametrize("p,q", [(1.5, 2), (2, 1.0), (True, 2), (1, False), ("1", 2), (-1, 0)])
def test_signature_fields_are_nonnegative_ints(p, q):
    with pytest.raises(ValueError):
        Signature(p, q)


def test_grade_parts():
    sig = Signature(2, 0)
    x = MV.scalar(sig, 3) + MV.generator(sig, 1) + MV.blade(sig, 0b11, 7)
    assert x.grade_part(0) == MV.scalar(sig, 3)
    assert x.grade_part(1) == MV.generator(sig, 1)
    assert x.grade_part(2) == MV.blade(sig, 0b11, 7)
    assert x.even_part() == MV.scalar(sig, 3) + MV.blade(sig, 0b11, 7)
    assert sorted(x.grades()) == [0, 1, 2]


def test_blade_order_listing_matches_search_order():
    # the canonical blade enumeration used everywhere: grade first, then mask
    got = [m for _, m, _ in sorted((bin(m).count("1"), m, None) for m in range(8))]
    want = [0]
    for idx in all_blades(3):
        m = 0
        for i in idx:
            m |= 1 << (i - 1)
        if m:
            want.append(m)
    assert got == want
