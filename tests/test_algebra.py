"""Exact blade arithmetic against an independent list-based oracle."""

from fractions import Fraction
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cl8 import algebra
from cl8.algebra import (
    MV,
    GaussianRational,
    Signature,
    anticommute_mask,
    blade_product,
    central_split,
    even_subalgebra_basis,
    involute,
    omega_square,
    square_sign,
    volume_element,
)
from cl8.classify import primitive_idempotent
from cl8.tensoriso import ProductAlgebra, TensorMV

from naive import (
    all_blades,
    indices_of,
    naive_blade_product,
    naive_blade_square,
    naive_central_split_ok,
    naive_commute,
    naive_gaussian_mul,
    naive_multivector_mul,
    naive_tensor_product,
)


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


@pytest.mark.parametrize("p,q,mask,ok", [
    (1, 0, 0b1, True),  # omega of Cl(1,0): central, squares to +1
    (0, 3, 0b111, True),  # omega of Cl(0,3)
    (2, 0, 0b11, False),  # omega^2 = -1: the projectors are not idempotent
    (3, 0, 0b001, False),  # e1 squares to +1 but is not central
])
def test_central_split(p, q, mask, ok):
    sig = Signature(p, q)
    alpha = MV.blade(sig, mask)
    lam_plus, lam_minus, split = central_split(alpha)
    assert split is ok
    one = MV.scalar(sig, 1)
    assert lam_plus + lam_minus == one
    assert lam_plus - lam_minus == alpha


SPLIT_COEFFS = [1, -1, 2, Fraction(1, 2)]
SPLIT_COEFFS_I = SPLIT_COEFFS + [GaussianRational(0, 1), GaussianRational(0, -1),
                                 GaussianRational(1, 1)]


def _assert_split_matches_oracle(sig, masks):
    # central_split's mask test against the MV-product formula, for c e_m
    coeffs = SPLIT_COEFFS_I if sig.complexified else SPLIT_COEFFS
    for mask in masks:
        for c in coeffs:
            alpha = MV(sig, {mask: c})
            assert central_split(alpha)[2] is naive_central_split_ok(alpha), (mask, c)


@pytest.mark.parametrize("complexified", [False, True])
@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(6) for p in range(n + 1)])
def test_central_split_matches_product_oracle_on_every_blade(p, q, complexified):
    sig = Signature(p, q, complexified)
    _assert_split_matches_oracle(sig, range(1 << sig.n))


@pytest.mark.parametrize("sigs", [
    [Signature(2, 1), Signature(1, 0)],
    [Signature(1, 1), Signature(0, 1, True)],
    [Signature(0, 1), Signature(1, 1), Signature(1, 0)],
])
@pytest.mark.parametrize("graded", [False, True])
def test_central_split_matches_product_oracle_on_product_algebras(sigs, graded):
    alg = ProductAlgebra(sigs, graded)
    _assert_split_matches_oracle(alg, range(1 << alg.n))


def test_central_split_matches_product_oracle_on_sums():
    # 0 and +-1; the 16 central involutions sum(s_ab (1 + a w1)(1 + b w2)/4) of
    # a plain product of two odd factors with w^2 = +1, among them
    # (1 + w1 + w2 - w1 w2)/2; 1 - 2f, an involution whose first term (the
    # scalar) is central and whose others are not; and random sums
    sig = Signature(2, 1)
    for alpha, want in [(MV(sig, {}), False), (MV.scalar(sig, 1), True),
                        (MV.scalar(sig, -1), True)]:
        assert central_split(alpha)[2] is naive_central_split_ok(alpha) is want
    alg = ProductAlgebra([Signature(2, 1), Signature(1, 0)])
    one, w1, w2 = TensorMV(alg, {0: 1}), TensorMV(alg, {0b0111: 1}), TensorMV(alg, {0b1000: 1})
    parts = [(one + w1 * a) * (one + w2 * b) * Fraction(1, 4) for a in (1, -1) for b in (1, -1)]
    alphas = []
    for signs in itertools.product((1, -1), repeat=4):
        alpha = TensorMV(alg, {})
        for s, part in zip(signs, parts):
            alpha = alpha + part * s
        alphas.append(alpha)
    half = Fraction(1, 2)
    assert TensorMV(alg, {0: half, 0b0111: half, 0b1000: half, 0b1111: -half}) in alphas
    for alpha in alphas:
        assert central_split(alpha)[2] is naive_central_split_ok(alpha) is True
    data = primitive_idempotent(2, 2)
    reflection = MV.scalar(data.sig, 1) - data.f * 2
    assert data.k == 2 and next(iter(reflection.terms)) == 0
    assert reflection * reflection == MV.scalar(data.sig, 1)
    assert central_split(reflection)[2] is naive_central_split_ok(reflection) is False
    rng = random.Random(23)
    for sig in [Signature(p, q, c) for p, q in [(1, 0), (0, 3), (2, 1), (1, 3), (3, 2)]
                for c in (False, True)]:
        coeffs = SPLIT_COEFFS_I if sig.complexified else SPLIT_COEFFS
        full = (1 << sig.n) - 1
        for _ in range(40):
            masks = rng.sample(range(1 << sig.n), rng.randint(2, min(4, 1 << sig.n)))
            if rng.random() < 0.5:
                masks = [0, full]
            alpha = MV(sig, {m: rng.choice(coeffs) for m in masks})
            assert central_split(alpha)[2] is naive_central_split_ok(alpha), alpha.terms


def test_central_split_of_one_blade_forms_no_mv_product(monkeypatch):
    # a one-blade alpha is decided by Q(m) and beta(., m) alone
    mul, calls = MV.__mul__, []

    def counting(self, other):
        if isinstance(other, MV):
            calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MV, "__mul__", counting)
    alg = ProductAlgebra([Signature(2, 1), Signature(1, 0)])
    alphas = [TensorMV(alg, {0b0111: 1}), TensorMV(alg, {0b1000: -1})]
    for sig in [Signature(1, 0), Signature(0, 3), Signature(2, 3, True), Signature(8, 7)]:
        alphas += [volume_element(sig), MV.generator(sig, 1), MV.scalar(sig, 2)]
    oks = [central_split(alpha)[2] for alpha in alphas]
    assert calls == []
    monkeypatch.undo()
    assert oks == [naive_central_split_ok(alpha) for alpha in alphas]
    assert oks.count(True) == 6


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


@pytest.mark.parametrize("re,im", [(0.1, 0), (0, 0.5), (1.5, 0), ("1/3", 0), (0, "1"), (None, 0)])
def test_gaussian_rational_parts_are_exact(re, im):
    with pytest.raises(TypeError):
        GaussianRational(re, im)


def _gaussian_results(z, w):
    """Every Q(i) operation on z and w, in both operand orders."""
    yield from (z + w, w + z, z - w, w - z, z * w, w * z, -z, z.conjugate())
    if w:
        yield z / w
    if z:
        yield w / z


@pytest.mark.parametrize("w", [3, 0, -2, Fraction(-5, 3), Fraction(0), GaussianRational(2, -1),
                               GaussianRational(Fraction(1, 3), 4), GaussianRational(0)])
def test_gaussian_rational_results_keep_fraction_parts(w):
    # the results are built without re-validation, so the arithmetic itself
    # must keep both parts Fractions, whatever the exact operand types
    for z in (GaussianRational(Fraction(1, 2), Fraction(3, 4)), GaussianRational(0, -7),
              GaussianRational(5)):
        for r in _gaussian_results(z, w):
            assert type(r) is GaussianRational
            assert (type(r.re), type(r.im)) == (Fraction, Fraction), (z, w, r)


# a nonzero part: an int-valued Fraction or a general one; zeros come from the pattern
_nonzero_parts = st.one_of(st.integers(-9, 9).map(Fraction),
                           st.fractions(min_value=-5, max_value=5, max_denominator=12)).filter(bool)


def _assert_product(got, want):
    assert type(got) is GaussianRational
    assert (got.re, got.im) == want
    assert (type(got.re), type(got.im)) == (Fraction, Fraction)


@pytest.mark.parametrize("zeros", range(16), ids=lambda z: f"zeros{z:04b}")
@settings(max_examples=20, deadline=None)
@given(parts=st.tuples(_nonzero_parts, _nonzero_parts, _nonzero_parts, _nonzero_parts))
def test_gaussian_product_matches_four_partial_products(zeros, parts):
    # bit i of zeros sets part i of (a, b, c, d) to 0, so every zero pattern of
    # (a + bi)(c + di) meets each shortcut; int and Fraction right operands and
    # the reflected product go through the same shortcuts
    a, b, c, d = (Fraction(0) if zeros >> i & 1 else x for i, x in enumerate(parts))
    z, w = GaussianRational(a, b), GaussianRational(c, d)
    _assert_product(z * w, naive_gaussian_mul((a, b), (c, d)))
    _assert_product(w * z, naive_gaussian_mul((c, d), (a, b)))
    _assert_product(z.__rmul__(w), naive_gaussian_mul((c, d), (a, b)))
    for k in (c, c.numerator):  # a Fraction and an int
        _assert_product(z * k, naive_gaussian_mul((a, b), (Fraction(k), Fraction(0))))
        _assert_product(k * z, naive_gaussian_mul((Fraction(k), Fraction(0)), (a, b)))


def test_gaussian_rational_equality_and_hash_are_unchanged():
    z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    w = GaussianRational(2, -1)
    assert z * w / w == z and hash(z * w / w) == hash(z)
    # a real result equals, and hashes as, its Fraction and int values
    assert (w + w.conjugate()) == 4 == Fraction(4)
    assert hash(w + w.conjugate()) == hash(4) == hash(Fraction(4))
    assert hash(z - z) == hash(0) and z - z == 0
    assert hash(-z) == hash((Fraction(-1, 2), Fraction(-3, 4)))
    assert len({z, z + 0, z * 1, GaussianRational(Fraction(1, 2), Fraction(3, 4))}) == 1


def test_gaussian_rational_equals_an_int_as_its_coercion(monkeypatch):
    parts = (-1, 0, 1, 2, Fraction(1, 2))
    zs = [GaussianRational(re, im) for re in parts for im in parts]
    ints = range(-2, 3)
    want = [[z == GaussianRational(k) for k in ints] for z in zs]
    assert sum(map(sum, want)) == 4 and [z == True for z in zs] == [r[3] for r in want]

    def no_coerce(other):
        raise AssertionError("an int was coerced")

    monkeypatch.setattr(GaussianRational, "_coerce", staticmethod(no_coerce))
    assert [[z == k for k in ints] for z in zs] == want
    assert [[z != k for k in ints] for z in zs] == [[not v for v in r] for r in want]


def test_gaussian_rational_stays_immutable():
    for z in (GaussianRational(1, 2), GaussianRational(1, 2) * GaussianRational(0, 1)):
        with pytest.raises(AttributeError):
            z.re = Fraction(0)
        with pytest.raises(AttributeError):
            z.extra = 1


def test_complexified_signature_multivectors():
    sig = Signature(1, 3, complexified=True)
    i = GaussianRational(0, 1)
    e23 = MV.blade(sig, 0b0110)
    x = MV.blade(sig, 0b0110, i)
    assert x * x == MV.scalar(sig, 1)  # (i e23)^2 = -(e23)^2 = +1
    assert e23 * e23 == MV.scalar(sig, -1)
    y = x * x - MV.scalar(sig, 1)
    assert not y


def _left_scalar_cases():
    real = MV(Signature(2, 1), {0: 2, 0b011: Fraction(-1, 3), 0b110: 5})
    gauss = GaussianRational(Fraction(1, 2), -2)
    cplx = MV(Signature(1, 2, complexified=True), {0b001: gauss, 0b111: GaussianRational(3)})
    tensor = TensorMV(ProductAlgebra([Signature(1, 1), Signature(0, 1)]),
                      {0: 1, 0b101: Fraction(7, 2), 0b011: -4})
    for x, g in ((real, GaussianRational(Fraction(-3, 4))), (cplx, gauss),
                 (tensor, GaussianRational(5))):
        for c in (3, -1, Fraction(-2, 5), g):
            yield x, c


@pytest.mark.parametrize("x, c", list(_left_scalar_cases()))
def test_scalars_on_the_left_commute(x, c):
    # c * x reaches MV.__rmul__, which is __mul__: a scalar commutes with x
    left = c * x
    assert type(left) is type(x)
    assert left == x * c
    assert left.terms == {m: c * v for m, v in x.terms.items()}
    assert not (0 * x).terms and not (Fraction(0) * x).terms
    with pytest.raises(TypeError):
        1.5 * x


def test_exact_fraction_coefficients_are_kept_as_they_are():
    # a Fraction is immutable, so MV keeps the one it is given and terms may
    # share it; every other coefficient is coerced as before
    sig, csig = Signature(2, 1), Signature(2, 1, complexified=True)
    x, half = Fraction(3, 7), Fraction(1, 2)

    class Sub(Fraction):
        pass

    assert MV(sig, {5: x}).terms[5] is x
    assert all(c is x for c in MV(sig, dict.fromkeys(range(8), x)).terms.values())
    for value, want in ((3, Fraction(3)), (True, Fraction(1)), (GaussianRational(half), half),
                        (Sub(2, 3), Fraction(2, 3))):
        c = MV(sig, {1: value}).terms[1]
        assert type(c) is Fraction and c == want
    assert MV(sig, {1: False}).terms == {}
    g = GaussianRational(half)
    assert MV(sig, {1: g}).terms[1] is g.re
    assert MV(csig, {1: g}).terms[1] is g
    for value in (3, True, x):
        z = MV(csig, {1: value}).terms[1]
        assert type(z) is GaussianRational and z == GaussianRational(value, 0)


def test_real_signature_rejects_imaginary_coefficients():
    sig = Signature(1, 1)
    with pytest.raises(ValueError):
        MV.blade(sig, 0b01, GaussianRational(0, 1))


@pytest.mark.parametrize("p,q", [(1.5, 2), (2, 1.0), (True, 2), (1, False), ("1", 2), (-1, 0)])
def test_signature_fields_are_nonnegative_ints(p, q):
    with pytest.raises(ValueError):
        Signature(p, q)
    with pytest.raises(ValueError):
        Signature(0, 0)._replace(p=p, q=q)


@pytest.mark.parametrize("flag", ["no", 1, 0, None])
def test_signature_complexified_is_a_bool(flag):
    # Signature(1, 2, "no") would build a complexified algebra unequal to
    # Signature(1, 2, True), whose elements then refuse to add
    with pytest.raises(ValueError, match="invalid signature"):
        Signature(1, 2, flag)
    with pytest.raises(ValueError, match="invalid signature"):
        Signature(1, 2)._replace(complexified=flag)


def test_grade_parts():
    sig = Signature(2, 0)
    x = MV.scalar(sig, 3) + MV.generator(sig, 1) + MV.blade(sig, 0b11, 7)
    assert x.grade_part(0) == MV.scalar(sig, 3)
    assert x.grade_part(1) == MV.generator(sig, 1)
    assert x.grade_part(2) == MV.blade(sig, 0b11, 7)
    assert x.even_part() == MV.scalar(sig, 3) + MV.blade(sig, 0b11, 7)
    assert sorted(x.grades()) == [0, 1, 2]


@pytest.mark.parametrize("n", range(7))
def test_anticommute_mask_matches_oracle(n):
    # every mask pair of every Cl(p, n - p)
    blades = [indices_of(m) for m in range(1 << n)]
    for p in range(n + 1):
        sig = Signature(p, n - p)
        for b, ib in enumerate(blades):
            c = anticommute_mask(b, sig)
            got = [not (a & c).bit_count() & 1 for a in range(1 << n)]
            assert got == [naive_commute(ia, ib, p) for ia in blades]


@pytest.mark.parametrize("graded", [True, False], ids=["graded", "plain"])
@pytest.mark.parametrize("factors", [((1, 1), (0, 2)), ((1, 0), (3, 1)), ((2, 1), (1, 2))])
def test_anticommute_mask_on_tensor_products(factors, graded):
    # commutation read off the oracle's two products, for every mask pair
    pa = ProductAlgebra([Signature(p, q) for p, q in factors], graded=graded)
    keys = [tuple(indices_of(m) for m in pa.split(mask)) for mask in range(1 << pa.n)]
    for b, kb in enumerate(keys):
        c = anticommute_mask(b, pa)
        for a, ka in enumerate(keys):
            commute = (naive_tensor_product({ka: 1}, {kb: 1}, factors, graded)
                       == naive_tensor_product({kb: 1}, {ka: 1}, factors, graded))
            assert commute == (not (a & c).bit_count() & 1)


@pytest.mark.parametrize("n", range(1, 17))
def test_anticommute_mask_of_omega(n):
    # omega is central for odd n and anticommutes with every vector for even
    # n; _sign_flips leaves bits at and above n that the mask must not keep
    full = (1 << n) - 1
    for p in range(n + 1):
        assert anticommute_mask(full, Signature(p, n - p)) == (0 if n % 2 else full)


def test_blades_anticommute_reads_one_mask_per_blade(monkeypatch):
    # beta(., a) is formed once per blade, not once per pair; the verdicts stay
    calls = []

    def counting(b, sig):
        calls.append(b)
        return anticommute_mask(b, sig)

    monkeypatch.setattr(algebra, "anticommute_mask", counting)
    sig = Signature(3, 2)
    gens = [1 << i for i in range(5)]
    assert algebra.blades_anticommute(gens, sig)
    assert calls == gens
    calls.clear()
    assert not algebra.blades_anticommute([0b11, 0b1100, 0b1], sig)  # disjoint bivectors commute
    assert calls == [0b11, 0b1100, 0b1]


SIGN_MASK_ALGEBRAS = [Signature(p, n - p) for n in range(7) for p in range(n + 1)] + [
    ProductAlgebra([Signature(p, q) for p, q in factors], graded=graded)
    for factors in (((1, 1), (0, 2)), ((2, 1), (1, 2)), ((1, 0), (0, 1), (2, 0)))
    for graded in (False, True)]


def _algebra_id(sig):
    if isinstance(sig, Signature):
        return f"Cl{sig.p}{sig.q}"
    kind = "graded" if sig.graded else "plain"
    return kind + "-" + "x".join(f"Cl{s.p}{s.q}" for s in sig.sigs)


@pytest.mark.parametrize("sig", SIGN_MASK_ALGEBRAS, ids=_algebra_id)
def test_transposed_sign_mask(sig):
    # popcount(a & F(b)) = popcount(b & (beta(., a) ^ F(a))) for every mask
    # pair: beta is F plus its transpose, cuts included
    top = 1 << sig.n
    flips = [algebra._sign_flips(m, sig) for m in range(top)]
    for a in range(top):
        g = anticommute_mask(a, sig) ^ flips[a]
        assert all((a & flips[b]).bit_count() % 2 == (b & g).bit_count() % 2
                   for b in range(top))


def _square_defects(square, sig):
    """The masks of sig where square(m, sig) differs from blade_product's Q(m)
    or, for a Signature, from the Koszul rule of tests/naive.py."""
    def koszul(m):
        return naive_blade_square(indices_of(m), sig.p) if isinstance(sig, Signature) else None

    return [m for m in range(1 << sig.n) if square(m, sig) != blade_product(m, m, sig)[0]
            or koszul(m) not in (None, square(m, sig))]


@pytest.mark.parametrize("n", range(11))
def test_closed_form_square_matches_product_and_koszul(n):
    # Q(m) = (-1)^(g(g - 1)/2 + popcount(m & minus_mask)) on every mask of every
    # Cl(p, n - p); dropping the minus term is seen wherever q > 0
    def no_minus(m, sig):
        return algebra.blade_square(m, Signature(sig.n, 0))

    for p in range(n + 1):
        sig = Signature(p, n - p)
        assert _square_defects(algebra.blade_square, sig) == []
        assert bool(_square_defects(no_minus, sig)) == (n - p > 0)


@pytest.mark.parametrize("pa", SIGN_MASK_ALGEBRAS[-6:], ids=_algebra_id)
def test_blade_square_with_cuts_reads_f(pa):
    # in a plain product generators of different blocks commute (cuts != 0),
    # so the one-block grade count is wrong on some mask; blade_square, and
    # square_sign through it, take the F rule there. A graded product is one
    # block, and the count holds
    def one_block(m, sig):
        g = m.bit_count()
        return -1 if (g * (g - 1) // 2 + (m & sig.minus_mask).bit_count()) & 1 else 1

    assert _square_defects(algebra.blade_square, pa) == []
    assert bool(pa.cuts) != pa.graded
    assert bool(_square_defects(one_block, pa)) == bool(pa.cuts)
    one = TensorMV(pa, {0: 1})
    assert [square_sign(TensorMV(pa, {m: -1}), one) for m in range(1 << pa.n)] == [
        blade_product(m, m, pa)[0] for m in range(1 << pa.n)]


def _random_mv(rng, sig, size):
    terms = {}
    for _ in range(size):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        terms[rng.randrange(1 << sig.n)] = (
            GaussianRational(c, Fraction(rng.randint(-2, 2), 2)) if sig.complexified else c)
    return MV(sig, terms)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complexified"])
def test_one_term_product_matches_naive(n, complexified):
    # every blade, with coefficient 1 and with another one, times a random
    # multivector of every Cl(p, n - p)
    rng = random.Random(n)
    coeffs = [1, Fraction(-3, 2)] + [GaussianRational(0, 1)] * complexified
    for p in range(n + 1):
        sig = Signature(p, n - p, complexified)
        y = _random_mv(rng, sig, 8)
        ys = {indices_of(m): c for m, c in y.terms.items()}
        for a in range(1 << n):
            for c in coeffs:
                got = MV.blade(sig, a, c) * y
                want = naive_multivector_mul({indices_of(a): c}, ys, p)
                assert {indices_of(m): v for m, v in got.terms.items()} == want


def _one_blade_defects(sig, left, right):
    """The masks where e_a * right by the one-blade path differs from the
    general path, which takes right one term at a time, in value or type."""
    got = algebra._product_terms(left, right, sig)
    want = {}
    for b, cb in right.items():
        want.update(algebra._product_terms(left, {b: cb}, sig))
    return sorted(m for m in want.keys() | got.keys()
                  if m not in got or m not in want or got[m] != want[m]
                  or type(got[m]) is not type(want[m]))


def _shared_operands(sig, rng):
    """(left, right) pairs: one blade with coefficient 1, -1 or another, against
    12 masks that share one or two coefficient objects or hold their own, in
    ints and in Fractions (GaussianRationals when complexified)."""
    def num():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    def exact():
        c = Fraction(num(), rng.randint(1, 3))
        return GaussianRational(c, rng.randint(-2, 2)) if sig.complexified else c

    unit = GaussianRational if sig.complexified else Fraction
    top = 1 << sig.n
    for draw, coeffs in ((num, [1, -1, 2]), (exact, [unit(1), unit(-1), exact()])):
        for ca in coeffs:
            shared = [draw(), draw()]
            masks = rng.sample(range(top), min(top, 12))
            yield {rng.randrange(top): ca}, {m: shared[i % 2] for i, m in enumerate(masks)}
            yield {rng.randrange(top): ca}, {m: shared[0] for m in masks}
            yield {rng.randrange(top): ca}, {m: draw() for m in masks}


ONE_BLADE_ALGEBRAS = [Signature(p, n - p, c) for n in (2, 5, 8) for p in (0, n // 2, n)
                      for c in (False, True)] + SIGN_MASK_ALGEBRAS[-6:]


@pytest.mark.parametrize("sig", ONE_BLADE_ALGEBRAS,
                         ids=lambda sig: _algebra_id(sig) + ("i" if sig.complexified else ""))
def test_one_blade_path_matches_the_general_path(sig):
    # shared coefficient objects are negated once and kept where the sign is +
    rng = random.Random(sig.n)
    for left, right in _shared_operands(sig, rng):
        assert _one_blade_defects(sig, left, right) == []
        got = algebra._product_terms(left, right, sig)
        if next(iter(left.values())) == 1:
            assert len({id(c) for c in got.values()} - {id(c) for c in right.values()}) <= len(
                {id(c) for c in right.values()})


def test_one_blade_path_with_a_flipped_sign_fails(monkeypatch):
    # one flipped bit of beta reaches only the one-blade path's transposed mask
    anticommute = algebra.anticommute_mask
    monkeypatch.setattr(algebra, "anticommute_mask", lambda b, sig: anticommute(b, sig) ^ 1)
    sig = Signature(3, 2)
    assert any(_one_blade_defects(sig, left, right)
               for left, right in _shared_operands(sig, random.Random(0)))


@pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
@pytest.mark.parametrize("factors", [((1, 1), (0, 2)), ((2, 1), (1, 2))])
def test_one_term_tensor_product_matches_naive(factors, graded):
    pa = ProductAlgebra([Signature(p, q) for p, q in factors], graded=graded)
    rng = random.Random(pa.n)
    y = _random_mv(rng, pa, 10)

    def keyed(terms):
        return {tuple(indices_of(m) for m in pa.split(mask)): c for mask, c in terms.items()}

    for a in range(1 << pa.n):
        for c in (1, Fraction(5, 3)):
            got = TensorMV(pa, {a: c}) * y
            assert keyed(got.terms) == naive_tensor_product(keyed({a: c}), keyed(y.terms),
                                                            factors, graded)


@pytest.mark.parametrize("sig", [
    Signature(2, 1),
    ProductAlgebra((Signature(1, 1), Signature(0, 2))),
    ProductAlgebra((Signature(1, 1), Signature(0, 2)), graded=True),
], ids=["signature", "plain", "graded"])
def test_blade_mask_out_of_range_is_refused(sig):
    top = 1 << sig.n
    for mask in (top, 1 << 9, -1):
        with pytest.raises(ValueError, match=f"out of range for {sig.n} generators"):
            MV.blade(sig, mask)
        with pytest.raises(ValueError, match=f"out of range for {sig.n} generators"):
            MV(sig, {mask: 1})
        with pytest.raises(ValueError, match=f"out of range for {sig.n} generators"):
            blade_product(mask, 0, sig)
        with pytest.raises(ValueError, match=f"out of range for {sig.n} generators"):
            blade_product(0, mask, sig)


@pytest.mark.parametrize("mask", [1.0, 1.5, True, False, "1", None, Fraction(1)])
def test_blade_mask_of_wrong_type_is_refused(mask):
    # refused before the range check, as Signature refuses a non-int or bool
    sig = Signature(1, 1)
    with pytest.raises(TypeError, match="is not an int"):
        MV(sig, {mask: 1})
    with pytest.raises(TypeError, match="is not an int"):
        MV.blade(sig, mask)


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


# Ring operations build their results with MV._made, which trusts that the
# terms are already exact, nonzero and of the signature's coefficient type.
# These tests check that invariant on every kind of descriptor.

TRUSTED_ALGEBRAS = [
    (MV, Signature(2, 1)),
    (MV, Signature(1, 2, complexified=True)),
    (TensorMV, ProductAlgebra((Signature(1, 1), Signature(0, 1)), graded=True)),
    (TensorMV, ProductAlgebra((Signature(1, 0), Signature(0, 2)))),
    (TensorMV, ProductAlgebra((Signature(1, 0), Signature(1, 1, complexified=True)))),
]
TRUSTED_IDS = ["real", "complexified", "graded", "plain", "plain-complexified"]

small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _coefficients(sig):
    if not sig.complexified:
        return st.one_of(st.integers(-3, 3), small_fractions)
    return st.one_of(st.integers(-3, 3), small_fractions,
                     st.builds(GaussianRational, small_fractions, small_fractions))


def _clean_of_type(x, cls, sig):
    kind = GaussianRational if sig.complexified else Fraction
    return (type(x) is cls and x.sig == sig and x == MV(sig, x.terms)
            and all(type(c) is kind and c for c in x.terms.values()))


@pytest.mark.parametrize("cls,sig", TRUSTED_ALGEBRAS, ids=TRUSTED_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ring_operations_give_clean_terms(cls, sig, data):
    element = st.dictionaries(st.integers(0, (1 << sig.n) - 1), _coefficients(sig), max_size=5)
    x, y = cls(sig, data.draw(element)), cls(sig, data.draw(element))
    c = data.draw(_coefficients(sig))
    for result in (x + y, x - y, -x, x * y, x * c, c * x, x * x - x * x):
        assert _clean_of_type(result, cls, sig)
    for zero in (0, Fraction(0), GaussianRational(0)):
        assert (x * zero).terms == {} and (zero * x).terms == {}
        assert type(x * zero) is cls


@pytest.mark.parametrize("cls,sig", TRUSTED_ALGEBRAS, ids=TRUSTED_IDS)
def test_structure_helpers_keep_the_type(cls, sig):
    x = cls(sig, {m: Fraction(m + 1) for m in range(1 << sig.n)})
    for kind in ("grade_involution", "reversion", "conjugation"):
        assert _clean_of_type(involute(x, kind), cls, sig)
    parts = [x.grade_part(k) for k in range(sig.n + 1)]
    assert all(_clean_of_type(part, cls, sig) for part in parts)
    assert _clean_of_type(x.even_part(), cls, sig)
    assert _clean_of_type(x.odd_part(), cls, sig)
    assert x.even_part() + x.odd_part() == x
    assert sum(parts, cls(sig)) == x


def _square_sign_by_product(x, one):
    """The square of x against +-one by MV product and negation."""
    sq = x * x
    return 1 if sq == one else -1 if sq == -one else 0


def _square_sign_cases():
    """(descriptor, coefficients, ones): every blade of the descriptor times each
    coefficient is squared against each one, a scalar, f or a foreign unit."""
    i = GaussianRational(0, 1)
    for n in range(6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            ones = [MV.scalar(sig, 1), MV.scalar(sig, -1), MV.scalar(sig, 4), MV.zero(sig),
                    MV.scalar(Signature(p, n - p, True), 1), MV.scalar(Signature(p, n - p + 1), 1)]
            yield pytest.param(sig, (1, -1, 2, Fraction(1, 2)), ones, id=f"Cl({p},{n - p})")
            if n <= 4:
                csig = Signature(p, n - p, True)
                yield pytest.param(csig, (1, -1, i, -i, 2, Fraction(1, 2)), [
                    MV.scalar(csig, 1), MV.scalar(csig, -1), MV.scalar(sig, 1)],
                    id=f"C-Cl({p},{n - p})")
    for factors in (((1, 1), (0, 2)), ((2, 1), (1, 1)), ((2, 0, True), (2, 0, True))):
        sigs = [Signature(*f) for f in factors]
        for graded in (False, True):
            pa = ProductAlgebra(sigs, graded)
            other = ProductAlgebra(sigs, not graded)
            coeffs = (1, -1, 2, Fraction(1, 2)) + ((i, -i) if pa.complexified else (3,))
            yield pytest.param(pa, coeffs, [
                pa.scalar(1), pa.scalar(-1), MV.scalar(pa, 1), other.scalar(1)],
                id=f"{'graded' if graded else 'plain'}{factors}")
    for p, q in ((0, 2), (2, 2), (1, 3), (3, 1), (0, 5)):
        f = primitive_idempotent(p, q).f
        yield pytest.param(f.sig, (1, -1, Fraction(1, 4)), [f, -f], id=f"f-Cl({p},{q})")


@pytest.mark.parametrize("sig,coeffs,ones", list(_square_sign_cases()))
def test_one_blade_square_sign_matches_the_product(sig, coeffs, ones, monkeypatch):
    # a one-blade image c e_m squares to c^2 Q(m), read off its mask; it must
    # agree with x * x compared against +-one as MVs, and form no product
    cls = TensorMV if isinstance(sig, ProductAlgebra) else MV
    xs = [cls(sig, {m: c}) for m in range(1 << sig.n) for c in coeffs]
    multi = [cls(sig, {0: 1, m: c}) for m in range(1, 1 << sig.n, 3) for c in coeffs]
    want = [[_square_sign_by_product(x, one) for one in ones] for x in xs]
    want_multi = [[_square_sign_by_product(x, one) for one in ones] for x in multi]
    assert any(v for row in want for v in row) or all(len(one.terms) > 1 for one in ones)
    assert [[square_sign(x, one) for one in ones] for x in multi] == want_multi

    def no_product(*args):
        raise AssertionError("a one-blade square formed a product")

    monkeypatch.setattr(algebra, "_product_terms", no_product)
    assert [[square_sign(x, one) for one in ones] for x in xs] == want


def test_unit_blade_square_is_read_without_a_coefficient_product(monkeypatch):
    # +-e_m against the unit scalar squares to Q(m) and i e_m to -Q(m); the
    # first is decided with no coefficient product at all
    i = GaussianRational(0, 1)
    units, imaginary = [], []
    for sig in (Signature(2, 3), Signature(2, 3, True),
                ProductAlgebra((Signature(1, 1), Signature(0, 2, True))),
                ProductAlgebra((Signature(1, 1), Signature(2, 0)), graded=True)):
        cls = TensorMV if isinstance(sig, ProductAlgebra) else MV
        one = cls(sig, {0: 1})
        for m in range(1 << sig.n):
            q = blade_product(m, m, sig)[0]
            units += [(cls(sig, {m: c}), one, q) for c in (1, -1)]
            if sig.complexified:
                imaginary.append((cls(sig, {m: i}), one, -q))
    cases = units + imaginary
    assert {q for *_, q in cases} == {1, -1} and len(imaginary) == 32 + 16
    assert [_square_sign_by_product(x, one) for x, one, _ in cases] == [q for *_, q in cases]
    assert [square_sign(x, one) for x, one, _ in imaginary] == [q for *_, q in imaginary]

    def no_mul(*args):
        raise AssertionError("a unit coefficient was squared")

    monkeypatch.setattr(Fraction, "__mul__", no_mul)
    monkeypatch.setattr(GaussianRational, "__mul__", no_mul)
    assert [square_sign(x, one) for x, one, _ in units] == [q for *_, q in units]
