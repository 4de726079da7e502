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
    _splits_center,
    anticommute_mask,
    blade_product,
    blade_square,
    omega_square,
)
from cl8.classify import primitive_idempotent
from cl8.tensoriso import ProductAlgebra, TensorMV, _witness

from naive import (
    all_blades,
    indices_of,
    naive_blade_product,
    naive_blade_square,
    naive_central_split_ok,
    naive_commute,
    naive_gaussian_mul,
    naive_grade_involution,
    naive_idempotent,
    naive_multivector_mul,
    naive_reversion,
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


@pytest.mark.parametrize("p,q", [(p, q) for p in range(6) for q in range(6) if p + q >= 1])
def test_omega_square_matches_oracle_and_periodicity(p, q):
    sig = Signature(p, q)
    n = p + q
    full = tuple(range(1, n + 1))
    assert omega_square(sig) == naive_blade_square(full, p)
    omega = MV.blade(sig, (1 << n) - 1)
    assert omega * omega == MV.scalar(sig, omega_square(sig))
    t = (p - q) % 8
    if n % 2 == 0:
        assert omega_square(sig) == (1 if t in (0, 4) else -1)
    else:
        assert omega_square(sig) == (1 if t in (1, 5) else -1)


@pytest.mark.parametrize("p,q", [(3, 0), (1, 2), (0, 3), (2, 3)])
def test_volume_element_central_for_odd_n(p, q):
    sig = Signature(p, q)
    omega = MV.blade(sig, (1 << (p + q)) - 1)
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
    assert _splits_center(mask, 0, sig) is ok
    assert naive_central_split_ok(MV.blade(sig, mask)) is ok


# i^c for the phase c of a phased blade
I_POWERS = (1, GaussianRational(0, 1), -1, GaussianRational(0, -1))


def _assert_split_matches_oracle(sig, masks):
    # _splits_center's mask rule against the MV-product formula, for every
    # phased blade i^c e_m the algebra holds (odd c only once complexified)
    for mask in masks:
        for c in range(0, 4, 1 if sig.complexified else 2):
            alpha = MV(sig, {mask: I_POWERS[c]})
            assert _splits_center(mask, c, sig) is naive_central_split_ok(alpha), (mask, c)


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


def test_central_split_rule_with_a_flipped_beta_fails(monkeypatch):
    # with beta(., m) read one bit off, the rule calls a non-central blade
    # central (or the reverse) on some blade: the oracle sees it
    sig = Signature(2, 1)
    want = [naive_central_split_ok(MV.blade(sig, m)) for m in range(1 << sig.n)]
    assert [_splits_center(m, 0, sig) for m in range(1 << sig.n)] == want
    monkeypatch.setattr(algebra, "anticommute_mask", lambda b, sig: anticommute_mask(b, sig) ^ 1)
    assert [_splits_center(m, 0, sig) for m in range(1 << sig.n)] != want


def test_volume_element_anticommutes_with_vectors_for_even_n():
    sig = Signature(1, 3)
    omega = MV.blade(sig, 0b1111)
    for i in range(1, 5):
        e = MV.generator(sig, i)
        assert omega * e == -(e * omega)


@pytest.mark.parametrize("p,q", SMALL_SIGS)
def test_even_subalgebra_closed(p, q):
    sig = Signature(p, q)
    basis = [m for m in range(1 << sig.n) if len(indices_of(m)) % 2 == 0]
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
    assert naive_reversion(a * b) == naive_reversion(b) * naive_reversion(a)


@settings(max_examples=60, deadline=None)
@given(mv_terms, mv_terms)
def test_grade_involution_is_automorphism(ta, tb):
    sig = Signature(0, 3)
    a, b = build(sig, ta), build(sig, tb)
    assert naive_grade_involution(a * b) == naive_grade_involution(a) * naive_grade_involution(b)


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
    # so the one-block grade count is wrong on some mask; blade_square takes
    # the F rule there, as the MV product does. A graded product is one block,
    # and the count holds
    def one_block(m, sig):
        g = m.bit_count()
        return -1 if (g * (g - 1) // 2 + (m & sig.minus_mask).bit_count()) & 1 else 1

    assert _square_defects(algebra.blade_square, pa) == []
    assert bool(pa.cuts) != pa.graded
    assert bool(_square_defects(one_block, pa)) == bool(pa.cuts)
    one = TensorMV(pa, {0: 1})
    assert [_square_sign_by_product(TensorMV(pa, {m: -1}), one) for m in range(1 << pa.n)] == [
        blade_square(m, pa) for m in range(1 << pa.n)]


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


def _square_sign_by_product(x, one):
    """The square of x against +-one by MV product and negation."""
    sq = x * x
    return 1 if sq == one else -1 if sq == -one else 0


def _phased_square(mask, c, alg):
    """The square of the phased blade (mask, c) as a generator-map witness reads it."""
    return _witness([(mask, c)], alg, (1, 0), None).squares[0]


def _square_sign_cases():
    """(descriptor, idempotent): every phased blade of the descriptor is squared, or,
    with an idempotent, every blade e_A times f is squared against f."""
    for n in range(6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            yield pytest.param(sig, None, id=f"Cl({p},{n - p})")
            if n <= 4:
                yield pytest.param(Signature(p, n - p, True), None, id=f"C-Cl({p},{n - p})")
    for factors in (((1, 1), (0, 2)), ((2, 1), (1, 1)), ((2, 0, True), (2, 0, True))):
        sigs = [Signature(*f) for f in factors]
        for graded in (False, True):
            yield pytest.param(ProductAlgebra(sigs, graded), None,
                               id=f"{'graded' if graded else 'plain'}{factors}")
    for p, q in ((0, 2), (2, 2), (1, 3), (3, 1), (0, 5)):
        data = primitive_idempotent(p, q)
        yield pytest.param(data.sig, data, id=f"f-Cl({p},{q})")


@pytest.mark.parametrize("alg,idem", list(_square_sign_cases()))
def test_one_blade_square_sign_matches_the_product(alg, idem):
    # a phased blade i^c e_m squares to (-1)^c Q(m), read off its mask by the
    # witness; a corner unit e_A f squares to Q(A) f when e_A commutes with f's
    # generators, and to 0 otherwise. Both must agree with MV products
    cls = TensorMV if isinstance(alg, ProductAlgebra) else MV
    masks = range(1 << alg.n)
    if idem is None:
        one = cls(alg, {0: 1})
        phases = range(0, 4, 1 if alg.complexified else 2)
        want = [_square_sign_by_product(cls(alg, {m: I_POWERS[c]}), one)
                for m in masks for c in phases]
        assert [_phased_square(m, c, alg) for m in masks for c in phases] == want
    else:
        f = naive_idempotent(idem)
        betas = [anticommute_mask(g, alg) for g in idem.generators]
        want = [_square_sign_by_product(MV.blade(alg, m) * f, f) for m in masks]
        assert [0 if any((m & b).bit_count() & 1 for b in betas) else blade_square(m, alg)
                for m in masks] == want
    assert 1 in want  # the scalar, at least


def test_unit_blade_square_is_read_without_a_coefficient_product(monkeypatch):
    # +-e_m squares to Q(m) and +-i e_m to -Q(m); the witness reads both off
    # the mask with no coefficient product at all
    cases = []
    for sig in (Signature(2, 3), Signature(2, 3, True),
                ProductAlgebra((Signature(1, 1), Signature(0, 2, True))),
                ProductAlgebra((Signature(1, 1), Signature(2, 0)), graded=True)):
        cls = TensorMV if isinstance(sig, ProductAlgebra) else MV
        one = cls(sig, {0: 1})
        for m in range(1 << sig.n):
            for c in range(0, 4, 1 if sig.complexified else 2):
                x = cls(sig, {m: I_POWERS[c]})
                cases.append((sig, m, c, _square_sign_by_product(x, one)))
    assert {q for *_, q in cases} == {1, -1}
    assert sum(c & 1 for _, _, c, _ in cases) == 2 * (32 + 16)

    def no_mul(*args):
        raise AssertionError("a unit coefficient was squared")

    monkeypatch.setattr(Fraction, "__mul__", no_mul)
    monkeypatch.setattr(GaussianRational, "__mul__", no_mul)
    assert [_phased_square(m, c, sig) for sig, m, c, _ in cases] == [q for *_, q in cases]
