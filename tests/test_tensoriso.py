"""Tensor-product and even-subalgebra isomorphism certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cl8.algebra import MV, GaussianRational, Signature
from cl8.tensoriso import (
    MAX_TENSOR_N,
    ProductAlgebra,
    block_matrix_form,
    complex_tensor_check,
    even_iso_check,
    graded_tensor_check,
    karoubi_check,
    phi_psi_factorization,
    spin24_chain,
)

from naive import naive_tensor_product


def test_graded_product_koszul_sign():
    pa = ProductAlgebra((Signature(1, 0), Signature(0, 1)), graded=True)
    x = pa.blade((0b1, 0b0))   # e1 (x) 1
    y = pa.blade((0b0, 0b1))   # 1 (x) e1'
    assert x * y == pa.blade((0b1, 0b1))
    assert y * x == pa.blade((0b1, 0b1), -1)


def test_ungraded_product_has_no_koszul_sign():
    pa = ProductAlgebra((Signature(1, 0), Signature(0, 1)), graded=False)
    x = pa.blade((0b1, 0b0))
    y = pa.blade((0b0, 0b1))
    assert x * y == y * x


def test_tensor_coefficients_are_exact():
    pa = ProductAlgebra((Signature(1, 0), Signature(0, 1)))
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError):
            pa.blade((1, 0), bad)
        with pytest.raises(TypeError):
            pa.scalar(bad)
        with pytest.raises(TypeError):
            pa.blade((1, 0)) * bad
    assert pa.blade((1, 0), Fraction(1, 3)).terms == {0b01: Fraction(1, 3)}
    cpa = ProductAlgebra((Signature(1, 0, complexified=True), Signature(0, 1)))
    with pytest.raises(TypeError):
        cpa.blade((1, 0), 0.5)


def test_tensor_blades_concatenate_factor_masks():
    pa = ProductAlgebra((Signature(1, 1), Signature(2, 0), Signature(0, 1)))
    assert (pa.n, pa.minus_mask, pa.cuts) == (5, 0b10010, 0b10100)
    x = pa.blade((0b10, 0b01, 0b1), 3)
    assert x.terms == {0b10110: 3}
    assert pa.split(0b10110) == (0b10, 0b01, 0b1)
    assert ProductAlgebra(pa.sigs, graded=True).cuts == 0
    with pytest.raises(ValueError):
        pa.blade((0b100, 0, 0))
    with pytest.raises(ValueError):
        pa.blade((0, 0))


FACTOR_SIGS = [(p, q) for p in range(3) for q in range(3) if p + q <= 2]


@st.composite
def tensor_operands(draw):
    factors = draw(st.lists(st.sampled_from(FACTOR_SIGS), min_size=2, max_size=3))
    complexified = draw(st.booleans())
    graded = draw(st.booleans())
    coeff = st.integers(-3, 3)
    if complexified:
        coeff = st.builds(GaussianRational, coeff, coeff)
    blade = st.tuples(*(st.integers(0, (1 << (p + q)) - 1) for p, q in factors))
    terms = st.lists(st.tuples(blade, coeff), max_size=4)
    return factors, complexified, graded, draw(terms), draw(terms)


def _indices(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@settings(max_examples=150, deadline=None)
@given(tensor_operands())
def test_tensor_product_matches_naive(case):
    factors, complexified, graded, ta, tb = case
    sigs = [Signature(p, q, complexified) for p, q in factors]
    pa = ProductAlgebra(sigs, graded=graded)
    x, y = pa.scalar(0), pa.scalar(0)
    naive_x, naive_y = {}, {}
    for masks, c in ta:
        x = x + pa.blade(masks, c)
        key = tuple(_indices(m) for m in masks)
        naive_x[key] = naive_x.get(key, 0) + c
    for masks, c in tb:
        y = y + pa.blade(masks, c)
        key = tuple(_indices(m) for m in masks)
        naive_y[key] = naive_y.get(key, 0) + c
    got = x * y
    assert type(got) is type(x)
    got_dict = {tuple(_indices(m) for m in pa.split(k)): c for k, c in got.terms.items()}
    assert got_dict == naive_tensor_product(naive_x, naive_y, factors, graded)


def test_graded_tensor_check_basic():
    rep = graded_tensor_check((1, 1), (2, 0))
    assert rep.target_sig == (3, 1)
    assert rep.certified
    assert rep.rank == 16
    assert rep.squares == [1, 1, 1, -1]


@pytest.mark.parametrize("a,b", [((1, 0), (0, 1)), ((2, 0), (0, 2)), ((1, 3), (1, 0))])
def test_graded_tensor_check_more(a, b):
    rep = graded_tensor_check(a, b)
    assert rep.target_sig == (a[0] + b[0], a[1] + b[1])
    assert rep.certified
    assert rep.rank == 2 ** (a[0] + a[1] + b[0] + b[1])


def test_karoubi_positive_cases():
    rep = karoubi_check((1, 1), (0, 2))
    assert rep.target_sig == (1, 3)
    assert rep.construction == "positive"
    assert rep.certified
    rep2 = karoubi_check((1, 1), (2, 0))
    assert rep2.target_sig == (3, 1)
    assert rep2.construction == "positive"
    assert rep2.certified


def test_karoubi_negative_case_flips_second_signature():
    rep = karoubi_check((0, 2), (1, 1))
    assert rep.construction == "negative"
    assert rep.target_sig == (1, 3)
    assert rep.certified
    # the flip is visible in the image squares: the second factor's plus
    # generator now squares to -1 and its minus generator to +1
    assert sorted(rep.squares) == [-1, -1, -1, 1]


def test_karoubi_requires_even_first_factor():
    with pytest.raises(ValueError):
        karoubi_check((1, 0), (1, 1))


def test_tensor_checks_share_one_size_bound():
    # (6, 6) x (0, 1) has 13 generators: refused before any product is formed
    with pytest.raises(ValueError, match="too large"):
        karoubi_check((6, 6), (0, 1))
    with pytest.raises(ValueError, match="too large"):
        graded_tensor_check((6, 4), (0, 1))
    assert MAX_TENSOR_N == 10
    assert karoubi_check((4, 4), (2, 0)).rank == 1 << MAX_TENSOR_N


@pytest.mark.parametrize("m,rank", [(1, 4), (2, 16), (3, 64)])
def test_complex_tensor_chain(m, rank):
    rep = complex_tensor_check(m)
    assert rep.certified
    assert rep.rank == rank
    assert len(rep.images) == 2 * m
    assert rep.squares == [1] * (2 * m)


EVEN_CASES = [
    ((1, 3), (3, 0), "B"),
    ((4, 1), (1, 3), "B"),
    ((2, 4), (4, 1), "B"),
    ((3, 0), (0, 2), "A"),
    ((0, 3), (0, 2), "A"),
    ((2, 2), (2, 1), "A"),
]


@pytest.mark.parametrize("source,target,construction", EVEN_CASES)
def test_even_iso_selection_and_certification(source, target, construction):
    rep = even_iso_check(*source)
    assert rep.target_sig == target
    assert rep.construction == construction
    assert rep.certified
    n = source[0] + source[1]
    assert rep.rank == 2 ** (n - 1)
    for img in rep.images:
        assert img.grades() == {2}


def test_even_iso_selection_rule_all_small():
    for p in range(6):
        for q in range(6):
            if p + q < 1 or (p, q) == (0, 1) or (p, q) == (1, 0):
                continue
            rep = even_iso_check(p, q)
            if p >= 1 and p != q:
                assert rep.target_sig == (q, p - 1)
            else:
                assert rep.target_sig == (p, q - 1)
            assert rep.certified


PHI_PSI_CASES = [
    ((1, 3), (1, 1), -1, -1, "quaternion"),
    ((2, 2), (1, 1), 1, -1, "anti"),
    ((2, 2), (2, 0), 1, 1, "pseudo"),
    ((0, 4), (0, 2), 1, 1, "pseudo"),
    ((0, 2), (0, 0), -1, -1, "quaternion"),
    ((2, 0), (0, 0), 1, 1, "pseudo"),
    ((3, 1), (1, 1), 1, 1, "pseudo"),
]


@pytest.mark.parametrize("target,base,phi_sq,psi_sq,case", PHI_PSI_CASES)
def test_phi_psi_cases(target, base, phi_sq, psi_sq, case):
    rep = phi_psi_factorization(target, base)
    assert rep.phi_sq == phi_sq
    assert rep.psi_sq == psi_sq
    assert rep.case == case
    assert rep.commute_ok
    assert rep.product_anticommutes
    assert rep.passed
    n = target[0] + target[1]
    assert rep.rank == 2 ** n


def test_phi_psi_spacetime_frozen_elements():
    rep = phi_psi_factorization((1, 3), (1, 1))
    sig = Signature(1, 3)
    assert rep.phi == MV.blade(sig, 0b0111)   # e123
    assert rep.psi == MV.blade(sig, 0b1011)   # e124
    prod = rep.phi * rep.psi
    assert prod == MV.blade(sig, 0b1100)      # +e34
    assert prod * prod == MV.scalar(sig, -1)
    e1, e2 = MV.generator(sig, 1), MV.generator(sig, 2)
    for u in (rep.phi, rep.psi):
        assert u * e1 == e1 * u
        assert u * e2 == e2 * u
    assert rep.rank == 16


def test_phi_psi_product_square_identity():
    for target, base, *_ in PHI_PSI_CASES:
        rep = phi_psi_factorization(target, base)
        prod = rep.phi * rep.psi
        sig = rep.phi.sig
        assert prod * prod == MV.scalar(sig, -rep.phi_sq * rep.psi_sq)
        assert rep.phi * rep.psi == -(rep.psi * rep.phi)


def test_block_matrix_frozen_images():
    form = block_matrix_form(1, 2)
    assert form.target == Signature(1, 3)
    assert form.base == Signature(1, 1, complexified=True)
    one = MV.scalar(Signature(1, 3), 1)
    m_one = form.matrix_of(one)
    cb = form.base
    zero, ident = MV.zero(cb), MV.scalar(cb, 1)
    assert m_one == [[ident, zero], [zero, ident]]
    m_phi = form.matrix_of(form.phi)
    assert m_phi == [[zero, -ident], [ident, zero]]
    m_psi = form.matrix_of(form.psi)
    from cl8.algebra import GaussianRational
    i_ident = MV.scalar(cb, GaussianRational(0, 1))
    assert m_psi == [[zero, i_ident], [i_ident, zero]]


def test_block_matrix_respects_generator_squares():
    form = block_matrix_form(1, 2)
    sig = form.target
    for i in range(1, 5):
        e = MV.generator(sig, i)
        m = form.matrix_of(e)
        sq = matmul2(m, m, form.base)
        want = 1 if i == 1 else -1
        assert sq == [[MV.scalar(form.base, want), MV.zero(form.base)],
                      [MV.zero(form.base), MV.scalar(form.base, want)]]


def matmul2(a, b, sig):
    out = [[MV.zero(sig), MV.zero(sig)], [MV.zero(sig), MV.zero(sig)]]
    for i in range(2):
        for j in range(2):
            acc = MV.zero(sig)
            for k in range(2):
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def test_block_matrix_homomorphism_sampling():
    form = block_matrix_form(1, 2)
    report = form.sample_homomorphism(samples=25, seed=11)
    assert report["passed"] is True
    assert report["checked"] == 25
    assert report["failures"] == 0


def test_block_matrix_other_signature():
    form = block_matrix_form(2, 3)
    assert form.target == Signature(2, 4)
    assert form.base == Signature(2, 2, complexified=True)
    report = form.sample_homomorphism(samples=10, seed=3)
    assert report["passed"] is True


def test_block_matrix_rejects_bad_cases():
    # even p+q leaves no integral m for the phi/psi pair
    with pytest.raises(ValueError):
        block_matrix_form(0, 2)
    # phi^2 = +1 here: pseudo case, not the quaternionic one the blocks need
    with pytest.raises(ValueError):
        block_matrix_form(2, 1)
    with pytest.raises(ValueError):
        block_matrix_form(1, 0)


def test_spin24_chain_links():
    report = spin24_chain()
    assert report.ok
    assert len(report.links) == 4
    names = [link.name for link in report.links]
    assert names == [
        "even_subalgebra",
        "matrix_realization",
        "complexified_realization",
        "karoubi_product",
    ]
    assert all(link.certified for link in report.links)
    assert report.links[0].rank == 32
    assert report.links[1].rank == 32
    assert report.links[2].rank == 16
    assert report.links[3].rank == 16
