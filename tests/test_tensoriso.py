"""Tensor-product and even-subalgebra isomorphism certificates."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cl8 import tensoriso
from cl8.algebra import MV, GaussianRational, Signature
from cl8.table import MAX_SAMPLES
from cl8.tensoriso import (
    MAX_WITNESS_N,
    BlockForm,
    ProductAlgebra,
    complex_tensor_check,
    even_iso_check,
    generator_map_json,
    graded_tensor_check,
    karoubi_check,
    phi_psi_factorization,
    spin24_chain,
    _witness,
)

from naive import (
    indices_of,
    naive_block_matrix,
    naive_block_sample,
    naive_matrix_of,
    naive_even_images,
    naive_matrix_link_facts,
    naive_phased_mvs,
    naive_phi_psi,
    naive_product_images,
    naive_subset_product_rank,
    naive_tensor_product,
    naive_witness_facts,
    pairwise_anticommute,
)


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
        key = tuple(indices_of(m) for m in masks)
        naive_x[key] = naive_x.get(key, 0) + c
    for masks, c in tb:
        y = y + pa.blade(masks, c)
        key = tuple(indices_of(m) for m in masks)
        naive_y[key] = naive_y.get(key, 0) + c
    got = x * y
    assert type(got) is type(x)
    got_dict = {tuple(indices_of(m) for m in pa.split(k)): c for k, c in got.terms.items()}
    assert got_dict == naive_tensor_product(naive_x, naive_y, factors, graded)


@st.composite
def blade_images(draw):
    """Up to six phased blades (mask, c) in an algebra on n <= 6 generators:
    Cl(p, q) or a two-factor tensor product, real (c even) or complexified.
    Some masks repeat, are 0 or are the XOR of earlier ones."""
    n = draw(st.integers(0, 6))
    complexified = draw(st.booleans())
    phases = st.integers(0, 3) if complexified else st.sampled_from((0, 2))
    if draw(st.booleans()):
        p = draw(st.integers(0, n))
        alg = Signature(p, n - p, complexified=complexified)
    else:
        cut = draw(st.integers(0, n))
        p1, p2 = draw(st.integers(0, cut)), draw(st.integers(0, n - cut))
        sigs = (Signature(p1, cut - p1, complexified=complexified), Signature(p2, n - cut - p2))
        alg = ProductAlgebra(sigs, graded=draw(st.booleans()))
    masks = []
    for _ in range(draw(st.integers(0, 6))):
        if masks and draw(st.booleans()):
            mask = 0
            for m in draw(st.lists(st.sampled_from(masks), min_size=1, max_size=3)):
                mask ^= m
        else:
            mask = draw(st.integers(0, (1 << n) - 1))
        masks.append(mask)
    return [(m, draw(phases)) for m in masks], alg


@settings(max_examples=150, deadline=None)
@given(blade_images())
def test_subset_product_rank_matches_the_product_oracle(case):
    # the witness's rank is 2^(GF(2) rank of the masks); the oracle multiplies
    # out all 2^k subset products of the images built as MVs
    images, alg = case
    one, mvs = naive_phased_mvs(images, alg)
    assert _witness(images, alg, (0, 0), None).rank == naive_subset_product_rank(mvs, one)


def test_witness_refuses_an_odd_phase_in_a_real_algebra():
    # i e1 would square to -1, but i is no element of Cl(2,0): a real witness
    # with an odd phase is refused, not read as a Cl(1,1) witness
    with pytest.raises(ValueError, match="odd phase"):
        _witness([(0b01, 1), (0b10, 0)], Signature(2, 0), (1, 1), None)
    rep = _witness([(0b01, 1), (0b10, 0)], Signature(2, 0, complexified=True), (1, 1), None)
    assert rep.squares == [1, -1] and rep.certified


WITNESS_ALGEBRAS = [
    Signature(1, 3),
    Signature(2, 2, complexified=True),
    ProductAlgebra((Signature(1, 1), Signature(0, 2))),
    ProductAlgebra((Signature(1, 1), Signature(0, 2)), graded=True),
]


@pytest.mark.parametrize("alg", WITNESS_ALGEBRAS, ids=["real", "complexified", "plain", "graded"])
def test_witness_certifies_exactly_what_the_relation_check_does(alg):
    # every set of two or three distinct blades, with phases, against the
    # MV-product relation check; many have full rank and the right squares but
    # a commuting pair, which only the anticommutation check refuses
    refused_for_commuting = 0
    for k in (2, 3):
        for masks in combinations(range(1, 1 << alg.n), k):
            raw = [(m, m % 4 if alg.complexified else 2 * (m % 2)) for m in masks]
            one, images = naive_phased_mvs(raw, alg)
            squares = [1 if x * x == one else -1 for x in images]
            target = (squares.count(1), squares.count(-1))
            rep = _witness(raw, alg, target, None)
            assert sorted(rep.squares) == sorted(squares)
            full = rep.rank == 1 << k
            assert rep.certified == (full and pairwise_anticommute(images))
            refused_for_commuting += full and not rep.certified
    assert refused_for_commuting > 0


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
    # graded and Karoubi witnesses are bounded by MAX_WITNESS_N alone, like the
    # others (see the refusal tests below), so 11 and 13 generators are certified
    assert not hasattr(tensoriso, "MAX_TENSOR_N")
    assert karoubi_check((6, 6), (0, 1)).rank == 1 << 13
    assert graded_tensor_check((6, 4), (0, 1)).rank == 1 << 11
    assert karoubi_check((4, 4), (2, 0)).rank == 1 << 10


@pytest.mark.parametrize("m,rank", [(1, 4), (2, 16), (3, 64), (5, 4**5), (8, 4**8)])
def test_complex_tensor_chain(m, rank):
    rep = complex_tensor_check(m)
    assert rep.certified
    assert rep.rank == rank
    assert len(rep.images) == 2 * m
    assert rep.squares == [1] * (2 * m)


@pytest.mark.parametrize("m", [True, False, 1.0, 2.5, "1"])
def test_complex_tensor_check_refuses_a_factor_count_that_is_not_an_int(monkeypatch, m):
    # a bool is an int to Python, so complex_tensor_check(True) would certify (2, 0);
    # the refusal comes before any signature is built
    def no_work(*a, **k):
        raise AssertionError("work started before the type check")

    monkeypatch.setattr(tensoriso, "Signature", no_work)
    with pytest.raises(ValueError, match="m must be an int"):
        complex_tensor_check(m)


@pytest.mark.parametrize("m", [5, 6])
def test_complex_tensor_images_past_four_factors(m):
    # the MV-product reference holds every image, and factor j carries i^(j mod 4)
    # times the volume element of every earlier factor
    rep = complex_tensor_check(m)
    one, images = naive_phased_mvs(rep.images, rep.algebra)
    assert all(x * x == one for x in images)
    assert pairwise_anticommute(images)
    assert rep.images == [((1 << 2 * j) - 1 | 1 << (2 * j + g), j % 4)
                          for j in range(m) for g in range(2)]


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
    for mask, c in rep.images:
        assert mask.bit_count() == 2 and c in (0, 2)


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


def test_even_images_match_generator_products():
    # each image e_i e_pin is named by blade_product off the masks; the oracle
    # multiplies the generators, and _witness puts the +1 squares first
    for n in range(1, 9):
        for p in range(n + 1):
            rep = even_iso_check(p, n - p)
            sig = Signature(p, n - p)
            one = MV.scalar(sig, 1)
            if rep.construction == "B":
                raw = naive_even_images(sig, 1, range(2, n + 1))
            else:
                raw = naive_even_images(sig, n, range(1, n))
            want = [x for x in raw if x * x == one] + [x for x in raw if x * x != one]
            assert naive_phased_mvs(rep.images, sig)[1] == want, (p, n - p)


PHI_PSI_CASES = [
    ((1, 3), (1, 1), -1, -1, "quaternion"),
    ((2, 2), (1, 1), 1, -1, "anti"),
    ((2, 2), (2, 0), 1, 1, "pseudo"),
    ((0, 4), (0, 2), 1, 1, "pseudo"),
    ((0, 2), (0, 0), -1, -1, "quaternion"),
    ((2, 0), (0, 0), 1, 1, "pseudo"),
    ((3, 1), (1, 1), 1, 1, "pseudo"),
]


def _phased_pair(pair, sig):
    """phi and psi, two phased blades (mask, c) of sig, as MVs."""
    return naive_phased_mvs(pair, sig)[1]


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
    assert (rep.phi, rep.psi) == ((0b0111, 0), (0b1011, 0))
    phi, psi = _phased_pair((rep.phi, rep.psi), sig)
    assert phi == MV.blade(sig, 0b0111)   # e123
    assert psi == MV.blade(sig, 0b1011)   # e124
    prod = phi * psi
    assert prod == MV.blade(sig, 0b1100)      # +e34
    assert prod * prod == MV.scalar(sig, -1)
    e1, e2 = MV.generator(sig, 1), MV.generator(sig, 2)
    for u in (phi, psi):
        assert u * e1 == e1 * u
        assert u * e2 == e2 * u
    assert rep.rank == 16


def test_phi_psi_product_square_identity():
    for target, base, *_ in PHI_PSI_CASES:
        rep = phi_psi_factorization(target, base)
        sig = Signature(*target)
        phi, psi = _phased_pair((rep.phi, rep.psi), sig)
        prod = phi * psi
        assert prod * prod == MV.scalar(sig, -rep.phi_sq * rep.psi_sq)
        assert phi * psi == -(psi * phi)


@pytest.mark.parametrize("target,base", [((2, 2), (True, 1)), ((1, 3), (-1, 3)),
                                         ((1, 3), (1.0, 1))], ids=["bool", "negative", "float"])
def test_phi_psi_refuses_an_invalid_base_signature(target, base):
    # the base is built as a Signature before any generator index is shifted
    # into a mask, so a bool, a negative count and a float are all refused
    with pytest.raises(ValueError, match="invalid signature"):
        phi_psi_factorization(target, base)


def _phi_psi_inputs(max_n):
    """Every valid (target, base): an even base, two generators short."""
    for n in range(2, max_n + 1, 2):
        for p in range(n + 1):
            for p0 in range(p + 1):
                q0 = n - 2 - p0
                if 0 <= q0 <= n - p:
                    yield (p, n - p), (p0, q0)


def test_phi_psi_relations_match_mv_products(monkeypatch):
    # phi, psi, their squares, commute_ok and product_anticommutes are read off
    # masks; every valid split with p + q <= 8 must agree with explicit MV
    # products. Two broken embeddings make the relations False: an odd chain (one
    # base generator dropped) anticommutes with the base, and phi = psi commutes
    # with itself
    from cl8 import tensoriso

    embed = tensoriso._embed_base_generators
    variants = [
        embed,
        lambda t, b: (embed(t, b)[0][:-1], embed(t, b)[1]),
        lambda t, b: (embed(t, b)[0], embed(t, b)[1][:1] * 2),
    ]
    seen = set()
    cases = list(_phi_psi_inputs(8))
    assert len(cases) == 48  # 3 + 9 + 15 + 21 for n = 2, 4, 6, 8
    for variant in variants:
        monkeypatch.setattr(tensoriso, "_embed_base_generators", variant)
        for target, base in cases:
            rep = phi_psi_factorization(target, base)
            sig = Signature(*target)
            phi, psi = _phased_pair((rep.phi, rep.psi), sig)
            base_idx, added = variant(target, base)
            oracle = naive_phi_psi(sig, base_idx, added)
            assert (phi, psi, rep.phi_sq, rep.psi_sq) == oracle, (target, base)
            gens = [MV.generator(sig, i) for i in base_idx]
            commute = all(phi * g == g * phi and psi * g == g * psi for g in gens)
            anti = phi * psi == -(psi * phi)
            assert (rep.commute_ok, rep.product_anticommutes) == (commute, anti), (target, base)
            seen.add((commute, anti))
    assert seen == {(True, True), (False, True), (True, False)}


def test_block_matrix_frozen_images():
    form = BlockForm(1, 2)
    assert form.target == Signature(1, 3)
    one = MV.scalar(Signature(1, 3), 1)
    m_one = naive_matrix_of(form, one)
    cb = Signature(1, 1, complexified=True)
    zero, ident = MV.zero(cb), MV.scalar(cb, 1)
    assert m_one == [[ident, zero], [zero, ident]]
    phi, psi = _phased_pair((form.phi, form.psi), form.target)
    m_phi = naive_matrix_of(form, phi)
    assert m_phi == [[zero, -ident], [ident, zero]]
    m_psi = naive_matrix_of(form, psi)
    from cl8.algebra import GaussianRational
    i_ident = MV.scalar(cb, GaussianRational(0, 1))
    assert m_psi == [[zero, i_ident], [i_ident, zero]]


def test_block_matrix_respects_generator_squares():
    form = BlockForm(1, 2)
    sig, cb = form.target, Signature(1, 1, complexified=True)
    for i in range(1, 5):
        e = MV.generator(sig, i)
        m = naive_matrix_of(form, e)
        sq = matmul2(m, m, cb)
        want = 1 if i == 1 else -1
        assert sq == [[MV.scalar(cb, want), MV.zero(cb)],
                      [MV.zero(cb), MV.scalar(cb, want)]]


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
    form = BlockForm(1, 2)
    report = form.sample_homomorphism(samples=25, seed=11)
    assert report["passed"] is True
    assert report["checked"] == 25
    assert report["failures"] == 0


# SHA-256 of the (mask, coefficient) lists, in term order, of the elements the
# block samples draw: BlockForm(p, q)._random_element for x then y of each of 100
# samples, seeds 0-3. Recorded when each element was built as a chain of MV sums
# (it now draws the int term dict those sums held); any change to which samples
# `cl8 verify block` and the benchmark check changes it.
BLOCK_SAMPLE_DIGEST = "c7198aeb9b256a535f2a25751404b4c1aedffeef0d3fa5d37162c44ea9f599d4"


def test_block_sample_stream_is_frozen():
    h = hashlib.sha256()
    for p, q in ((1, 2), (2, 3), (3, 4), (4, 1)):
        form = BlockForm(p, q)
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(2 * 100):
                x = form._random_element(rng, form.target.n)
                h.update(repr([(m, str(c)) for m, c in x.items()]).encode() + b"\n")
    assert h.hexdigest() == BLOCK_SAMPLE_DIGEST


@pytest.mark.parametrize("samples", [0, -3])
def test_block_sampler_refuses_no_samples(monkeypatch, samples):
    # a sampled check with nothing sampled must not pass; the refusal comes
    # before any sample is drawn or multiplied
    from cl8 import algebra

    def no_product(*args):
        raise AssertionError("a sample was multiplied")

    form = BlockForm(1, 2)
    monkeypatch.setattr(algebra, "_product_terms", no_product)
    monkeypatch.setattr(tensoriso, "_product_terms", no_product)
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        form.sample_homomorphism(samples=samples)


def test_block_sampler_bounds_samples_before_the_first_draw(monkeypatch):
    # a count that would run for hours is refused before any element is drawn
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    form = BlockForm(1, 2)
    monkeypatch.setattr(BlockForm, "_random_element", no_draw)
    limit = MAX_SAMPLES
    with pytest.raises(ValueError, match=f"samples = {limit + 1} exceeds MAX_SAMPLES = {limit}"):
        form.sample_homomorphism(samples=limit + 1)
    with pytest.raises(AssertionError, match="a sample was drawn"):
        form.sample_homomorphism(samples=limit)


def test_block_sampler_forms_no_mv_product_or_gaussian(monkeypatch):
    # the samples run on int term dicts with the product kernel alone
    def refuse(*args):
        raise AssertionError("the sampler left the int kernel")

    form = BlockForm(1, 2)
    monkeypatch.setattr(MV, "__mul__", refuse)
    monkeypatch.setattr(GaussianRational, "__mul__", refuse)
    monkeypatch.setattr(GaussianRational, "__init__", refuse)
    assert form.sample_homomorphism(25) == {"passed": True, "checked": 25, "failures": 0}
    # the Q(i) oracle forms both, so the patches are live
    with pytest.raises(AssertionError, match="left the int kernel"):
        naive_block_sample(form, 1, 0)


def test_block_matrix_other_signature():
    form = BlockForm(2, 3)
    assert form.target == Signature(2, 4)
    report = form.sample_homomorphism(samples=10, seed=3)
    assert report["passed"] is True


def test_block_matrix_rejects_bad_cases():
    # even p+q leaves no integral m for the phi/psi pair
    with pytest.raises(ValueError):
        BlockForm(0, 2)
    # phi^2 = +1 here: pseudo case, not the quaternionic one the blocks need
    with pytest.raises(ValueError):
        BlockForm(2, 1)
    with pytest.raises(ValueError):
        BlockForm(1, 0)


def test_block_form_takes_phi_psi_from_the_factorization():
    # oracle: the top blades e_1..e_m e_(m+1) and e_1..e_m e_(m+2), and the
    # quaternion case read from their squares
    for p in range(5):
        for q in range(1, 6):
            if (p + q) % 2 == 0:
                continue
            m = p + q - 1
            sig = Signature(p, q + 1)
            pair = ((1 << m) - 1 | 1 << m, 0), ((1 << m) - 1 | 1 << (m + 1), 0)
            phi, psi = _phased_pair(pair, sig)
            quaternion = phi * phi == psi * psi == MV.scalar(sig, -1)
            if not quaternion:
                with pytest.raises(ValueError, match="wrong factorization case"):
                    BlockForm(p, q)
                continue
            form = BlockForm(p, q)
            assert (form.phi, form.psi) == pair


QUATERNION_FORMS = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 2)]


def _pairs(matrix):
    return [[{b: (c.re, c.im) for b, c in e.terms.items()} for e in row] for row in matrix]


@pytest.mark.parametrize("p,q", QUATERNION_FORMS)
def test_block_matrix_matches_naive_formula(p, q):
    # _entries reads the entries off blade masks in one pass; the oracle
    # multiplies each part by phi, psi or phi psi term by term on index lists
    form = BlockForm(p, q)
    n = form.target.n
    rng = random.Random(p * 31 + q)
    elements = [{rng.randrange(1 << n): rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}
                for _ in range(60)]
    elements += [{mask: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for mask in range(1 << n)}
                 for _ in range(3)]
    elements += [{1 << i: 1} for i in range(n)]
    for x in elements:
        m = naive_matrix_of(form, MV(form.target, x))
        assert _pairs(m) == naive_block_matrix(x, p, q), x
        assert all((type(c.re), type(c.im)) == (Fraction, Fraction)
                   for row in m for e in row for c in e.terms.values())


def _flip_one(placement, k, j):
    entry, part, sign = placement[k][j]
    moved = list(placement[k])
    moved[j] = (entry, part, -sign)
    return placement[:k] + (tuple(moved),) + placement[k + 1:]


@pytest.mark.parametrize("k,j", [(k, j) for k in range(4) for j in range(2)])
def test_block_sampling_catches_one_flipped_sign(k, j):
    # a placement with one wrong sign is not a homomorphism, and the sampled
    # check must say so rather than pass with nothing checked
    class Flipped(BlockForm):
        _PLACEMENT = _flip_one(BlockForm._PLACEMENT, k, j)

    for p, q in ((1, 2), (4, 1)):
        report = Flipped(p, q).sample_homomorphism(samples=25, seed=11)
        assert report["checked"] == 25
        assert report["failures"] > 0 and report["passed"] is False
        assert BlockForm(p, q).sample_homomorphism(samples=25, seed=11)["passed"] is True


@pytest.mark.parametrize("p,q", QUATERNION_FORMS)
def test_block_sampler_matches_the_mv_oracle(p, q):
    # the int-kernel samples give the dict the Q(i) MV products give, for the
    # form and for every placement with one flipped sign, so a miscounted
    # failure shows
    forms = [BlockForm(p, q)]
    for k in range(4):
        for j in range(2):
            class Flipped(BlockForm):
                _PLACEMENT = _flip_one(BlockForm._PLACEMENT, k, j)
            forms.append(Flipped(p, q))
    failures = set()
    for form in forms:
        for seed in (0, 3, 11):
            got = form.sample_homomorphism(samples=20, seed=seed)
            assert got == naive_block_sample(form, 20, seed), (type(form), seed)
            failures.add(got["failures"])
    assert 0 in failures and len(failures) > 2


@pytest.mark.parametrize("build,args", [
    (even_iso_check, (129, 128)),
    (even_iso_check, (0, MAX_WITNESS_N + 1)),
    (phi_psi_factorization, ((129, 128), (128, 127))),
    (phi_psi_factorization, ((129, 129), (128, 128))),
    (BlockForm, (128, 129)),
    (BlockForm, (MAX_WITNESS_N, 1)),
    (graded_tensor_check, ((129, 0), (128, 0))),
    (karoubi_check, ((128, 0), (0, 129))),
    (complex_tensor_check, (129,)),
])
def test_witness_builders_refuse_too_many_generators(monkeypatch, build, args):
    # the refusal comes before any signature or image is built
    def no_work(*a, **k):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(tensoriso, "Signature", no_work)
    with pytest.raises(ValueError, match=f"exceeds MAX_WITNESS_N = {MAX_WITNESS_N}"):
        build(*args)


def test_witness_builders_accept_the_largest_n():
    half = MAX_WITNESS_N // 2
    rep = even_iso_check(half, half)
    assert rep.certified and rep.target_sig == (half, half - 1)
    split = phi_psi_factorization((half, half), (half - 1, half - 1))
    assert split.passed and split.rank == 1 << MAX_WITNESS_N
    form = BlockForm(half - 1, half)
    assert form.target.n == MAX_WITNESS_N
    cb = Signature(half - 1, half - 1, complexified=True)
    zero, ident = MV.zero(cb), MV.scalar(cb, 1)
    phi, _ = _phased_pair((form.phi, form.psi), form.target)
    assert naive_matrix_of(form, phi) == [[zero, -ident], [ident, zero]]
    assert form.sample_homomorphism(samples=3, seed=1)["passed"] is True
    for rep in (graded_tensor_check((half, 0), (0, half)),
                karoubi_check((half // 2, half // 2), (half // 2, half // 2)),
                complex_tensor_check(half)):
        assert rep.certified and rep.rank == 1 << MAX_WITNESS_N
        assert len(rep.images) == MAX_WITNESS_N


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


def test_matrix_link_is_the_karoubi_witness():
    # the matrix link once checked Cl(4,1)'s own generators by hand: omega central
    # with omega^2 = -1, e1..e4 squaring to +1 and anticommuting, and rank 32 for
    # {e1..e4, omega}. The Karoubi witness for Cl(4,0) (x) Cl(0,1) carries the same
    # facts, with e1234 (x) f as the fifth image and f as omega's image
    rep = karoubi_check((4, 0), (0, 1))
    assert (rep.construction, rep.target_sig, rep.squares, rep.rank, rep.certified) == (
        "positive", (4, 1), [1, 1, 1, 1, -1], 32, True)
    assert rep.images == [(1 << g, 0) for g in range(4)] + [(0b11111, 0)]
    sig = Signature(4, 1)
    old = naive_matrix_link_facts([MV.generator(sig, i) for i in range(1, 6)], MV.scalar(sig, 1))
    one, images = naive_phased_mvs(rep.images, rep.algebra)
    new = naive_matrix_link_facts(images, one)
    assert old == new == {"omega_sq": True, "omega_central": True, "plus_squares": True,
                          "anticommute": True, "rank": 32}
    link = spin24_chain().links[1]
    assert (link.name, link.certified, link.rank) == ("matrix_realization", True, rep.rank)


def test_chain_link_needs_its_target(monkeypatch):
    # a certified witness for the wrong algebra does not certify its link
    real = tensoriso.karoubi_check
    monkeypatch.setattr(tensoriso, "karoubi_check",
                        lambda a, b: real(a, b)._replace(target_sig=(5, 0)))
    report = spin24_chain()
    assert [link.certified for link in report.links] == [True, False, True, False]
    assert [link.rank for link in report.links] == [32, 32, 16, 16]
    assert report.ok is False


def test_certificate_builders_form_no_mv_product(monkeypatch):
    # every image, phi and psi is named off blade masks, so with the product
    # kernel refusing, every builder and the whole chain still certify
    from cl8 import algebra

    def no_product(*args):
        raise AssertionError("a certificate formed an MV product")

    monkeypatch.setattr(algebra, "_product_terms", no_product)
    monkeypatch.setattr(tensoriso, "_product_terms", no_product)
    reps = [graded_tensor_check(a, b) for a in FACTOR_SIGS for b in FACTOR_SIGS]
    reps += [karoubi_check((1, 1), (0, 2)), karoubi_check((4, 0), (0, 1)), complex_tensor_check(3)]
    reps += [even_iso_check(p, n - p) for n in range(1, 9) for p in range(n + 1)]
    assert all(rep.certified for rep in reps)
    assert all(phi_psi_factorization(t, b).passed for t, b in _phi_psi_inputs(8))
    form = BlockForm(1, 2)
    assert (form.phi, form.psi) == ((0b0111, 0), (0b1011, 0))
    report = spin24_chain()
    assert report.ok and all(link.certified for link in report.links)


def test_witness_builders_build_no_mv(monkeypatch):
    # the graded, Karoubi, even and complex witnesses, the chain and their JSON,
    # the phi/psi split and the block samples work on (mask, phase) ints and int
    # term dicts alone: with MV (and so TensorMV) construction refusing, they
    # still certify
    def no_mv(*args):
        raise AssertionError("a witness built an MV")

    monkeypatch.setattr(MV, "__init__", no_mv)
    reps = [graded_tensor_check(a, b) for a in FACTOR_SIGS for b in FACTOR_SIGS]
    reps += [karoubi_check(a, b) for a in FACTOR_SIGS if sum(a) % 2 == 0 for b in FACTOR_SIGS]
    reps += [even_iso_check(p, n - p) for n in range(1, 9) for p in range(n + 1)]
    reps += [complex_tensor_check(m) for m in range(1, 5)]
    reps += [rep for _, rep, _, _ in tensoriso._spin24_links()]
    assert all(rep.certified for rep in reps)
    assert all(generator_map_json(rep) for rep in reps)
    assert spin24_chain().ok
    assert all(phi_psi_factorization(t, b).passed for t, b in _phi_psi_inputs(8))
    assert BlockForm(1, 2).sample_homomorphism(10)["passed"]
    with pytest.raises(AssertionError, match="built an MV"):
        MV.scalar(Signature(1, 0), 1)


def _oracle_witnesses():
    """(kind, witness, its images built as MVs in generator order) for every
    witness kind the cert sweep checks: graded and Karoubi on factors with up to
    three generators each, even on up to seven, complex on m <= 4, and the four
    links of the spin24 chain."""
    sigs = [(p, n - p) for n in range(4) for p in range(n + 1)]
    for a in sigs:
        for b in sigs:
            factors = (Signature(*a), Signature(*b))
            yield "graded", graded_tensor_check(a, b), naive_product_images(factors, True)
            if sum(a) % 2 == 0:
                yield "karoubi", karoubi_check(a, b), naive_product_images(factors, False)
    for n in range(1, 8):
        for p in range(n + 1):
            rep, sig = even_iso_check(p, n - p), Signature(p, n - p)
            pinned, others = (1, range(2, n + 1)) if rep.construction == "B" else (n, range(1, n))
            yield "even", rep, naive_even_images(sig, pinned, others)
    for m in range(1, 5):
        factors = (Signature(2, 0, complexified=True),) * m
        yield "complex", complex_tensor_check(m), naive_product_images(factors, False, twist=1)
    csig = Signature(1, 3, complexified=True)
    i = GaussianRational(0, 1)
    links = dict((name, rep) for name, rep, _, _ in tensoriso._spin24_links())
    yield ("even_subalgebra", links["even_subalgebra"],
           naive_even_images(Signature(2, 4), 1, range(2, 7)))
    yield ("matrix_realization", links["matrix_realization"],
           naive_product_images((Signature(4, 0), Signature(0, 1)), False))
    yield ("complexified_realization", links["complexified_realization"],
           [MV.generator(csig, 1)] + [MV.generator(csig, j) * i for j in (2, 3, 4)])
    yield ("karoubi_product", links["karoubi_product"],
           naive_product_images((Signature(1, 1), Signature(0, 2)), False))


ALL_FACTS_HOLD = {"images": True, "squares": True, "anticommute": True, "rank": True}


def test_phased_witnesses_match_the_mv_oracle():
    # each (mask, phase) image, built as an MV, is the witness's construction
    # multiplied out, and its squares, anticommutation and rank, read in ints,
    # are what MV products give
    kinds = set()
    for kind, rep, raw in _oracle_witnesses():
        assert rep.certified, (kind, rep.source_sig)
        assert naive_witness_facts(rep, raw) == ALL_FACTS_HOLD, (kind, rep.source_sig)
        kinds.add(kind)
    assert kinds == {"graded", "karoubi", "even", "complex", "even_subalgebra",
                     "matrix_realization", "complexified_realization", "karoubi_product"}


# one planted defect on the first image: (defect name, new image, the facts it breaks
# on every witness); a flipped mask bit can leave a valid but different witness,
# as e1 -> e12 does in Cl(1,0) (x) Cl(0,1), so only the images must catch it
PLANTED_DEFECTS = [
    ("phase+2", lambda m, c: (m, (c + 2) % 4), {"images"}),
    ("phase+1", lambda m, c: (m, (c + 1) % 4), {"images", "squares"}),
    ("mask bit", lambda m, c: (m ^ 1, c), {"images"}),
]


@pytest.mark.parametrize("defect", PLANTED_DEFECTS, ids=[d[0] for d in PLANTED_DEFECTS])
def test_mv_oracle_catches_a_planted_defect(defect):
    _, plant, broken = defect
    tried = 0
    for kind, rep, raw in _oracle_witnesses():
        if not rep.images:  # even_iso_check(1, 0) has no image to plant on
            continue
        bad = rep._replace(images=[plant(*rep.images[0])] + rep.images[1:])
        facts = naive_witness_facts(bad, raw)
        assert not any(facts[name] for name in broken), (kind, rep.source_sig, facts)
        tried += 1
    assert tried > 150


# SHA-256 of the witness set below, one line per witness:
# "<source_sig> <generator_map_json>". Recorded before the certificate
# helpers were folded into one witness routine; any change to an image, its
# order, a square, a rank, a construction name or a signature changes it.
WITNESS_DIGEST = "7c8fda8a312e55c4ee16a8b2e7d15d189c1b7cc8e5019f94f798134663c3546e"


def test_witness_json_digest_is_frozen():
    witnesses = [graded_tensor_check(a, b) for a in FACTOR_SIGS for b in FACTOR_SIGS]
    witnesses += [karoubi_check(a, b) for a in FACTOR_SIGS if sum(a) % 2 == 0
                  for b in FACTOR_SIGS]
    witnesses += [complex_tensor_check(m) for m in range(1, 5)]
    witnesses += [even_iso_check(p, q) for p in range(7) for q in range(7)
                  if 1 <= p + q <= 6]
    assert len(witnesses) == 91
    assert all(w.certified for w in witnesses)
    lines = [f"{w.source_sig} {generator_map_json(w)}" for w in witnesses]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WITNESS_DIGEST
    links = [(link.name, link.rank, link.certified) for link in spin24_chain().links]
    assert links == [
        ("even_subalgebra", 32, True),
        ("matrix_realization", 32, True),
        ("complexified_realization", 16, True),
        ("karoubi_product", 16, True),
    ]
