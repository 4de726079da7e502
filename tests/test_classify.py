"""Eightfold classification, idempotents, and division-ring identification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cl8.algebra import MV, GaussianRational, Signature, involute
from cl8.classify import (
    algebra_type,
    formal_dimension_identity,
    dirac_from_hestenes,
    dirac_idempotent,
    division_ring_of,
    minimal_left_ideal,
    primitive_idempotent,
    radon_hurwitz,
)

from naive import naive_idempotent_generators, radon_hurwitz_reference, ring_from_type


RH_BASE = [0, 1, 2, 2, 3, 3, 3, 3]


def test_radon_hurwitz_base_row():
    assert [radon_hurwitz(i) for i in range(8)] == RH_BASE


@pytest.mark.parametrize("i", range(-16, 65))
def test_radon_hurwitz_shift_and_reference(i):
    assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4
    assert radon_hurwitz(i) == radon_hurwitz_reference(i)


def test_radon_hurwitz_negative_values():
    assert radon_hurwitz(-1) == -1
    assert radon_hurwitz(-2) == -1
    assert radon_hurwitz(-3) == -1
    assert radon_hurwitz(-8) == -4


RING_TABLE = [
    ((0, 0), "R"), ((1, 0), "R+R"), ((0, 1), "C"),
    ((2, 0), "R"), ((1, 1), "R"), ((0, 2), "H"),
    ((3, 0), "C"), ((0, 3), "H+H"),
    ((1, 3), "H"), ((3, 1), "R"), ((4, 1), "C"),
    ((2, 4), "H"), ((0, 7), "R+R"), ((5, 0), "H+H"),
    ((4, 4), "R"), ((9, 0), "R+R"),
]


@pytest.mark.parametrize("pq,ring", RING_TABLE)
def test_algebra_type_rings(pq, ring):
    info = algebra_type(*pq)
    assert info.ring == ring
    assert info.type_mod8 == (pq[0] - pq[1]) % 8
    assert info.simple == (info.type_mod8 not in (1, 5))


@pytest.mark.parametrize("p,q", [(True, 2), (2, False), (1.5, 2), (2, 2.0), (-1, 3)])
def test_algebra_type_rejects_non_int_fields(p, q):
    with pytest.raises(ValueError):
        algebra_type(p, q)


RANK_TABLE = [
    ((1, 3), 2), ((3, 1), 4), ((4, 1), 4), ((2, 4), 4),
    ((0, 7), 8), ((2, 0), 2), ((0, 2), 1), ((9, 0), 16),
]


@pytest.mark.parametrize("pq,rank", RANK_TABLE)
def test_matrix_ranks(pq, rank):
    assert algebra_type(*pq).matrix_rank == rank


@pytest.mark.parametrize("p", range(7))
@pytest.mark.parametrize("q", range(7))
def test_dimension_identity(p, q):
    # 2^n must equal rank^2 * dim_R(K) * (number of simple components)
    info = algebra_type(p, q)
    assert formal_dimension_identity(info)
    assert info.ring == ring_from_type(info.type_mod8)


K_TABLE = [((1, 3), 1), ((0, 2), 0), ((4, 1), 2), ((2, 0), 1),
           ((3, 1), 2), ((0, 3), 1), ((5, 0), 2), ((0, 7), 4), ((9, 0), 5)]


@pytest.mark.parametrize("pq,k", K_TABLE)
def test_idempotent_exponent(pq, k):
    data = primitive_idempotent(*pq)
    assert data.k == k
    assert len(data.generators) == k
    assert data.group_order == 2 ** (k + 1)


IDEMPOTENT_GENS = [
    ((2, 0), [0b01]),
    ((1, 3), [0b0001]),
    ((0, 2), []),
    ((4, 1), [0b00001, 0b10010]),   # e1 and e25
    ((3, 1), [0b0001, 0b1010]),     # e1 and e24
]


@pytest.mark.parametrize("pq,gens", IDEMPOTENT_GENS)
def test_idempotent_generator_masks(pq, gens):
    data = primitive_idempotent(*pq)
    assert data.generators == gens
    naive = naive_idempotent_generators(pq[0], pq[1], len(gens))
    naive_masks = [sum(1 << (i - 1) for i in idx) for idx in naive]
    assert naive_masks == gens


@pytest.mark.parametrize("p", range(8))
@pytest.mark.parametrize("q", range(8))
def test_idempotent_is_idempotent(p, q):
    if p + q > 7:
        pytest.skip("covered by the acceptance sweep")
    sig = Signature(p, q)
    data = primitive_idempotent(p, q)
    f = data.f
    assert f * f == f
    assert f
    # the grade-involution mirror is an idempotent too
    g = involute(f, "grade_involution")
    assert g * g == g


DIVISION_TABLE = [
    ((2, 0), (1, "R")),
    ((3, 1), (1, "R")),
    ((4, 4), (1, "R")),
    ((3, 0), (2, "C")),
    ((4, 1), (2, "C")),
    ((1, 3), (4, "H")),
    ((0, 2), (4, "H")),
    ((2, 4), (4, "H")),
    ((1, 0), (1, "R+R")),
    ((0, 3), (4, "H+H")),
    ((5, 0), (4, "H+H")),
]


@pytest.mark.parametrize("pq,expected", DIVISION_TABLE)
def test_division_ring_frozen(pq, expected):
    dim, ring = division_ring_of(*pq)
    assert (dim, ring) == expected


@pytest.mark.parametrize("p", range(7))
@pytest.mark.parametrize("q", range(7))
def test_division_ring_consistent_with_type(p, q):
    if p + q > 6:
        pytest.skip("covered by the acceptance sweep")
    dim, ring = division_ring_of(p, q)
    assert ring == algebra_type(p, q).ring
    assert dim == {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}[ring]


IDEAL_DIMS = [((1, 3), 8), ((0, 2), 4), ((4, 1), 8), ((2, 0), 2), ((3, 1), 4)]


@pytest.mark.parametrize("pq,dim", IDEAL_DIMS)
def test_minimal_left_ideal(pq, dim):
    basis, d = minimal_left_ideal(*pq)
    assert d == dim
    assert len(basis) == dim
    f = primitive_idempotent(*pq).f
    for x in basis:
        assert x * f == x


def test_dirac_idempotent_structure():
    f = dirac_idempotent()
    sig = f.sig
    assert sig == Signature(1, 3, complexified=True)
    assert f * f == f
    # product of the two commuting projectors written out by hand:
    # (1/4) (1 + e1)(1 + i e23)
    i = GaussianRational(0, 1)
    e1 = MV.generator(sig, 1)
    e23 = MV.blade(sig, 0b0110, i)
    half = Fraction(1, 2)
    by_hand = (MV.scalar(sig, half) + e1 * half) * (MV.scalar(sig, half) + e23 * half)
    assert f == by_hand


def test_dirac_from_hestenes_lands_in_ideal():
    sig = Signature(1, 3, complexified=True)
    f = dirac_idempotent()
    phi = MV.scalar(sig, 2) + MV.blade(sig, 0b0011, 3) + MV.blade(sig, 0b1111, Fraction(-1, 2))
    big = dirac_from_hestenes(phi)
    assert big == phi * f
    assert big * f == big


def test_dirac_from_hestenes_rejects_odd_input():
    sig = Signature(1, 3, complexified=True)
    phi = MV.generator(sig, 2) + MV.blade(sig, 0b0111, 5)
    with pytest.raises(ValueError, match="phi not even"):
        dirac_from_hestenes(phi)


def test_dirac_map_is_injective_on_even_part():
    # the eight real even basis blades must stay independent after
    # multiplication by the projector, counting real and imaginary parts
    # of each complex coordinate separately
    from cl8.algebra import even_subalgebra_basis
    from cl8.linalg import rank_of

    sig = Signature(1, 3, complexified=True)
    f = dirac_idempotent()
    vecs = []
    for mask in even_subalgebra_basis(sig):
        x = MV.blade(sig, mask) * f
        split = {}
        for m, c in x.terms.items():
            split[(m, "re")] = c.re
            split[(m, "im")] = c.im
        vecs.append(split)
    assert rank_of(vecs) == 8


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_ideal_dimension_formula(p, q):
    data = primitive_idempotent(p, q)
    _, d = minimal_left_ideal(p, q)
    assert d == 2 ** (p + q) // 2 ** data.k
    info = algebra_type(p, q)
    dim_k = {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}[info.ring]
    assert d == info.matrix_rank * dim_k
