"""Eightfold classification, idempotents, and division-ring identification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cl8.algebra import MV, Signature, _splits_center, omega_square
from cl8.classify import (
    MAX_IDEMPOTENT_N,
    _certify_corner,
    _cosets,
    algebra_type,
    division_ring_of,
    minimal_left_ideal,
    primitive_idempotent,
    radon_hurwitz,
)
from cl8.table import MAX_CLASSIFY_N

from naive import (
    formal_dimension_identity,
    indices_of,
    naive_commute,
    naive_corner_reps,
    naive_central_split_ok,
    naive_cosets,
    naive_grade_involution,
    naive_group_order,
    naive_idempotent,
    naive_idempotent_generators,
    naive_left_ideal_reps,
    naive_multivector_mul,
    naive_opposite_components,
    pairwise_anticommute,
    radon_hurwitz_reference,
    rank_of,
    ring_from_type,
)


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


@pytest.mark.parametrize("p,q", [(True, 2), (2, False), (1.5, 2), (2, 2.0), (-1, 3), (3, -1),
                                 ("1", 2), (2, "3")])
def test_algebra_type_rejects_non_int_fields(p, q):
    # cl8.table builds no Signature, so it refuses what Signature refuses, in its words
    with pytest.raises(ValueError) as want:
        Signature(p, q)
    with pytest.raises(ValueError) as got:
        algebra_type(p, q)
    assert str(got.value) == str(want.value) == f"invalid signature ({p!r}, {q!r})"


def test_algebra_type_size_is_bounded():
    assert algebra_type(MAX_CLASSIFY_N, 0).matrix_rank == 1 << (MAX_CLASSIFY_N // 2)
    with pytest.raises(ValueError, match=r"^p \+ q = 65537 exceeds MAX_CLASSIFY_N = 65536$"):
        algebra_type(MAX_CLASSIFY_N, 1)
    with pytest.raises(ValueError, match="MAX_CLASSIFY_N"):
        algebra_type(100000000, 3)


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


@pytest.mark.parametrize("n", range(11))
def test_group_order_matches_closure_oracle(n):
    # an independent closure over index tuples confirms 2 << rank
    for p in range(n + 1):
        data = primitive_idempotent(p, n - p)
        assert data.group_order == naive_group_order(data.generators, p)


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
    assert data.generators == tuple(gens)
    naive = naive_idempotent_generators(pq[0], pq[1], len(gens))
    naive_masks = [sum(1 << (i - 1) for i in idx) for idx in naive]
    assert naive_masks == gens


@pytest.mark.parametrize("p", range(8))
@pytest.mark.parametrize("q", range(8))
def test_idempotent_is_idempotent(p, q):
    data = primitive_idempotent(p, q)
    f = MV(data.sig, dict(data.scaled_f)) * Fraction(1, 1 << data.k)
    assert f * f == f
    assert f
    # the grade-involution mirror is an idempotent too
    g = naive_grade_involution(f)
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
    dim, ring = division_ring_of(p, q)
    assert ring == algebra_type(p, q).ring
    assert dim == {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}[ring]


@pytest.mark.parametrize("n", range(10, 16))
def test_division_ring_past_nine_generators(n):
    # n = 10..15 closes one full mod-8 period above p + q <= 9
    for p in range(n + 1):
        q = n - p
        dim, ring = division_ring_of(p, q)
        assert ring == ring_from_type((p - q) % 8) == algebra_type(p, q).ring, (p, q)
        assert dim == {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}[ring]
        assert minimal_left_ideal(p, q)[1] == 1 << (n - primitive_idempotent(p, q).k)


#: The 36 cells with p + q <= 15 whose center splits: n odd and omega^2 = +1.
SPLIT_CELLS = [(p, n - p) for n in range(1, 16, 2) for p in range(n + 1)
               if omega_square(Signature(p, n - p)) == 1]


def test_split_cells_are_the_r_r_and_h_h_cells():
    assert len(SPLIT_CELLS) == 36
    assert all((p - q) % 4 == 1 for p, q in SPLIT_CELLS)


#: Every cell with odd n = p + q <= 15, split or not.
ODD_CELLS = [(p, n - p) for n in range(1, 16, 2) for p in range(n + 1)]


def _center_split_disagreements():
    """The odd cells where the mask rule on omega, the doubled ring of
    division_ring_of, and the MV oracle on (1 +- omega)/2 do not all agree."""
    out = []
    for p, q in ODD_CELLS:
        sig, full = Signature(p, q), (1 << (p + q)) - 1
        ok = naive_central_split_ok(MV.blade(sig, full))
        if not (_splits_center(full, 0, sig) is ok is ("+" in division_ring_of(p, q)[1])
                is ((p, q) in SPLIT_CELLS)):
            out.append((p, q))
    return out


def test_center_split_rule_matches_product_oracle():
    # on every SPLIT_CELLS cell the rule and the oracle say split, and on every
    # other odd cell (omega^2 = -1) both say not
    assert _center_split_disagreements() == []


def test_center_split_rule_with_a_flipped_beta_fails(monkeypatch):
    from cl8 import algebra

    anticommute_mask = algebra.anticommute_mask
    monkeypatch.setattr(algebra, "anticommute_mask",
                        lambda b, sig: anticommute_mask(b, sig) ^ (b == (1 << sig.n) - 1))
    division_ring_of.cache_clear()
    try:
        assert _center_split_disagreements() != []
    finally:
        division_ring_of.cache_clear()


@pytest.mark.parametrize("p,q", SPLIT_CELLS)
def test_split_membership_matches_product_oracle(p, q):
    # for f and for each idempotent on a prefix of f's generators, a term on
    # the full blade says exactly that one projector (1 +- omega)/2 absorbs
    # it and the other absorbs its mirror
    data = primitive_idempotent(p, q)
    sig, full = data.sig, (1 << (p + q)) - 1
    one, omega = MV.scalar(sig, 1), MV.blade(sig, full)
    lam_plus, lam_minus = (one + omega) * Fraction(1, 2), (one - omega) * Fraction(1, 2)
    assert naive_central_split_ok(omega)
    part = one
    for mask in data.generators:
        assert (full in part.terms) is naive_opposite_components(part, lam_plus, lam_minus)
        part = part * (one + MV.blade(sig, mask)) * Fraction(1, 2)
    assert part == naive_idempotent(data)
    assert full in data.scaled_f and naive_opposite_components(part, lam_plus, lam_minus)


@pytest.mark.parametrize("p,q", SPLIT_CELLS)
def test_split_certificate_forms_no_mv_product(monkeypatch, p, q):
    # once f is built, the split is decided on masks: _splits_center reads
    # omega's mask, and f's component is a membership test
    data = primitive_idempotent(p, q)
    _cosets(data)
    division_ring_of.cache_clear()
    mul, calls = MV.__mul__, []

    def counting(self, other):
        if isinstance(other, MV):
            calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MV, "__mul__", counting)
    assert division_ring_of(p, q)[1] in ("R+R", "H+H")
    assert calls == []


def _split_refusals(monkeypatch, name, replace):
    """division_ring_of on every split cell with classify.<name> swapped for
    replace(the real one): the message of each refusal, or None where it
    certified. Without the swap every cell certifies."""
    from cl8 import classify

    monkeypatch.setattr(classify, name, replace(getattr(classify, name)))
    division_ring_of.cache_clear()
    primitive_idempotent.cache_clear()
    messages = []
    try:
        for p, q in SPLIT_CELLS:
            try:
                division_ring_of(p, q)
                messages.append(None)
            except RuntimeError as exc:
                messages.append(str(exc))
    finally:
        monkeypatch.undo()
        division_ring_of.cache_clear()
        primitive_idempotent.cache_clear()
        _cosets.cache_clear()
    return messages


def test_split_refuses_f_without_its_full_term(monkeypatch):
    def without_full(real):
        def idempotent(p, q):
            data = real(p, q)
            terms = dict(data.scaled_f)
            del terms[(1 << (p + q)) - 1]
            return data._replace(scaled_f=terms)
        return idempotent

    messages = _split_refusals(monkeypatch, "primitive_idempotent", without_full)
    assert messages == [f"f and its mirror are not in opposite components of Cl({p},{q})"
                        for p, q in SPLIT_CELLS]


def test_split_refuses_a_center_that_does_not_split(monkeypatch):
    messages = _split_refusals(monkeypatch, "_splits_center",
                               lambda real: lambda mask, c, sig: False)
    assert messages == [f"volume element does not split the center of Cl({p},{q})"
                        for p, q in SPLIT_CELLS]
    assert _split_refusals(monkeypatch, "_splits_center", lambda real: real) == [
        None] * len(SPLIT_CELLS)


SIGS_TO_7 = [(p, n - p) for n in range(8) for p in range(n + 1)]


def _corner_reps(data, masks=None):
    """The corner reps e_A f of the given masks, by default `_cosets`' corner masks,
    with the MV oracle's f."""
    masks = list(_cosets(data)[1]) if masks is None else masks
    f = naive_idempotent(data)
    return [MV.blade(data.sig, a) * f for a in masks]


@pytest.mark.parametrize("p,q", SIGS_TO_7)
def test_corner_and_ideal_reps_match_full_scan(p, q):
    data = primitive_idempotent(p, q)
    sig, f = Signature(p, q), naive_idempotent(data)
    assert _corner_reps(data) == naive_corner_reps(f, sig)
    assert [MV(sig, rep) for rep in minimal_left_ideal(p, q)[0]] == [
        x * (1 << data.k) for x in naive_left_ideal_reps(f, sig)]


@pytest.mark.parametrize("n", range(8, 11))
def test_ideal_reps_match_full_scan_past_seven(n):
    # the ideal half of the test above, on to p + q = 10
    for p in range(n + 1):
        data = primitive_idempotent(p, n - p)
        assert [MV(data.sig, rep) for rep in minimal_left_ideal(p, n - p)[0]] == [
            x * (1 << data.k) for x in naive_left_ideal_reps(naive_idempotent(data), data.sig)]


@pytest.mark.parametrize("n", range(13))
def test_coset_key_table_matches_the_per_blade_walk(n):
    # the linear key table, seeded by n one-bit reductions and stopped at the
    # last coset, gives the reps of the walk that reduced every blade
    for p in range(n + 1):
        data = primitive_idempotent(p, n - p)
        assert _cosets(data) == naive_cosets(data)


def test_coset_key_table_with_a_wrong_seed_fails(monkeypatch):
    # seeds that are never reduced key every blade apart: the oracle sees it
    from cl8 import classify

    data = primitive_idempotent(2, 5)
    _cosets.cache_clear()
    monkeypatch.setattr(classify, "gf2_reduce", lambda rows, mask: mask)
    try:
        assert _cosets(data) != naive_cosets(data)
    finally:
        _cosets.cache_clear()


def _ideal_defects(p, q, reps=None):
    """The ideal masks A whose rep in minimal_left_ideal (or in reps) is not
    2^k e_A f by the index-list product of tests/naive.py, taken with the
    scaled f of primitive_idempotent, or has a coefficient other than int +-1."""
    data = primitive_idempotent(p, q)
    f = {indices_of(m): c for m, c in data.scaled_f.items()}
    reps = minimal_left_ideal(p, q)[0] if reps is None else reps
    return [mask for mask, rep in zip(_cosets(data)[0], reps)
            if {indices_of(m): c for m, c in rep.items()}
            != naive_multivector_mul({indices_of(mask): 1}, f, p)
            or not all(type(c) is int and c in (1, -1) for c in rep.values())]


@pytest.mark.parametrize("n", range(11))
def test_ideal_reps_are_blade_times_f_on_two_shared_values(n):
    # each rep 2^k e_A f is f's int terms +-1 permuted with signs, and equals the
    # MV oracle's e_A f scaled by 2^k
    for p in range(n + 1):
        data = primitive_idempotent(p, n - p)
        f = naive_idempotent(data)
        reps = minimal_left_ideal(p, n - p)[0]
        assert [MV(data.sig, rep) for rep in reps] == [
            MV.blade(data.sig, mask) * f * (1 << data.k) for mask in _cosets(data)[0]]
        assert _ideal_defects(p, n - p) == []


def test_ideal_rep_with_one_flipped_term_fails():
    reps = minimal_left_ideal(2, 5)[0]
    bad = [dict(rep) for rep in reps]
    mask = next(iter(bad[3]))
    bad[3][mask] = -bad[3][mask]
    assert _ideal_defects(2, 5, bad) == [_cosets(primitive_idempotent(2, 5))[0][3]]


def test_ideal_reps_with_a_flipped_sign_fail(monkeypatch):
    # one flipped bit of beta flips the one-blade path's sign on the terms
    # that hold generator 1: the oracle product sees it
    from cl8 import algebra

    primitive_idempotent(2, 5)
    anticommute_mask = algebra.anticommute_mask
    monkeypatch.setattr(algebra, "anticommute_mask", lambda b, sig: anticommute_mask(b, sig) ^ 1)
    assert _ideal_defects(2, 5) != []


@pytest.mark.parametrize("n", range(11))
def test_corner_and_ideal_reps_are_independent(n):
    # SpanBasis as the oracle: disjoint coset supports make every rep
    # independent, so the count of the reps is their rank
    for p in range(n + 1):
        corner = _corner_reps(primitive_idempotent(p, n - p))
        ideal, dim = minimal_left_ideal(p, n - p)
        assert rank_of(x.terms for x in corner) == len(corner)
        exact = ({m: Fraction(c) for m, c in rep.items()} for rep in ideal)
        assert rank_of(exact) == len(ideal) == dim


def test_idempotent_refuses_dependent_generators(monkeypatch):
    # a GF(2) reduction that never reduces keeps dependent blades; f then
    # misses blades of the span, and the support check refuses it
    from cl8 import classify

    monkeypatch.setattr(classify, "gf2_reduce", lambda rows, mask: mask)
    primitive_idempotent.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="idempotent on 2"):
            primitive_idempotent(2, 5)
    finally:
        primitive_idempotent.cache_clear()


def _scaled_f_defects(data):
    """The masks where data.scaled_f is not 2^k times the MV oracle's f, the
    product of (1 + e_T)/2 over the same generators in Fractions, or where its
    term order differs, or where a coefficient is not an int."""
    want = {m: c * (1 << data.k) for m, c in naive_idempotent(data).terms.items()}
    got = data.scaled_f
    wrong = {m for m in got.keys() | want.keys() if got.get(m) != want.get(m)}
    wrong |= {m for m, c in got.items() if type(c) is not int}
    if not wrong and list(got) != list(want):
        wrong = set(got)
    return sorted(wrong)


@pytest.mark.parametrize("n", range(11))
def test_idempotent_matches_fraction_construction(n):
    # f is built and kept as 2^k f in ints; the oracle is the product of
    # (1 + e_T)/2 over the same generators, in Fractions, term order included
    for p in range(n + 1):
        assert _scaled_f_defects(primitive_idempotent(p, n - p)) == [], (p, n - p)


def test_scaled_f_with_one_flipped_sign_fails():
    data = primitive_idempotent(3, 4)
    terms = dict(data.scaled_f)
    mask = list(terms)[-1]
    terms[mask] = -terms[mask]
    assert _scaled_f_defects(data._replace(scaled_f=terms)) == [mask]


@pytest.mark.parametrize("p,q", [(3, 1), (2, 5), (4, 4)])
def test_idempotent_refuses_a_full_support_that_is_not_idempotent(monkeypatch, p, q):
    # with every blade taken to commute, the kept blades do not all commute;
    # their product still has a term on each of the 2^k blades, so only the
    # square check refuses it
    from cl8 import classify

    product_terms, products = classify._product_terms, []

    def recording(left, right, sig):
        products.append(left)
        return product_terms(left, right, sig)

    monkeypatch.setattr(classify, "anticommute_mask", lambda mask, sig: 0)
    monkeypatch.setattr(classify, "_product_terms", recording)
    primitive_idempotent.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="idempotent on 2"):
            primitive_idempotent(p, q)
    finally:
        primitive_idempotent.cache_clear()
    assert len(products[-1]) == 1 << (q - radon_hurwitz(q - p))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corner_of_a_blade_is_zero_or_blade_times_f(data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    p = data.draw(st.integers(min_value=0, max_value=n))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    idem = primitive_idempotent(p, n - p)
    f, e = naive_idempotent(idem), MV.blade(idem.sig, mask)
    if all(naive_commute(indices_of(mask), indices_of(g), p) for g in idem.generators):
        assert f * e * f == e * f
    else:
        assert not f * e * f


@pytest.mark.parametrize("p,q,masks,match", [
    (1, 0, [0, 0b1], "not negative definite"),  # u = e1, u^2 = +1
    (2, 0, [0, 0b01, 0b10, 0b11], "not negative definite"),  # split form
    (0, 2, [0, 0b01, 0b10], "dimension 3"),
    # e12, e34 and e1 all square to -1, but e12 and e34 commute
    (0, 4, [0, 0b0011, 0b1100, 0b0001], "anticommute"),
])
def test_corner_certificate_refuses_what_is_not_r_c_or_h(p, q, masks, match):
    with pytest.raises(RuntimeError, match=match):
        _certify_corner(masks, Signature(p, q))


@pytest.mark.parametrize("p,q,masks,want", [
    (0, 1, [0, 0b1], (2, "C")),
    (0, 2, [0, 0b01, 0b10, 0b11], (4, "H")),
])
def test_corner_certificate_names_c_and_h(p, q, masks, want):
    assert _certify_corner(masks, Signature(p, q)) == want


@pytest.mark.parametrize("p,q", [(0, 1), (0, 2), (0, 3), (1, 3), (0, 6), (3, 4)])
def test_corner_certificate_forms_no_mv_product(monkeypatch, p, q):
    # the units multiply as their blades do, so the corner is listed and
    # certified by its masks alone, with no MV product once f is built
    data = primitive_idempotent(p, q)
    mul, calls = MV.__mul__, []

    def counting(self, other):
        if isinstance(other, MV):
            calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MV, "__mul__", counting)
    masks = list(_cosets(data)[1])
    assert _certify_corner(masks, data.sig)[0] == len(masks)
    assert calls == []


def _certifies(masks, sig):
    try:
        _certify_corner(masks, sig)
    except RuntimeError:
        return False
    return True


def _corner_mask_lists(data):
    """The corner masks, and variants of them that keep each unit in a
    commuting coset: a unit swapped for another blade of its coset (same
    relations), for a generator of f (it squares to +1) or for a blade of
    another unit's coset (the two commute)."""
    masks = list(_cosets(data)[1])
    yield masks
    for g in data.generators[:1]:
        for i in range(1, len(masks)):
            for swap in [masks[i] ^ g, g] + [m ^ g for m in masks[1:] if m != masks[i]]:
                yield masks[:i] + [swap] + masks[i + 1:]


@pytest.mark.parametrize("n", range(11))
def test_corner_certificate_matches_mv_relations(n):
    # every cell with p + q <= 10: the masks certify exactly when the units
    # e_A f pass the MV-product relation check, each square -f and
    # every pair anticommuting
    seen = set()
    for p in range(n + 1):
        data = primitive_idempotent(p, n - p)
        for masks in _corner_mask_lists(data):
            f = naive_idempotent(data)
            units = _corner_reps(data, masks)[1:]
            want = (len(masks) in (1, 2, 4)
                    and all(u * u == -f for u in units)
                    and pairwise_anticommute(units))
            assert _certifies(masks, data.sig) == want, (p, n - p, masks)
            seen.add(want)
    assert seen == ({True, False} if n >= 3 else {True})


def test_corner_certificate_ignores_the_table(monkeypatch):
    # a table whose simple flag is flipped must not change a certified ring:
    # the split of the center is read off the algebra, not off algebra_type
    from cl8 import classify

    table = classify.algebra_type
    monkeypatch.setattr(classify, "algebra_type",
                        lambda p, q: table(p, q)._replace(simple=not table(p, q).simple))
    division_ring_of.cache_clear()
    primitive_idempotent.cache_clear()
    try:
        rings = [division_ring_of(*pq)[1] for pq in [(1, 0), (0, 3), (2, 0), (1, 3)]]
    finally:
        division_ring_of.cache_clear()
        primitive_idempotent.cache_clear()
    assert rings == ["R+R", "H+H", "R", "H"]


def test_idempotent_size_and_caches_are_bounded():
    with pytest.raises(ValueError, match="MAX_IDEMPOTENT_N"):
        primitive_idempotent(0, MAX_IDEMPOTENT_N + 1)
    with pytest.raises(ValueError, match="MAX_IDEMPOTENT_N"):
        division_ring_of(MAX_IDEMPOTENT_N + 1, 0)
    with pytest.raises(ValueError, match="MAX_IDEMPOTENT_N"):
        minimal_left_ideal(9, 9)
    assert primitive_idempotent.cache_info().maxsize == 128
    assert division_ring_of.cache_info().maxsize == 128
    assert _cosets.cache_info().maxsize == 128


def test_corner_and_ideal_share_one_coset_walk():
    # on a cold cell, division_ring_of walks the 2^n blades once through
    # _cosets, and minimal_left_ideal reads the ideal masks off that walk
    division_ring_of.cache_clear()
    _cosets.cache_clear()
    division_ring_of(2, 5)
    minimal_left_ideal(2, 5)
    info = _cosets.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cached_idempotent_generators_are_immutable():
    # primitive_idempotent's and _cosets' caches hand one result to every
    # caller, so neither the generators nor the masks may be mutable
    data = primitive_idempotent(1, 3)
    corner = list(_cosets(data)[1])
    ideal = minimal_left_ideal(1, 3)
    with pytest.raises(AttributeError):
        data.generators.append(6)
    with pytest.raises(TypeError):
        data.scaled_f[0] = 2
    with pytest.raises(AttributeError):
        _cosets(data)[1].append(6)
    assert primitive_idempotent(1, 3).generators == (0b0001,)
    assert primitive_idempotent(1, 3).scaled_f == {0: 1, 0b0001: 1}
    assert list(_cosets(primitive_idempotent(1, 3))[1]) == corner
    assert minimal_left_ideal(1, 3) == ideal


IDEAL_DIMS = [((1, 3), 8), ((0, 2), 4), ((4, 1), 8), ((2, 0), 2), ((3, 1), 4)]


@pytest.mark.parametrize("pq,dim", IDEAL_DIMS)
def test_minimal_left_ideal(pq, dim):
    basis, d = minimal_left_ideal(*pq)
    assert d == dim
    assert len(basis) == dim
    data = primitive_idempotent(*pq)
    f = naive_idempotent(data)
    for x in basis:
        assert MV(data.sig, x) * f == MV(data.sig, x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_ideal_dimension_formula(p, q):
    data = primitive_idempotent(p, q)
    _, d = minimal_left_ideal(p, q)
    assert d == 2 ** (p + q) // 2 ** data.k
    info = algebra_type(p, q)
    dim_k = {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}[info.ring]
    assert d == info.matrix_rank * dim_k
