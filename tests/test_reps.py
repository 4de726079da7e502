"""Representation catalogue: labels, fields, walks, chains, blocks."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cl8 import algebra, reps
from cl8.algebra import MV, GaussianRational, Signature
from cl8.classify import algebra_type
from cl8.reps import (
    MAX_CHAIN_SUM,
    MAX_QUOTIENT_Q,
    MAX_REP_SUM,
    bw_rep_walk,
    quotient_structure,
    rep_field,
    rep_label,
    representation_block,
    spin_chain,
)

from figdata import FIG8, FIG9, WALK_CYCLE_1, WALK_CYCLE_2, WALK_CYCLE_8
from naive import naive_central_split_ok, rank_of, stars_and_bars_degree


half = Fraction(1, 2)


def test_rep_label_basic():
    lab = rep_label(1, 2)
    assert lab.l == half
    assert lab.l_dot == 1
    assert lab.spin == half
    assert lab.degree == 6
    assert lab.spinspace_dim == 8
    assert lab.field == rep_field(lab.l, lab.l_dot)


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("r", range(7))
def test_degree_matches_component_count(k, r):
    lab = rep_label(k, r)
    assert lab.degree == (k + 1) * (r + 1)
    assert lab.degree == stars_and_bars_degree(k, r)
    assert lab.spinspace_dim == 2 ** (k + r)
    assert lab.spin == abs(Fraction(k, 2) - Fraction(r, 2))


def test_rep_field_rule_examples():
    assert rep_field(0, 0) == "real"
    assert rep_field(half, 0) == "real"
    assert rep_field(0, half) == "quaternionic"
    assert rep_field(half, half) == "real"
    assert rep_field(1, 0) == "quaternionic"
    assert rep_field(Fraction(31, 2), 16) == "quaternionic"
    assert rep_field(16, 16) == "real"


def test_rep_field_matches_algebra_ring():
    # the field of tau_{l,ld} is the ring of the algebra with 4l plus and
    # 4ld minus generators; complex never occurs because 4(l-ld) is even
    for il in range(9):
        for ild in range(9):
            l, ld = Fraction(il, 2), Fraction(ild, 2)
            ring = algebra_type(int(4 * l), int(4 * ld)).ring
            want = "real" if ring in ("R", "R+R") else "quaternionic"
            assert ring != "C"
            assert rep_field(l, ld) == want


def test_fig8_grid():
    for (l, ld), tag in FIG8.items():
        want = "real" if tag == "r" else "quaternionic"
        assert rep_field(l, ld) == want, (l, ld)


def test_fig9_labels():
    for tag, l, ld in FIG9:
        want = "real" if tag == "r" else "quaternionic"
        assert rep_field(l, ld) == want, (l, ld)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=32))
def test_rep_field_mod2_periodicity(il, ild):
    l, ld = Fraction(il, 2), Fraction(ild, 2)
    assert rep_field(l, ld) == rep_field(l + 2, ld)
    assert rep_field(l, ld) == rep_field(l, ld + 2)
    assert rep_field(l + 2, ld + 2) == rep_field(l, ld)


def walk_tuples(entries):
    return [(e.l, e.l_dot, e.field, e.quotient) for e in entries]


def test_bw_rep_walk_first_cycle():
    walk = bw_rep_walk(1)
    assert len(walk) == 8
    assert walk_tuples(walk) == WALK_CYCLE_1
    assert [e.q for e in walk] == list(range(8))


def test_bw_rep_walk_two_cycles():
    walk = bw_rep_walk(2)
    assert len(walk) == 16
    assert walk_tuples(walk[8:]) == WALK_CYCLE_2


def test_bw_rep_walk_eighth_cycle():
    walk = bw_rep_walk(8)
    assert len(walk) == 64
    assert walk_tuples(walk[56:]) == WALK_CYCLE_8


def test_bw_rep_walk_structure():
    walk = bw_rep_walk(8)
    for idx, e in enumerate(walk):
        assert e.q == idx
        if e.q % 2 == 0:
            assert not e.quotient
            assert e.l == 0
            assert e.l_dot == Fraction(e.q, 4)
            ring = algebra_type(0, e.q).ring
            assert e.field == ("real" if ring in ("R", "R+R") else "quaternionic")
        else:
            prev = walk[idx - 1]
            assert e.quotient
            assert (e.l, e.l_dot, e.field) == (prev.l, prev.l_dot, prev.field)


@pytest.mark.parametrize("q,dim", [(1, 1), (3, 4), (5, 16), (MAX_QUOTIENT_Q, 1 << 14)])
def test_quotient_structure(q, dim):
    rep = quotient_structure(q)
    assert rep == {"kernel_dim": dim, "quotient_dim": dim, "passed": True}
    # the oracle's central idempotents (1 +- alpha)/2 for the same alpha
    sig = Signature(0, q, complexified=True)
    lp, lm = _split_projectors(sig)
    assert lp * lp == lp
    assert lm * lm == lm
    assert not lp * lm
    one = lp + lm
    assert one == one * lp + one * lm


def test_quotient_structure_rejects_even():
    with pytest.raises(ValueError):
        quotient_structure(4)


def _alpha(sig):
    """The volume element as an MV, times i when it squares to -1, with its
    square read by algebra.omega_square as quotient_structure reads it."""
    omega = MV.blade(sig, (1 << sig.n) - 1)
    return omega if algebra.omega_square(sig) == 1 else omega * GaussianRational(0, 1)


def _split_projectors(sig):
    one, alpha = MV.scalar(sig, 1), _alpha(sig)
    return (one + alpha) * half, (one - alpha) * half


def _eliminated_kernel_dim(q):
    """rank_of over the explicit vectors b - alpha*b."""
    sig = Signature(0, q, complexified=True)
    alpha = _alpha(sig)
    return rank_of((MV.blade(sig, b) - alpha * MV.blade(sig, b)).terms for b in range(1 << q))


@pytest.mark.parametrize("q", range(1, MAX_QUOTIENT_Q + 1, 2))
def test_quotient_split_matches_product_oracle(q):
    # the split read off alpha's mask and phase agrees with the MV-product
    # check of (1 +- alpha)/2, and passed needs it
    sig = Signature(0, q, complexified=True)
    assert naive_central_split_ok(_alpha(sig)) is True
    assert quotient_structure(q)["passed"] is True


def test_quotient_structure_fails_when_the_center_does_not_split(monkeypatch):
    monkeypatch.setattr(algebra, "_splits_center", lambda mask, c, sig: False)
    rep = quotient_structure(5)
    assert (rep["kernel_dim"], rep["passed"]) == (16, False)


@pytest.mark.parametrize("wrong_sign", [False, True])
@pytest.mark.parametrize("q", range(1, 12, 2))
def test_quotient_pair_count_matches_elimination(monkeypatch, q, wrong_sign):
    # the kernel is counted by blade pairs; the oracle eliminates the vectors.
    # With omega^2 read with the wrong sign, alpha^2 = -1, no pair's two
    # vectors are proportional, and the kernel is the whole algebra
    if wrong_sign:
        omega_square = algebra.omega_square
        monkeypatch.setattr(algebra, "omega_square", lambda sig: -omega_square(sig))
    rep = quotient_structure(q)
    want = _eliminated_kernel_dim(q)
    assert want == (1 << q if wrong_sign else 1 << (q - 1))
    assert (rep["kernel_dim"], rep["quotient_dim"]) == (want, (1 << q) - want)
    assert rep["passed"] is not wrong_sign


@pytest.mark.parametrize("q", [MAX_QUOTIENT_Q + 2, 41, 2 ** 61 + 1])
def test_quotient_structure_refuses_q_above_the_bound_at_once(monkeypatch, q):
    # the refusal comes before any signature is built
    def no_signature(*args, **kwargs):
        raise AssertionError("a Signature was built")

    monkeypatch.setattr(algebra, "Signature", no_signature)
    with pytest.raises(ValueError, match="MAX_QUOTIENT_Q = 15"):
        quotient_structure(q)


def test_spin_chain_seven_plet():
    chain = spin_chain(Fraction(0), Fraction(3))
    pairs = [(m.l, m.l_dot) for m in chain.members]
    assert pairs == [
        (Fraction(0), Fraction(3)),
        (half, Fraction(5, 2)),
        (Fraction(1), Fraction(2)),
        (Fraction(3, 2), Fraction(3, 2)),
        (Fraction(2), Fraction(1)),
        (Fraction(5, 2), half),
        (Fraction(3), Fraction(0)),
    ]
    assert chain.spins_signed == [Fraction(s) for s in range(-3, 4)]
    assert [m.spin for m in chain.members] == [abs(s) for s in chain.spins_signed]


def test_spin_chain_doublet_and_singlet():
    doublet = spin_chain(half, Fraction(1))
    assert [(m.l, m.l_dot) for m in doublet.members] == [(half, Fraction(1)), (Fraction(1), half)]
    assert doublet.spins_signed == [-half, half]
    singlet = spin_chain(Fraction(1), Fraction(1))
    assert len(singlet.members) == 1
    assert singlet.spins_signed == [Fraction(0)]


def test_representation_block_order_one_matches_grid():
    block = representation_block(1)
    assert block.order == 1
    assert block.bound == 2
    assert len(block.nodes) == 25
    for (l, ld), tag in FIG8.items():
        want = "real" if tag == "r" else "quaternionic"
        assert block.nodes[(l, ld)] == want


def test_representation_block_order_two_contains_published_labels():
    block = representation_block(2)
    assert block.bound == 16
    assert len(block.nodes) == 33 * 33
    for tag, l, ld in FIG9:
        want = "real" if tag == "r" else "quaternionic"
        assert block.nodes[(l, ld)] == want


@pytest.mark.parametrize("k,r", [(True, 0), (0, False), (1.0, 1), (1, 2.0), ("1", 1), (1, "2")])
def test_rep_label_refuses_a_count_that_is_not_an_int(k, r):
    # a bool is an int to Python, so rep_label(True, 0) would label l = 1/2;
    # every such count is refused before any label is built
    with pytest.raises(ValueError, match="k and r must be ints"):
        rep_label(k, r)


@pytest.mark.parametrize("value", [True, 2.0, "2"])
@pytest.mark.parametrize("name,build", [
    pytest.param("order", representation_block, id="representation_block"),
    pytest.param("cycles", bw_rep_walk, id="bw_rep_walk"),
])
def test_a_count_that_is_not_an_int_is_refused(monkeypatch, name, build, value):
    # representation_block(True) would build the order-1 grid and
    # bw_rep_walk(2.0) failed inside range(); every such count is refused
    # before any label or field tag is made
    def no_work(*a, **kw):
        raise AssertionError("work started before the type check")

    monkeypatch.setattr(reps, "rep_label", no_work)
    monkeypatch.setattr(reps, "rep_field", no_work)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {type(value).__name__}$"):
        build(value)


def test_rep_label_size_is_bounded():
    assert rep_label(MAX_REP_SUM, 0).spinspace_dim == 1 << MAX_REP_SUM
    assert rep_label(0, MAX_REP_SUM).spinspace_dim == 1 << MAX_REP_SUM
    for k, r in [(MAX_REP_SUM + 1, 0), (MAX_REP_SUM, 1), (20000, 0), (10**9, 10**9)]:
        with pytest.raises(ValueError, match="MAX_REP_SUM"):
            rep_label(k, r)


def test_every_chain_member_is_within_the_label_bound():
    chain = spin_chain(0, MAX_CHAIN_SUM)
    assert max(2 * (m.l + m.l_dot) for m in chain.members) == MAX_REP_SUM


def test_chain_text_over_the_int_parse_limit_names_that_limit():
    limit = sys.get_int_max_str_digits()
    # a long run that still parses, underscores not counted, reads as its value
    assert spin_chain("2" + "0" * 40 + "/1" + "0" * 40, "1_0") == spin_chain(2, 10)
    for text in ["9" * (limit + 1), "0" * limit + "1", "1/" + "1_" * limit + "1",
                 "0." + "5" * (limit + 1)]:
        with pytest.raises(ValueError, match="limit of int parsing") as exc:
            spin_chain(0, text)
        assert len(str(exc.value)) < 200
    with pytest.raises(ValueError, match=r"rationals like 3 or 1/2, got l = x/3$"):
        spin_chain("x/3", 0)  # a short input is echoed whole
