"""Mod-8 walk, clock octet, nested chessboards, Theorem-3 style k-growth."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cl8.classify import algebra_type, primitive_idempotent, radon_hurwitz
from cl8.periodicity import (
    MAX_BOARD_ORDER,
    MAX_QMAX,
    board_json,
    board_text,
    bw_cycle,
    bw_state,
    bw_step,
    chessboard,
    clock_json,
    clock_text,
    fractal_dimension,
    k_sequences,
    verify_theorem3,
)


CLOCK_OCTET = ["R", "C", "H", "H+H", "H", "C", "R", "R+R", "R"]


def test_ring_octet_down_the_negative_axis():
    got = [algebra_type(0, q).ring for q in range(9)]
    assert got == CLOCK_OCTET


def test_bw_state_origin_has_no_hour():
    s = bw_state(0)
    assert s.q == 0
    assert s.h is None
    assert s.r == 0
    assert s.ring == "R"


@pytest.mark.parametrize("q,h,r", [
    (1, 1, 0), (8, 8, 0), (9, 1, 1), (13, 5, 1), (16, 8, 1), (17, 1, 2), (64, 8, 7),
])
def test_bw_state_hours(q, h, r):
    s = bw_state(q)
    assert (s.h, s.r) == (h, r)
    assert s.ring == algebra_type(0, q).ring


def test_bw_step_advances_one_unit():
    s = bw_state(5)
    t = bw_step(s)
    assert t.q == 6
    assert t.ring == "R"


@pytest.mark.parametrize("r", range(8))
def test_cycle_rings(r):
    cyc = bw_cycle(r)
    assert len(cyc) == 8
    rings = [cyc[0].ring_from] + [t.ring_to for t in cyc]
    assert rings == CLOCK_OCTET
    assert [t.h for t in cyc] == list(range(1, 9))
    assert cyc[0].q_from == 8 * r
    assert cyc[-1].q_to == 8 * r + 8


def test_cycle_hours_label_the_same_transition_in_every_cycle():
    first = bw_cycle(0)
    for r in (1, 5, 7):
        later = bw_cycle(r)
        for a, b in zip(first, later):
            assert (a.ring_from, a.ring_to, a.h) == (b.ring_from, b.ring_to, b.h)
            assert b.q_from - a.q_from == 8 * r


def test_chessboard_order_one():
    board = chessboard(1)
    assert board.order == 1
    assert board.size == 8
    cells = [(p, q) for p in range(8) for q in range(8)]
    assert len(cells) == 64
    rings = {pq: board.cell(*pq) for pq in cells}
    for (p, q), ring in rings.items():
        assert ring == algebra_type(p, q).ring
    doubled = [pq for pq, ring in rings.items() if "+" in ring]
    assert len(doubled) == 16
    even_cells = [pq for pq in cells if (pq[0] + pq[1]) % 2 == 0]
    assert len(even_cells) == 32


def test_chessboard_rings_depend_only_on_difference_mod8():
    board = chessboard(2)
    assert board.size == 64
    for p, q in [(0, 0), (3, 5), (17, 9), (63, 63), (8, 0), (0, 8)]:
        assert board.cell(p, q) == algebra_type(p, q).ring
    # self-similarity: the (1,1) sub-board repeats the full ring pattern
    for p in range(8):
        for q in range(8):
            assert board.cell(8 + p, 8 + q) == board.cell(p, q)


def test_chessboard_orders_materialize_small_and_stay_lazy_large():
    b3 = chessboard(3)
    assert b3.size == 512
    assert b3.cell(511, 0) == algebra_type(511, 0).ring
    b5 = chessboard(5)
    assert b5.size == 8 ** 5
    assert b5.cell(8 ** 5 - 1, 3) == algebra_type(8 ** 5 - 1, 3).ring


def test_chessboard_order_is_bounded():
    board = chessboard(5)
    assert MAX_BOARD_ORDER == 5
    assert board.cell(board.size - 1, board.size - 1) == algebra_type(0, 0).ring
    with pytest.raises(ValueError, match="MAX_BOARD_ORDER"):
        chessboard(6)


def test_fractal_dimension_value():
    d = fractal_dimension()
    assert abs(d - math.log(63) / math.log(8)) < 1e-15
    assert abs(d - 1.9924) < 1e-4


K_SEQUENCES = [
    (0, 8, (0, 0, 0, 1, 1, 2, 3, 4, 4)),
    (9, 16, (4, 4, 5, 5, 6, 7, 8, 8)),
    (17, 24, (8, 8, 9, 9, 10, 11, 12, 12)),
]


def test_theorem3_k_sequences_frozen():
    report = verify_theorem3(24)
    assert report["passed"] is True
    assert report["sequences"] == [seq for _, _, seq in K_SEQUENCES]
    # brute-force idempotent search confirms the arithmetic k for small q
    for q in range(10):
        assert primitive_idempotent(0, q).k == q - radon_hurwitz(q)


def test_k_sequences_need_a_full_cycle():
    assert k_sequences(8) == [K_SEQUENCES[0][2]]
    assert k_sequences(23) == [seq for _, _, seq in K_SEQUENCES[:2]]
    with pytest.raises(ValueError):
        k_sequences(7)


def test_k_sequences_size_is_bounded():
    assert len(k_sequences(MAX_QMAX)) == MAX_QMAX // 8
    with pytest.raises(ValueError, match="MAX_QMAX"):
        k_sequences(MAX_QMAX + 1)
    with pytest.raises(ValueError, match="MAX_QMAX"):
        verify_theorem3(100000000)


def test_theorem3_shift_law():
    report = verify_theorem3(64)
    assert report["passed"] is True
    assert report["shift_ok"] is True
    for q in range(0, 57):
        assert (q + 8 - radon_hurwitz(q + 8)) == (q - radon_hurwitz(q)) + 4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_state_walk_matches_direct_lookup(q):
    s = bw_state(q)
    t = bw_step(s)
    assert t.q == q + 1
    assert t.ring == algebra_type(0, q + 1).ring
    if q >= 1:
        assert s.h == ((q - 1) % 8) + 1


def test_board_text_render():
    txt = board_text(chessboard(1))
    lines = [l for l in txt.splitlines() if l.strip()]
    assert any("R+R" in l for l in lines)
    assert any("H+H" in l for l in lines)
    # 8 data rows plus a header
    data_rows = [l for l in lines if "|" in l]
    assert len(data_rows) >= 8


def test_board_json_round_trip():
    blob = board_json(chessboard(1))
    data = json.loads(blob)
    assert data["order"] == 1
    assert data["size"] == 8
    cells = data["cells"]
    assert len(cells) == 64
    by_pq = {(c["p"], c["q"]): c for c in cells}
    assert len(by_pq) == 64
    origin = by_pq[(0, 0)]
    assert origin == {"p": 0, "q": 0, "type": 0, "ring": "R", "simple": True}
    assert by_pq[(0, 2)]["ring"] == "H"
    assert by_pq[(1, 0)]["simple"] is False
    # stable key order inside each record
    assert list(cells[0].keys()) == ["p", "q", "type", "ring", "simple"]
    with pytest.raises(ValueError, match="order <= 3"):
        board_json(chessboard(4))


def test_clock_renders():
    txt = clock_text()
    for label in ("R+R", "H+H", "H", "C"):
        assert label in txt
    data = json.loads(clock_json())
    assert len(data["hours"]) == 8
    assert data["hours"][0]["from"] == "R"
    assert data["hours"][0]["to"] == "C"
    assert data["hours"][7]["to"] == "R"
