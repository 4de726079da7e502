"""Mod-8 walk, clock octet, nested chessboards, Theorem-3 style k-growth."""

import json
import math

import pytest

from cl8 import periodicity
from cl8.classify import algebra_type, primitive_idempotent, radon_hurwitz
from cl8.periodicity import (
    MAX_BOARD_ORDER,
    MAX_QMAX,
    Chessboard,
    board_json,
    board_text,
    bw_cycle,
    clock_json,
    clock_text,
    fractal_dimension,
    k,
    k_sequences,
    verify_theorem3,
)


CLOCK_OCTET = ["R", "C", "H", "H+H", "H", "C", "R", "R+R", "R"]


def test_ring_octet_down_the_negative_axis():
    got = [algebra_type(0, q).ring for q in range(9)]
    assert got == CLOCK_OCTET


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
    board = Chessboard(1)
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
    board = Chessboard(2)
    assert board.size == 64
    for p, q in [(0, 0), (3, 5), (17, 9), (63, 63), (8, 0), (0, 8)]:
        assert board.cell(p, q) == algebra_type(p, q).ring
    # self-similarity: the (1,1) sub-board repeats the full ring pattern
    for p in range(8):
        for q in range(8):
            assert board.cell(8 + p, 8 + q) == board.cell(p, q)


def test_chessboard_orders_materialize_small_and_stay_lazy_large():
    b3 = Chessboard(3)
    assert b3.size == 512
    assert b3.cell(511, 0) == algebra_type(511, 0).ring
    b5 = Chessboard(5)
    assert b5.size == 8 ** 5
    assert b5.cell(8 ** 5 - 1, 3) == algebra_type(8 ** 5 - 1, 3).ring


def test_chessboard_order_is_bounded():
    board = Chessboard(5)
    assert MAX_BOARD_ORDER == 5
    assert board.cell(board.size - 1, board.size - 1) == algebra_type(0, 0).ring
    with pytest.raises(ValueError, match="MAX_BOARD_ORDER"):
        Chessboard(6)


@pytest.mark.parametrize("value", [True, 2.0, "2"])
@pytest.mark.parametrize("name,build", [
    pytest.param("order", Chessboard, id="Chessboard"),
    pytest.param("cycle index", bw_cycle, id="bw_cycle"),
    pytest.param("q", k, id="k"),
])
def test_a_count_that_is_not_an_int_is_refused(monkeypatch, name, build, value):
    # a bool is an int to Python, so Chessboard(True) would build an order-1
    # board and k(True) would answer; every such count is refused before any
    # table lookup
    def no_work(*a, **kw):
        raise AssertionError("work started before the type check")

    monkeypatch.setattr(periodicity, "algebra_type", no_work)
    monkeypatch.setattr(periodicity, "radon_hurwitz", no_work)
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {type(value).__name__}$"):
        build(value)


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


def test_board_text_render():
    txt = board_text(Chessboard(1))
    lines = [l for l in txt.splitlines() if l.strip()]
    assert any("R+R" in l for l in lines)
    assert any("H+H" in l for l in lines)
    # 8 data rows plus a header
    data_rows = [l for l in lines if "|" in l]
    assert len(data_rows) >= 8


def test_board_json_round_trip():
    blob = board_json(Chessboard(1))
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
        board_json(Chessboard(4))


def test_clock_renders():
    txt = clock_text()
    for label in ("R+R", "H+H", "H", "C"):
        assert label in txt
    data = json.loads(clock_json())
    assert len(data["hours"]) == 8
    assert data["hours"][0]["from"] == "R"
    assert data["hours"][0]["to"] == "C"
    assert data["hours"][7]["to"] == "R"
