"""Mod-8 periodicity made walkable: the ring clock, nested chessboards,
and the arithmetic of the idempotent exponent k(0, q).

The clock, the boards and the cycles read `cl8.table` alone. Only
`search_confirms_k` builds idempotents, so it imports `cl8.classify` when it
runs, and `json` is imported by the two functions that write it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .table import algebra_type, radon_hurwitz

__all__ = [
    "CLOCK_OCTET", "Chessboard", "MAX_BOARD_ORDER", "MAX_QMAX", "Transition", "board_json",
    "board_text", "bw_cycle", "clock_json", "clock_text", "fractal_dimension", "k",
    "k_sequences", "search_confirms_k", "verify_theorem3",
]


class Transition(NamedTuple):
    q_from: int
    q_to: int
    h: int
    ring_from: str
    ring_to: str


def bw_cycle(r: int) -> list:
    """The eight hour transitions of cycle r, from q = 8r to q = 8r + 8."""
    if r < 0:
        raise ValueError("cycle index must be >= 0")
    out = []
    for h in range(1, 9):
        q_from = 8 * r + h - 1
        out.append(Transition(
            q_from=q_from,
            q_to=q_from + 1,
            h=h,
            ring_from=algebra_type(0, q_from).ring,
            ring_to=algebra_type(0, q_from + 1).ring,
        ))
    return out


#: Largest board order, checked before 8^order is built: Chessboard(5) is
#: the largest board whose every cell algebra_type answers (p + q <= 65,534).
MAX_BOARD_ORDER = 5


class Chessboard:
    """Square board of side 8^order indexed by (p, q).

    Cells hold classification records, never algebra elements. Every cell
    query is answered on demand, since only the mod-8 difference matters.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        if order > MAX_BOARD_ORDER:
            raise ValueError(f"order = {order} exceeds MAX_BOARD_ORDER = {MAX_BOARD_ORDER}")
        self.order = order
        self.size = 8 ** order

    def record(self, p: int, q: int):
        if not (0 <= p < self.size and 0 <= q < self.size):
            raise ValueError(f"cell ({p}, {q}) outside board of size {self.size}")
        return algebra_type(p, q)

    def cell(self, p: int, q: int) -> str:
        return self.record(p, q).ring


def fractal_dimension() -> float:
    """Box dimension ln 63 / ln 8 of the self-similar filled-cell pattern."""
    return math.log(63) / math.log(8)


_PARITY_EVEN = "●"  # filled circle, p+q even
_PARITY_ODD = "○"   # open circle, p+q odd


def board_text(board: Chessboard) -> str:
    """8x8 base pattern as text: type digit plus parity marker per cell."""
    lines = [f"mod-8 chessboard, order {board.order}, size {board.size}x{board.size}"]
    header = "     " + " ".join(f"q={q}" for q in range(8))
    lines.append(header)
    for p in range(8):
        row = []
        for q in range(8):
            t = algebra_type(p, q).type_mod8
            mark = _PARITY_EVEN if (p + q) % 2 == 0 else _PARITY_ODD
            row.append(f" {t}{mark}")
        lines.append(f"p={p} |" + " ".join(row))
    lines.append("legend: " + " ".join(f"{t}={algebra_type(t, 0).ring}" for t in range(8)))
    lines.append(f"        {_PARITY_EVEN} p+q even, {_PARITY_ODD} p+q odd; "
                 "pattern repeats every 8 in each direction")
    return "\n".join(lines)


def board_json(board: Chessboard) -> str:
    """Full cell listing as JSON; limited to boards of order <= 3."""
    import json

    if board.order > 3:
        raise ValueError("JSON export needs a materialized board (order <= 3)")
    cells = []
    for p in range(board.size):
        for q in range(board.size):
            info = algebra_type(p, q)
            cells.append({
                "p": p,
                "q": q,
                "type": info.type_mod8,
                "ring": info.ring,
                "simple": info.simple,
            })
    return json.dumps({"order": board.order, "size": board.size, "cells": cells})


CLOCK_OCTET = ("R", "C", "H", "H+H", "H", "C", "R", "R+R", "R")


def clock_text() -> str:
    lines = ["ring clock, one eight-hour cycle of q -> q+1:"]
    for h in range(1, 9):
        lines.append(f"  h{h}: {CLOCK_OCTET[h - 1]:>3} -> {CLOCK_OCTET[h]}")
    lines.append("after eight hours the ring returns to R and k has grown by 4")
    return "\n".join(lines)


def clock_json() -> str:
    import json

    hours = [
        {"h": h, "from": CLOCK_OCTET[h - 1], "to": CLOCK_OCTET[h]}
        for h in range(1, 9)
    ]
    return json.dumps({"hours": hours})


def k(q: int) -> int:
    """The idempotent exponent k(0, q) = q - r_q."""
    return q - radon_hurwitz(q)


def search_confirms_k(q: int) -> bool:
    """The idempotent search for Cl(0, q) kept k(q) generators, and the
    corner f Cl f certifies as R, C or H (doubled when the center splits).
    A division-ring corner makes f primitive, so k(0, q) is exact."""
    from .classify import division_ring_of, primitive_idempotent

    return (len(primitive_idempotent(0, q).generators) == k(q)
            and division_ring_of(0, q)[1].partition("+")[0] in ("R", "C", "H"))


#: Largest q_max accepted by k_sequences, and so by verify_theorem3 and the
#: theorem3 suite, checked before any cycle is listed.
MAX_QMAX = 1024


def k_sequences(q_max: int) -> list:
    """k over q = 0..8, then over each further full cycle 8r+1..8r+8 <= q_max."""
    if q_max < 8:
        raise ValueError("q_max must be >= 8 to cover the first cycle")
    if q_max > MAX_QMAX:
        raise ValueError(f"q_max = {q_max} exceeds MAX_QMAX = {MAX_QMAX}")
    sequences = [tuple(k(q) for q in range(0, 9))]
    r = 1
    while 8 * r + 8 <= q_max:
        sequences.append(tuple(k(q) for q in range(8 * r + 1, 8 * r + 9)))
        r += 1
    return sequences


def verify_theorem3(q_max: int = 24) -> dict:
    """Check Theorem 3, k(0, q + 8) = k(0, q) + 4, up to q_max >= 8.

    The one computation behind the theorem3 suite. cycles_ok holds one flag
    per entry of k_sequences(q_max): the cycle is non-decreasing and sits 4
    above the matching tail of the cycle before. shift_ok checks the law for
    every q <= q_max - 8. The exponent at large q is arithmetic; brute-force
    idempotent search with a certified corner confirms it where that is
    cheap (q <= 9), and brute_ok records that.
    """
    sequences = k_sequences(q_max)
    cycles_ok = [
        all(a <= b for a, b in zip(seq, seq[1:]))
        and (r == 0 or all(a == b + 4 for a, b in zip(seq, sequences[r - 1][-len(seq):])))
        for r, seq in enumerate(sequences)
    ]
    shift_ok = all(k(q + 8) == k(q) + 4 for q in range(q_max - 8 + 1))
    brute_max = min(q_max, 9)
    brute_ok = all(search_confirms_k(q) for q in range(brute_max + 1))
    return {
        "passed": all(cycles_ok) and shift_ok and brute_ok,
        "sequences": sequences,
        "cycles_ok": cycles_ok,
        "shift_ok": shift_ok,
        "brute_ok": brute_ok,
        "brute_max_q": brute_max,
    }
