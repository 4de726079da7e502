"""The mod-8 table of Cl(p, q): the Radon-Hurwitz numbers and the class
record, ring and matrix rank that (p - q) mod 8 decides.

Pure arithmetic on the signature, with no algebra element: this module
imports no other cl8 module, nor `fractions` or `json`, so the commands that
only print the table (`classify`, `chessboard`, `clock`, `cycle`) skip the
algebra. `cl8.classify` certifies each ring label against the algebra and
re-exports `algebra_type` and `radon_hurwitz`.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["AlgebraClass", "MAX_CLASSIFY_N", "algebra_type", "radon_hurwitz"]

_RH_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


def radon_hurwitz(i: int) -> int:
    """The sequence r_i: base row (0,1,2,2,3,3,3,3) shifted by +4 per period.

    Defined for every integer i; floor division extends it to the left,
    so r_-1 = r_-2 = r_-3 = -1 and r_-8 = -4.
    """
    return _RH_BASE[i % 8] + 4 * (i // 8)


_RING_OF_TYPE = {0: "R", 1: "R+R", 2: "R", 3: "C", 4: "H", 5: "H+H", 6: "H", 7: "C"}
# generators the ring and the center use up: matrix rank = 2^((n - drop) / 2)
_RANK_DROP = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 3, 6: 2, 7: 1}


class AlgebraClass(NamedTuple):
    p: int
    q: int
    type_mod8: int
    ring: str
    simple: bool
    matrix_rank: int


#: Largest p + q accepted by algebra_type, checked before the matrix rank
#: 2^((n - drop) / 2) is built; it covers every cell of Chessboard(5).
MAX_CLASSIFY_N = 65536


def algebra_type(p: int, q: int) -> AlgebraClass:
    """Classification record for Cl(p, q) from the mod-8 type.

    p and q are refused as `cl8.algebra.Signature` refuses them (a bool, a
    non-int or a negative), in its words, and p + q above MAX_CLASSIFY_N.
    """
    for v in (p, q):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"invalid signature ({p!r}, {q!r})")
    n = p + q
    if n > MAX_CLASSIFY_N:
        raise ValueError(f"p + q = {n} exceeds MAX_CLASSIFY_N = {MAX_CLASSIFY_N}")
    t = (p - q) % 8
    ring = _RING_OF_TYPE[t]
    simple = t not in (1, 5)
    rank = 1 << ((n - _RANK_DROP[t]) // 2)
    return AlgebraClass(p=p, q=q, type_mod8=t, ring=ring, simple=simple, matrix_rank=rank)
