"""The mod-8 table of Cl(p, q): the Radon-Hurwitz numbers and the class
record, ring and matrix rank that (p - q) mod 8 decides; and `check_count`,
the one check of a count that every public entry point of the package makes
before any work.

Pure arithmetic on the signature, with no algebra element: this module
imports no other cl8 module, nor `fractions` or `json`, so the commands that
only print the table (`classify`, `chessboard`, `clock`, `cycle`) skip the
algebra, and every module can load the check. `cl8.classify` certifies each
ring label against the algebra and re-exports `algebra_type` and
`radon_hurwitz`.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "AlgebraClass", "MAX_CLASSIFY_N", "MAX_SAMPLES", "algebra_type", "check_count",
    "radon_hurwitz",
]


def check_count(name: str, value, lo=0, hi=None, limit=None) -> None:
    """Refuse a count before any work: a bool or any other non-int, a value
    below lo (no lower end when lo is None), or one above hi, the bound named
    limit. The ValueError reads `<name> must be an int, got <type>`,
    `<name> must be >= <lo>, got <value>` or `<name> = <value> exceeds
    <limit> = <hi>`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} = {value} exceeds {limit} = {hi}")


#: Most samples a sampled check draws, checked before the first draw: the
#: exact checks of `cl8.pauli` and `BlockForm.sample_homomorphism`. 2,000
#: block samples on Cl(1,3) take 0.07-0.08 s (Python 3.11, one core of a
#: 2-vCPU VM).
MAX_SAMPLES = 100_000

_RH_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


def radon_hurwitz(i: int) -> int:
    """The sequence r_i: base row (0,1,2,2,3,3,3,3) shifted by +4 per period.

    Defined for every integer i; floor division extends it to the left,
    so r_-1 = r_-2 = r_-3 = -1 and r_-8 = -4.
    """
    check_count("i", i, None)
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
    check_count("p + q", n, 0, MAX_CLASSIFY_N, "MAX_CLASSIFY_N")
    t = (p - q) % 8
    ring = _RING_OF_TYPE[t]
    simple = t not in (1, 5)
    rank = 1 << ((n - _RANK_DROP[t]) // 2)
    return AlgebraClass(p=p, q=q, type_mod8=t, ring=ring, simple=simple, matrix_rank=rank)
