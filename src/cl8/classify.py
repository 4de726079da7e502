"""Eightfold classification of Cl(p, q), primitive idempotents, and honest
division-ring certification, all in ints.

Everything here is computed, not looked up, except the coefficient ring
label itself: the label claimed by the mod-8 table is certified against the
algebra by constructing f * A * f for a primitive idempotent f and checking
its unit relations, so a wrong table entry would fail loudly. f is held as
2^k f, whose terms are the ints +-1, so no Fraction is formed. One path serves
R, C and H: the corner's units square to -f and pairwise anticommute, read
off their blade masks by Q and `algebra.blades_anticommute`, the sign rule of
every `cl8.tensoriso` witness, and so is the split of the center: the volume
element's Q and beta, and f's component by its support. Each cell is one cheap
pass: the scan reads Q in closed form; one walk per idempotent reads each blade's
coset off a linear key table over the GF(2) echelon in `linalg`, stops at the last
coset, and ranks the corner and the ideal by disjoint coset supports; each ideal
rep 2^k e_A f is f's int terms permuted with signs. The table itself,
`algebra_type` and `radon_hurwitz`, lives in `cl8.table`, which loads no algebra;
this module re-exports both.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .algebra import (
    Signature, _product_terms, _splits_center, anticommute_mask, blade_square,
    blades_anticommute, omega_square,
)
from .linalg import gf2_echelon, gf2_reduce
from .table import algebra_type, check_count, radon_hurwitz

__all__ = [
    "IdempotentData", "MAX_IDEMPOTENT_N", "algebra_type", "division_ring_of",
    "minimal_left_ideal", "primitive_idempotent", "radon_hurwitz",
]


# --------------------------------------------------------------------------
# primitive idempotents
# --------------------------------------------------------------------------


class IdempotentData(NamedTuple):
    """f = prod (1 + e_T)/2 over the k generators T, held as scaled_f, the
    read-only terms of 2^k f: mask -> int +-1, one on each blade of their span."""

    sig: Signature
    scaled_f: MappingProxyType
    generators: tuple
    k: int
    group_order: int

    def __hash__(self):  # the generators and sig decide f; hashing f's terms is waste
        return hash((self.generators, self.sig))


#: Largest p + q accepted by primitive_idempotent, and so by
#: division_ring_of and minimal_left_ideal: their scans walk all 2^(p+q)
#: blade masks. 16 admits the full mod-8 period p + q <= 15.
MAX_IDEMPOTENT_N = 16


@lru_cache(maxsize=MAX_IDEMPOTENT_N + 1)
def _blade_order(n: int) -> tuple:
    """Every blade mask of an n-generator algebra, in (grade, mask) order."""
    return tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))


# typed, so True and 1.0 miss the entry of 1 and reach Signature's refusal
@lru_cache(maxsize=128, typed=True)
def primitive_idempotent(p: int, q: int) -> IdempotentData:
    """Greedy construction of f = prod (1 + e_T)/2 over k commuting blades.

    k = q - r_{q-p}. The scan walks every blade mask in (grade, mask) order
    and keeps those that square to +1, commute with everything already kept,
    and are independent over GF(2), so with -1 they generate +-e_A over their
    span, of order 2^(k + 1). f is formed and checked as 2^k f, whose terms
    are int +-1: a term on each of the span's 2^k blades, and
    (2^k f)^2 = 2^k (2^k f), which is f f = f. p + q is refused above
    MAX_IDEMPOTENT_N before anything is allocated; the big-q claims are
    arithmetic and never call this.
    """
    sig = Signature(p, q)
    n = sig.n
    check_count("p + q", n, 0, MAX_IDEMPOTENT_N, "MAX_IDEMPOTENT_N")
    k = q - radon_hurwitz(q - p)
    kept = []
    betas = []
    rows = []
    if k > 0:
        for mask in _blade_order(n)[1:]:
            if len(kept) == k:
                break
            if blade_square(mask, sig) != 1:
                continue
            if any((mask & c).bit_count() & 1 for c in betas):
                continue
            if not gf2_reduce(rows, mask):
                continue
            kept.append(mask)
            betas.append(anticommute_mask(mask, sig))
            rows = gf2_echelon(kept)
        if len(kept) != k:
            raise RuntimeError(f"no commuting square-+1 blade set of size {k} in Cl({p},{q})")
    scaled = {0: 1}  # 2^k f, with int coefficients +-1
    for mask in kept:
        scaled = _product_terms(scaled, {0: 1, mask: 1}, sig)
    square = _product_terms(scaled, scaled, sig)
    if not (len(scaled) == 1 << k and square == {m: c << k for m, c in scaled.items()}):
        raise RuntimeError(f"constructed f is not an idempotent on 2^{k} blades in Cl({p},{q})")
    return IdempotentData(sig=sig, scaled_f=MappingProxyType(scaled), generators=tuple(kept),
                          k=k, group_order=2 << len(rows))


# --------------------------------------------------------------------------
# division ring of f A f, certified from its multiplication table
# --------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _cosets(data: IdempotentData) -> tuple:
    """(ideal masks, corner masks) of f, from one walk in (grade, mask) order.

    An ideal mask is the first blade of a coset of the generators' GF(2)
    span, keyed by its gf2_reduce, which is linear: key[m] = key[m ^ b] ^ key[b]
    for m's top bit b, from n one-bit reductions. The walk stops once each of the
    2^n / 2^rank cosets has its rep. e_T f = f for every generator T and
    e_A e_T = +-e_(A^T), so e_A f is the same up to sign across a coset.
    f has a term on each blade of the span (primitive_idempotent checks it),
    so e_A f has one on each blade of A + span: distinct cosets have
    disjoint supports, so their products are independent and their count
    is their rank. A corner mask is an ideal mask whose coset commutes with
    every generator (commuting holds for a whole coset or for none of it):
    there f e_A f = e_A f f = e_A f, while on an anticommuting coset
    (1 + e_T) e_A (1 + e_T) = e_A (1 - e_T)(1 + e_T) = 0, so f e_A f = 0.
    So both lists give the reps, in order, of the full 2^n blade scans.
    """
    rows = gf2_echelon(data.generators)
    betas = [anticommute_mask(g, data.sig) for g in data.generators]
    keys = [0]
    for i in range(data.sig.n):
        bit = gf2_reduce(rows, 1 << i)
        keys += [key ^ bit for key in keys]
    seen = set()
    ideal, corner = [], []
    for mask in _blade_order(data.sig.n):
        key = keys[mask]
        if key not in seen:
            seen.add(key)
            ideal.append(mask)
            if not any((mask & c).bit_count() & 1 for c in betas):
                corner.append(mask)
            if len(ideal) << len(rows) == len(keys):  # every coset has its rep
                break
    return tuple(ideal), tuple(corner)


def _certify_corner(masks, sig) -> tuple:
    """Name the division ring spanned by the units u_A = e_A f, for the
    corner masks [0, A_1, ...] of `_cosets`, from their relations.

    e_A commutes with f and f^2 = f, so u_A u_B = e_A f e_B f = e_A e_B f:
    the units multiply as their blades do (f * Cl * f is a twisted group
    algebra of Z_2^n). So u_A^2 = Q(A) f and u_A u_B = (-1)^beta(A, B) u_B u_A,
    and no corner element is multiplied. The corner is R, C or H, by
    dimension, when every Q(A) = -1 and every beta(A, B) is odd: Hamilton's
    relations with f as the unit."""
    dim = len(masks)
    ring = {1: "R", 2: "C", 4: "H"}.get(dim)
    if ring is None:
        raise RuntimeError(f"corner algebra dimension {dim} is not 1, 2, or 4")
    units = masks[1:]
    if any(blade_square(a, sig) != -1 for a in units):
        raise RuntimeError(f"{dim}-dimensional corner is not negative definite: "
                           "a unit does not square to -f")
    if not blades_anticommute(units, sig):
        raise RuntimeError("corner units do not anticommute")
    return dim, ring


@lru_cache(maxsize=128, typed=True)
def division_ring_of(p: int, q: int) -> tuple:
    """(dim of f*A*f, ring label), certified by exact computation.

    The algebra alone decides the shape, never the mod-8 table. When n is odd
    and omega = e_full squares to +1, `algebra._splits_center` certifies the center
    split on omega's mask (central, beta(., full) = 0, and square Q(full) = 1), and
    the corner ring of one component is doubled in the label. f has a term on each
    blade of its generators' span S, and e_s f = c_s f there, so f omega = +-f (one
    projector (1 +- omega)/2 absorbs f) exactly when full is in S, a term of f; else
    f omega's support misses S. The grade involution is an automorphism taking omega
    to -omega for odd n, so f's mirror lies in the other component. Otherwise the
    algebra is simple and the corner is R, C, or H.
    """
    data = primitive_idempotent(p, q)
    sig, full = data.sig, (1 << data.sig.n) - 1
    dim, ring = _certify_corner(_cosets(data)[1], sig)
    if sig.n % 2 == 0 or omega_square(sig) != 1:
        return dim, ring
    if not _splits_center(full, 0, sig):
        raise RuntimeError(f"volume element does not split the center of Cl({p},{q})")
    if full not in data.scaled_f:
        raise RuntimeError(f"f and its mirror are not in opposite components of Cl({p},{q})")
    if ring not in ("R", "H"):
        raise RuntimeError(f"semisimple component ring {ring} unexpected in Cl({p},{q})")
    return dim, f"{ring}+{ring}"


def minimal_left_ideal(p: int, q: int):
    """Spanning set for Cl(p,q) * f and its dimension 2^n / 2^k.

    One rep per ideal mask A of `_cosets`, one per coset of the generators'
    GF(2) span: the int terms of 2^k e_A f, independent, and there must be
    2^(n-k) of them. Each is f's terms permuted with signs by the kernel's
    one-blade path.
    """
    data = primitive_idempotent(p, q)
    reps = [_product_terms({mask: 1}, data.scaled_f, data.sig) for mask in _cosets(data)[0]]
    if len(reps) != (1 << (p + q)) >> data.k:
        raise RuntimeError(f"ideal dimension {len(reps)} != 2^{p + q} / 2^{data.k} "
                           f"in Cl({p},{q})")
    return reps, len(reps)
