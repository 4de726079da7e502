"""Eightfold classification of Cl(p, q), primitive idempotents, and honest
division-ring certification.

Everything here is computed, not looked up, except the coefficient ring
label itself: the label claimed by the mod-8 table is certified against the
algebra by constructing f * A * f for a primitive idempotent f and checking
its products, so a wrong table entry would fail loudly. One path serves R, C
and H: the corner's trace-free part must carry a negative definite form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .algebra import MV, GaussianRational, Signature, blade_product, involute, volume_element, omega_square
from .linalg import SpanBasis, express

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
_DIM_K = {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}


@dataclass(frozen=True)
class AlgebraClass:
    p: int
    q: int
    type_mod8: int
    ring: str
    simple: bool
    matrix_rank: int


#: Largest p + q accepted by algebra_type, checked before the matrix rank
#: 2^((n - drop) / 2) is built; it covers every cell of chessboard(5).
MAX_CLASSIFY_N = 65536


def algebra_type(p: int, q: int) -> AlgebraClass:
    """Classification record for Cl(p, q) from the mod-8 type."""
    Signature(p, q)  # rejects negative, non-int and bool fields
    n = p + q
    if n > MAX_CLASSIFY_N:
        raise ValueError(f"p + q = {n} exceeds MAX_CLASSIFY_N = {MAX_CLASSIFY_N}")
    t = (p - q) % 8
    ring = _RING_OF_TYPE[t]
    simple = t not in (1, 5)
    rank = 1 << ((n - _RANK_DROP[t]) // 2)
    return AlgebraClass(p=p, q=q, type_mod8=t, ring=ring, simple=simple, matrix_rank=rank)


def formal_dimension_identity(info: AlgebraClass) -> bool:
    """2^n == rank^2 * dim_R(K) * (number of simple components)."""
    components = 1 if info.simple else 2
    return (1 << (info.p + info.q)) == info.matrix_rank ** 2 * _DIM_K[info.ring] * components


# --------------------------------------------------------------------------
# primitive idempotents
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentData:
    f: MV
    generators: tuple
    k: int
    group_order: int

    @property
    def sig(self) -> Signature:
        return self.f.sig


def _blades_commute(a: int, b: int) -> bool:
    return ((a.bit_count() * b.bit_count()) - (a & b).bit_count()) % 2 == 0


def _blade_order(n: int) -> list:
    """Every blade mask of an n-generator algebra, in (grade, mask) order."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), m))


def _gf2_span(masks) -> list:
    """The XOR of each of the 2^len(masks) subsets of masks: the GF(2) span,
    without repeats when the masks are independent."""
    span = [0]
    for m in masks:
        span += [s ^ m for s in span]
    return span


def _group_closure_order(generators: list, sig: Signature) -> int:
    """Order of the multiplicative group generated by the blades and -1."""
    elems = {(1, 0), (-1, 0)}
    frontier = [(1, 0), (-1, 0)]
    gens = [(1, g) for g in generators] + [(-1, 0)]
    while frontier:
        s, m = frontier.pop()
        for gs, gm in gens:
            sign, mask = blade_product(m, gm, sig)
            item = (s * gs * sign, mask)
            if item not in elems:
                elems.add(item)
                frontier.append(item)
    return len(elems)


#: Largest p + q accepted by primitive_idempotent, and so by
#: division_ring_of and minimal_left_ideal: their scans walk all 2^(p+q)
#: blade masks. 16 admits the full mod-8 period p + q <= 15.
MAX_IDEMPOTENT_N = 16


@lru_cache(maxsize=128)
def primitive_idempotent(p: int, q: int) -> IdempotentData:
    """Greedy construction of f = prod (1 + e_T)/2 over k commuting blades.

    k = q - r_{q-p}. The scan walks every blade mask in (grade, mask) order
    and keeps those that square to +1, commute with everything already kept,
    and are independent over GF(2), so the 2^k subset products are distinct.
    p + q is refused above MAX_IDEMPOTENT_N before anything is allocated;
    the big-q periodicity claims are arithmetic and never call this.
    """
    sig = Signature(p, q)
    n = p + q
    if n > MAX_IDEMPOTENT_N:
        raise ValueError(f"p + q = {n} exceeds MAX_IDEMPOTENT_N = {MAX_IDEMPOTENT_N}")
    k = q - radon_hurwitz(q - p)
    kept = []
    span = {0}
    if k > 0:
        for mask in _blade_order(n)[1:]:
            if len(kept) == k:
                break
            if blade_product(mask, mask, sig)[0] != 1:
                continue
            if not all(_blades_commute(mask, g) for g in kept):
                continue
            if mask in span:
                continue
            kept.append(mask)
            span = set(_gf2_span(kept))
        if len(kept) != k:
            raise RuntimeError(
                f"no commuting square-+1 blade set of size {k} in Cl({p},{q})"
            )
    f = MV.scalar(sig, 1)
    half = Fraction(1, 2)
    for mask in kept:
        f = f * (MV.scalar(sig, half) + MV.blade(sig, mask, half))
    if not (f * f == f and f):
        raise RuntimeError(f"constructed f is not a nonzero idempotent in Cl({p},{q})")
    order = _group_closure_order(kept, sig)
    if order != 1 << (k + 1):
        raise RuntimeError(f"idempotent group order {order} != 2^{k + 1} in Cl({p},{q})")
    return IdempotentData(f=f, generators=tuple(kept), k=k, group_order=order)


# --------------------------------------------------------------------------
# division ring of f A f, certified from its multiplication table
# --------------------------------------------------------------------------


def _coset_transversal(data: IdempotentData):
    """The first blade mask of each coset of the generators' GF(2) span,
    in (grade, mask) order.

    e_T f = f for every generator T, and e_A e_T = +-e_(A^T), so e_A f is
    the same up to sign for every A in one coset.
    """
    span = _gf2_span(data.generators)
    covered = set()
    for mask in _blade_order(data.sig.n):
        if mask not in covered:
            covered.update(mask ^ s for s in span)
            yield mask


def _span_of_corner(data: IdempotentData):
    """Representative multivectors spanning f * Cl(p,q) * f.

    If e_A anticommutes with a generator e_T of f, then
    (1 + e_T) e_A (1 + e_T) = e_A (1 - e_T)(1 + e_T) = 0, so f e_A f = 0.
    If e_A commutes with every generator, f e_A f = e_A f f = e_A f.
    Commuting with the generators holds for a whole coset or for none of
    it, so one product e_A f per commuting coset gives the same reps, in
    the same order, as f e_A f over all 2^n blades.
    """
    f, sig = data.f, data.sig
    basis = SpanBasis()
    reps = []
    for mask in _coset_transversal(data):
        if not all(_blades_commute(mask, g) for g in data.generators):
            continue
        x = MV.blade(sig, mask) * f
        if basis.add(x.terms):
            reps.append(x)
        if basis.rank > 4:
            raise RuntimeError(
                f"corner algebra dimension exceeds 4 in Cl({sig.p},{sig.q})"
            )
    return reps


def _certify_corner(reps, f: MV):
    """Name the division ring spanned by reps = [f, u_1, ...] from its own
    products. Each u^2 = a f + t u, so v = u - (t/2) f is trace-free, and
    v_i^2 = B_ii f and v_i v_j + v_j v_i = 2 B_ij f (i < j) define a
    symmetric form B. The corner is R, C or H, by dimension, when B is
    negative definite: every pivot of its symmetric elimination is negative."""
    dim = len(reps)
    ring = {1: "R", 2: "C", 4: "H"}.get(dim)
    if ring is None:
        raise RuntimeError(f"corner algebra dimension {dim} is not 1, 2, or 4")
    vs = []
    for u in reps[1:]:
        coords = express((u * u).terms, [f.terms, u.terms])
        if coords is None:
            raise RuntimeError("u^2 escapes span{f, u}; not a quadratic element")
        vs.append(u - f * (coords[1] / 2))
    b = {}
    for i, j in combinations_with_replacement(range(len(vs)), 2):
        pol = vs[i] * vs[i] if i == j else vs[i] * vs[j] + vs[j] * vs[i]
        coords = express(pol.terms, [f.terms])
        if coords is None:
            raise RuntimeError("polarization escapes span{f}")
        b[i, j] = coords[0] if i == j else coords[0] / 2
    for k in range(len(vs)):
        if b[k, k] >= 0:
            raise RuntimeError(f"{dim}-dimensional corner form is not negative definite")
        for i, j in combinations_with_replacement(range(k + 1, len(vs)), 2):
            b[i, j] -= b[k, i] * b[k, j] / b[k, k]
    return dim, ring


@lru_cache(maxsize=128)
def division_ring_of(p: int, q: int) -> tuple:
    """(dim of f*A*f, ring label), certified by exact computation.

    Simple algebras give R, C, or H. For types 1 and 5 mod 8 the center
    splits: the volume element is certified central with square +1, the two
    central projectors absorb f and its grade-involution mirror into opposite
    components, and the corner ring of one component is doubled in the label.
    """
    sig = Signature(p, q)
    info = algebra_type(p, q)
    data = primitive_idempotent(p, q)
    f = data.f
    reps = _span_of_corner(data)
    dim, ring = _certify_corner(reps, f)
    if info.simple:
        return dim, ring
    # semisimple: certify the two-component split before doubling the label
    omega = volume_element(sig)
    if omega_square(sig) != 1:
        raise RuntimeError(f"volume element square is not +1 in Cl({p},{q})")
    for i in range(1, sig.n + 1):
        e = MV.generator(sig, i)
        if omega * e != e * omega:
            raise RuntimeError(f"volume element is not central in Cl({p},{q})")
    half = Fraction(1, 2)
    one = MV.scalar(sig, 1)
    lam_plus = (one + omega) * half
    lam_minus = (one - omega) * half
    if not (lam_plus * lam_plus == lam_plus and lam_minus * lam_minus == lam_minus
            and not lam_plus * lam_minus):
        raise RuntimeError(f"central projectors are not orthogonal idempotents in Cl({p},{q})")
    mirror = involute(f, "grade_involution")
    f_plus = f * lam_plus
    m_plus = mirror * lam_plus
    f_in_plus = f_plus == f
    m_in_plus = m_plus == mirror
    if not ((f_plus == f or not f_plus) and (m_plus == mirror or not m_plus)):
        raise RuntimeError(f"idempotent straddles both components in Cl({p},{q})")
    if f_in_plus == m_in_plus:
        raise RuntimeError(f"mirror idempotent shares a component in Cl({p},{q})")
    if ring not in ("R", "H"):
        raise RuntimeError(f"semisimple component ring {ring} unexpected in Cl({p},{q})")
    return dim, f"{ring}+{ring}"


def minimal_left_ideal(p: int, q: int):
    """Spanning set for Cl(p,q) * f and its dimension 2^n / 2^k.

    e_A f is the same up to sign across a coset of the generators' GF(2)
    span, so one product per coset (the first blade of each in (grade, mask)
    order) gives the same reps as e_A f over all 2^n blades. The SpanBasis
    still checks that the 2^(n-k) products are independent.
    """
    sig = Signature(p, q)
    data = primitive_idempotent(p, q)
    basis = SpanBasis()
    reps = []
    for mask in _coset_transversal(data):
        x = MV.blade(sig, mask) * data.f
        if basis.add(x.terms):
            reps.append(x)
    expected = (1 << (p + q)) >> data.k
    if len(reps) != expected:
        raise RuntimeError(
            f"ideal dimension {len(reps)} != 2^{p + q} / 2^{data.k} in Cl({p},{q})"
        )
    return reps, len(reps)


# --------------------------------------------------------------------------
# the Dirac corner: complexified Cl(1,3)
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def dirac_idempotent() -> MV:
    """f = (1/4)(1 + e1)(1 + i e23) in complexified Cl(1,3)."""
    sig = Signature(1, 3, complexified=True)
    half = Fraction(1, 2)
    i = GaussianRational(0, 1)
    left = MV.scalar(sig, half) + MV.generator(sig, 1) * half
    right = MV.scalar(sig, half) + MV.blade(sig, 0b0110, i) * half
    f = left * right
    if f * f != f:
        raise RuntimeError("Dirac f is not idempotent")
    return f


def dirac_from_hestenes(phi: MV) -> MV:
    """Column-spinor packaging of an even multivector: phi |-> phi * f."""
    if any(m.bit_count() % 2 for m in phi.terms):
        raise ValueError("phi not even")
    return phi * dirac_idempotent()
