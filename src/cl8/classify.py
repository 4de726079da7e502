"""Eightfold classification of Cl(p, q), primitive idempotents, and honest
division-ring certification.

Everything here is computed, not looked up, except the coefficient ring
label itself: the label claimed by the mod-8 table is certified against the
algebra by constructing f * A * f for a primitive idempotent f and checking
its multiplication table, so a wrong table entry would fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
_DIM_K = {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}


@dataclass(frozen=True)
class AlgebraClass:
    p: int
    q: int
    type_mod8: int
    ring: str
    simple: bool
    matrix_rank: int


def algebra_type(p: int, q: int) -> AlgebraClass:
    """Classification record for Cl(p, q) from the mod-8 type."""
    Signature(p, q)  # rejects negative, non-int and bool fields
    n = p + q
    t = (p - q) % 8
    ring = _RING_OF_TYPE[t]
    simple = t not in (1, 5)
    if t in (0, 2):
        rank = 1 << (n // 2)
    elif t in (4, 6):
        rank = 1 << ((n - 2) // 2)
    elif t in (3, 7):
        rank = 1 << ((n - 1) // 2)
    elif t == 1:
        rank = 1 << ((n - 1) // 2)
    else:  # t == 5
        rank = 1 << ((n - 3) // 2)
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


def _blade_square_sign(mask: int, sig: Signature) -> int:
    sign, rest = blade_product(mask, mask, sig)
    assert rest == 0
    return sign


def _blades_commute(a: int, b: int) -> bool:
    return ((a.bit_count() * b.bit_count()) - (a & b).bit_count()) % 2 == 0


def _gf2_independent(mask: int, reduced: list) -> bool:
    x = mask
    for r in reduced:
        x = min(x, x ^ r)
    return x != 0


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


@lru_cache(maxsize=None)
def primitive_idempotent(p: int, q: int) -> IdempotentData:
    """Greedy construction of f = prod (1 + e_T)/2 over k commuting blades.

    k = q - r_{q-p}. The scan walks every blade mask in (grade, mask) order
    and keeps those that square to +1, commute with everything already kept,
    and are independent over GF(2), so the 2^k subset products are distinct.
    Practical for p + q up to a dozen or so; the big-q periodicity claims are
    arithmetic and never call this.
    """
    sig = Signature(p, q)
    k = q - radon_hurwitz(q - p)
    n = p + q
    kept = []
    reduced = []
    if k > 0:
        order = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
        for mask in order:
            if len(kept) == k:
                break
            if _blade_square_sign(mask, sig) != 1:
                continue
            if not all(_blades_commute(mask, g) for g in kept):
                continue
            if not _gf2_independent(mask, reduced):
                continue
            kept.append(mask)
            # keep the reduction list in echelon form
            x = mask
            for r in reduced:
                x = min(x, x ^ r)
            reduced.append(x)
            reduced.sort(reverse=True)
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
    return IdempotentData(f=f, generators=list(kept), k=k, group_order=order)


# --------------------------------------------------------------------------
# division ring of f A f, certified from its multiplication table
# --------------------------------------------------------------------------


def _span_of_corner(f: MV, sig: Signature):
    """Representative multivectors spanning f * Cl(p,q) * f."""
    basis = SpanBasis()
    reps = []
    for mask in sorted(range(1 << sig.n), key=lambda m: (m.bit_count(), m)):
        x = f * MV.blade(sig, mask) * f
        if x and basis.add(x.terms):
            reps.append(x)
        if basis.rank > 4:
            raise RuntimeError(
                f"corner algebra dimension exceeds 4 in Cl({sig.p},{sig.q})"
            )
    return reps


def _certify_corner(reps, f: MV):
    """Name the division ring spanned by reps, from its own products."""
    dim = len(reps)
    if dim == 1:
        return 1, "R"
    if dim == 2:
        u = reps[1]
        coords = express((u * u).terms, [f.terms, u.terms])
        if coords is None:
            raise RuntimeError("u^2 escapes span{f, u}; not a quadratic element")
        a, t = coords
        if t * t + 4 * a < 0:
            return 2, "C"
        raise RuntimeError("2-dimensional corner with real eigenvalues; not a field")
    if dim == 4:
        vs = []
        for u in reps[1:]:
            coords = express((u * u).terms, [f.terms, u.terms])
            if coords is None:
                raise RuntimeError("u^2 escapes span{f, u}; not a quadratic element")
            a, t = coords
            vs.append(u - f * (t / 2))
        # symmetric bilinear form from polarization: v_i v_j + v_j v_i = 2 B_ij f
        b = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                w = vs[i] * vs[j] + vs[j] * vs[i]
                coords = express(w.terms, [f.terms])
                if coords is None:
                    raise RuntimeError("polarization escapes span{f}")
                b[i][j] = coords[0] / 2
        m1 = b[0][0]
        m2 = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        m3 = (
            b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
            - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
            + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
        )
        if m1 < 0 and m2 > 0 and m3 < 0:
            return 4, "H"
        raise RuntimeError("4-dimensional corner form is not negative definite")
    raise RuntimeError(f"corner algebra dimension {dim} is not 1, 2, or 4")


@lru_cache(maxsize=None)
def division_ring_of(p: int, q: int) -> tuple:
    """(dim of f*A*f, ring label), certified by exact computation.

    Simple algebras give R, C, or H. For types 1 and 5 mod 8 the center
    splits: the volume element is certified central with square +1, the two
    central projectors absorb f and its grade-involution mirror into opposite
    components, and the corner ring of one component is doubled in the label.
    """
    sig = Signature(p, q)
    info = algebra_type(p, q)
    f = primitive_idempotent(p, q).f
    reps = _span_of_corner(f, sig)
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
    assert lam_plus * lam_plus == lam_plus
    assert lam_minus * lam_minus == lam_minus
    assert not lam_plus * lam_minus
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
    """Spanning set for Cl(p,q) * f and its dimension 2^n / 2^k."""
    sig = Signature(p, q)
    data = primitive_idempotent(p, q)
    basis = SpanBasis()
    reps = []
    for mask in sorted(range(1 << sig.n), key=lambda m: (m.bit_count(), m)):
        x = MV.blade(sig, mask) * data.f
        if x and basis.add(x.terms):
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
    assert f * f == f
    return f


def dirac_from_hestenes(phi: MV) -> MV:
    """Column-spinor packaging of an even multivector: phi |-> phi * f."""
    if any(m.bit_count() % 2 for m in phi.terms):
        raise ValueError("phi not even")
    return phi * dirac_idempotent()
