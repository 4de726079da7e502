"""Constructive isomorphism certificates between Clifford algebras.

A certificate is always the same shape: candidate images for the target
generators, exact verification that they square correctly and pairwise
anticommute, and an exact rank check that their subset products span the
whole algebra. Those three facts together pin the isomorphism down, so no
explicit basis-to-basis map is ever built. Images are single blades, so the
rank is a GF(2) rank of masks. Every generator-map witness is built by one
routine, `_witness`; the graded, Karoubi and complex tensor products form their
images in one more, `_product_witness`, and every link of the conformal chain is
one of these witnesses. The phi/psi split, the one certificate that is not a
generator map, ranks its masks with the same `linalg.gf2_echelon`. Every builder
refuses more than `MAX_WITNESS_N` generators before it builds a signature.
An image is a phased blade, the int pair (mask, c) for i^c e_mask with c mod 4:
blades mod phase are Z_2^n, and the sign is the cocycle of `blade_product`. So a
witness reads each fact in ints, with no `MV`: the square (-1)^c Q(mask) off
`algebra.blade_square`, the anticommutation off `algebra.blades_anticommute` and
the rank off the masks. The even images, phi and psi are +-1 times one blade
named off masks by `algebra.blade_product`, and nothing here forms an `MV`
product: the block samples multiply int term dicts with `algebra._product_terms`,
the complexified base written as Cl(p, q-1) (x) Cl(0, 1).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    MV,
    Signature,
    _gaussian,
    _product_terms,
    _sign_flips,
    anticommute_mask,
    blade_product,
    blade_square,
    blades_anticommute,
    omega_square,
)
from .linalg import gf2_echelon

__all__ = [
    "BlockForm", "ChainLink", "ChainReport", "GeneratorMap", "MAX_BLOCK_SAMPLES",
    "MAX_WITNESS_N", "PhiPsiReport", "ProductAlgebra", "TensorMV", "complex_tensor_check",
    "even_iso_check", "even_iso_target", "generator_map_json", "graded_tensor_check",
    "karoubi_check", "phi_psi_factorization", "spin24_chain",
]


# --------------------------------------------------------------------------
# tensor products of Clifford algebras, graded or plain
# --------------------------------------------------------------------------


class ProductAlgebra:
    """Tensor product of Clifford algebras, as the descriptor an `MV` takes.

    A tensor blade is one int mask: factor i's mask shifted left by the
    generator count of the factors before it. graded=True is then exactly
    the Clifford algebra on the concatenated generators (the Koszul sign
    is the cost of moving a generator past the later factors); with
    graded=False a cut at each later factor's offset makes generators in
    different factors commute.
    """

    def __init__(self, sigs, graded: bool = False):
        self.sigs = tuple(sigs)
        if not self.sigs:
            raise ValueError("need at least one factor")
        self.graded = bool(graded)
        self.complexified = any(s.complexified for s in self.sigs)
        offsets = []
        n = minus = cuts = 0
        for s in self.sigs:
            offsets.append(n)
            if n and not self.graded:
                cuts |= 1 << n
            minus |= s.minus_mask << n
            n += s.n
        self.offsets = tuple(offsets)
        self.n, self.minus_mask, self.cuts = n, minus, cuts

    def __eq__(self, other):
        if not isinstance(other, ProductAlgebra):
            return NotImplemented
        return self.sigs == other.sigs and self.graded == other.graded

    def __hash__(self):
        return hash((self.sigs, self.graded))

    def scalar(self, value) -> "TensorMV":
        return TensorMV(self, {0: value})

    def blade(self, masks, coeff=1) -> "TensorMV":
        masks = tuple(masks)
        if len(masks) != len(self.sigs):
            raise ValueError(f"expected {len(self.sigs)} masks, got {len(masks)}")
        mask = 0
        for m, s, off in zip(masks, self.sigs, self.offsets):
            if not 0 <= m < (1 << s.n):
                raise ValueError(f"mask {m:#x} out of range for factor Cl({s.p},{s.q})")
            mask |= m << off
        return TensorMV(self, {mask: coeff})

    def split(self, mask: int) -> tuple:
        """The per-factor masks of a concatenated blade mask."""
        return tuple(mask >> off & ((1 << s.n) - 1) for s, off in zip(self.sigs, self.offsets))


class TensorMV(MV):
    """Element of a ProductAlgebra: an MV over concatenated blade masks.

    It adds nothing to MV; the separate class keeps tensor products
    distinguishable for span tracing (`perfbench/spans.py` wraps its
    `__mul__` as `tensoriso.tensor_mul`).
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# the common certificate machinery
# --------------------------------------------------------------------------


class GeneratorMap(NamedTuple):
    """Isomorphism witness: generator images plus the three verified facts. Each
    image is a phased blade (mask, c), i^c e_mask in `algebra` with 0 <= c < 4."""

    source_sig: tuple | None
    target_sig: tuple
    algebra: Signature | ProductAlgebra
    images: list
    squares: list
    rank: int
    certified: bool
    construction: str | None = None


def _witness(raw, alg, target, construction, source=None) -> GeneratorMap:
    """Certify raw phased blades (mask, c mod 4) of alg as generators of Cl(target).

    The images that square to +1, (i^c e_m)^2 = (-1)^c Q(m), go first (a stable
    partition), to line up with the target convention. Certified means the
    squares read [1]*p + [-1]*q, the masks have GF(2) rank p+q (a subset product
    is a unit times the blade on the XOR of its masks), and the images pairwise
    anticommute. source defaults to the target.
    """
    if not alg.complexified and any(c & 1 for _, c in raw):
        raise ValueError("an odd phase i^c needs a complexified algebra")
    signed = [((m, c & 3), -blade_square(m, alg) if c & 1 else blade_square(m, alg))
              for m, c in raw]
    signed = [x for x in signed if x[1] == 1] + [x for x in signed if x[1] != 1]
    images = [img for img, _ in signed]
    squares = [sq for _, sq in signed]
    p, q = target
    masks = [m for m, _ in images]
    rank = 1 << len(gf2_echelon(masks))
    certified = (squares == [1] * p + [-1] * q and rank == 1 << (p + q)
                 and blades_anticommute(masks, alg))
    return GeneratorMap(
        source_sig=target if source is None else source,
        target_sig=target,
        algebra=alg,
        images=images,
        squares=squares,
        rank=rank,
        certified=certified,
        construction=construction,
    )


# --------------------------------------------------------------------------
# Theorem-style tensor factorizations
# --------------------------------------------------------------------------


# the most generators any witness accepts: n images cost n products (their squares),
# n anticommute masks, n^2 popcounts and an n-row GF(2) echelon; at n = 256 each
# builder takes 0.005-0.022 s (Python 3.11, one core of a 2-vCPU VM)
MAX_WITNESS_N = 256


def _check_witness_n(n):
    if n > MAX_WITNESS_N:
        raise ValueError(f"{n} generators exceed MAX_WITNESS_N = {MAX_WITNESS_N}")


def _product_witness(sigs, graded, target, construction, twist=0) -> GeneratorMap:
    """Certify the generators of a tensor product of sigs as generators of Cl(target).

    Generator g of factor j maps to i^(twist j) e_g; in a plain product it also
    carries the volume element of every earlier factor, which makes it
    anticommute with the generators of each earlier factor of even count.
    """
    pa = ProductAlgebra(sigs, graded)
    images = []
    for j, (s, off) in enumerate(zip(pa.sigs, pa.offsets)):
        lead = 0 if graded else (1 << off) - 1
        images += [(lead | 1 << (off + g), twist * j) for g in range(s.n)]
    return _witness(images, pa, target, construction)


def graded_tensor_check(pq_a, pq_b) -> GeneratorMap:
    """Cl(p,q) graded-tensor Cl(p',q') realizes Cl(p+p', q+q')."""
    (pa, qa), (pb, qb) = pq_a, pq_b
    _check_witness_n(pa + qa + pb + qb)
    sigs = (Signature(pa, qa), Signature(pb, qb))
    return _product_witness(sigs, True, (pa + pb, qa + qb), "graded")


def karoubi_check(pq_a, pq_b) -> GeneratorMap:
    """Plain tensor with the volume-element twist on the second factor.

    The first factor must be even-dimensional so its volume element
    anticommutes with vectors. Its square decides the sign: +1 keeps the
    second signature, -1 swaps p' and q'.
    """
    (pa, qa), (pb, qb) = pq_a, pq_b
    _check_witness_n(pa + qa + pb + qb)
    sig_a, sig_b = Signature(pa, qa), Signature(pb, qb)
    if sig_a.n % 2 != 0:
        raise ValueError("first factor must have an even number of generators")
    if omega_square(sig_a) == 1:
        return _product_witness((sig_a, sig_b), False, (pa + pb, qa + qb), "positive")
    return _product_witness((sig_a, sig_b), False, (pa + qb, qa + pb), "negative")


def complex_tensor_check(m: int) -> GeneratorMap:
    """m plain tensor factors of the complexified plane algebra span rank 4^m.

    Each image carries i^j on factor j and the volume element of every
    earlier factor, so all 2m images square to +1 and anticommute across
    factors.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"m must be an int, got {m!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_witness_n(2 * m)
    factors = (Signature(2, 0, complexified=True),) * m
    return _product_witness(factors, False, (2 * m, 0), "complex", twist=1)


# --------------------------------------------------------------------------
# even subalgebra isomorphisms
# --------------------------------------------------------------------------


def even_iso_target(p: int, q: int) -> tuple:
    if p >= 1 and p != q:
        return (q, p - 1)
    return (p, q - 1)


def even_iso_check(p: int, q: int) -> GeneratorMap:
    """Realize the even subalgebra of Cl(p,q) as a smaller Clifford algebra.

    Images are e_i e_j = +-e_(i^j) for one pinned generator e_j, named by
    `blade_product`, and (e_i e_j)^2 = -e_i^2 e_j^2. When 0 < p != q > 0 the
    target is Cl(q, p-1): construction B pins the plus e_1, flipping every other
    square. Otherwise construction A pins e_n: a minus e_n keeps the squares
    (target Cl(p, q-1)), and for q = 0 the plus e_n flips them (Cl(0, p-1)).
    `_witness` still checks the squares, the anticommutation and the rank.
    """
    n = p + q
    if n < 1:
        raise ValueError("need at least one generator")
    _check_witness_n(n)
    sig = Signature(p, q)
    if 0 < p != q > 0:
        construction, pin, others = "B", 1, range(2, n + 1)
    else:
        construction, pin, others = "A", 1 << (n - 1), range(1, n)
    # the sign s = +-1 is the phase i^(1 - s)
    raw = [(m, 1 - s) for s, m in (blade_product(1 << (i - 1), pin, sig) for i in others)]
    return _witness(raw, sig, even_iso_target(p, q), construction, source=(p, q))


# --------------------------------------------------------------------------
# phi/psi pairs and the 2x2 block form
# --------------------------------------------------------------------------


class PhiPsiReport(NamedTuple):
    """The phi/psi split; phi and psi are phased blades (mask, c) like
    `GeneratorMap.images`, here with c = 0 or 2 (+-1)."""

    phi: tuple
    psi: tuple
    phi_sq: int
    psi_sq: int
    case: str
    commute_ok: bool
    product_anticommutes: bool
    rank: int
    passed: bool


_CASE_NAMES = {(-1, -1): "quaternion", (1, 1): "pseudo", (1, -1): "anti", (-1, 1): "anti"}


def _embed_base_generators(target, base):
    """Map base generators onto the lowest target slots of matching sign.

    Returns (base images as generator indices, the two added indices with
    pluses first)."""
    p, q = target
    p0, q0 = base
    if p0 > p or q0 > q or (p - p0) + (q - q0) != 2:
        raise ValueError("target must extend the base by exactly two generators")
    base_idx = list(range(1, p0 + 1)) + list(range(p + 1, p + q0 + 1))
    added = list(range(p0 + 1, p + 1)) + list(range(p + q0 + 1, p + q + 1))
    return base_idx, added


def phi_psi_factorization(target, base) -> PhiPsiReport:
    """Split a two-generator extension into base + {1, phi, psi, phi psi}.

    phi is the product of all embedded base generators with the first added
    one, psi the same with the second. An even base makes both commute with
    every base generator, and the pair's squares name the case: quaternion
    (-1,-1), pseudo (+1,+1), or anti (mixed).
    """
    p, q = target
    _check_witness_n(p + q)
    sig, base_sig = Signature(p, q), Signature(*base)  # validated before any shift
    if base_sig.n % 2 != 0:
        raise ValueError("m not integral: base needs an even number of generators")
    base_idx, added = _embed_base_generators(target, base)
    base_mask = sum(1 << (i - 1) for i in base_idx)  # increasing: their product is +e_base
    phi_sign, phi_mask = blade_product(base_mask, 1 << (added[0] - 1), sig)
    psi_sign, psi_mask = blade_product(base_mask, 1 << (added[1] - 1), sig)
    phi_sq, psi_sq = blade_square(phi_mask, sig), blade_square(psi_mask, sig)
    case = _CASE_NAMES[(phi_sq, psi_sq)]
    commute_ok = not base_mask & (anticommute_mask(phi_mask, sig) | anticommute_mask(psi_mask, sig))
    prod_anti = blades_anticommute((phi_mask, psi_mask), sig)
    # the additive decomposition: base blades times {1, phi, psi, phi psi}
    rank = 1 << len(gf2_echelon([*(1 << (i - 1) for i in base_idx), phi_mask, psi_mask]))
    passed = commute_ok and prod_anti and rank == 1 << (p + q)
    return PhiPsiReport(
        phi=(phi_mask, 1 - phi_sign),  # the sign s = +-1 is the phase i^(1 - s)
        psi=(psi_mask, 1 - psi_sign),
        phi_sq=phi_sq,
        psi_sq=psi_sq,
        case=case,
        commute_ok=commute_ok,
        product_anticommutes=prod_anti,
        rank=rank,
        passed=passed,
    )


# the most samples sample_homomorphism draws, checked before the first; pauli.MAX_SAMPLES
# copied, not imported, so this module loads no numeric layer. 2,000 samples on Cl(1,3)
# take 0.07-0.08 s (Python 3.11, one core of a 2-vCPU VM)
MAX_BLOCK_SAMPLES = 100_000


class BlockForm:
    """2x2 matrix picture of Cl(p, q+1) over the complexified Cl(p, q-1).

    phi and psi come from phi_psi_factorization: the two top blades through the
    added generators. The quaternion-case matrices [[0,-1],[1,0]] and [[0,i],[i,0]]
    turn the four-component split into block entries A0 -+ i A3 and -+A1 + i A2,
    which `_entries` reads off the blade masks of x in one pass, with no product, as
    term dicts over `_plane` = Cl(p, q-1) (x) Cl(0, 1): i is a generator of its own at
    bit m2, so the real part of a coefficient on base blade b sits on mask b and the
    imaginary part on b | i. `matrix_of` folds each pair into one Q(i) coefficient.
    """

    # part k of x (two top mask bits) times factor blade 1, phi, psi or phi psi, negated
    # for k > 0, is A_k; it lands on two entries of [[A0 - i A3, -A1 + i A2], [A1 + i A2,
    # A0 + i A3]] (row-major) as (entry, 0 for the real or 1 for the imaginary part, sign)
    _PLACEMENT = (((0, 0, 1), (3, 0, 1)), ((1, 0, -1), (2, 0, 1)),
                  ((1, 1, 1), (2, 1, 1)), ((0, 1, -1), (3, 1, 1)))

    def __init__(self, p: int, q: int):
        if q < 1:
            raise ValueError("q must be at least 1")
        if (p + q) % 2 == 0:
            raise ValueError("m not integral: p + q must be odd")
        split = phi_psi_factorization((p, q + 1), (p, q - 1))  # refuses n > MAX_WITNESS_N
        self.m2 = p + q - 1  # number of base generators, always even here
        self.target = Signature(p, q + 1)
        self.base = Signature(p, q - 1, complexified=True)
        self._plane = ProductAlgebra((Signature(p, q - 1), Signature(0, 1)))  # i = e_(m2+1)
        if split.case != "quaternion":
            raise ValueError("wrong factorization case: phi and psi must square to -1")
        self.phi, self.psi = split.phi, split.psi  # +e_(1..m+1), +e_(1..m, m+2)
        (phi, _), (psi, _) = self.phi, self.psi
        sign, both = blade_product(phi, psi, self.target)
        # per part: (factor blade mask, its sign flips, 1 when A_k carries a further -1)
        self._factors = [(f, _sign_flips(f, self.target), odd)
                         for f, odd in ((0, 0), (phi, 1), (psi, 1), (both, sign > 0))]

    def _entries(self, terms: dict) -> tuple:
        """The four entries, row-major, of the element with these terms; each term
        lands on its own two slots, so nonzero terms give nonzero entries."""
        entries = ({}, {}, {}, {})
        for mask, c in terms.items():
            k = mask >> self.m2
            f, flips, odd = self._factors[k]
            if ((mask & flips).bit_count() ^ odd) & 1:
                c = -c
            for e, part, sign in self._PLACEMENT[k]:
                entries[e][(mask ^ f) | part << self.m2] = c if sign > 0 else -c
        return entries

    def matrix_of(self, x: MV) -> list:
        if x.sig != self.target:
            raise ValueError("element is not in the target algebra")
        zero, i = Fraction(0), 1 << self.m2
        made = MV.zero(self.base)._made  # base blade b & ~i: re on it, im on b | i
        m = [made({b & ~i: _gaussian(e.get(b & ~i, zero), e.get(b | i, zero)) for b in e})
             for e in self._entries(x.terms)]
        return [m[:2], m[2:]]

    def sample_homomorphism(self, samples: int = 100, seed: int = 0) -> dict:
        """M(xy) = M(x) M(y) on random int elements x, y, both sides in int terms."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if samples > MAX_BLOCK_SAMPLES:
            raise ValueError(f"samples = {samples} exceeds MAX_BLOCK_SAMPLES = {MAX_BLOCK_SAMPLES}")
        rng = random.Random(seed)
        n, target, plane = self.target.n, self.target, self._plane
        failures = 0
        for _ in range(samples):
            x = self._random_element(rng, n)
            y = self._random_element(rng, n)
            left = list(self._entries(_product_terms(x, y, target)))
            a, b = self._entries(x), self._entries(y)
            right = []
            for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
                out = _product_terms(a[i], b[j], plane)
                for mask, c in _product_terms(a[i + 1], b[j + 2], plane).items():
                    c += out.pop(mask, 0)
                    if c:
                        out[mask] = c
                right.append(out)
            if left != right:
                failures += 1
        return {"passed": failures == 0, "checked": samples, "failures": failures}

    def _random_element(self, rng, n) -> dict:
        """The terms of 2 to 5 random blades with coefficients in -3..3, summed as MV
        addition would: a mask keeps its place while its sum is nonzero, leaves at zero."""
        terms = {}
        for _ in range(rng.randint(2, 5)):
            mask = rng.randrange(1 << n)
            c = terms.get(mask, 0) + rng.randint(-3, 3)
            if c:
                terms[mask] = c
            else:
                terms.pop(mask, None)
        return terms


# --------------------------------------------------------------------------
# the chain down from the conformal even subalgebra
# --------------------------------------------------------------------------


class ChainLink(NamedTuple):
    name: str
    certified: bool
    rank: int
    detail: str = ""


class ChainReport(NamedTuple):
    ok: bool
    links: list


def _spin24_links() -> tuple:
    """(name, witness, required target, detail) per link of spin24_chain. The
    matrix link is the Karoubi witness for Cl(4,0) tensor Cl(0,1), images e1..e4
    and e1234 (x) f: the volume element of Cl(4,1) maps to f, the central complex unit."""
    csig = Signature(1, 3, complexified=True)
    complexified = [(0b0001, 0), (0b0010, 1), (0b0100, 1), (0b1000, 1)]  # e1, i e2, i e3, i e4
    return (
        ("even_subalgebra", even_iso_check(2, 4), (4, 1),
         "even part of Cl(2,4) realized as Cl(4,1)"),
        ("matrix_realization", karoubi_check((4, 0), (0, 1)), (4, 1),
         "central omega with omega^2=-1 plus four +1 generators"),
        ("complexified_realization",
         _witness(complexified, csig, (4, 0), "complexified"), (4, 0),
         "generators e1, i e2, i e3, i e4 of the complexified algebra"),
        ("karoubi_product", karoubi_check((1, 1), (0, 2)), (1, 3),
         "Cl(1,1) tensor Cl(0,2) realizes Cl(1,3)"),
    )


def spin24_chain() -> ChainReport:
    """Certify every link from the conformal even subalgebra down to the quaternionic
    factorization of the spacetime algebra: each witness must reach its target."""
    links = [ChainLink(name, rep.certified and rep.target_sig == target, rep.rank, detail)
             for name, rep, target, detail in _spin24_links()]
    return ChainReport(ok=all(l.certified for l in links), links=links)


# --------------------------------------------------------------------------
# audit serialization
# --------------------------------------------------------------------------


# i^c as the coefficient strings of a real signature (c even) and of a complexified one
_REAL_PHASES = ("1", None, "-1", None)
_COMPLEX_PHASES = (["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"])


def generator_map_json(rep: GeneratorMap) -> str:
    """Sparse JSON dump of a witness for external audit: each image is one
    [blade, coefficient] term, a product blade as its per-factor masks."""
    import json

    alg = rep.algebra
    phases = _COMPLEX_PHASES if alg.complexified else _REAL_PHASES
    split = alg.split if isinstance(alg, ProductAlgebra) else None
    images = [[[list(split(m)) if split else m, phases[c]]] for m, c in rep.images]
    return json.dumps({
        "target_sig": list(rep.target_sig),
        "construction": rep.construction,
        "squares": rep.squares,
        "rank": rep.rank,
        "certified": rep.certified,
        "images": images,
    })
