"""Constructive isomorphism certificates between Clifford algebras.

A certificate is always the same shape: candidate images for the target
generators, exact verification that they square correctly and pairwise
anticommute, and an exact rank check that their subset products span the
whole algebra. Those three facts together pin the isomorphism down, so no
explicit basis-to-basis map is ever built.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .algebra import (
    MV,
    GaussianRational,
    Signature,
    omega_square,
    volume_element,
)
from .linalg import rank_of


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


@dataclass
class GeneratorMap:
    """Isomorphism witness: generator images plus the three verified facts."""

    source_sig: tuple | None
    target_sig: tuple
    images: list
    squares: list
    rank: int
    certified: bool
    construction: str | None = None


def _square_sign(img, one):
    sq = img * img
    if sq == one:
        return 1
    if sq == -one:
        return -1
    return 0


def _pairwise_anticommute(images) -> bool:
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] * images[j] != -(images[j] * images[i]):
                return False
    return True


def _subset_product_rank(images, one) -> int:
    # products in increasing index order, built by peeling the lowest bit
    n = len(images)
    prods = [one] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        prods[s] = images[low] * prods[rest]
    return rank_of(p.terms for p in prods)


def _certify(images, expected_squares, expected_rank):
    if not images:
        return [], expected_rank == 1, 1
    one = type(images[0])(images[0].sig, {0: 1})
    squares = [_square_sign(img, one) for img in images]
    ok = (
        squares == list(expected_squares)
        and _pairwise_anticommute(images)
    )
    rank = _subset_product_rank(images, one)
    return squares, ok and rank == expected_rank, rank


def _signature_pattern(p, q):
    return [1] * p + [-1] * q


# --------------------------------------------------------------------------
# Theorem-style tensor factorizations
# --------------------------------------------------------------------------


# the largest total generator count a tensor certificate will rank: the
# subset-product rank eliminates 2^n vectors of up to 2^n terms
MAX_TENSOR_N = 10


def _check_tensor_size(pq_a, pq_b):
    if sum(pq_a) + sum(pq_b) > MAX_TENSOR_N:
        raise ValueError("total dimension too large for exact rank certification")


def graded_tensor_check(pq_a, pq_b) -> GeneratorMap:
    """Cl(p,q) graded-tensor Cl(p',q') realizes Cl(p+p', q+q')."""
    pa_, qa = pq_a
    pb, qb = pq_b
    _check_tensor_size(pq_a, pq_b)
    sig_a, sig_b = Signature(pa_, qa), Signature(pb, qb)
    pa = ProductAlgebra((sig_a, sig_b), graded=True)
    plus_images = [pa.blade((1 << i, 0)) for i in range(pa_)]
    plus_images += [pa.blade((0, 1 << j)) for j in range(pb)]
    minus_images = [pa.blade((1 << (pa_ + i), 0)) for i in range(qa)]
    minus_images += [pa.blade((0, 1 << (pb + j))) for j in range(qb)]
    images = plus_images + minus_images
    target = (pa_ + pb, qa + qb)
    n = sum(target)
    squares, certified, rank = _certify(images, _signature_pattern(*target), 1 << n)
    return GeneratorMap(
        source_sig=target,
        target_sig=target,
        images=images,
        squares=squares,
        rank=rank,
        certified=certified,
        construction="graded",
    )


def karoubi_check(pq_a, pq_b) -> GeneratorMap:
    """Plain tensor with the volume-element twist on the second factor.

    The first factor must be even-dimensional so its volume element
    anticommutes with vectors. Its square decides the sign: +1 keeps the
    second signature, -1 swaps p' and q'.
    """
    pa_, qa = pq_a
    pb, qb = pq_b
    _check_tensor_size(pq_a, pq_b)
    sig_a, sig_b = Signature(pa_, qa), Signature(pb, qb)
    if sig_a.n % 2 != 0:
        raise ValueError("first factor must have an even number of generators")
    w2 = omega_square(sig_a)
    construction = "positive" if w2 == 1 else "negative"
    target = (pa_ + pb, qa + qb) if w2 == 1 else (pa_ + qb, qa + pb)
    pa = ProductAlgebra((sig_a, sig_b), graded=False)
    omega_mask = (1 << sig_a.n) - 1
    raw = [pa.blade((1 << i, 0)) for i in range(sig_a.n)]
    raw += [pa.blade((omega_mask, 1 << j)) for j in range(sig_b.n)]
    one = pa.scalar(1)
    # reorder plus-squaring images first to line up with the target convention
    signed = [(img, _square_sign(img, one)) for img in raw]
    images = [img for img, s in signed if s == 1] + [img for img, s in signed if s != 1]
    n = sum(target)
    squares, certified, rank = _certify(images, _signature_pattern(*target), 1 << n)
    return GeneratorMap(
        source_sig=target,
        target_sig=target,
        images=images,
        squares=squares,
        rank=rank,
        certified=certified,
        construction=construction,
    )


def complex_tensor_check(m: int) -> GeneratorMap:
    """m plain tensor factors of the complexified plane algebra span rank 4^m.

    Each image carries i times the volume element on every earlier factor,
    so all 2m images square to +1 and anticommute across factors.
    """
    if not 1 <= m <= 4:
        raise ValueError("m must be between 1 and 4")
    factors = tuple(Signature(2, 0, complexified=True) for _ in range(m))
    pa = ProductAlgebra(factors, graded=False)
    i_unit = GaussianRational(0, 1)
    images = []
    for j in range(m):
        lead = (0b11,) * j
        tail = (0,) * (m - 1 - j)
        coeff = 1
        for _ in range(j):
            coeff = coeff * i_unit if isinstance(coeff, GaussianRational) else i_unit
        for g in (0b01, 0b10):
            images.append(pa.blade(lead + (g,) + tail, coeff))
    squares, certified, rank = _certify(images, [1] * (2 * m), 1 << (2 * m))
    return GeneratorMap(
        source_sig=(2 * m, 0),
        target_sig=(2 * m, 0),
        images=images,
        squares=squares,
        rank=rank,
        certified=certified,
        construction="complex",
    )


# --------------------------------------------------------------------------
# even subalgebra isomorphisms
# --------------------------------------------------------------------------


def even_iso_target(p: int, q: int) -> tuple:
    if p >= 1 and p != q:
        return (q, p - 1)
    return (p, q - 1)


def even_iso_check(p: int, q: int) -> GeneratorMap:
    """Realize the even subalgebra of Cl(p,q) as a smaller Clifford algebra.

    Images are grade-2 products of a generator with a pinned one: first
    e_i * e_n, and if that misses the target squares, e_i * e_1.
    """
    n = p + q
    if n < 1:
        raise ValueError("need at least one generator")
    target = even_iso_target(p, q)
    sig = Signature(p, q)
    one = MV.scalar(sig, 1)
    pattern = _signature_pattern(*target)

    def try_images(raw):
        signed = [(img, _square_sign(img, one)) for img in raw]
        imgs = [im for im, s in signed if s == 1] + [im for im, s in signed if s != 1]
        return imgs, [s for _, s in signed if s == 1] + [s for _, s in signed if s != 1]

    candidates = []
    if n >= 2:
        e_last = MV.generator(sig, n)
        candidates.append(("A", [MV.generator(sig, i) * e_last for i in range(1, n)]))
        e_first = MV.generator(sig, 1)
        candidates.append(("B", [MV.generator(sig, i) * e_first for i in range(2, n + 1)]))
    else:
        candidates.append(("A", []))

    for construction, raw in candidates:
        images, squares = try_images(raw)
        if squares == pattern:
            _, certified, rank = _certify(images, pattern, 1 << (n - 1))
            return GeneratorMap(
                source_sig=(p, q),
                target_sig=target,
                images=images,
                squares=squares,
                rank=rank,
                certified=certified,
                construction=construction,
            )
    # neither fixed construction matched; report the first honestly as failed
    images, squares = try_images(candidates[0][1])
    return GeneratorMap(
        source_sig=(p, q),
        target_sig=target,
        images=images,
        squares=squares,
        rank=0,
        certified=False,
        construction=None,
    )


# --------------------------------------------------------------------------
# phi/psi pairs and the 2x2 block form
# --------------------------------------------------------------------------


@dataclass
class PhiPsiReport:
    phi: MV
    psi: MV
    phi_sq: int
    psi_sq: int
    case: str
    commute_ok: bool
    product_anticommutes: bool
    rank: int
    passed: bool
    base_images: list = field(default_factory=list)


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
    p0, q0 = base
    if (p0 + q0) % 2 != 0:
        raise ValueError("m not integral: base needs an even number of generators")
    base_idx, added = _embed_base_generators(target, base)
    sig = Signature(p, q)
    one = MV.scalar(sig, 1)
    base_images = [MV.generator(sig, i) for i in base_idx]
    chain = one
    for g in base_images:
        chain = chain * g
    phi = chain * MV.generator(sig, added[0])
    psi = chain * MV.generator(sig, added[1])
    phi_sq = _square_sign(phi, one)
    psi_sq = _square_sign(psi, one)
    if phi_sq == 0 or psi_sq == 0:
        raise RuntimeError("phi or psi square is not a unit scalar")
    case = _CASE_NAMES[(phi_sq, psi_sq)]
    commute_ok = all(phi * g == g * phi and psi * g == g * psi for g in base_images)
    prod_anti = phi * psi == -(psi * phi)
    # the additive decomposition: base blades times {1, phi, psi, phi psi}
    units = [one, phi, psi, phi * psi]
    m2 = len(base_idx)
    vectors = []
    for s in range(1 << m2):
        blade = one
        for i in range(m2):
            if s >> i & 1:
                blade = blade * base_images[i]
        for u in units:
            vectors.append((blade * u).terms)
    rank = rank_of(vectors)
    passed = commute_ok and prod_anti and rank == 1 << (p + q)
    return PhiPsiReport(
        phi=phi,
        psi=psi,
        phi_sq=phi_sq,
        psi_sq=psi_sq,
        case=case,
        commute_ok=commute_ok,
        product_anticommutes=prod_anti,
        rank=rank,
        passed=passed,
        base_images=base_images,
    )


class BlockForm:
    """2x2 matrix picture of Cl(p, q+1) over the complexified Cl(p, q-1).

    phi and psi are the two top blades through the added generators; the
    quaternion-case matrices [[0,-1],[1,0]] and [[0,i],[i,0]] turn the
    four-component split into block entries A0 -+ i A3 and A1 +- i A2.
    """

    def __init__(self, p: int, q: int):
        if q < 1:
            raise ValueError("q must be at least 1")
        if (p + q) % 2 == 0:
            raise ValueError("m not integral: p + q must be odd")
        self.m2 = p + q - 1  # number of base generators, always even here
        self.target = Signature(p, q + 1)
        self.base = Signature(p, q - 1, complexified=True)
        sig = self.target
        low = (1 << self.m2) - 1
        self.hi1 = 1 << self.m2
        self.hi2 = 1 << (self.m2 + 1)
        self.phi = MV.blade(sig, low | self.hi1)
        self.psi = MV.blade(sig, low | self.hi2)
        one = MV.scalar(sig, 1)
        if _square_sign(self.phi, one) != -1 or _square_sign(self.psi, one) != -1:
            raise ValueError("wrong factorization case: phi and psi must square to -1")
        self._phi_psi = self.phi * self.psi

    def _to_base(self, x: MV) -> MV:
        return MV(self.base, dict(x.terms))

    def matrix_of(self, x: MV) -> list:
        if x.sig != self.target:
            raise ValueError("element is not in the target algebra")
        parts = [{}, {}, {}, {}]
        for mask, c in x.terms.items():
            idx = (1 if mask & self.hi1 else 0) | (2 if mask & self.hi2 else 0)
            parts[idx][mask] = c
        sig = self.target
        a0 = self._to_base(MV(sig, parts[0]))
        a1 = self._to_base(-(MV(sig, parts[1]) * self.phi))
        a2 = self._to_base(-(MV(sig, parts[2]) * self.psi))
        a3 = self._to_base(-(MV(sig, parts[3]) * self._phi_psi))
        i = GaussianRational(0, 1)
        return [
            [a0 - a3 * i, -a1 + a2 * i],
            [a1 + a2 * i, a0 + a3 * i],
        ]

    def sample_homomorphism(self, samples: int = 100, seed: int = 0) -> dict:
        rng = random.Random(seed)
        n = self.target.n
        failures = 0
        for _ in range(samples):
            x = self._random_element(rng, n)
            y = self._random_element(rng, n)
            left = self.matrix_of(x * y)
            right = _matmul2(self.matrix_of(x), self.matrix_of(y), self.base)
            if left != right:
                failures += 1
        return {"passed": failures == 0, "checked": samples, "failures": failures}

    def _random_element(self, rng, n) -> MV:
        x = MV.zero(self.target)
        for _ in range(rng.randint(2, 5)):
            mask = rng.randrange(1 << n)
            coeff = rng.randint(-3, 3)
            x = x + MV.blade(self.target, mask, coeff)
        return x


def _matmul2(a, b, sig):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = MV.zero(sig)
            for k in range(2):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def block_matrix_form(p: int, q: int) -> BlockForm:
    return BlockForm(p, q)


# --------------------------------------------------------------------------
# the chain down from the conformal even subalgebra
# --------------------------------------------------------------------------


@dataclass
class ChainLink:
    name: str
    certified: bool
    rank: int
    detail: str = ""


@dataclass
class ChainReport:
    ok: bool
    links: list


def _matrix_realization_link() -> ChainLink:
    """Real witness that Cl(4,1) carries a complex structure on 16 units.

    The volume element is central with square -1, the four plus generators
    anticommute, and blades over them together with their volume-element
    partners span all 32 real dimensions.
    """
    sig = Signature(4, 1)
    omega = volume_element(sig)
    one = MV.scalar(sig, 1)
    ok = omega * omega == -one
    for i in range(1, 6):
        e = MV.generator(sig, i)
        ok = ok and omega * e == e * omega
    gens = [MV.generator(sig, i) for i in range(1, 5)]
    ok = ok and all(g * g == one for g in gens)
    ok = ok and _pairwise_anticommute(gens)
    vectors = []
    for s in range(1 << 4):
        blade = one
        for i in range(4):
            if s >> i & 1:
                blade = blade * gens[i]
        vectors.append(blade.terms)
        vectors.append((blade * omega).terms)
    rank = rank_of(vectors)
    return ChainLink(
        name="matrix_realization",
        certified=ok and rank == 32,
        rank=rank,
        detail="central omega with omega^2=-1 plus four +1 generators",
    )


def _complexified_realization_link() -> ChainLink:
    """Witness for the complexified spacetime algebra as a 4-generator
    complex Clifford algebra: e1, i e2, i e3, i e4 all square to +1."""
    sig = Signature(1, 3, complexified=True)
    i = GaussianRational(0, 1)
    images = [MV.generator(sig, 1)]
    images += [MV.generator(sig, j) * i for j in (2, 3, 4)]
    squares, certified, rank = _certify(images, [1, 1, 1, 1], 16)
    return ChainLink(
        name="complexified_realization",
        certified=certified,
        rank=rank,
        detail="generators e1, i e2, i e3, i e4 of the complexified algebra",
    )


def spin24_chain() -> ChainReport:
    """Certify every link from the conformal even subalgebra down to the
    quaternionic factorization of the spacetime algebra."""
    links = []
    even = even_iso_check(2, 4)
    links.append(ChainLink(
        name="even_subalgebra",
        certified=even.certified and even.target_sig == (4, 1),
        rank=even.rank,
        detail="even part of Cl(2,4) realized as Cl(4,1)",
    ))
    links.append(_matrix_realization_link())
    links.append(_complexified_realization_link())
    kar = karoubi_check((1, 1), (0, 2))
    links.append(ChainLink(
        name="karoubi_product",
        certified=kar.certified and kar.target_sig == (1, 3),
        rank=kar.rank,
        detail="Cl(1,1) tensor Cl(0,2) realizes Cl(1,3)",
    ))
    return ChainReport(ok=all(l.certified for l in links), links=links)


# --------------------------------------------------------------------------
# audit serialization
# --------------------------------------------------------------------------


def _coeff_json(c):
    if isinstance(c, GaussianRational):
        return [str(c.re), str(c.im)]
    return str(c)


def generator_map_json(rep: GeneratorMap) -> str:
    """Sparse JSON dump of a witness for external audit."""
    images = []
    for img in rep.images:
        if isinstance(img.sig, ProductAlgebra):
            # the per-factor mask tuples, in tuple order
            terms = sorted((list(img.sig.split(k)), c) for k, c in img.terms.items())
        else:
            terms = sorted(img.terms.items())
        images.append([[k, _coeff_json(c)] for k, c in terms])
    return json.dumps({
        "target_sig": list(rep.target_sig),
        "construction": rep.construction,
        "squares": rep.squares,
        "rank": rep.rank,
        "certified": rep.certified,
        "images": images,
    })
