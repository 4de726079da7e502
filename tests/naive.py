"""Independent reference implementations used as test oracles.

Everything in here is deliberately written the slow, obvious way (index
lists, bubble sorts, exhaustive searches) so that it shares no code and
no clever tricks with the package under test. The package computes in
ints on blade masks; the oracles multiply `MV`s with Fraction or
GaussianRational coefficients, which the package keeps only for them and
for the benchmark's hooks. The exceptions use the package's MV product,
SpanBasis or GF(2) echelon: rank_of, the exact rank by SpanBasis elimination
that the tests rank explicit vectors with, and pairwise_anticommute, which
compares x*y with -(y*x) by MV products where the package reads beta off blade
masks; naive_idempotent, f as the MV product of (1 + e_T)/2 over the
generators, which stands in for the int terms of 2^k f that cl8.classify
squares and checks; the pair of full 2^n blade scans for the corner f*Cl*f
and the ideal Cl*f, which stand in for the commutant and coset shortcuts that
cl8.classify takes, the subset-product rank, which stands in for the GF(2) rank
that cl8.tensoriso reads off blade masks, the per-blade coset walk, which keys
every blade by its own GF(2) reduction where cl8.classify reads a linear key
table and stops at the last coset, the central-split products, which stand in
for the Q and beta test of algebra._splits_center and the support test that
places f in a component, and the generator products behind phi, psi, the even
images and the chain's matrix link, which stand in for the blades
cl8.tensoriso names by blade_product, the witness images multiplied out as
MVs, which stand in for the (mask, phase) pairs whose squares, anticommutation
and rank cl8.tensoriso reads in ints, and the block form's Q(i) matrices,
naive_matrix_of, whose samples multiply MVs over Q(i) where cl8.tensoriso
multiplies int entries with the product kernel. The numeric layer's oracle is
numpy: it recomputes cl8.pauli's exact Z[i] samples in float64, as the numeric
layer did before it was exact, and keeps the old numpy twistor formulas.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np

from cl8.algebra import MV, GaussianRational, Signature, anticommute_mask
from cl8.linalg import SpanBasis, gf2_echelon, gf2_reduce
from cl8.tensoriso import ProductAlgebra


def naive_blade_product(a, b, p):
    """Multiply basis blades given as ascending index tuples (1-based).

    Generator i squares to +1 when i <= p and to -1 otherwise.  Returns
    (sign, result_indices).  Works by concatenating the two index lists,
    bubble-sorting with a sign flip per swap, then cancelling adjacent
    equal pairs against the generator squares.
    """
    seq = list(a) + list(b)
    sign = 1
    # bubble sort, counting transpositions of distinct generators
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # cancel adjacent duplicates
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = sign if seq[i] <= p else -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def indices_of(mask):
    """The ascending 1-based generator indices of a blade mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def naive_blade_square(indices, p):
    sign, rest = naive_blade_product(indices, indices, p)
    assert rest == ()
    return sign


def naive_commute(a, b, p):
    """True when the two blades commute (they always commute or anticommute)."""
    s1, r1 = naive_blade_product(a, b, p)
    s2, r2 = naive_blade_product(b, a, p)
    assert r1 == r2
    return s1 == s2


def all_blades(n):
    """All blades of Cl with n generators as ascending index tuples, in
    (grade, lexicographic-mask) order: the deterministic search order."""
    blades = []
    for mask in range(1 << n):
        idx = tuple(i + 1 for i in range(n) if mask >> i & 1)
        blades.append((len(idx), mask, idx))
    blades.sort()
    return [idx for _, _, idx in blades]


def naive_idempotent_generators(p, q, k):
    """Greedy search for k pairwise-commuting square-(+1) blades whose masks
    are independent over GF(2), scanning in (grade, mask) order."""
    kept = []
    kept_masks = []

    def mask_of(idx):
        m = 0
        for i in idx:
            m |= 1 << (i - 1)
        return m

    def independent(m):
        # GF(2) elimination against the span of kept masks
        basis = list(kept_masks)
        for b in basis:
            m = min(m, m ^ b)
        # reduce properly: standard greedy xor-reduction
        v = mask_of_reduce(kept_masks, m)
        return v != 0

    def mask_of_reduce(basis, v):
        for b in sorted(basis, reverse=True):
            v = min(v, v ^ b)
        return v

    for idx in all_blades(p + q):
        if len(kept) == k:
            break
        if not idx:
            continue
        if naive_blade_square(idx, p) != 1:
            continue
        if not all(naive_commute(idx, other, p) for other in kept):
            continue
        m = mask_of(idx)
        red = m
        for b in kept_masks:
            red = min(red, red ^ b)
        # full reduction loop (order matters for xor spans)
        red = m
        changed = True
        while changed:
            changed = False
            for b in kept_masks:
                if red ^ b < red:
                    red ^= b
                    changed = True
        if red == 0:
            continue
        kept.append(idx)
        kept_masks.append(m)
    return kept if len(kept) == k else None


def naive_group_order(generators, p):
    """Order of the group generated by -1 and the blades given as int masks,
    by a breadth-first closure over (sign, index tuple) pairs multiplied
    with naive_blade_product."""
    gens = [(1, indices_of(m)) for m in generators]
    gens.append((-1, ()))
    elems = {(1, ()), (-1, ())}
    frontier = list(elems)
    while frontier:
        s, a = frontier.pop()
        for gs, b in gens:
            sign, r = naive_blade_product(a, b, p)
            item = (s * gs * sign, r)
            if item not in elems:
                elems.add(item)
                frontier.append(item)
    return len(elems)


def rank_of(vectors) -> int:
    """Dimension of the span of an iterable of sparse vectors."""
    basis = SpanBasis()
    for vec in vectors:
        basis.add(vec)
    return basis.rank


def naive_subset_product_rank(images, one):
    """Rank of the 2^len(images) subset products of any images: each product
    multiplied out (increasing index order, peeling the lowest bit) and the
    lot eliminated by rank_of."""
    prods = [one] * (1 << len(images))
    for s in range(1, len(prods)):
        low = (s & -s).bit_length() - 1
        prods[s] = images[low] * prods[s & (s - 1)]
    return rank_of(x.terms for x in prods)


def _masks_by_grade(n):
    return sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))


def _new_to_span(products):
    basis = SpanBasis()
    return [x for x in products if x and basis.add(x.terms)]


def naive_idempotent(data):
    """f = prod (1 + e_T)/2 over data's generators, by MV products in Fractions."""
    half = Fraction(1, 2)
    f = MV.scalar(data.sig, 1)
    for mask in data.generators:
        f = f * (MV.scalar(data.sig, half) + MV.blade(data.sig, mask, half))
    return f


def naive_corner_reps(f, sig):
    """The spanning set of f * Cl * f from f * e_A * f over all 2^n blades,
    in (grade, mask) order, keeping each product that is new to the span."""
    return _new_to_span(f * MV.blade(sig, m) * f for m in _masks_by_grade(sig.n))


def naive_left_ideal_reps(f, sig):
    """The spanning set of Cl * f from e_A * f over all 2^n blades, in
    (grade, mask) order, keeping each product that is new to the span."""
    return _new_to_span(MV.blade(sig, m) * f for m in _masks_by_grade(sig.n))


def naive_cosets(data):
    """classify._cosets' (ideal masks, corner masks) by the walk the key table
    replaced: every blade mask in (grade, mask) order, keyed by its own
    gf2_reduce against the generators' echelon, to the last blade. A new key
    is an ideal mask, and a corner mask when the blade commutes with every
    generator."""
    rows = gf2_echelon(data.generators)
    betas = [anticommute_mask(g, data.sig) for g in data.generators]
    keys, ideal, corner = set(), [], []
    for mask in _masks_by_grade(data.sig.n):
        key = gf2_reduce(rows, mask)
        if key not in keys:
            keys.add(key)
            ideal.append(mask)
            if not any((mask & c).bit_count() & 1 for c in betas):
                corner.append(mask)
    return tuple(ideal), tuple(corner)


def pairwise_anticommute(xs) -> bool:
    """x_i x_j = -x_j x_i for every pair i < j."""
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[i] * xs[j] != -(xs[j] * xs[i]):
                return False
    return True


def naive_central_split_ok(alpha):
    """algebra._splits_center's rule by MV products: lambda+-^2 = lambda+-,
    lambda+ lambda- = 0, and alpha e_i = e_i alpha for every generator."""
    sig = alpha.sig
    one = MV.scalar(sig, 1)
    lam_plus = (one + alpha) * Fraction(1, 2)
    lam_minus = (one - alpha) * Fraction(1, 2)
    gens = [MV.generator(sig, i) for i in range(1, sig.n + 1)]
    return (lam_plus * lam_plus == lam_plus and lam_minus * lam_minus == lam_minus
            and not lam_plus * lam_minus and all(alpha * e == e * alpha for e in gens))


def naive_phi_psi(sig, base_idx, added):
    """(phi, psi, phi^2, psi^2) by MV products: the base generators multiplied
    in the order given, times each added generator; a square is +1 or -1 when
    it equals +-1, else 0."""
    one = MV.scalar(sig, 1)
    chain = one
    for i in base_idx:
        chain = chain * MV.generator(sig, i)
    phi, psi = (chain * MV.generator(sig, a) for a in added)
    squares = [1 if x * x == one else -1 if x * x == -one else 0 for x in (phi, psi)]
    return phi, psi, *squares


def naive_even_images(sig, pinned, others):
    """The even-subalgebra images e_i * e_pinned by MV products, i in others."""
    return [MV.generator(sig, i) * MV.generator(sig, pinned) for i in others]


def naive_phased_mvs(images, alg):
    """(one, images) for phased blades (mask, c): each image the MV e_mask times
    c factors of i, multiplied out, over alg (a Signature or ProductAlgebra).
    A real alg with an odd c is complexified first, so that the i a real algebra
    cannot hold shows as a flipped square."""
    if not alg.complexified and any(c % 2 for _, c in images):
        if isinstance(alg, ProductAlgebra):
            alg = ProductAlgebra([s._replace(complexified=True) for s in alg.sigs], alg.graded)
        else:
            alg = alg._replace(complexified=True)
    unit = GaussianRational(0, 1) if alg.complexified else None
    out = []
    for mask, c in images:
        x = MV(alg, {mask: 1})
        for _ in range(c if unit else c // 2):
            x = x * unit if unit else -x
        out.append(x)
    return MV(alg, {0: 1}), out


def naive_product_images(sigs, graded, twist=0):
    """A tensor witness's images in generator order, by MV products:
    generator g of factor j is i^(twist j) times, in a plain product, the
    generators of every earlier factor multiplied in order, times e_g."""
    alg = ProductAlgebra(sigs, graded)
    one = MV(alg, {0: 1})
    gens = [MV(alg, {1 << k: 1}) for k in range(alg.n)]
    images, lead, k = [], one, 0
    for j, s in enumerate(alg.sigs):
        unit = one
        for _ in range(twist * j):
            unit = unit * GaussianRational(0, 1)
        factor_gens = gens[k:k + s.n]
        images += [unit * (one if graded else lead) * g for g in factor_gens]
        for g in factor_gens:
            lead = lead * g
        k += s.n
    return images


def naive_witness_facts(rep, raw):
    """Which facts of a generator-map witness its phased images bear out by MV
    products: they equal raw (the witness's images built as MVs, in generator
    order, before the +1 squares move first), their squares are the reported
    squares, they pairwise anticommute, and their subset products span the
    reported rank."""
    one, images = naive_phased_mvs(rep.images, rep.algebra)
    squares = [1 if x * x == one else -1 if x * x == -one else 0 for x in images]
    ones = [x for x in raw if x * x == one]
    return {
        "images": images == ones + [x for x in raw if x * x != one],
        "squares": squares == rep.squares,
        "anticommute": pairwise_anticommute(images),
        "rank": naive_subset_product_rank(images, one) == rep.rank,
    }


def naive_matrix_link_facts(gens, one):
    """The matrix link's facts by MV products, for five generator images:
    omega, their product in order, squares to -1 and commutes with each
    image, the first four square to +1 and pairwise anticommute, and the
    subset products of the first four and omega span the returned rank."""
    omega = one
    for g in gens:
        omega = omega * g
    plus = gens[:4]
    return {
        "omega_sq": omega * omega == -one,
        "omega_central": all(omega * g == g * omega for g in gens),
        "plus_squares": all(g * g == one for g in plus),
        "anticommute": all(x * y == -(y * x) for x, y in combinations(plus, 2)),
        "rank": naive_subset_product_rank(plus + [omega], one),
    }


def naive_grade_involution(x):
    """x with its odd-grade terms negated, each grade the length of an index list."""
    return MV(x.sig, {m: -c if len(indices_of(m)) % 2 else c for m, c in x.terms.items()})


def naive_reversion(x):
    """x with its index lists read backwards: a grade-g term reverses by
    g(g - 1)/2 transpositions of anticommuting generators."""
    out = {}
    for m, c in x.terms.items():
        g = len(indices_of(m))
        out[m] = -c if g * (g - 1) // 2 % 2 else c
    return MV(x.sig, out)


def naive_opposite_components(f, lam_plus, lam_minus):
    """f * lam = f for one central projector lam, and the grade-involution
    mirror of f absorbed by the other."""
    mirror = naive_grade_involution(f)
    return any(f * lam == f and mirror * other == mirror
               for lam, other in ((lam_plus, lam_minus), (lam_minus, lam_plus)))


def naive_reduce(rows, vec):
    """vec reduced by a linear scan: every row, in the order it was added,
    whose pivot vec still holds is subtracted with that coefficient."""
    v = {k: c for k, c in vec.items() if c}
    for pivot, row in rows:
        if pivot in v:
            factor = v[pivot]
            for k, c in row.items():
                nv = v.get(k, 0) - factor * c
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
    return v


def naive_span_basis(vectors):
    """Row echelon form by the linear scan, one vector at a time.

    Returns (added, rows): for each vector whether it was new to the span,
    and the (pivot, row) list, each row divided by its value at its
    pivot, the smallest key left after reduction."""
    added, rows = [], []
    for vec in vectors:
        v = naive_reduce(rows, vec)
        if v:
            pivot = min(v)
            pc = v[pivot]
            rows.append((pivot, {k: c / pc for k, c in v.items()}))
        added.append(bool(v))
    return added, rows


def stars_and_bars_degree(k, r):
    """Count the independent components of a spintensor symmetric in k
    undotted and r dotted two-valued indices, by direct enumeration."""
    und = len(list(combinations_with_replacement((0, 1), k)))
    dot = len(list(combinations_with_replacement((0, 1), r)))
    return und * dot


def radon_hurwitz_reference(i):
    """The period-8 staircase, written as an explicit table plus shifts."""
    table = {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3, 7: 3}
    shift = 0
    while i < 0:
        i += 8
        shift -= 4
    while i > 7:
        i -= 8
        shift += 4
    return table[i] + shift


def ring_from_type(t):
    return {0: "R", 1: "R+R", 2: "R", 3: "C", 4: "H", 5: "H+H", 6: "H", 7: "C"}[t]


_DIM_K = {"R": 1, "C": 2, "H": 4, "R+R": 1, "H+H": 4}


def formal_dimension_identity(info):
    """2^n == rank^2 * dim_R(K) * (number of simple components)."""
    components = 1 if info.simple else 2
    return (1 << (info.p + info.q)) == info.matrix_rank ** 2 * _DIM_K[info.ring] * components


def naive_gaussian_mul(z, w):
    """(a + bi)(c + di) for parts given as (a, b) and (c, d): all four partial
    products, whatever is zero."""
    (a, b), (c, d) = z, w
    return (a * c - b * d, a * d + b * c)


def naive_multivector_mul(x, y, p):
    """Multiply two multivectors given as {index-tuple: Fraction} dicts."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            s, r = naive_blade_product(a, b, p)
            out[r] = out.get(r, Fraction(0)) + s * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def naive_tensor_product(x, y, factors, graded):
    """Multiply two tensor elements given as {(indices_1, ..., indices_k): coeff}.

    factors lists each factor's (p, q). Each factor multiplies on its own
    with naive_blade_product. When graded, every generator of y's factor i
    also hops over each generator of x in a later factor j > i, one sign
    flip per hop, counted over explicit (factor, generator) lists.
    """
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            sign = 1
            key = []
            for (p, _), ai, bi in zip(factors, a, b):
                s, r = naive_blade_product(ai, bi, p)
                sign *= s
                key.append(r)
            if graded:
                a_gens = [(j, g) for j, blade in enumerate(a) for g in blade]
                b_gens = [(i, g) for i, blade in enumerate(b) for g in blade]
                for i, _ in b_gens:
                    for j, _ in a_gens:
                        if j > i:
                            sign = -sign
            key = tuple(key)
            out[key] = out.get(key, 0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def naive_block_matrix(x, p, q):
    """The 2x2 block form of x in Cl(p, q+1), given as {blade mask: coeff},
    over the complexified Cl(p, q-1): [[A0 - i A3, -A1 + i A2],
    [A1 + i A2, A0 + i A3]], each entry a {base mask: (re, im)} dict of
    Fraction pairs with the zero pairs dropped.

    With m = p + q - 1 base generators, phi = e_1..e_m e_(m+1) and
    psi = e_1..e_m e_(m+2). A0 is the part of x through neither added
    generator; A1, A2 and A3 are minus the parts through e_(m+1) only,
    e_(m+2) only and both, times phi, psi and phi psi, each product taken
    term by term with naive_blade_product on index tuples."""
    m = p + q - 1
    phi = tuple(range(1, m + 2))
    psi = tuple(range(1, m + 1)) + (m + 2,)
    s, phi_psi = naive_blade_product(phi, psi, p)
    factors = [(1, ()), (-1, phi), (-1, psi), (-s, phi_psi)]
    a = [{}, {}, {}, {}]
    for mask, c in x.items():
        idx = indices_of(mask)
        k = (1 if m + 1 in idx else 0) + (2 if m + 2 in idx else 0)
        sign, factor = factors[k]
        s, rest = naive_blade_product(idx, factor, p)
        assert all(i <= m for i in rest)
        key = sum(1 << (i - 1) for i in rest)
        a[k][key] = a[k].get(key, Fraction(0)) + sign * s * Fraction(c)

    def entry(re, re_sign, im, im_sign):
        out = {}
        for key in sorted(set(re) | set(im)):
            pair = (re_sign * re.get(key, Fraction(0)), im_sign * im.get(key, Fraction(0)))
            if pair != (0, 0):
                out[key] = pair
        return out

    return [[entry(a[0], 1, a[3], -1), entry(a[1], -1, a[2], 1)],
            [entry(a[1], 1, a[2], 1), entry(a[0], 1, a[3], 1)]]


def naive_matrix_of(form, x):
    """The 2x2 block matrix of x, an MV of form.target, over the complexified
    base Cl(p, q-1): each entry of form._entries, an int or Fraction term dict
    over Cl(p, q-1) (x) Cl(0, 1), folded into Q(i) coefficients, the real part
    on base blade b and the imaginary part on b | i."""
    if x.sig != form.target:
        raise ValueError("element is not in the target algebra")
    base = Signature(form.target.p, form.target.q - 2, complexified=True)
    i = 1 << form.m2
    m = [MV(base, {b & ~i: GaussianRational(e.get(b & ~i, 0), e.get(b | i, 0)) for b in e})
         for e in form._entries(x.terms)]
    return [m[:2], m[2:]]


def naive_block_sample(form, samples, seed):
    """form.sample_homomorphism the MV way: draw x and y as sums of 2 to 5 random
    blades with coefficients in -3..3, then compare naive_matrix_of(x * y) with the
    2x2 product of naive_matrix_of(x) and naive_matrix_of(y), taken with Q(i) MV
    products."""
    rng = random.Random(seed)
    n = form.target.n

    def draw():
        x = MV.zero(form.target)
        for _ in range(rng.randint(2, 5)):
            mask = rng.randrange(1 << n)
            x = x + MV.blade(form.target, mask, rng.randint(-3, 3))
        return x

    failures = 0
    for _ in range(samples):
        x = draw()
        y = draw()
        a, b = naive_matrix_of(form, x), naive_matrix_of(form, y)
        right = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]
        if naive_matrix_of(form, x * y) != right:
            failures += 1
    return {"passed": failures == 0, "checked": samples, "failures": failures}


# --- the numeric layer in numpy float64 -------------------------------------

NP_SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                    dtype=complex)


def np_matrix(m):
    """A flat 2x2 matrix over Z[i], (m00, m01, m10, m11) of (re, im) pairs, in complex128."""
    return np.array([complex(*z) for z in m]).reshape(2, 2)


def _np_gap(u, v, scale):
    return float(np.max(np.abs(np.asarray(u) - np.asarray(v)))) / scale


def _np_size(m):
    return 1.0 + float(np.max(np.abs(m)))


def np_cover(a, b, X):
    """(a X a^H, largest relative defect) of the double-cover identities on one
    exact sample, in float64: det a = det b = 1, det(aXa^H) = det X, aXa^H
    Hermitian, (-a)X(-a)^H = aXa^H and a(bXb^H)a^H = (ab)X(ab)^H. Each defect
    is scaled by the size of what it compares (squared for a determinant)."""
    a, b, X = (np_matrix(m) for m in (a, b, X))

    def act(g, Z):
        return g @ Z @ g.conj().T

    Y = act(a, X)
    composed, direct = act(a, act(b, X)), act(a @ b, X)
    defect = max(_np_gap(np.linalg.det(a), 1, _np_size(a) ** 2),
                 _np_gap(np.linalg.det(b), 1, _np_size(b) ** 2),
                 _np_gap(np.linalg.det(Y), np.linalg.det(X), _np_size(Y) ** 2),
                 _np_gap(Y, Y.conj().T, _np_size(Y)),
                 _np_gap(act(-a, X), Y, _np_size(Y)),
                 _np_gap(composed, direct, max(_np_size(composed), _np_size(direct))))
    return Y, defect


def np_null_defect(xi):
    """The old float check on one Gaussian-integer xi: the four-vector of
    sqrt(2) outer(conj xi, xi) is real and null, relative to its size."""
    xi = np.array([complex(*z) for z in xi])
    S = np.sqrt(2.0) * np.outer(xi.conj(), xi)
    x = np.array([(S[0, 0] + S[1, 1]) / 2, (S[0, 1] + S[1, 0]) / 2,
                  (S[1, 0] - S[0, 1]) / 2j, (S[0, 0] - S[1, 1]) / 2])
    r = x.real
    return max(float(np.max(np.abs(x.imag))) / _np_size(x),
               abs(r[0] ** 2 - r[1] ** 2 - r[2] ** 2 - r[3] ** 2) / _np_size(x) ** 2)


def np_bloch(psi):
    """(n P, largest defect) for the normalised state of a Gaussian-integer psi
    in float64: P = tr(rho sigma), rho = (I + P.sigma)/2, tr rho^2 = 1 and |P| = 1."""
    v = np.array([complex(*z) for z in psi])
    n = float(np.vdot(v, v).real)
    rho = np.outer(v, v.conj()) / n
    P = np.array([np.trace(rho @ NP_SIGMA[j]).real for j in (1, 2, 3)])
    back = (NP_SIGMA[0] + np.tensordot(P, NP_SIGMA[1:], axes=1)) / 2
    defect = max(float(np.max(np.abs(back - rho))), abs(np.trace(rho @ rho).real - 1),
                 abs(float(P @ P) - 1))
    return n * P, defect


def np_twistor_incidence(x, pi):
    """omega = (i/sqrt(2)) K(x) pi, both off-diagonals of K carrying +i x2."""
    x = np.asarray(x, dtype=float)
    pi = np.asarray(pi, dtype=complex)
    kernel = np.array([
        [x[0] + x[3], x[1] + 1j * x[2]],
        [x[1] + 1j * x[2], x[0] - x[3]],
    ])
    return (1j / np.sqrt(2.0)) * kernel @ pi


def np_twistor_norm(omega, pi):
    omega = np.asarray(omega, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    return float((omega @ pi.conj() + omega.conj() @ pi).real)
