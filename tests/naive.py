"""Independent reference implementations used as test oracles.

Everything in here is deliberately written the slow, obvious way (index
lists, bubble sorts, exhaustive searches) so that it shares no code and
no clever tricks with the package under test.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement


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
