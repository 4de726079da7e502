"""Numeric layer: 2-spinors vs Minkowski vectors, twistor incidence, qubits.

Every sampled check behind a PASS (`sl2c_double_cover_check`,
`null_outer_defects`, `bloch_roundtrip_check` and the numeric suite's
`_null_and_bloch_defects`) is exact. They draw Gaussian integers from a
seeded `random.Random` and check each identity in Python ints over Z[i]: a
Gaussian integer is an (re, im) pair of ints and a 2x2 matrix over Z[i] is
the flat tuple (m00, m01, m10, m11) of four of them. A four-vector x is the
Hermitian matrix x0 I + x1 sigma_1 + x2 sigma_2 + x3 sigma_3, of determinant
its Minkowski norm. Every defect they report is an int, the largest |re| or
|im| of an entry of some difference, so 0 on a pass.

The one float path is the twistor that `cl8 twistor` prints with no PASS:
`twistor_incidence` and `twistor_norm` run on Python `complex`. They carry
the 1/sqrt(2) factors of the physics normalization, and the incidence kernel
keeps +i x2 in both off-diagonal entries on purpose (the source display is
asymmetric relative to the Hermitian-matrix encoding, and we reproduce it
verbatim). The signature of the twistor form is the involution count, read
off the trace of the form's matrix once it is checked in ints to be
symmetric and to square to I.
"""

from __future__ import annotations

import math
import random

__all__ = [
    "MAX_SAMPLES", "bloch_roundtrip_check", "null_outer_defects", "sl2c_double_cover_check",
    "twistor_form_signature", "twistor_incidence", "twistor_norm",
]


def twistor_incidence(x, pi) -> tuple:
    """omega = (i/sqrt(2)) K(x) pi with both off-diagonals of K carrying +i x2."""
    x0, x1, x2, x3 = map(float, x)
    p0, p1 = map(complex, pi)
    s = 1j / math.sqrt(2.0)
    k01 = s * complex(x1, x2)
    return (s * (x0 + x3) * p0 + k01 * p1, k01 * p0 + s * (x0 - x3) * p1)


def twistor_norm(omega, pi) -> float:
    w0, w1 = map(complex, omega)
    p0, p1 = map(complex, pi)
    return 2 * (w0 * p0.conjugate() + w1 * p1.conjugate()).real


#: twistor_norm(omega, pi) = z^dagger F z for z = (omega, pi): F = [[0, I], [I, 0]].
_TWISTOR_FORM = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def twistor_form_signature() -> tuple:
    """Inertia of the Hermitian form behind twistor_norm on (omega, pi).

    The form's matrix F is real; it is checked in ints to be symmetric with
    F.F = I. A real symmetric involution has eigenvalues +1 and -1 alone, so
    the trace counts them: ((n + tr F)/2, (n - tr F)/2).
    """
    F = _TWISTOR_FORM
    n = len(F)
    if any(F[i][j] != F[j][i] or sum(F[i][k] * F[k][j] for k in range(n)) != (i == j)
           for i in range(n) for j in range(n)):
        raise RuntimeError("the twistor form is not a symmetric involution")
    trace = sum(F[i][i] for i in range(n))
    return ((n + trace) // 2, (n - trace) // 2)


#: Most samples a sampled check draws, checked before the first draw.
MAX_SAMPLES = 100_000

#: The exact checks draw the real and imaginary parts of Gaussian integers,
#: and the integer four-vectors, from -_PART .. _PART.
_PART = 3


def _worst(rng, samples: int, draw, defects) -> tuple:
    """The largest value of each of defects(draw(rng)) over samples draws.

    samples is bounded before the first draw; rng is a random.Random,
    advanced in place, or a seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples = {samples} exceeds MAX_SAMPLES = {MAX_SAMPLES}")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng)
    worst = defects(draw(rng))
    for _ in range(samples - 1):
        worst = tuple(map(max, worst, defects(draw(rng))))
    return worst


# --- exact arithmetic over Z[i] ---------------------------------------------

_ZERO, _ONE = (0, 0), (1, 0)


def _zmul(u, v) -> tuple:
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _zdot(p, q, u, v) -> tuple:
    """p*u + q*v over Z[i]."""
    return (p[0] * u[0] - p[1] * u[1] + q[0] * v[0] - q[1] * v[1],
            p[0] * u[1] + p[1] * u[0] + q[0] * v[1] + q[1] * v[0])


def _zmatmul(A, B) -> tuple:
    a, b, c, d = A
    e, f, g, h = B
    return (_zdot(a, b, e, g), _zdot(a, b, f, h), _zdot(c, d, e, g), _zdot(c, d, f, h))


def _zdagger(A) -> tuple:
    (a, b), (c, d), (e, f), (g, h) = A
    return ((a, -b), (e, -f), (c, -d), (g, -h))


def _zdet(A) -> tuple:
    a, b, c, d = A
    return _zdot(a, b, d, (-c[0], -c[1]))


def _zherm(x) -> tuple:
    """x0 I + x1 sigma_1 + x2 sigma_2 + x3 sigma_3 for an integer four-vector x, over Z[i]."""
    x0, x1, x2, x3 = x
    return ((x0 + x3, 0), (x1, -x2), (x1, x2), (x0 - x3, 0))


def _ket_bra(psi) -> tuple:
    """psi psi^dagger, the outer product of psi with its conjugate."""
    return tuple(_zmul(u, (v[0], -v[1])) for u in psi for v in psi)


def _zbloch(M) -> tuple:
    """(tr M sigma_1, tr M sigma_2, tr M sigma_3) over Z[i]."""
    a, b, c, d = M
    return ((b[0] + c[0], b[1] + c[1]), (c[1] - b[1], b[0] - c[0]), (a[0] - d[0], a[1] - d[1]))


def _gap(us, vs) -> int:
    """The largest |re| or |im| of u - v over paired Gaussian integers."""
    return max(max(abs(u[0] - v[0]), abs(u[1] - v[1])) for u, v in zip(us, vs))


def _act(a, X) -> tuple:
    return _zmatmul(_zmatmul(a, X), _zdagger(a))


def _zpart(rng) -> tuple:
    return (rng.randint(-_PART, _PART), rng.randint(-_PART, _PART))


def _sl2_sample(rng) -> tuple:
    """A product [[1,t1],[0,1]] [[1,0],[t2,1]] [[1,t3],[0,1]] [[1,0],[t4,1]] of
    elementary unimodular matrices with Gaussian-integer t, so det = 1 by
    construction."""
    m = (_ONE, _zpart(rng), _ZERO, _ONE)
    for upper in (False, True, False):
        t = _zpart(rng)
        m = _zmatmul(m, (_ONE, t, _ZERO, _ONE) if upper else (_ONE, _ZERO, t, _ONE))
    return m


def _cover_sample(rng) -> tuple:
    """(a, b, X): two SL(2, Z[i]) samples and the Hermitian X of an integer vector."""
    a, b = _sl2_sample(rng), _sl2_sample(rng)
    return a, b, _zherm([rng.randint(-_PART, _PART) for _ in range(4)])


def _cover_defect(a, b, X) -> int:
    """0 exactly when det a = det b = 1, aXa^dagger is Hermitian with the
    determinant of X, (-a)X(-a)^dagger = aXa^dagger, and a(bXb^dagger)a^dagger
    = (ab)X(ab)^dagger."""
    Y = _act(a, X)
    return max(_gap((_zdet(a), _zdet(b), _zdet(Y)), (_ONE, _ONE, _zdet(X))),
               _gap(Y, _zdagger(Y)),
               _gap(_act(tuple((-z[0], -z[1]) for z in a), X), Y),
               _gap(_act(a, _act(b, X)), _act(_zmatmul(a, b), X)))


def _null_defects(xi) -> tuple:
    """(|det S|, Hermiticity defect of S) for S = outer(conj xi, xi) = conj(xi) xi^T.

    S is Hermitian of determinant 0 for every xi, so both are 0. The physics
    normalization's spintensor sqrt(2) S is null exactly when S is.
    """
    S = _ket_bra([(z[0], -z[1]) for z in xi])
    return _gap((_zdet(S),), (_ZERO,)), _gap(S, _zdagger(S))


def _state_sample(rng) -> tuple:
    """A nonzero Gaussian-integer state psi."""
    while True:
        psi = (_zpart(rng), _zpart(rng))
        if psi != (_ZERO, _ZERO):
            return psi


def _bloch_defects(psi) -> tuple:
    """(round-trip defect, purity defect) of the Bloch map, scaled by n = psi^dagger psi.

    With n rho = psi psi^dagger, the vector nP is an integer vector, 2 n rho
    = n I + nP . sigma, tr((n rho)^2) = n^2 and |nP|^2 = n^2.
    """
    n = sum(z[0] * z[0] + z[1] * z[1] for z in psi)
    M = _ket_bra(psi)
    P = _zbloch(M)
    real = [z[0] for z in P]
    round_trip = max(_gap(P, [(v, 0) for v in real]),
                     _gap([(2 * z[0], 2 * z[1]) for z in M], _zherm((n, *real))))
    M2 = _zmatmul(M, M)
    trace = (M2[0][0] + M2[3][0], M2[0][1] + M2[3][1])
    purity_defect = max(_gap((trace,), ((n * n, 0),)),
                        abs(sum(v * v for v in real) - n * n))
    return round_trip, purity_defect


def null_outer_defects(rng, samples: int) -> tuple:
    """(max |det S|, max Hermiticity defect) over S = outer(conj xi, xi).

    Each sample draws a Gaussian-integer pair xi from rng (a random.Random,
    advanced in place, or a seed). S is the rank-1 spintensor of xi, up to
    the sqrt(2) of the physics normalization: its four-vector is real
    exactly when S is Hermitian, and null exactly when det S = 0. Both maxima are ints, 0 on a pass.
    """
    return _worst(rng, samples, lambda r: (_zpart(r), _zpart(r)), _null_defects)


def bloch_roundtrip_check(samples: int = 100, seed: int = 0) -> dict:
    """Sample Gaussian-integer states: rho -> Bloch vector -> rho, and tr rho^2 = 1, exactly."""
    max_round, max_purity = _worst(seed, samples, _state_sample, _bloch_defects)
    return {
        "passed": max_round == 0 and max_purity == 0,
        "checked": samples,
        "max_roundtrip_defect": max_round,
        "max_purity_defect": max_purity,
    }


def _null_and_bloch_defects(seed: int, samples: int) -> tuple:
    """(null defect, Bloch defect) from one random.Random seeded with seed.

    The generator feeds null_outer_defects first, then the Bloch round
    trips; each defect is the larger of its check's two.
    """
    rng = random.Random(seed)
    max_null = max(null_outer_defects(rng, samples))
    max_round = max(_worst(rng, samples, _state_sample, _bloch_defects))
    return max_null, max_round


def sl2c_double_cover_check(samples: int = 100, seed: int = 0) -> dict:
    """Sample the two-to-one action of SL(2, Z[i]) exactly: norm invariance,
    sign blindness, and compatibility with composition (`_cover_defect`)."""
    (max_drift,) = _worst(seed, samples, _cover_sample, lambda s: (_cover_defect(*s),))
    return {
        "passed": max_drift == 0,
        "checked": samples,
        "max_norm_drift": max_drift,
    }
