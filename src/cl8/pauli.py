"""Numeric layer: 2-spinors vs Minkowski vectors, twistor incidence, qubits.

Double precision throughout. Conventions carry the 1/sqrt(2) factors of the
physics normalization, and the incidence kernel keeps +i x2 in both
off-diagonal entries on purpose (the source display is asymmetric relative
to the Hermitian-matrix encoding, and we reproduce it verbatim).

This is the only cl8 module that imports numpy. Nothing else imports it at
the top, so numpy is loaded only with this module: by the `spinor`, `qubit`
and `twistor` commands and by `verify numeric`.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def vector_to_herm(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.array([
        [x[0] + x[3], x[1] - 1j * x[2]],
        [x[1] + 1j * x[2], x[0] - x[3]],
    ])


def herm_to_vector(X) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    return np.array([
        (X[0, 0] + X[1, 1]).real / 2,
        X[1, 0].real,
        X[1, 0].imag,
        (X[0, 0] - X[1, 1]).real / 2,
    ])


def lorentz_norm(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2)


def sl2c_act(a, X) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"matrix must be unimodular, det = {det}")
    return a @ np.asarray(X, dtype=complex) @ a.conj().T


def random_sl2(rng) -> np.ndarray:
    """Random unimodular 2x2 complex matrix from a numpy Generator."""
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 1e-3:
            return m / np.sqrt(det)


def spinor_outer(xi, xi_dot) -> np.ndarray:
    """Four-vector of the rank-1 spintensor sqrt(2) * outer(xi_dot, xi).

    With xi_dot the conjugate of xi the result is real and lies on the
    light cone.
    """
    xi = np.asarray(xi, dtype=complex)
    xi_dot = np.asarray(xi_dot, dtype=complex)
    X = np.sqrt(2.0) * np.outer(xi_dot, xi)
    return np.array([
        (X[0, 0] + X[1, 1]) / 2,
        (X[0, 1] + X[1, 0]) / 2,
        (X[1, 0] - X[0, 1]) / (2j),
        (X[0, 0] - X[1, 1]) / 2,
    ])


#: Most samples a sampled check draws, checked before the first draw.
MAX_SAMPLES = 100_000


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples = {samples} exceeds MAX_SAMPLES = {MAX_SAMPLES}")


def null_outer_defects(rng, samples: int) -> tuple:
    """(max |S^2|, max imaginary part) over sampled conjugate outer products.

    Each sample draws xi from rng (a numpy Generator, advanced in place, or
    a seed) and maps xi, conj(xi) through spinor_outer; both maxima vanish
    up to rounding.
    """
    _check_samples(samples)
    rng = np.random.default_rng(rng)
    max_null = 0.0
    max_imag = 0.0
    for _ in range(samples):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = spinor_outer(xi, xi.conj())
        max_imag = max(max_imag, float(np.max(np.abs(x.imag))))
        max_null = max(max_null, abs(lorentz_norm(x.real)))
    return max_null, max_imag


def twistor_incidence(x, pi) -> np.ndarray:
    """omega = (i/sqrt(2)) K(x) pi with both off-diagonals of K carrying +i x2."""
    x = np.asarray(x, dtype=float)
    pi = np.asarray(pi, dtype=complex)
    kernel = np.array([
        [x[0] + x[3], x[1] + 1j * x[2]],
        [x[1] + 1j * x[2], x[0] - x[3]],
    ])
    return (1j / np.sqrt(2.0)) * kernel @ pi


def twistor_norm(omega, pi) -> float:
    omega = np.asarray(omega, dtype=complex)
    pi = np.asarray(pi, dtype=complex)
    return float((omega @ pi.conj() + omega.conj() @ pi).real)


def twistor_form_signature() -> tuple:
    """Inertia of the Hermitian form behind twistor_norm on (omega, pi)."""
    form = np.zeros((4, 4), dtype=complex)
    form[0:2, 2:4] = np.eye(2)
    form[2:4, 0:2] = np.eye(2)
    eig = np.linalg.eigvalsh(form)
    plus = int(np.sum(eig > 1e-12))
    minus = int(np.sum(eig < -1e-12))
    return (plus, minus)


def qubit_density(a, b) -> np.ndarray:
    a, b = complex(a), complex(b)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    psi = np.array([a, b])
    return np.outer(psi, psi.conj())


def bloch_vector(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ SIGMA[j]).real for j in (1, 2, 3)])


def density_from_bloch(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    return (SIGMA[0] + P[0] * SIGMA[1] + P[1] * SIGMA[2] + P[2] * SIGMA[3]) / 2


def purity(rho) -> float:
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def _bloch_samples(rng, samples: int):
    """Yield (rho, P, round-trip defect) for pure states drawn from rng."""
    for _ in range(samples):
        v = rng.normal(size=4)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        s = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        rho = qubit_density(a / s, b / s)
        P = bloch_vector(rho)
        yield rho, P, float(np.max(np.abs(density_from_bloch(P) - rho)))


def bloch_roundtrip_check(samples: int = 100, seed: int = 0) -> dict:
    """Sample pure states: rho -> Bloch vector -> rho, and tr rho^2 = 1, at 1e-9."""
    _check_samples(samples)
    max_round = 0.0
    max_purity = 0.0
    for rho, _, defect in _bloch_samples(np.random.default_rng(seed), samples):
        max_round = max(max_round, defect)
        max_purity = max(max_purity, abs(purity(rho) - 1.0))
    return {
        "passed": max_round < 1e-9 and max_purity < 1e-9,
        "checked": samples,
        "max_roundtrip_defect": max_round,
        "max_purity_defect": max_purity,
    }


def _null_and_bloch_defects(seed: int, samples: int) -> tuple:
    """(max |S^2|, max Bloch defect) from one generator seeded with seed.

    The generator feeds null_outer_defects first, then the Bloch round
    trips, whose defect also covers tr rho^2 = (1 + |P|^2)/2.
    """
    rng = np.random.default_rng(seed)
    max_null, _ = null_outer_defects(rng, samples)
    max_round = 0.0
    for rho, P, defect in _bloch_samples(rng, samples):
        max_round = max(max_round, defect, abs(purity(rho) - (1 + float(np.dot(P, P))) / 2))
    return max_null, max_round


def sl2c_double_cover_check(samples: int = 100, seed: int = 0) -> dict:
    """Sample the two-to-one action: norm invariance, sign blindness,
    and compatibility with composition, all at 1e-9."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    max_drift = 0.0
    for _ in range(samples):
        a = random_sl2(rng)
        b = random_sl2(rng)
        x = rng.normal(size=4)
        X = vector_to_herm(x)
        Y = sl2c_act(a, X)
        drift = abs(lorentz_norm(herm_to_vector(Y)) - lorentz_norm(x))
        drift = max(drift, float(np.max(np.abs(Y - sl2c_act(-a, X)))))
        composed = sl2c_act(a, sl2c_act(b, X))
        ab = a @ b
        ab = ab / np.sqrt(ab[0, 0] * ab[1, 1] - ab[0, 1] * ab[1, 0])
        drift = max(drift, float(np.max(np.abs(composed - sl2c_act(ab, X)))))
        max_drift = max(max_drift, drift)
    return {
        "passed": max_drift < 1e-9,
        "checked": samples,
        "max_norm_drift": max_drift,
    }
