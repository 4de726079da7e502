"""Hermitian-matrix encoding of vectors, spinor outer products, twistors, qubits."""

import numpy as np
import pytest

from cl8.pauli import (
    MAX_SAMPLES,
    SIGMA,
    bloch_roundtrip_check,
    bloch_vector,
    density_from_bloch,
    herm_to_vector,
    lorentz_norm,
    null_outer_defects,
    purity,
    qubit_density,
    random_sl2,
    sl2c_act,
    sl2c_double_cover_check,
    spinor_outer,
    twistor_form_signature,
    twistor_incidence,
    twistor_norm,
    vector_to_herm,
)


RT2 = np.sqrt(2.0)


def test_sigma_matrices():
    assert SIGMA.shape == (4, 2, 2)
    np.testing.assert_array_equal(SIGMA[0], np.eye(2))
    np.testing.assert_array_equal(SIGMA[1], np.array([[0, 1], [1, 0]]))
    np.testing.assert_array_equal(SIGMA[2], np.array([[0, -1j], [1j, 0]]))
    np.testing.assert_array_equal(SIGMA[3], np.array([[1, 0], [0, -1]]))


def test_vector_to_herm_layout():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    X = vector_to_herm(x)
    np.testing.assert_allclose(X, np.array([[5.0, 2.0 - 3.0j], [2.0 + 3.0j, -3.0]]))
    np.testing.assert_allclose(X, sum(x[i] * SIGMA[i] for i in range(4)))
    assert abs(np.linalg.det(X).real - lorentz_norm(x)) < 1e-12


@pytest.mark.parametrize("x,norm", [
    ((1, 0, 0, 0), 1.0),
    ((0, 1, 0, 0), -1.0),
    ((0, 0, 1, 0), -1.0),
    ((0, 0, 0, 1), -1.0),
    ((2, 1, 1, 1), 1.0),
])
def test_lorentz_norm_signature(x, norm):
    assert abs(lorentz_norm(np.array(x, dtype=float)) - norm) < 1e-12


def test_herm_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=4)
        np.testing.assert_allclose(herm_to_vector(vector_to_herm(x)), x, atol=1e-12)


def test_sl2c_act_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_sl2(rng)
        x = rng.normal(size=4)
        X2 = sl2c_act(a, vector_to_herm(x))
        y = herm_to_vector(X2)
        assert abs(lorentz_norm(y) - lorentz_norm(x)) < 1e-9
        # the image stays hermitian
        np.testing.assert_allclose(X2, X2.conj().T, atol=1e-10)


def test_sl2c_act_rejects_non_unimodular():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sl2c_act(a, vector_to_herm(np.array([1.0, 0, 0, 0])))


def test_sl2c_act_identity_and_sign():
    rng = np.random.default_rng(29)
    X = vector_to_herm(rng.normal(size=4))
    np.testing.assert_allclose(sl2c_act(np.eye(2), X), X, atol=1e-14)
    np.testing.assert_allclose(sl2c_act(-np.eye(2), X), X, atol=1e-14)
    a = random_sl2(rng)
    np.testing.assert_allclose(sl2c_act(a, X), sl2c_act(-a, X), atol=1e-12)
    boost = np.diag([np.exp(0.3), np.exp(-0.3)])
    Y = sl2c_act(boost, X)
    assert abs(np.linalg.det(Y).real - np.linalg.det(X).real) < 1e-12


def test_spinor_outer_frozen_values():
    xi = np.array([1.0, 0.0], dtype=complex)
    x = spinor_outer(xi, xi.conj())
    np.testing.assert_allclose(x, np.array([1 / RT2, 0, 0, 1 / RT2]), atol=1e-12)
    xi = np.array([0.0, 1.0], dtype=complex)
    x = spinor_outer(xi, xi.conj())
    np.testing.assert_allclose(x, np.array([1 / RT2, 0, 0, -1 / RT2]), atol=1e-12)
    xi = np.array([1.0, 1.0], dtype=complex)
    x = spinor_outer(xi, xi.conj())
    np.testing.assert_allclose(x, np.array([RT2, RT2, 0, 0]), atol=1e-12)


def test_spinor_outer_conjugate_pair_is_real_and_null():
    rng = np.random.default_rng(11)
    for _ in range(100):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = spinor_outer(xi, xi.conj())
        assert np.max(np.abs(x.imag)) < 1e-12
        assert abs(lorentz_norm(x.real)) < 1e-9


def test_spinor_outer_reconstructs_hermitian_matrix():
    rng = np.random.default_rng(13)
    for _ in range(20):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = spinor_outer(xi, xi.conj())
        X = vector_to_herm(x.real)
        np.testing.assert_allclose(X, RT2 * np.outer(xi.conj(), xi), atol=1e-10)


def test_twistor_incidence_frozen():
    x = np.array([RT2, 0.0, 0.0, 0.0])
    pi = np.array([1.0 + 2.0j, -0.5j])
    omega = twistor_incidence(x, pi)
    np.testing.assert_allclose(omega, 1j * pi, atol=1e-12)
    x = np.array([0.0, RT2, 0.0, 0.0])
    omega = twistor_incidence(x, pi)
    np.testing.assert_allclose(omega, 1j * pi[::-1], atol=1e-12)


def test_twistor_incidence_uses_symmetric_off_diagonals():
    # both off-diagonal entries of the incidence kernel carry +i x2
    x = np.array([0.0, 0.0, RT2, 0.0])
    pi = np.array([1.0, 0.0], dtype=complex)
    omega = twistor_incidence(x, pi)
    np.testing.assert_allclose(omega, np.array([0.0, 1j * 1j * RT2 * 1.0 / RT2]), atol=1e-12)


def test_incidence_is_bilinear():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x, y = rng.normal(size=4), rng.normal(size=4)
        p1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        p2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        np.testing.assert_allclose(
            twistor_incidence(x, p1 + p2),
            twistor_incidence(x, p1) + twistor_incidence(x, p2), atol=1e-12)
        np.testing.assert_allclose(
            twistor_incidence(x + y, p1),
            twistor_incidence(x, p1) + twistor_incidence(y, p1), atol=1e-12)
    zero = twistor_incidence(np.zeros(4), p1)
    np.testing.assert_allclose(zero, np.zeros(2), atol=0)


def test_twistor_norm_signature():
    assert twistor_form_signature() == (2, 2)
    omega = np.array([1.0, 0.0], dtype=complex)
    pi = np.array([1.0, 0.0], dtype=complex)
    assert abs(twistor_norm(omega, pi) - 2.0) < 1e-12
    assert abs(twistor_norm(omega, -pi) + 2.0) < 1e-12


QUBIT_CASES = [
    ((1.0, 0.0), (0.0, 0.0, 1.0)),
    ((0.0, 1.0), (0.0, 0.0, -1.0)),
    ((1 / RT2, 1 / RT2), (1.0, 0.0, 0.0)),
    ((1 / RT2, 1j / RT2), (0.0, 1.0, 0.0)),
]


@pytest.mark.parametrize("ab,P", QUBIT_CASES)
def test_qubit_bloch_vectors(ab, P):
    rho = qubit_density(*ab)
    np.testing.assert_allclose(bloch_vector(rho), np.array(P), atol=1e-12)
    assert abs(purity(rho) - 1.0) < 1e-12
    np.testing.assert_allclose(density_from_bloch(np.array(P)), rho, atol=1e-12)


def test_qubit_density_requires_normalization():
    with pytest.raises(ValueError):
        qubit_density(1.0, 1.0)


def test_mixed_state_purity():
    rho = density_from_bloch(np.array([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)
    assert abs(purity(rho) - 0.5) < 1e-12
    P = np.array([0.3, 0.0, 0.4])
    rho = density_from_bloch(P)
    assert abs(purity(rho) - (1 + 0.25) / 2) < 1e-12
    np.testing.assert_allclose(bloch_vector(rho), P, atol=1e-12)


def test_random_qubits_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        v = rng.normal(size=4)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        rho = qubit_density(a, b)
        P = bloch_vector(rho)
        assert abs(np.dot(P, P) - 1.0) < 1e-9
        np.testing.assert_allclose(density_from_bloch(P), rho, atol=1e-12)
        assert abs(purity(rho) - (1 + np.dot(P, P)) / 2) < 1e-12


def test_double_cover_report():
    report = sl2c_double_cover_check(samples=50, seed=3)
    assert report["passed"] is True
    assert report["checked"] == 50
    assert report["max_norm_drift"] < 1e-9


def test_null_outer_defects_take_a_seed_or_a_generator():
    first = null_outer_defects(4, 10)
    assert first[0] < 1e-12 and first[1] < 1e-12
    rng = np.random.default_rng(4)
    assert null_outer_defects(rng, 10) == first
    # the generator is advanced in place, so a second call draws new samples
    assert null_outer_defects(rng, 10) != first


def test_bloch_roundtrip_report():
    report = bloch_roundtrip_check(samples=20, seed=9)
    assert report["passed"] is True
    assert report["checked"] == 20
    assert report["max_roundtrip_defect"] < 1e-12
    assert report["max_purity_defect"] < 1e-12


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_checks_refuse_empty_samples(samples):
    with pytest.raises(ValueError):
        null_outer_defects(0, samples)
    with pytest.raises(ValueError):
        bloch_roundtrip_check(samples=samples)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10 ** 9])
def test_sampled_checks_refuse_oversized_samples(samples):
    # refused before the first draw, so 10^9 costs nothing
    assert MAX_SAMPLES == 100_000
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        null_outer_defects(0, samples)
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        bloch_roundtrip_check(samples=samples)


@pytest.mark.parametrize("samples", [0, MAX_SAMPLES + 1])
def test_double_cover_check_refuses_empty_or_oversized_samples(samples):
    with pytest.raises(ValueError):
        sl2c_double_cover_check(samples=samples)
