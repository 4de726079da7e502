"""The float twistor, and the exact Z[i] checks of the numeric layer against float64."""

import math
import random

import numpy as np
import pytest

from cl8 import pauli
from cl8.pauli import (
    MAX_SAMPLES,
    bloch_roundtrip_check,
    null_outer_defects,
    sl2c_double_cover_check,
    twistor_form_signature,
    twistor_incidence,
    twistor_norm,
)

from naive import (
    np_bloch,
    np_cover,
    np_matrix,
    np_null_defect,
    np_twistor_incidence,
    np_twistor_norm,
)


RT2 = math.sqrt(2.0)


def normals(rng, n):
    return [rng.gauss(0, 1) for _ in range(n)]


def complex_normals(rng, n):
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]


def test_twistor_incidence_frozen():
    x = (RT2, 0.0, 0.0, 0.0)
    pi = (1.0 + 2.0j, -0.5j)
    omega = twistor_incidence(x, pi)
    np.testing.assert_allclose(omega, [1j * p for p in pi], atol=1e-12)
    x = (0.0, RT2, 0.0, 0.0)
    omega = twistor_incidence(x, pi)
    np.testing.assert_allclose(omega, [1j * p for p in pi[::-1]], atol=1e-12)


def test_twistor_incidence_uses_symmetric_off_diagonals():
    # both off-diagonal entries of the incidence kernel carry +i x2
    x = (0.0, 0.0, RT2, 0.0)
    omega = twistor_incidence(x, (1.0, 0.0))
    np.testing.assert_allclose(omega, (0.0, 1j * 1j * RT2 * 1.0 / RT2), atol=1e-12)


def test_incidence_is_bilinear():
    rng = random.Random(17)
    for _ in range(50):
        x, y = np.array(normals(rng, 4)), np.array(normals(rng, 4))
        p1, p2 = np.array(complex_normals(rng, 2)), np.array(complex_normals(rng, 2))
        np.testing.assert_allclose(
            twistor_incidence(x, p1 + p2),
            np.add(twistor_incidence(x, p1), twistor_incidence(x, p2)), atol=1e-12)
        np.testing.assert_allclose(
            twistor_incidence(x + y, p1),
            np.add(twistor_incidence(x, p1), twistor_incidence(y, p1)), atol=1e-12)
    assert twistor_incidence((0, 0, 0, 0), p1) == (0, 0)


def test_twistor_norm_signature():
    assert twistor_form_signature() == (2, 2)
    assert abs(twistor_norm((1.0, 0.0), (1.0, 0.0)) - 2.0) < 1e-12
    assert abs(twistor_norm((1.0, 0.0), (-1.0, 0.0)) + 2.0) < 1e-12


def _sizes(x, pi):
    """Per omega component, and for the norm, the summed sizes of the terms."""
    k01 = abs(complex(x[1], x[2]))
    rows = [(abs(x[0] + x[3]), k01), (k01, abs(x[0] - x[3]))]
    return [(r0 * abs(pi[0]) + r1 * abs(pi[1])) / RT2 for r0, r1 in rows]


def _twistor_points():
    # the two points the CLI digests freeze, then random points over six decades
    yield (RT2, 0.0, 0.0, 0.0), (1.0, 0.0)
    yield (1.5, -0.25, 0.75, 2.0), (complex(0.3, -0.1), complex(0.5, 0.9))
    rng = random.Random(41)
    for _ in range(500):
        yield ([rng.uniform(-2, 2) * 10.0 ** rng.randint(-3, 3) for _ in range(4)],
               [c * 10.0 ** rng.randint(-3, 3) for c in complex_normals(rng, 2)])


def test_twistor_agrees_with_numpy_to_a_relative_1e15():
    # the float twistor keeps the old numpy formulas; it may differ in the
    # last bit of a sum, so each value is compared relative to the summed
    # sizes of its terms
    for x, pi in _twistor_points():
        omega, expect = twistor_incidence(x, pi), np_twistor_incidence(x, pi)
        for got, want, size in zip(omega, expect, _sizes(x, pi)):
            assert abs(got - want) <= 1e-15 * size, (x, pi)
        norm_size = 2 * sum(abs(w) * abs(p) for w, p in zip(expect, pi))
        assert abs(twistor_norm(omega, pi) - np_twistor_norm(expect, pi)) <= 1e-15 * norm_size


def test_twistor_signature_is_counted_on_a_checked_involution(monkeypatch):
    # the trace counts the signature only of a symmetric F with F.F = I
    monkeypatch.setattr(pauli, "_TWISTOR_FORM", ((1, 0, 0, 0), (0, 1, 0, 0),
                                                  (0, 0, 1, 0), (0, 0, 0, -1)))
    assert twistor_form_signature() == (3, 1)
    for form in (((0, 2), (2, 0)), ((0, 1), (0, 0)), ((1, 1), (0, -1))):
        monkeypatch.setattr(pauli, "_TWISTOR_FORM", form)
        with pytest.raises(RuntimeError, match="symmetric involution"):
            twistor_form_signature()


def test_double_cover_report():
    report = sl2c_double_cover_check(samples=50, seed=3)
    assert report == {"passed": True, "checked": 50, "max_norm_drift": 0}


def test_null_outer_defects_take_a_seed_or_a_generator(monkeypatch):
    seen = []
    real = pauli._null_defects
    monkeypatch.setattr(pauli, "_null_defects", lambda xi: seen.append(xi) or real(xi))
    assert null_outer_defects(4, 10) == (0, 0)
    rng = random.Random(4)
    assert null_outer_defects(rng, 10) == (0, 0)
    # a seed draws what random.Random(seed) draws
    assert seen[10:] == seen[:10]
    # the generator is advanced in place, so a second call draws new samples
    null_outer_defects(rng, 10)
    assert seen[20:] != seen[:10]


def test_bloch_roundtrip_report():
    report = bloch_roundtrip_check(samples=20, seed=9)
    assert report == {"passed": True, "checked": 20, "max_roundtrip_defect": 0,
                      "max_purity_defect": 0}


def test_exact_samples_are_gaussian_integers_of_det_one():
    rng = random.Random(47)
    for _ in range(50):
        a = pauli._sl2_sample(rng)
        assert all(type(v) is int for z in a for v in z)
        assert pauli._zdet(a) == (1, 0)


@pytest.mark.parametrize("seed", [0, 1, 8])
def test_float64_recomputes_the_exact_samples(seed):
    # numpy redoes each exact sample in float64, as the float checks did
    rng = random.Random(seed)
    for _ in range(50):
        a, b, X = pauli._cover_sample(rng)
        assert pauli._cover_defect(a, b, X) == 0
        Y, defect = np_cover(a, b, X)
        assert defect < 1e-12
        np.testing.assert_allclose(np_matrix(pauli._act(a, X)), Y, rtol=1e-12)
        xi = (pauli._zpart(rng), pauli._zpart(rng))
        assert pauli._null_defects(xi) == (0, 0)
        assert np_null_defect(xi) < 1e-12
        psi = pauli._state_sample(rng)
        assert pauli._bloch_defects(psi) == (0, 0)
        nP, defect = np_bloch(psi)
        assert defect < 1e-12
        exact = pauli._zbloch(pauli._ket_bra(psi))
        assert all(z[1] == 0 for z in exact)
        np.testing.assert_allclose([z[0] for z in exact], nP, rtol=1e-12, atol=1e-12)


def _det_two(real):
    return lambda rng: pauli._zmatmul(real(rng), ((2, 0), (0, 0), (0, 0), (1, 0)))


def _transposed(real):
    return lambda a, X: pauli._zmatmul(pauli._zmatmul(a, X), (a[0], a[2], a[1], a[3]))


def _no_conj(real):
    return lambda psi: tuple(pauli._zmul(u, v) for u in psi for v in psi)


def _flipped_sign(real):
    def bloch(M):
        p1, (re, im), p3 = real(M)
        return p1, (-re, -im), p3
    return bloch


def _cover_fails():
    return not sl2c_double_cover_check(samples=20, seed=5)["passed"]


def _spinor_fails():
    return null_outer_defects(5, 20) != (0, 0)


def _qubit_fails():
    return not bloch_roundtrip_check(samples=20, seed=5)["passed"]


def _suite_fails():
    from cl8.suites import numeric_suite
    return not numeric_suite(seed=5)["passed"]


@pytest.mark.parametrize("name, plant, checks", [
    ("_sl2_sample", _det_two, [_cover_fails, _suite_fails]),
    ("_act", _transposed, [_cover_fails, _suite_fails]),
    ("_ket_bra", _no_conj, [_spinor_fails, _qubit_fails, _suite_fails]),
    ("_zbloch", _flipped_sign, [_qubit_fails, _suite_fails]),
], ids=["det-not-one", "transpose-for-dagger", "conj-dropped", "bloch-sign-flipped"])
def test_every_exact_check_fails_on_a_planted_defect(monkeypatch, name, plant, checks):
    # no exact PASS is vacuous: each planted defect makes every check that
    # rests on it fail
    assert not any(check() for check in checks)
    monkeypatch.setattr(pauli, name, plant(getattr(pauli, name)))
    assert all(check() for check in checks)


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


@pytest.mark.parametrize("samples", [0, MAX_SAMPLES + 1])
def test_sampled_checks_refuse_before_the_first_draw(monkeypatch, samples):
    def no_draw(rng):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(pauli, "_zpart", no_draw)
    for check in (lambda: null_outer_defects(0, samples),
                  lambda: bloch_roundtrip_check(samples=samples),
                  lambda: sl2c_double_cover_check(samples=samples)):
        with pytest.raises(ValueError, match="samples"):
            check()
