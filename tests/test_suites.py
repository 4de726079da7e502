"""Verification suites: a suite never passes with nothing checked."""

import pytest

from cl8 import suites


def test_suite_with_no_checks_fails():
    rep = suites._suite("x", [])
    assert rep["passed"] is False
    assert rep["lines"] == ["FAIL nothing checked"]


@pytest.mark.parametrize("build", [
    lambda: suites.classification_suite(max_n=-1),
    lambda: suites.even_iso_suite(max_n=0),
    lambda: suites.chevalley_suite(max_n=-1),
], ids=["classification", "even_iso", "chevalley"])
def test_sweep_over_zero_cases_fails(build):
    rep = build()
    assert rep["passed"] is False
    assert any(line.startswith("FAIL") for line in rep["lines"])


def test_block_suite_refuses_zero_samples():
    # "0 sampled products" must not print as a PASS
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        suites.block_suite(samples=0)


def test_theorem3_brute_line_fails_on_a_non_primitive_idempotent(monkeypatch):
    # One generator dropped leaves f idempotent but not primitive, while .k
    # still holds the formula's value: the brute-force line must notice.
    from fractions import Fraction

    from cl8 import classify, periodicity
    from cl8.algebra import MV
    from cl8.classify import primitive_idempotent

    def dropped(p, q):
        data = primitive_idempotent(p, q)
        gens = data.generators[:-1]
        f = MV.scalar(data.sig, 1)
        for mask in gens:
            f = f * (MV.scalar(data.sig, Fraction(1, 2)) + MV.blade(data.sig, mask, Fraction(1, 2)))
        return data._replace(f=f, generators=gens)

    line = "idempotent search matches arithmetic k for q <= 9"
    assert f"PASS {line}" in suites.theorem3_suite(24)["lines"]
    # search_confirms_k imports primitive_idempotent from cl8.classify when it runs
    monkeypatch.setattr(classify, "primitive_idempotent", dropped)
    rep = suites.theorem3_suite(24)
    assert f"FAIL {line}" in rep["lines"]
    assert rep["passed"] is False
    assert periodicity.verify_theorem3(24)["brute_ok"] is False


def test_theorem3_suite_computes_the_report_once(monkeypatch):
    from cl8 import periodicity

    calls = []
    k_sequences = periodicity.k_sequences

    def counting(q_max):
        calls.append(q_max)
        return k_sequences(q_max)

    for module in (periodicity, suites):
        monkeypatch.setattr(module, "k_sequences", counting, raising=False)
    assert suites.theorem3_suite(24)["passed"] is True
    assert calls == [24]
    # the report covers every q_max the suite accepts, not only q_max >= 24
    assert periodicity.verify_theorem3(8)["passed"] is True
    assert periodicity.verify_theorem3(23)["passed"] is True
