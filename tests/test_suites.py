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

