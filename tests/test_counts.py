"""Every public count goes through `cl8.table.check_count` before any work.

The public callables are read off the `__all__` lists: each one with a
parameter annotated `int` or `int | None` must refuse `True`, `1.0` and `"1"`
there with a ValueError, and each `MAX_*` bound holds at its limit and
refuses one more with the work behind it stubbed out.
"""

import importlib
import inspect

import pytest

import cl8
from cl8 import algebra, classify, cli, pauli, periodicity, reps, suites, table, tensoriso

MODULES = [importlib.import_module(f"cl8.{name}") for name in cl8.__all__]

# the callables whose int parameters are no count: MV and the mask kernels
EXEMPT = {"cl8.algebra.MV", "cl8.algebra.anticommute_mask", "cl8.algebra.blade_product",
          "cl8.algebra.blade_square", "cl8.linalg.gf2_reduce",
          "cl8.tensoriso.ProductAlgebra.split"}


def _is_record(obj):
    """A NamedTuple record: its constructor is the one Python generated."""
    return issubclass(obj, tuple) and not obj.__new__.__module__.startswith("cl8.")


def _int_params(fn):
    """The parameters of fn annotated `int` or `int | None`."""
    return [name for name, param in inspect.signature(fn).parameters.items()
            if getattr(param.annotation, "__forward_arg__", param.annotation)
            in ("int", "int | None")]


def _public_callables():
    """Qualified name -> callable, for every function, class and public method
    that a module lists in its `__all__` and defines itself."""
    found = {}
    for mod in MODULES:
        for name in mod.__all__:
            obj, key = getattr(mod, name), f"{mod.__name__}.{name}"
            if (not callable(obj) or getattr(obj, "__module__", None) != mod.__name__
                    or key in EXEMPT or isinstance(obj, type) and _is_record(obj)):
                continue
            found[key] = obj
            if isinstance(obj, type):
                found.update((f"{key}.{attr}", fn) for attr, fn in vars(obj).items()
                             if inspect.isfunction(fn) and not attr.startswith("_"))
    return {key: fn for key, fn in found.items() if key not in EXEMPT and _int_params(fn)}


BOARD = periodicity.Chessboard(1)
FORM = tensoriso.BlockForm(1, 2)

# qualified name -> (callable, keyword arguments of a valid call)
VALID_CALLS = {
    "cl8.algebra.Signature": (algebra.Signature, {"p": 1, "q": 3}),
    "cl8.table.algebra_type": (table.algebra_type, {"p": 1, "q": 3}),
    "cl8.table.radon_hurwitz": (table.radon_hurwitz, {"i": 3}),
    "cl8.classify.primitive_idempotent": (classify.primitive_idempotent, {"p": 1, "q": 3}),
    "cl8.classify.division_ring_of": (classify.division_ring_of, {"p": 1, "q": 3}),
    "cl8.classify.minimal_left_ideal": (classify.minimal_left_ideal, {"p": 1, "q": 3}),
    "cl8.cli.sweep_cells": (cli.sweep_cells, {"pmax": 1, "qmax": 2}),
    "cl8.pauli.bloch_roundtrip_check": (pauli.bloch_roundtrip_check, {"samples": 2, "seed": 0}),
    "cl8.pauli.null_outer_defects": (pauli.null_outer_defects, {"rng": 0, "samples": 2}),
    "cl8.pauli.sl2c_double_cover_check": (pauli.sl2c_double_cover_check,
                                          {"samples": 2, "seed": 0}),
    "cl8.periodicity.Chessboard": (periodicity.Chessboard, {"order": 1}),
    "cl8.periodicity.Chessboard.record": (BOARD.record, {"p": 0, "q": 1}),
    "cl8.periodicity.Chessboard.cell": (BOARD.cell, {"p": 0, "q": 1}),
    "cl8.periodicity.bw_cycle": (periodicity.bw_cycle, {"r": 0}),
    "cl8.periodicity.k": (periodicity.k, {"q": 3}),
    "cl8.periodicity.k_sequences": (periodicity.k_sequences, {"q_max": 8}),
    "cl8.periodicity.search_confirms_k": (periodicity.search_confirms_k, {"q": 3}),
    "cl8.periodicity.verify_theorem3": (periodicity.verify_theorem3, {"q_max": 8}),
    "cl8.reps.bw_rep_walk": (reps.bw_rep_walk, {"cycles": 1}),
    "cl8.reps.quotient_structure": (reps.quotient_structure, {"q": 3}),
    "cl8.reps.rep_label": (reps.rep_label, {"k": 1, "r": 2, "q": 3}),
    "cl8.reps.representation_block": (reps.representation_block, {"order": 1}),
    "cl8.suites.block_suite": (suites.block_suite, {"seed": 0}),
    "cl8.suites.numeric_suite": (suites.numeric_suite, {"seed": 0}),
    "cl8.suites.run_all": (suites.run_all, {"seed": 0, "qmax": 8}),
    "cl8.suites.theorem3_suite": (suites.theorem3_suite, {"qmax": 8}),
    "cl8.tensoriso.BlockForm": (tensoriso.BlockForm, {"p": 1, "q": 2}),
    "cl8.tensoriso.BlockForm.sample_homomorphism": (FORM.sample_homomorphism,
                                                    {"samples": 2, "seed": 0}),
    "cl8.tensoriso.complex_tensor_check": (tensoriso.complex_tensor_check, {"m": 1}),
    "cl8.tensoriso.even_iso_check": (tensoriso.even_iso_check, {"p": 1, "q": 3}),
    "cl8.tensoriso.even_iso_target": (tensoriso.even_iso_target, {"p": 1, "q": 3}),
}


def test_every_public_int_parameter_has_a_valid_call():
    # a new entry point with an int parameter must join VALID_CALLS, and so
    # the refusal test below
    assert set(_public_callables()) == set(VALID_CALLS)
    for key, fn in _public_callables().items():
        assert set(_int_params(fn)) <= set(VALID_CALLS[key][1]), key


@pytest.fixture
def no_suites(monkeypatch):
    # run_all's valid call would run every suite; its checks come first
    monkeypatch.setattr(suites, "SUITES", {})


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("key, param", [(key, param) for key, (fn, _) in VALID_CALLS.items()
                                        for param in _int_params(fn)])
def test_each_int_parameter_refuses_a_bool_float_or_string(no_suites, key, param, bad):
    fn, kwargs = VALID_CALLS[key]
    fn(**kwargs)  # valid, and fills any cache a bad call could hit: True == 1 == 1.0
    with pytest.raises(ValueError):
        fn(**{**kwargs, param: bad})


class Reached(Exception):
    """The work behind a bound was reached."""


class Work:
    """Stands in for the work behind a bound, called or indexed."""

    def __call__(self, *args, **kwargs):
        raise Reached

    __getitem__ = __call__


LIMITS = {name: getattr(mod, name) for mod in MODULES for name in mod.__all__
          if name.startswith("MAX_")}

# (id, bound, call(over) at the limit (over = 0) or past it (over = 1), the
# (module, name) of the work behind the bound or None)
BOUNDS = [
    ("algebra_type", "MAX_CLASSIFY_N",
     lambda over: table.algebra_type(LIMITS["MAX_CLASSIFY_N"] + over, 0),
     (table, "_RING_OF_TYPE")),
    ("pauli", "MAX_SAMPLES",
     lambda over: pauli.bloch_roundtrip_check(samples=LIMITS["MAX_SAMPLES"] + over),
     (pauli, "_state_sample")),
    ("sample_homomorphism", "MAX_SAMPLES",
     lambda over: FORM.sample_homomorphism(LIMITS["MAX_SAMPLES"] + over),
     (tensoriso, "_product_terms")),
    ("primitive_idempotent", "MAX_IDEMPOTENT_N",
     lambda over: classify.primitive_idempotent(0, LIMITS["MAX_IDEMPOTENT_N"] + over),
     (classify, "_blade_order")),
    ("Chessboard", "MAX_BOARD_ORDER",
     lambda over: periodicity.Chessboard(LIMITS["MAX_BOARD_ORDER"] + over), None),
    ("k_sequences", "MAX_QMAX",
     lambda over: periodicity.k_sequences(LIMITS["MAX_QMAX"] + over), (periodicity, "k")),
    ("run_all", "MAX_QMAX",
     lambda over: suites.run_all(qmax=LIMITS["MAX_QMAX"] + over),
     (suites, "classification_suite")),
    ("spin_chain", "MAX_CHAIN_SUM",
     lambda over: reps.spin_chain(0, LIMITS["MAX_CHAIN_SUM"] + over), (reps, "rep_label")),
    ("rep_label", "MAX_REP_SUM",
     lambda over: reps.rep_label(LIMITS["MAX_REP_SUM"] + over, 0), (reps, "rep_field")),
    ("quotient_structure", "MAX_QUOTIENT_Q",
     lambda over: reps.quotient_structure(LIMITS["MAX_QUOTIENT_Q"] + over),
     (algebra, "omega_square")),
    ("representation_block", "MAX_BLOCK_ORDER",
     lambda over: reps.representation_block(LIMITS["MAX_BLOCK_ORDER"] + over), (reps, "rep_field")),
    ("graded_tensor_check", "MAX_WITNESS_N",
     lambda over: tensoriso.graded_tensor_check((LIMITS["MAX_WITNESS_N"] + over, 0), (0, 0)),
     (tensoriso, "_product_witness")),
    # 512 x 512 cells, then 5 x 52,429
    ("sweep_cells", "MAX_SWEEP_CELLS",
     lambda over: cli.sweep_cells(*((4, 52428) if over else (511, 511))), None),
    # no grid sums to 2^28 + 1: 2 x 16,384 sums to 2^28, and 87 x 2,442 to
    # 2^28 + 173, the least sum past it within the other bounds
    ("sweep_n_sum", "MAX_SWEEP_N_SUM",
     lambda over: cli.sweep_cells(*((86, 2441) if over else (1, 16383))), None),
]


def test_every_bound_is_held():
    assert {bound for _, bound, _, _ in BOUNDS} == set(LIMITS)


@pytest.mark.parametrize("bound, call, work", [row[1:] for row in BOUNDS],
                         ids=[row[0] for row in BOUNDS])
def test_each_bound_holds_at_its_limit_and_refuses_one_more(monkeypatch, bound, call, work):
    if work is not None:
        monkeypatch.setattr(*work, Work())
    try:
        call(0)
    except Reached:
        pass
    with pytest.raises(ValueError, match=f" exceeds {bound} = {LIMITS[bound]}$"):
        call(1)
