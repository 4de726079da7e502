"""Verification suites: every headline claim re-checked as a pass/fail line.

Each suite returns {"name", "passed", "lines"}; render_report turns a list
of suites into a stable text report. Nothing here computes new mathematics,
it only drives the library and formats outcomes, so a FAIL line always
points at a genuine counterexample or at a check that had nothing to check.
A suite with no checks fails, and so does a sweep over zero cases.

Each suite imports the library modules it drives when it runs, so
importing this module (as `cl8 verify` does when it parses a suite name)
loads no library code, nor `fractions`: `classification` loads `classify`;
`radon` loads `table` alone; `cycles` loads `periodicity` and `table`, and
`theorem3` those and, for its brute-force line, `classify`; `chevalley`,
`karoubi`, `even`, `phipsi`, `block` and `chain24` load `tensoriso`; `reps`
loads `reps` and `table`; `numeric` loads `pauli`. A function-local import
looks its names up at call time, so a rebound library function (traced or
stubbed) takes effect here too.
"""

from __future__ import annotations

import math

__all__ = [
    "SUITES", "block_suite", "chain24_suite", "chevalley_suite", "classification_suite",
    "cycles_suite", "even_iso_suite", "karoubi_suite", "numeric_suite", "phi_psi_suite",
    "radon_suite", "render_report", "reps_suite", "run_all", "theorem3_suite",
]


def _line(ok: bool, text: str) -> str:
    return f"{'PASS' if ok else 'FAIL'} {text}"


def _suite(name: str, checks: list) -> dict:
    if not checks:
        checks = [(False, "nothing checked")]
    return {
        "name": name,
        "passed": all(ok for ok, _ in checks),
        "lines": [_line(ok, text) for ok, text in checks],
    }


def classification_suite(max_n: int = 7) -> dict:
    from .classify import algebra_type, division_ring_of

    checks = []
    for p in range(max_n + 1):
        for q in range(max_n + 1 - p):
            dim, ring = division_ring_of(p, q)
            want = algebra_type(p, q).ring
            ok = ring == want
            checks.append((ok, f"Cl({p},{q}) corner ring {ring} (table says {want})"))
    return _suite("classification", checks)


def radon_suite() -> dict:
    from .table import radon_hurwitz

    base = [radon_hurwitz(i) for i in range(8)]
    checks = [(base == [0, 1, 2, 2, 3, 3, 3, 3], f"base row r_0..r_7 = {base}")]
    shift = all(radon_hurwitz(i + 8) == radon_hurwitz(i) + 4 for i in range(-16, 65))
    checks.append((shift, "shift law r_(i+8) = r_i + 4 for -16 <= i <= 64"))
    return _suite("radon_hurwitz", checks)


def theorem3_suite(qmax: int = 24) -> dict:
    from .periodicity import verify_theorem3

    rep = verify_theorem3(qmax)
    checks = [
        (ok, f"k-sequence cycle {cycle}: {','.join(map(str, seq))}")
        for cycle, (seq, ok) in enumerate(zip(rep["sequences"], rep["cycles_ok"]), 1)
    ]
    checks.append((rep["shift_ok"],
                   f"shift law k(0,q+8) = k(0,q) + 4 for 0 <= q <= {qmax - 8}"))
    checks.append((rep["brute_ok"],
                   f"idempotent search matches arithmetic k for q <= {rep['brute_max_q']}"))
    if qmax >= 24:
        checks.append((rep["passed"], f"full mod-4 periodicity report up to q = {qmax}"))
    return _suite("theorem3", checks)


def cycles_suite() -> dict:
    from .periodicity import CLOCK_OCTET, Chessboard, bw_cycle, fractal_dimension

    checks = []
    for r in range(8):
        cyc = bw_cycle(r)
        rings = [cyc[0].ring_from] + [t.ring_to for t in cyc]
        checks.append((tuple(rings) == CLOCK_OCTET, f"cycle r={r}: {' -> '.join(rings)}"))
    fd = fractal_dimension()
    checks.append((abs(fd - math.log(63) / math.log(8)) < 1e-15,
                   f"fractal dimension = {fd:.6f}"))
    board = Chessboard(2)
    similar = all(
        board.cell(p + 8, q + 8) == board.cell(p, q)
        for p in range(8) for q in range(8)
    )
    checks.append((similar, "order-2 board repeats the order-1 block on the diagonal"))
    return _suite("brauer_wall_cycles", checks)


def chevalley_suite(max_n: int = 2) -> dict:
    from .tensoriso import graded_tensor_check

    sigs = [(p, q) for p in range(max_n + 1) for q in range(max_n + 1 - p)]
    checks = []
    bad = []
    for a in sigs:
        for b in sigs:
            rep = graded_tensor_check(a, b)
            if not rep.certified:
                bad.append((a, b))
    checks.append((bool(sigs) and not bad,
                   f"graded tensor certificates for all {len(sigs) ** 2} pairs with "
                   f"p+q <= {max_n} on both factors" + (f"; failures {bad}" if bad else "")))
    named = graded_tensor_check((1, 1), (2, 0))
    checks.append((named.certified and named.target_sig == (3, 1),
                   "graded witness Cl(1,1) x Cl(2,0) -> Cl(3,1) at rank 16"))
    return _suite("chevalley", checks)


def karoubi_suite() -> dict:
    from .tensoriso import karoubi_check

    cases = [
        ((1, 1), (0, 2), (1, 3), "positive"),
        ((1, 1), (2, 0), (3, 1), "positive"),
        ((0, 2), (1, 1), (1, 3), "negative"),
    ]
    checks = []
    for a, b, want, mode in cases:
        rep = karoubi_check(a, b)
        ok = rep.certified and rep.target_sig == want and rep.construction == mode
        checks.append((ok, f"Cl{a} x Cl{b} -> Cl{want} ({mode} twist)"))
    return _suite("karoubi", checks)


def even_iso_suite(max_n: int = 6) -> dict:
    from .tensoriso import even_iso_check, even_iso_target

    checks = []
    for source, target in [((1, 3), (3, 0)), ((4, 1), (1, 3)), ((2, 4), (4, 1))]:
        rep = even_iso_check(*source)
        ok = rep.certified and rep.target_sig == target
        checks.append((ok, f"even part of Cl{source} -> Cl{target}"))
    bad = []
    count = 0
    for p in range(max_n + 1):
        for q in range(max_n + 1 - p):
            if p + q < 1:
                continue
            count += 1
            rep = even_iso_check(p, q)
            if not (rep.certified and rep.target_sig == even_iso_target(p, q)):
                bad.append((p, q))
    checks.append((count > 0 and not bad,
                   f"sweep of {count} even-subalgebra witnesses for p+q <= {max_n}"))
    return _suite("even_subalgebra", checks)


def phi_psi_suite() -> dict:
    from .tensoriso import phi_psi_factorization

    cases = [
        ((1, 3), (1, 1), "quaternion"),
        ((2, 2), (1, 1), "anti"),
        ((2, 2), (2, 0), "pseudo"),
        ((0, 4), (0, 2), "pseudo"),
        ((0, 2), (0, 0), "quaternion"),
        ((2, 0), (0, 0), "pseudo"),
        ((3, 1), (1, 1), "pseudo"),
    ]
    checks = []
    for target, base, want in cases:
        rep = phi_psi_factorization(target, base)
        ok = rep.passed and rep.case == want
        checks.append((ok, f"Cl{target} over Cl{base}: case {rep.case}, rank {rep.rank}"))
    return _suite("phi_psi", checks)


def block_suite(seed: int = 0, samples: int = 100) -> dict:
    from .tensoriso import BlockForm

    checks = []
    form = BlockForm(1, 2)
    rep = form.sample_homomorphism(samples=samples, seed=seed)
    checks.append((rep["passed"],
                   f"Cl(1,3) block form: {rep['checked']} sampled products, "
                   f"{rep['failures']} failures"))
    form2 = BlockForm(2, 3)
    rep2 = form2.sample_homomorphism(samples=max(10, samples // 4), seed=seed + 1)
    checks.append((rep2["passed"],
                   f"Cl(2,4) block form: {rep2['checked']} sampled products, "
                   f"{rep2['failures']} failures"))
    return _suite("block_matrices", checks)


def chain24_suite() -> dict:
    from .tensoriso import spin24_chain

    rep = spin24_chain()
    checks = [(link.certified, f"{link.name}: rank {link.rank}") for link in rep.links]
    checks.append((rep.ok, "all links of the conformal chain certified"))
    return _suite("spin24_chain", checks)


def reps_suite() -> dict:
    from fractions import Fraction

    from .reps import bw_rep_walk, quotient_structure, rep_field, rep_label
    from .table import algebra_type

    checks = []
    degree_ok = all(
        rep_label(k, r).degree == (k + 1) * (r + 1)
        for k in range(9) for r in range(9)
    )
    checks.append((degree_ok, "degree formula (k+1)(r+1) for k,r <= 8"))
    field_ok = True
    for il in range(9):
        for ild in range(9):
            ring = algebra_type(2 * il, 2 * ild).ring
            want = "real" if ring in ("R", "R+R") else "quaternionic"
            if rep_field(Fraction(il, 2), Fraction(ild, 2)) != want:
                field_ok = False
    checks.append((field_ok, "field tags match the algebra ring on the 9x9 corner grid"))
    walk = bw_rep_walk(8)
    walk_ok = len(walk) == 64
    for e in walk:
        if e.q % 2 == 0:
            walk_ok = walk_ok and not e.quotient and e.l == 0 and e.l_dot == Fraction(e.q, 4)
        else:
            prev = walk[e.q - 1]
            walk_ok = walk_ok and e.quotient and (e.l, e.l_dot, e.field) == (
                prev.l, prev.l_dot, prev.field)
    checks.append((walk_ok, "mod-8 walk emits 64 labels alternating fresh/quotient"))
    for q in (1, 3, 5, 7):
        rep = quotient_structure(q)
        ok = rep["passed"] and rep["kernel_dim"] == 1 << (q - 1)
        checks.append((ok, f"q={q}: kernel and quotient dimensions {rep['kernel_dim']}"))
    return _suite("representations", checks)


def numeric_suite(seed: int = 0) -> dict:
    from . import pauli

    checks = []
    cover = pauli.sl2c_double_cover_check(samples=100, seed=seed)
    checks.append((cover["passed"],
                   f"double cover on 100 SL(2,Z[i]) samples, max drift {cover['max_norm_drift']}"))
    max_null, max_round = pauli._null_and_bloch_defects(seed + 1, 200)
    checks.append((max_null == 0, f"null outer products on 200 samples, max defect {max_null}"))
    checks.append((max_round == 0, f"Bloch round trips on 200 samples, max defect {max_round}"))
    return _suite("numeric_layer", checks)


# CLI suite name -> builder(seed, qmax), in report order. The builders look
# the suite functions up by name at call time, so rebinding a module-level
# suite function (to trace or stub it) takes effect here too.
SUITES = {
    "classification": lambda seed, qmax: classification_suite(),
    "radon": lambda seed, qmax: radon_suite(),
    "theorem3": lambda seed, qmax: theorem3_suite(qmax=qmax),
    "cycles": lambda seed, qmax: cycles_suite(),
    "chevalley": lambda seed, qmax: chevalley_suite(),
    "karoubi": lambda seed, qmax: karoubi_suite(),
    "even": lambda seed, qmax: even_iso_suite(),
    "phipsi": lambda seed, qmax: phi_psi_suite(),
    "block": lambda seed, qmax: block_suite(seed=seed),
    "chain24": lambda seed, qmax: chain24_suite(),
    "reps": lambda seed, qmax: reps_suite(),
    "numeric": lambda seed, qmax: numeric_suite(seed=seed),
}


def run_all(seed: int = 0, qmax: int = 24) -> list:
    return [build(seed, qmax) for build in SUITES.values()]


def render_report(results) -> str:
    out = ["verification report", "==================="]
    passed = 0
    for suite in results:
        out.append("")
        out.append(f"[{suite['name']}]")
        out.extend(suite["lines"])
        if suite["passed"]:
            passed += 1
    out.append("")
    out.append(f"summary: {passed}/{len(results)} suites passed")
    return "\n".join(out)
