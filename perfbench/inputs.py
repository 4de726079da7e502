"""Seeded inputs and expected outputs for the three workloads.

Everything here is plain arithmetic written for the benchmark and imports
nothing from cl8, so the expected values are an independent oracle: the
mod-8 ring table, the Radon-Hurwitz numbers r_i, blade square signs and the
CLI output formats. A seed sets only the order of the items, the CLI
arguments and the sampling seeds; the number of items of each kind is fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("corner_sweep", "cert_sweep", "cli_cold")

# the cl8 module a fresh process of each workload imports first
START_MODULE = {
    "corner_sweep": "cl8.classify",
    "cert_sweep": "cl8.tensoriso",
    "cli_cold": "cl8.cli",
}

# items per full-size run; a run that attempts fewer is a failed run
FIXED_COUNT = {
    "corner_sweep": 55,
    "cert_sweep": 495 + 255 + 65 + 75 + 4 + 1 + 4,
    "cli_cold": 103,
}

# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

_RING_OF_TYPE = ("R", "R+R", "R", "C", "H", "H+H", "H", "C")
_RING_DIM = {"R": 1, "R+R": 1, "C": 2, "H": 4, "H+H": 4}
_RH_BASE = (0, 1, 2, 2, 3, 3, 3, 3)
_CLOCK_OCTET = ("R", "C", "H", "H+H", "H", "C", "R", "R+R", "R")


def radon_hurwitz(i: int) -> int:
    return _RH_BASE[i % 8] + 4 * (i // 8)


def classify_record(p: int, q: int) -> dict:
    n, t = p + q, (p - q) % 8
    half = {0: n, 2: n, 4: n - 2, 6: n - 2, 3: n - 1, 7: n - 1, 1: n - 1, 5: n - 3}[t] // 2
    return {"p": p, "q": q, "type": t, "ring": _RING_OF_TYPE[t],
            "simple": t not in (1, 5), "matrix_rank": 1 << half}


def idempotent_k(p: int, q: int) -> int:
    return q - radon_hurwitz(q - p)


def _square_sign(plus: int, minus: int) -> int:
    """Square of a blade built from `plus` and `minus` distinct generators."""
    g = plus + minus
    return -1 if (g * (g - 1) // 2 + minus) % 2 else 1


def karoubi_target(a, b) -> tuple:
    (pa, qa), (pb, qb) = a, b
    if _square_sign(pa, qa) == 1:
        return (pa + pb, qa + qb)
    return (pa + qb, qa + pb)


def even_target(p: int, q: int) -> tuple:
    return (q, p - 1) if p >= 1 and p != q else (p, q - 1)


def phi_psi_case(target, base) -> str:
    (p, q), (p0, q0) = target, base
    added = list(range(p0 + 1, p + 1)) + list(range(p + q0 + 1, p + q + 1))
    squares = tuple(_square_sign(p0 + (g <= p), q0 + (g > p)) for g in added)
    return {(-1, -1): "quaternion", (1, 1): "pseudo"}.get(squares, "anti")


def _frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rep_record(k: int, r: int, with_quotient: bool = True) -> dict:
    l, ld = Fraction(k, 2), Fraction(r, 2)
    out = {"l": _frac(l), "l_dot": _frac(ld),
           "field": "real" if (2 * k - 2 * r) % 8 in (0, 2) else "quaternionic",
           "spin": _frac(abs(l - ld)), "degree": (k + 1) * (r + 1),
           "spinspace_dim": 1 << (k + r)}
    if with_quotient:
        out["quotient"] = False
    return out


def chain_record(l: Fraction, ld: Fraction) -> dict:
    lo, hi = min(l, ld), max(l, ld)
    steps = int(2 * (hi - lo))
    members = [(lo + Fraction(i, 2), hi - Fraction(i, 2)) for i in range(steps + 1)]
    return {
        "start": [_frac(lo), _frac(hi)],
        "members": [rep_record(int(2 * a), int(2 * b), with_quotient=False) for a, b in members],
        "spins_signed": [_frac(lo - hi + j) for j in range(steps + 1)],
        "algebras": [{"k": int(2 * a), "r": int(2 * b), "spinspace_dim": 1 << int(2 * (a + b))}
                     for a, b in members],
    }


def twistor_record(x: list, pi: list) -> dict:
    p0, p1 = complex(pi[0], pi[1]), complex(pi[2], pi[3])
    k00, k01, k11 = x[0] + x[3], complex(x[1], x[2]), x[0] - x[3]
    scale = 1j / math.sqrt(2.0)
    w0 = scale * (k00 * p0 + k01 * p1)
    w1 = scale * (k01 * p0 + k11 * p1)
    norm = 2 * (w0 * p0.conjugate() + w1 * p1.conjugate()).real
    return {"x": x, "pi": [[pi[0], pi[1]], [pi[2], pi[3]]],
            "omega": [[w0.real, w0.imag], [w1.real, w1.imag]],
            "norm": norm, "form_signature": [2, 2]}


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def _sigs(lo: int, hi: int) -> list:
    return [(p, n - p) for n in range(lo, hi + 1) for p in range(n + 1)]


def corner_items(seed: int, max_n: int = 9) -> list:
    items = []
    for p, q in _sigs(0, max_n):
        ring = classify_record(p, q)["ring"]
        k = idempotent_k(p, q)
        items.append({"p": p, "q": q, "ring": ring, "dim": _RING_DIM[ring],
                      "k": k, "ideal_dim": (1 << (p + q)) >> k})
    random.Random(seed).shuffle(items)
    return items


def cert_items(seed: int, max_pair_n: int = 8, max_even_n: int = 10,
               max_base_n: int = 8, max_m: int = 4, samples: int = 100) -> list:
    rng = random.Random(seed)
    sigs = _sigs(0, max_pair_n)
    pairs = [(a, b) for a in sigs for b in sigs if sum(a) + sum(b) <= max_pair_n]
    items = []
    for a, b in pairs:
        n = sum(a) + sum(b)
        items.append({"kind": "graded", "args": [a, b],
                      "target": [a[0] + b[0], a[1] + b[1]], "rank": 1 << n})
        if sum(a) % 2 == 0:
            items.append({"kind": "karoubi", "args": [a, b],
                          "target": list(karoubi_target(a, b)), "rank": 1 << n})
    for p, q in _sigs(1, max_even_n):
        items.append({"kind": "even", "args": [p, q],
                      "target": list(even_target(p, q)), "rank": 1 << (p + q - 1)})
    for p0, q0 in _sigs(0, max_base_n):
        if (p0 + q0) % 2:
            continue
        for dp in (2, 1, 0):
            target = (p0 + dp, q0 + 2 - dp)
            items.append({"kind": "phipsi", "args": [target, (p0, q0)],
                          "target": list(target), "rank": 1 << sum(target),
                          "case": phi_psi_case(target, (p0, q0))})
    for m in range(1, max_m + 1):
        items.append({"kind": "complex", "args": [m], "target": [2 * m, 0], "rank": 4 ** m})
    items.append({"kind": "chain24", "args": [],
                  "links": [["even_subalgebra", 32], ["matrix_realization", 32],
                            ["complexified_realization", 16], ["karoubi_product", 16]]})
    for p, q in ((1, 2), (2, 3), (3, 4), (4, 1)):
        items.append({"kind": "block", "args": [p, q], "samples": samples,
                      "seed": rng.randrange(1 << 30)})
    rng.shuffle(items)
    return items


# verify suite name on the command line -> section name in its report
VERIFY_SUITES = {
    "radon": "radon_hurwitz", "theorem3": "theorem3", "cycles": "brauer_wall_cycles",
    "chevalley": "chevalley", "karoubi": "karoubi", "even": "even_subalgebra",
    "phipsi": "phi_psi", "block": "block_matrices", "chain24": "spin24_chain",
    "reps": "representations", "numeric": "numeric_layer",
}


def _cli_call(argv, kind, expect) -> dict:
    return {"argv": [str(a) for a in argv], "kind": kind, "expect": expect}


def cli_items(seed: int, scale: int = 1) -> list:
    """103 CLI calls at scale 1; `scale` divides every per-kind count."""
    rng = random.Random(seed)
    items = []

    def times(n):
        return range(max(1, n // scale))

    for _ in times(8):
        p, q = rng.randrange(13), rng.randrange(13)
        items.append(_cli_call(["classify", p, q, "--format", "json"], "json",
                               classify_record(p, q)))
    for _ in times(4):
        p, q = rng.randrange(13), rng.randrange(13)
        rec = classify_record(p, q)
        shape = "simple" if rec["simple"] else "semisimple"
        line = (f"Cl({p},{q}): type {rec['type']}, ring {rec['ring']}, {shape}, "
                f"matrix rank {rec['matrix_rank']}")
        items.append(_cli_call(["classify", p, q], "text", [line]))
    for _ in times(4):
        pmax, qmax = rng.randint(3, 7), rng.randint(3, 7)
        rows = ["p,q,type,ring,simple,matrix_rank"]
        for p in range(pmax + 1):
            for q in range(qmax + 1):
                r = classify_record(p, q)
                rows.append(",".join(str(r[c]).lower() if c == "simple" else str(r[c])
                                     for c in rows[0].split(",")))
        items.append(_cli_call(["classify", "--pmax", pmax, "--qmax", qmax, "--format", "csv"],
                               "text", rows))
    for _ in times(8):
        n = rng.randint(1, 6)
        p = rng.randint(0, n)
        q = n - p
        k = idempotent_k(p, q)
        items.append(_cli_call(["idempotent", p, q, "--format", "json"], "idempotent",
                               {"p": p, "q": q, "k": k, "group_order": 1 << (k + 1),
                                "ring": classify_record(p, q)["ring"],
                                "ideal_dim": (1 << n) >> k}))
    for _ in times(4):
        cells = [{key: classify_record(p, q)[key] for key in ("p", "q", "type", "ring", "simple")}
                 for p in range(8) for q in range(8)]
        items.append(_cli_call(["chessboard", "--format", "json"], "json",
                               {"order": 1, "size": 8, "cells": cells}))
    for _ in times(2):
        order = rng.randint(1, 2)
        size = 8 ** order
        items.append(_cli_call(["chessboard", "--order", order], "prefix",
                               [f"mod-8 chessboard, order {order}, size {size}x{size}"]))
    for _ in times(4):
        hours = [{"h": h, "from": _CLOCK_OCTET[h - 1], "to": _CLOCK_OCTET[h]} for h in range(1, 9)]
        items.append(_cli_call(["clock", "--format", "json"], "json", {"hours": hours}))
    for _ in times(6):
        r = rng.randrange(6)
        trans = []
        for h in range(1, 9):
            q = 8 * r + h - 1
            trans.append({"h": h, "q_from": q, "q_to": q + 1,
                          "ring_from": classify_record(0, q)["ring"],
                          "ring_to": classify_record(0, q + 1)["ring"]})
        items.append(_cli_call(["cycle", "--r", r, "--format", "json"], "json", trans))
    for _ in times(8):
        k, r = rng.randrange(9), rng.randrange(9)
        items.append(_cli_call(["rep", k, r, "--format", "json"], "json", rep_record(k, r)))
    for _ in times(6):
        l, ld = Fraction(rng.randrange(7), 2), Fraction(rng.randrange(7), 2)
        items.append(_cli_call(["chain", _frac(l), _frac(ld), "--format", "json"], "json",
                               chain_record(l, ld)))
    for _ in times(4):
        order = rng.randint(1, 2)
        bound = 2 * 8 ** (order - 1)
        nodes = []
        for a in range(2 * bound + 1):
            for b in range(2 * bound + 1):
                nodes.append({"l": _frac(Fraction(a, 2)), "l_dot": _frac(Fraction(b, 2)),
                              "field": "real" if (2 * a - 2 * b) % 8 in (0, 2) else "quaternionic"})
        items.append(_cli_call(["block", "--order", order, "--format", "json"], "json",
                               {"order": order, "bound": bound, "nodes": nodes}))
    for name in ("spinor", "qubit"):
        for _ in times(4):
            s = rng.randrange(1 << 20)
            items.append(_cli_call([name, "--seed", s, "--samples", 100, "--format", "json"],
                                   "sampled", {"checked": 100}))
    for _ in times(4):
        x = [round(rng.uniform(-2, 2), 6) for _ in range(4)]
        pi = [round(rng.uniform(-1, 1), 6) for _ in range(4)]
        items.append(_cli_call(["twistor", "--x=" + ",".join(map(str, x)),
                                "--pi=" + ",".join(map(str, pi)), "--format", "json"],
                               "twistor", twistor_record(x, pi)))
    for _ in times(3):
        for suite, section in VERIFY_SUITES.items():
            argv = ["verify", suite]
            if suite in ("block", "numeric"):
                argv += ["--seed", rng.randrange(1 << 20)]
            items.append(_cli_call(argv, "verify", {"section": section}))
    rng.shuffle(items)
    return items


def make_items(workload: str, seed: int, tiny: bool = False) -> list:
    """The input list of one workload; `tiny` gives a seconds-long subset for tests."""
    if workload == "corner_sweep":
        return corner_items(seed, max_n=4 if tiny else 9)
    if workload == "cert_sweep":
        if tiny:
            return cert_items(seed, max_pair_n=3, max_even_n=4, max_base_n=2, max_m=2, samples=5)
        return cert_items(seed)
    if workload == "cli_cold":
        return cli_items(seed, scale=8 if tiny else 1)
    raise ValueError(f"unknown workload {workload!r}")


def digest(items: list) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
