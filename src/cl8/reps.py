"""Label catalogue for the double-valued representations tau_{l,l_dot}.

Everything here is bookkeeping over (l, l_dot) pairs: spin, degree, the
real/quaternionic field tag, quotient flags along the mod-8 walk, spin
chains, and the block grids. No representation matrices are constructed;
only `quotient_structure` computes in the algebra, and it imports
`algebra` when it runs, so the label commands do not load it. It computes in
ints: the center split off one phased blade's mask, and its kernel ranked by
disjoint blade-pair supports, with no elimination.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "MAX_BLOCK_ORDER", "MAX_CHAIN_SUM", "MAX_QUOTIENT_Q", "MAX_REP_SUM", "RepBlock",
    "RepLabel", "SpinChain", "block_json", "block_text", "bw_rep_walk", "chain_json",
    "chain_text", "label_json_dict", "label_token", "quotient_structure", "rep_field",
    "rep_label", "representation_block", "spin_chain",
]


class RepLabel(NamedTuple):
    l: Fraction
    l_dot: Fraction
    field: str
    quotient: bool
    spin: Fraction
    degree: int
    spinspace_dim: int
    q: int | None = None


class SpinChain(NamedTuple):
    start: tuple
    members: list
    spins_signed: list


def _echo(value) -> str:
    """value as text, cut after its first 20 characters."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def _refuse_non_int(name: str, value) -> None:
    """Refuse a bool, a float or any other non-int count before any work."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")


def _half_integer(value, name):
    """value, or the rational its text names, as a multiple of 1/2. Text is
    refused before Fraction would expand an exponent or meet a digit run over
    int's parse limit (sys.get_int_max_str_digits); refusals echo _echo(value)."""
    if isinstance(value, str):
        run = max(map(len, re.findall(r"\d+", value.replace("_", ""))), default=0)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < run:
            raise ValueError(f"{name} has {run} digits in a row, over the {limit}-digit "
                             f"limit of int parsing, got {name} = {_echo(value)}")
    try:
        if isinstance(value, str) and "e" in value.lower():
            raise ValueError("exponent notation")
        f = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"l and l_dot must be rationals like 3 or 1/2, "
                         f"got {name} = {_echo(value)}") from None
    if (2 * f).denominator != 1:
        raise ValueError(f"{name} must be a half-integer, got {_echo(value)}")
    return f


def rep_field(l, l_dot) -> str:
    """Field tag of tau_{l,l_dot}: the division ring of the algebra with
    4l plus and 4l_dot minus generators, which is never complex."""
    t = int(4 * _half_integer(l, "l") - 4 * _half_integer(l_dot, "l_dot")) % 8
    return "real" if t in (0, 2) else "quaternionic"


# the largest l + l_dot a spin chain starts from, enough for every node of
# the largest block; a chain has at most 2(l + l_dot) + 1 members, each with
# spinspace dimension 2^(2(l + l_dot))
MAX_CHAIN_SUM = 256


# the largest k + r of a label, checked before 2^(k + r) is built: every
# member of a chain within MAX_CHAIN_SUM has k + r = 2(l + l_dot)
MAX_REP_SUM = 2 * MAX_CHAIN_SUM


def rep_label(k: int, r: int, quotient: bool = False, q: int | None = None) -> RepLabel:
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (k, r)):
        raise ValueError(f"k and r must be ints, got k = {_echo(k)}, r = {_echo(r)}")
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    if k + r > MAX_REP_SUM:
        raise ValueError(f"k + r = {k + r} exceeds MAX_REP_SUM = {MAX_REP_SUM}")
    l = Fraction(k, 2)
    ld = Fraction(r, 2)
    return RepLabel(
        l=l,
        l_dot=ld,
        field=rep_field(l, ld),
        quotient=quotient,
        spin=abs(l - ld),
        degree=(k + 1) * (r + 1),
        spinspace_dim=1 << (k + r),
        q=q,
    )


def bw_rep_walk(cycles: int) -> list:
    """One label per step of the mod-8 walk on the minus-definite column.

    Even steps give a fresh tau with l_dot = q/4; odd steps repeat the
    previous label with the quotient flag raised.
    """
    _refuse_non_int("cycles", cycles)
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    walk = []
    for q in range(8 * cycles):
        if q % 2 == 0:
            walk.append(rep_label(0, q // 2, quotient=False, q=q))
        else:
            walk.append(walk[-1]._replace(quotient=True, q=q))
    return walk


# the largest q accepted by quotient_structure, checked before Cl(0, q) is
# built: one full mod-8 period, the range of classify.MAX_IDEMPOTENT_N
MAX_QUOTIENT_Q = 15


def quotient_structure(q: int) -> dict:
    """Split the odd-step algebra through its central idempotents (1 +- alpha)/2.

    alpha = i^c e_full, the phased blade (full, c), is the volume element
    normalized to square +1: c = 0 when omega^2 = +1, and c = 1 when omega^2 = -1
    (q = 1 mod 4), the i of the one-generator split R + iR. `_splits_center` reads
    the split off alpha's mask and phase: central, and (-1)^c Q(full) = 1. The
    kernel of the fold-down map is spanned by b - alpha*b over all blades b and
    must have half the total dimension. alpha*e_b = c_b e_(b^full),
    c_b = i^c sign[b], so b's vector lies on the pair {b, b^full}; pairs have
    disjoint supports, and a pair's two vectors are proportional exactly when
    c_b c_(b^full) = 1, that is when omega^2 sign[b] sign[b^full] = 1, as
    i^(2c) = omega^2.
    """
    if q % 2 == 0:
        raise ValueError("q must be odd")
    if q > MAX_QUOTIENT_Q:
        raise ValueError(f"q = {q} exceeds MAX_QUOTIENT_Q = {MAX_QUOTIENT_Q}")
    from .algebra import Signature, _splits_center, blade_product, omega_square

    sig = Signature(0, q, complexified=True)
    full = (1 << q) - 1
    square = omega_square(sig)
    split_ok = _splits_center(full, 0 if square == 1 else 1, sig)
    sign = [blade_product(full, b, sig)[0] for b in range(1 << q)]
    kernel_dim = sum(1 if square * sign[b] * sign[b ^ full] == 1 else 2
                     for b in range(1 << (q - 1)))
    return {
        "kernel_dim": kernel_dim,
        "quotient_dim": (1 << q) - kernel_dim,
        "passed": split_ok and kernel_dim == 1 << (q - 1),
    }


def spin_chain(l, l_dot) -> SpinChain:
    """Ladder of labels from tau_{l,l_dot} to tau_{l_dot,l} in half steps."""
    lo, hi = sorted((_half_integer(l, "l"), _half_integer(l_dot, "l_dot")))
    if lo + hi > MAX_CHAIN_SUM:
        raise ValueError(f"l + l_dot = {_echo(l)} + {_echo(l_dot)} "
                         f"exceeds MAX_CHAIN_SUM = {MAX_CHAIN_SUM}")
    total = int(2 * (lo + hi))  # k + r of every member; l rises as l_dot falls
    members = [rep_label(k, total - k) for k in range(int(2 * lo), int(2 * hi) + 1)]
    spins = [lo - hi + i for i in range(len(members))]
    return SpinChain(start=(lo, hi), members=members, spins_signed=spins)


class RepBlock:
    """Grid of field tags over 0 <= l, l_dot <= bound in half steps."""

    def __init__(self, order, bound, nodes):
        self.order = order
        self.bound = bound
        self.nodes = nodes


# the largest block order built: the grid has (4 * 8^(order-1) + 1)^2 nodes,
# 66,049 at order 3 and about 4.2 million at order 4
MAX_BLOCK_ORDER = 3


def representation_block(order: int) -> RepBlock:
    _refuse_non_int("order", order)
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_BLOCK_ORDER:
        raise ValueError(f"order {order} exceeds MAX_BLOCK_ORDER = {MAX_BLOCK_ORDER}")
    bound = 2 * 8 ** (order - 1)
    half = Fraction(1, 2)
    nodes = {}
    steps = 2 * bound + 1
    for a in range(steps):
        for b in range(steps):
            l, ld = a * half, b * half
            nodes[(l, ld)] = rep_field(l, ld)
    return RepBlock(order=order, bound=bound, nodes=nodes)


# --------------------------------------------------------------------------
# renderers
# --------------------------------------------------------------------------


def label_token(label: RepLabel) -> str:
    tag = "r" if label.field == "real" else "q"
    eps = "^e " if label.quotient else ""
    return f"{eps}tau[{tag}]({str(label.l)},{str(label.l_dot)})"


def label_json_dict(label: RepLabel, include_quotient: bool = True) -> dict:
    out = {
        "l": str(label.l),
        "l_dot": str(label.l_dot),
        "field": label.field,
        "spin": str(label.spin),
        "degree": label.degree,
        "spinspace_dim": label.spinspace_dim,
    }
    if include_quotient:
        out["quotient"] = label.quotient
    return out


def block_text(block: RepBlock) -> str:
    """Letter grid, l increasing down, l_dot increasing right."""
    half = Fraction(1, 2)
    steps = 2 * block.bound + 1
    header = "l\\ld " + " ".join(f"{str(b * half):>4}" for b in range(steps))
    lines = [header]
    for a in range(steps):
        l = a * half
        row = [f"{str(l):>4} "]
        for b in range(steps):
            tag = block.nodes[(l, b * half)]
            row.append(f"{'r' if tag == 'real' else 'q':>4}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def chain_text(chain: SpinChain) -> str:
    arrow = " -> ".join(label_token(m) for m in chain.members)
    spins = ", ".join(str(s) for s in chain.spins_signed)
    return f"{arrow}\nspins: {spins}"


def chain_json(chain: SpinChain) -> str:
    return json.dumps({
        "start": [str(chain.start[0]), str(chain.start[1])],
        "members": [label_json_dict(m, include_quotient=False) for m in chain.members],
        "spins_signed": [str(s) for s in chain.spins_signed],
        "algebras": [
            {"k": int(2 * m.l), "r": int(2 * m.l_dot), "spinspace_dim": m.spinspace_dim}
            for m in chain.members
        ],
    })


def block_json(block: RepBlock) -> str:
    nodes = [
        {"l": str(l), "l_dot": str(ld), "field": tag}
        for (l, ld), tag in block.nodes.items()
    ]
    return json.dumps({"order": block.order, "bound": block.bound, "nodes": nodes},
                      sort_keys=True)
