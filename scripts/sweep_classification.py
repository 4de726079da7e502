#!/usr/bin/env python3
"""Sweep the (p, q) grid and dump one classification row per algebra.

Writes CSV to stdout or --output. With --certify, each row is cross-checked
by the brute-force corner computation; the default grid p, q <= 7 takes
a second or two. A negative bound, or --certify with pmax + qmax above
cl8.classify.MAX_IDEMPOTENT_N, is refused before the first row.

Exit codes: 0 every cell agrees with the table, 1 some cell disagrees,
2 a usage or I/O error (one `error:` line on stderr).
"""

import argparse
import sys

from cl8.classify import (
    MAX_IDEMPOTENT_N,
    algebra_type,
    division_ring_of,
    primitive_idempotent,
    radon_hurwitz,
)


def _sweep(args, out) -> int:
    """Write the header and one row per cell to out; return the number of
    certified cells that disagree with the table."""
    columns = ["p", "q", "type", "ring", "simple", "matrix_rank", "k", "ideal_dim"]
    if args.certify:
        columns.append("corner_ring")
    print(",".join(columns), file=out)
    mismatches = 0
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            at = algebra_type(p, q)
            k = q - radon_hurwitz(q - p)
            ideal = (1 << (p + q)) >> k
            row = [p, q, at.type_mod8, at.ring, str(at.simple).lower(), at.matrix_rank,
                   k, ideal]
            if args.certify:
                _, ring = division_ring_of(p, q)
                row.append(ring)
                if ring != at.ring or primitive_idempotent(p, q).k != k:
                    mismatches += 1
            print(",".join(str(v) for v in row), file=out)
    return mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmax", type=int, default=7)
    ap.add_argument("--qmax", type=int, default=7)
    ap.add_argument("--certify", action="store_true",
                    help="also run the exact corner computation per cell")
    ap.add_argument("--output", default=None)
    args = ap.parse_args()

    if args.pmax < 0 or args.qmax < 0:
        print("error: --pmax and --qmax must be at least 0", file=sys.stderr)
        return 2
    if args.certify and args.pmax + args.qmax > MAX_IDEMPOTENT_N:
        print(f"error: --certify needs pmax + qmax <= {MAX_IDEMPOTENT_N}, "
              f"got {args.pmax + args.qmax}", file=sys.stderr)
        return 2
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                mismatches = _sweep(args, out)
        else:
            mismatches = _sweep(args, sys.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if mismatches:
        print(f"{mismatches} cells disagree with the table", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
