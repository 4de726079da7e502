#!/usr/bin/env python3
"""Sweep the (p, q) grid and dump one classification row per algebra.

Writes CSV to stdout or --output. With --certify, each row is cross-checked
by the brute-force corner computation; the default grid p, q <= 7 takes
a second or two. The grid has the bounds of `cl8 classify` (cl8.cli.
sweep_cells), and --certify also needs pmax + qmax <= cl8.classify.
MAX_IDEMPOTENT_N; a grid outside them is refused before the first row.

Exit codes: 0 every cell agrees with the table, 1 some cell disagrees,
2 a usage or I/O error (one `error:` line on stderr).
"""

import argparse
import sys

from cl8 import cli
from cl8.classify import MAX_IDEMPOTENT_N, algebra_type, division_ring_of, radon_hurwitz


def _sweep(args):
    """The CSV text and the exit code: 1 when a certified corner ring
    disagrees with the table."""
    cells = cli.sweep_cells(args.pmax, args.qmax)
    if args.certify and args.pmax + args.qmax > MAX_IDEMPOTENT_N:
        raise ValueError(f"--certify needs pmax + qmax <= {MAX_IDEMPOTENT_N}, "
                         f"got {args.pmax + args.qmax}")
    columns = cli.CSV_COLUMNS + ["k", "ideal_dim"] + (["corner_ring"] if args.certify else [])
    rows = [",".join(columns)]
    mismatches = 0
    for p, q in cells:
        rec = cli.classify_record(algebra_type(p, q))
        rec["k"] = q - radon_hurwitz(q - p)
        rec["ideal_dim"] = (1 << (p + q)) >> rec["k"]
        if args.certify:
            rec["corner_ring"] = division_ring_of(p, q)[1]
            mismatches += rec["corner_ring"] != rec["ring"]
        rows.append(cli.csv_row(rec, columns))
    if mismatches:
        print(f"{mismatches} cells disagree with the table", file=sys.stderr)
    return "\n".join(rows), 1 if mismatches else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmax", type=int, default=7)
    ap.add_argument("--qmax", type=int, default=7)
    ap.add_argument("--certify", action="store_true",
                    help="also run the exact corner computation per cell")
    ap.add_argument("--output", default=None)
    args = ap.parse_args()
    return cli.run(args, lambda: _sweep(args))


if __name__ == "__main__":
    sys.exit(main())
