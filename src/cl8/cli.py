"""Command-line front end.

Subcommands map one-to-one onto library operations; this module only parses
arguments and formats what the library returns. There is one dispatch:
`_add_common` records each subcommand's handler as `args.handler`. A handler
takes args alone, refuses an input by raising ValueError, and otherwise
returns (text, exit code) to `run`, the one writer, which prints the text
once to stdout or `--output` and turns a ValueError or OSError into one
`error:` line; `scripts/sweep_classification.py` returns through it too,
with the same sweep bounds (`sweep_cells`). `verify` checks its suite
name against the registry `suites.SUITES` at parse time. `--seed` exists
only on the sampled commands (`verify`, `spinor`, `qubit`) and `--samples`
only on `spinor` and `qubit`. Output is deterministic for a fixed seed so
reports can be snapshot-compared byte for byte. Every default is declared
once, in `build_parser`; `--config FILE` turns its key=value lines into
flags placed before the user's and parses again, so the same checks apply
and flags win. Exit codes: 0 success, 1 a verification suite found a
counterexample, 2 a usage, input or I/O error; an unknown suite name and a
negative `--seed` are refused at parse time.

A command loads only the library module it runs, imported by its handler:
`classify` loads `table` alone, the mod-8 table with no algebra and no
`fractions`; `idempotent` loads `classify` (with `algebra`, `linalg` and
`table`); `chessboard`, `clock` and `cycle` load `periodicity`; `rep`,
`chain` and `block` load `reps`; `verify` loads `suites` and what its suite
uses; `spinor`, `twistor`, `qubit` and, through its suite, `verify numeric`
load `pauli`, which needs nothing outside the standard library. Each of
these modules loads `table`, for its count check. Importing this module
loads no other cl8 module, and neither `fractions` nor `json`: `verify`
imports `suites` when it parses a suite name, and `json` is imported when a
command prints JSON.
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = [
    "CSV_COLUMNS", "MAX_SWEEP_CELLS", "MAX_SWEEP_N_SUM", "build_parser", "classify_record",
    "csv_row", "main", "run", "sweep_cells",
]

_CONFIG_KEYS = ("pmax", "qmax", "order", "seed", "samples", "r", "format", "output")

#: Digits of the largest matrix_rank algebra_type returns, 2^(MAX_CLASSIFY_N / 2),
#: written out so that commands which never classify need not import the table.
_RANK_DIGITS = 9865


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _suite(name: str) -> str:
    """A suite name from `suites.SUITES`, or `all`; refused in argparse's
    own words for a value outside `choices`."""
    from .suites import SUITES

    choices = sorted(SUITES) + ["all"]
    if name not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, choices))})")
    return name


def _add_common(sp, handler, *, formats=("text", "json"), seed=False, samples=False):
    sp.set_defaults(handler=handler)
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--output", default=None, help="write to this file instead of stdout")
    sp.add_argument("--config", default=None, help="key=value defaults file; flags win")
    if seed:
        sp.add_argument("--seed", type=_seed, default=0)
    if samples:
        sp.add_argument("--samples", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cl8")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="mod-8 class of Cl(p,q), or a sweep")
    p_classify.add_argument("pq", nargs="*", type=int)
    p_classify.add_argument("--pmax", type=int, default=7)
    p_classify.add_argument("--qmax", type=int, default=7)
    _add_common(p_classify, _cmd_classify, formats=("text", "json", "csv"))

    p_idem = sub.add_parser("idempotent", help="primitive idempotent data for Cl(p,q)")
    p_idem.add_argument("p", type=int)
    p_idem.add_argument("q", type=int)
    _add_common(p_idem, _cmd_idempotent)

    p_board = sub.add_parser("chessboard", help="render an order-n algebra board")
    p_board.add_argument("--order", type=int, default=1)
    _add_common(p_board, _cmd_chessboard)

    p_clock = sub.add_parser("clock", help="the eight-hour ring cycle")
    _add_common(p_clock, _cmd_clock)

    p_cycle = sub.add_parser("cycle", help="one full cycle of transitions at row r")
    p_cycle.add_argument("--r", type=int, default=0)
    _add_common(p_cycle, _cmd_cycle)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", type=_suite)
    p_verify.add_argument("--qmax", type=int, default=24)
    _add_common(p_verify, _cmd_verify, seed=True)

    p_rep = sub.add_parser("rep", help="label data for tau_{k/2, r/2}")
    p_rep.add_argument("k", type=int)
    p_rep.add_argument("r", type=int)
    _add_common(p_rep, _cmd_rep)

    p_chain = sub.add_parser("chain", help="spin chain from (l, l_dot)")
    p_chain.add_argument("l")
    p_chain.add_argument("l_dot")
    _add_common(p_chain, _cmd_chain)

    p_block = sub.add_parser("block", help="representation block grid")
    p_block.add_argument("--order", type=int, default=1)
    _add_common(p_block, _cmd_block)

    p_spinor = sub.add_parser("spinor", help="sampled null-vector checks")
    _add_common(p_spinor, _cmd_spinor, seed=True, samples=True)

    p_twistor = sub.add_parser("twistor", help="incidence at a point")
    p_twistor.add_argument("--x", default="1.4142135623730951,0,0,0",
                           help="four comma-separated reals")
    p_twistor.add_argument("--pi", default="1,0,0,0", help="re0,im0,re1,im1")
    _add_common(p_twistor, _cmd_twistor)

    p_qubit = sub.add_parser("qubit", help="sampled Bloch round-trip checks")
    _add_common(p_qubit, _cmd_qubit, seed=True, samples=True)

    return parser


def _config_flags(path: str) -> list:
    """`--key=value` tokens for the file's `_CONFIG_KEYS`; a key's first line wins."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values.setdefault(key.strip(), value.strip())
    return [f"--{key}={values[key]}" for key in _CONFIG_KEYS if key in values]


def _dumps(data) -> str:
    import json

    return json.dumps(data, sort_keys=True)


def classify_record(at) -> dict:
    """The printed fields of an `algebra_type` record."""
    return {
        "p": at.p,
        "q": at.q,
        "type": at.type_mod8,
        "ring": at.ring,
        "simple": at.simple,
        "matrix_rank": at.matrix_rank,
    }


CSV_COLUMNS = ["p", "q", "type", "ring", "simple", "matrix_rank"]

#: Most cells a classify sweep lists, checked before its first record: the
#: 8^6 cells of the largest board board_json lists.
MAX_SWEEP_CELLS = 8 ** 6

#: Largest sum of p + q over a sweep's cells, checked after the other bounds.
#: The printed rank digits grow with this sum and their decimal conversion
#: with its square; 511 x 511 (about 1.34e8) stays within it.
MAX_SWEEP_N_SUM = 2 ** 28


def sweep_cells(pmax: int, qmax: int):
    """The cells (p, q) of 0..pmax x 0..qmax in row order, lazily, once the
    sweep is checked: a negative bound, more than MAX_SWEEP_CELLS cells, a
    corner cell (pmax, qmax) above MAX_CLASSIFY_N, or a sum of p + q over
    the grid above MAX_SWEEP_N_SUM is refused before the first cell."""
    from .table import MAX_CLASSIFY_N, check_count

    check_count("pmax", pmax)
    check_count("qmax", qmax)
    cells = (pmax + 1) * (qmax + 1)
    check_count("cells", cells, 0, MAX_SWEEP_CELLS, "MAX_SWEEP_CELLS")
    check_count("p + q", pmax + qmax, 0, MAX_CLASSIFY_N, "MAX_CLASSIFY_N")
    check_count("sum of p + q", cells * (pmax + qmax) // 2, 0, MAX_SWEEP_N_SUM,
                "MAX_SWEEP_N_SUM")
    return ((p, q) for p in range(pmax + 1) for q in range(qmax + 1))


def csv_row(rec: dict, columns) -> str:
    return ",".join(
        str(rec[c]).lower() if c == "simple" else str(rec[c]) for c in columns
    )


def _classify_text(rec: dict) -> str:
    shape = "simple" if rec["simple"] else "semisimple"
    return (f"Cl({rec['p']},{rec['q']}): type {rec['type']}, ring {rec['ring']}, "
            f"{shape}, matrix rank {rec['matrix_rank']}")


def _cmd_classify(args):
    if args.pq and len(args.pq) != 2:
        raise ValueError("classify takes p and q together, or neither for a sweep")
    from .table import algebra_type

    cells = [args.pq] if args.pq else sweep_cells(args.pmax, args.qmax)
    records = [classify_record(algebra_type(p, q)) for p, q in cells]
    if args.format == "json":
        return _dumps(records[0] if args.pq else records), 0
    if args.format == "csv":
        return "\n".join([",".join(CSV_COLUMNS)] + [csv_row(r, CSV_COLUMNS) for r in records]), 0
    return "\n".join(_classify_text(r) for r in records), 0


def _blade_name(mask: int) -> str:
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _cmd_idempotent(args):
    from .classify import algebra_type, primitive_idempotent

    data = primitive_idempotent(args.p, args.q)
    at = algebra_type(args.p, args.q)
    rec = {
        "p": args.p,
        "q": args.q,
        "k": data.k,
        "group_order": data.group_order,
        "ring": at.ring,
        "ideal_dim": (1 << (args.p + args.q)) >> data.k,
        "generators": [_blade_name(m) for m in data.generators],
    }
    if args.format == "json":
        return _dumps(rec), 0
    gens = ", ".join(rec["generators"]) or "(none)"
    return "\n".join([
        f"Cl({args.p},{args.q}): k = {rec['k']}, idempotent group order {rec['group_order']}",
        f"commuting blades: {gens}",
        f"ring {rec['ring']}, minimal left ideal dimension {rec['ideal_dim']}",
    ]), 0


def _cmd_chessboard(args):
    from .periodicity import Chessboard, board_json, board_text

    board = Chessboard(args.order)
    return (board_json(board) if args.format == "json" else board_text(board)), 0


def _cmd_clock(args):
    from .periodicity import clock_json, clock_text

    return (clock_json() if args.format == "json" else clock_text()), 0


def _cmd_cycle(args):
    from .periodicity import bw_cycle

    transitions = bw_cycle(args.r)
    if args.format == "json":
        return _dumps([t._asdict() for t in transitions]), 0
    lines = [f"cycle r={args.r}"]
    lines += [
        f"h={t.h}: q={t.q_from} -> q={t.q_to}   {t.ring_from} -> {t.ring_to}"
        for t in transitions
    ]
    return "\n".join(lines), 0


def _cmd_verify(args):
    from . import suites

    if args.suite == "all":
        results = suites.run_all(seed=args.seed, qmax=args.qmax)
    else:
        results = [suites.SUITES[args.suite](args.seed, args.qmax)]
    text = _dumps(results) if args.format == "json" else suites.render_report(results)
    return text, 0 if all(s["passed"] for s in results) else 1


def _cmd_rep(args):
    from . import reps

    label = reps.rep_label(args.k, args.r)
    if args.format == "json":
        return _dumps(reps.label_json_dict(label)), 0
    return "\n".join([
        reps.label_token(label),
        f"spin {label.spin}, degree {label.degree}, "
        f"spinspace dimension {label.spinspace_dim}, field {label.field}",
    ]), 0


def _cmd_chain(args):
    from . import reps

    chain = reps.spin_chain(args.l, args.l_dot)
    return (reps.chain_json(chain) if args.format == "json" else reps.chain_text(chain)), 0


def _cmd_block(args):
    from . import reps

    block = reps.representation_block(args.order)
    return (reps.block_json(block) if args.format == "json" else reps.block_text(block)), 0


def _cmd_spinor(args):
    from . import pauli

    max_null, max_imag = pauli.null_outer_defects(args.seed, args.samples)
    rec = {
        "passed": max_null == 0 and max_imag == 0,
        "checked": args.samples,
        "max_null_defect": max_null,
        "max_imag": max_imag,
    }
    code = 0 if rec["passed"] else 1
    if args.format == "json":
        return _dumps(rec), code
    verdict = "PASS" if rec["passed"] else "FAIL"
    return (f"{verdict} {args.samples} conjugate outer products stay real and null "
            f"(max defect = {max(max_null, max_imag)})"), code


def _floats(text: str, flag: str) -> list:
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} expects finite numbers")
    return values


def _cmd_twistor(args):
    import cmath

    from . import pauli

    x = _floats(args.x, "--x")
    raw_pi = _floats(args.pi, "--pi")
    if len(x) != 4:
        raise ValueError("--x expects exactly four components")
    if len(raw_pi) != 4:
        raise ValueError("--pi expects re0,im0,re1,im1")
    pi = [complex(raw_pi[0], raw_pi[1]), complex(raw_pi[2], raw_pi[3])]
    omega = pauli.twistor_incidence(x, pi)
    norm = pauli.twistor_norm(omega, pi)
    if not (all(map(cmath.isfinite, omega)) and math.isfinite(norm)):
        raise ValueError("omega or its norm overflows double precision")
    rec = {
        "x": x,
        "pi": [[pi[0].real, pi[0].imag], [pi[1].real, pi[1].imag]],
        "omega": [[omega[0].real, omega[0].imag], [omega[1].real, omega[1].imag]],
        "norm": norm,
        "form_signature": list(pauli.twistor_form_signature()),
    }
    if args.format == "json":
        return _dumps(rec), 0
    return "\n".join([
        f"x = {tuple(x)}",
        f"omega = ({omega[0]:.6g}, {omega[1]:.6g})",
        f"norm = {rec['norm']:.6g}, form signature {tuple(rec['form_signature'])}",
    ]), 0


def _cmd_qubit(args):
    from . import pauli

    rec = pauli.bloch_roundtrip_check(samples=args.samples, seed=args.seed)
    code = 0 if rec["passed"] else 1
    if args.format == "json":
        return _dumps(rec), code
    verdict = "PASS" if rec["passed"] else "FAIL"
    return (f"{verdict} {args.samples} pure states round-trip through the Bloch map "
            f"(max defect = {max(rec['max_roundtrip_defect'], rec['max_purity_defect'])})"), code


def run(args, produce) -> int:
    """The one writer: raise the int-digit limit so every rank prints, call
    produce() for (text, exit code), and write the text once, to
    args.output or stdout. A ValueError or OSError becomes one `error:`
    line on stderr and exit 2."""
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < _RANK_DIGITS:
        sys.set_int_max_str_digits(_RANK_DIGITS)
    try:
        text, code = produce()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    def produce():
        if args.config:  # parse again into args, the file's flags after argv[0]
            parser.parse_known_args(argv[:1] + _config_flags(args.config) + argv[1:], args)
        return args.handler(args)
    return run(args, produce)


if __name__ == "__main__":
    sys.exit(main())
