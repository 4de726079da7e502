"""Command-line front end: formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cl8 import cli
from cl8.classify import algebra_type
from cl8.cli import MAX_SWEEP_CELLS, build_parser, main, sweep_cells
from cl8.periodicity import clock_json, clock_text
from cl8.suites import SUITES, render_report, run_all
from cl8.table import MAX_CLASSIFY_N

from figdata import FIG8


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_single_json(capsys):
    code, out, _ = run(capsys, ["classify", "1", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"p": 1, "q": 3, "type": 6, "ring": "H", "simple": True, "matrix_rank": 2}


def test_classify_json_keys_sorted(capsys):
    code, out, _ = run(capsys, ["classify", "4", "1", "--format", "json"])
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)


def test_classify_arity_error(capsys):
    code, out, err = run(capsys, ["classify", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_format_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "1", "3", "--format", "yaml"])
    assert exc.value.code == 2


def test_classify_sweep_csv(capsys):
    code, out, _ = run(capsys, ["classify", "--pmax", "7", "--qmax", "7", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,q,")
    assert len(lines) == 1 + 64
    row13 = [l for l in lines if l.startswith("1,3,")]
    assert len(row13) == 1
    assert ",H," in row13[0] or row13[0].endswith(",H")


def test_idempotent_json(capsys):
    code, out, _ = run(capsys, ["idempotent", "1", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 1
    assert data["group_order"] == 4
    assert data["ring"] == "H"
    assert data["ideal_dim"] == 8


def test_verify_theorem3(capsys):
    code, out, _ = run(capsys, ["verify", "theorem3", "--qmax", "24"])
    assert code == 0
    assert "0,0,0,1,1,2,3,4,4" in out
    assert "4,4,5,5,6,7,8,8" in out
    assert "8,8,9,9,10,11,12,12" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_chessboard_text(capsys):
    code, out, _ = run(capsys, ["chessboard", "--order", "1"])
    assert code == 0
    assert "●" in out or "○" in out  # parity markers
    assert "R+R" in out  # legend
    for digit in "01234567":
        assert digit in out


def test_clock_text(capsys):
    code, out, _ = run(capsys, ["clock"])
    assert code == 0
    for label in ("R+R", "H+H"):
        assert label in out
    assert "1" in out and "8" in out


def test_cycle_text(capsys):
    code, out, _ = run(capsys, ["cycle", "--r", "2"])
    assert code == 0
    assert "H+H" in out
    assert "q=16" in out or "16" in out


def test_block_json_is_frozen(capsys):
    # SHA-256 of `block --order 1` and `--order 2` json, recorded when
    # the record moved from the CLI into reps.block_json
    chunks = []
    for order in ("1", "2"):
        code, out, _ = run(capsys, ["block", "--order", order, "--format", "json"])
        chunks.append(f"{out}{code}\n")
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == "7b77346a5821aefb6564103d4da2f0ba162e69cc3855a58885a142bb633f6a19"


def test_block_json_matches_grid(capsys):
    code, out, _ = run(capsys, ["block", "--order", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1
    got = {
        (Fraction(node["l"]), Fraction(node["l_dot"])): node["field"]
        for node in data["nodes"]
    }
    want = {
        key: ("real" if tag == "r" else "quaternionic") for key, tag in FIG8.items()
    }
    assert got == want


def test_rep_json(capsys):
    code, out, _ = run(capsys, ["rep", "1", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["l"] == "1/2"
    assert data["l_dot"] == "1"
    assert data["degree"] == 6
    assert data["spinspace_dim"] == 8
    assert data["field"] == "quaternionic"


def test_chain_json(capsys):
    code, out, _ = run(capsys, ["chain", "0", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["members"]) == 7
    assert data["members"][0] == {"l": "0", "l_dot": "3", "field": "quaternionic",
                                  "spin": "3", "degree": 7, "spinspace_dim": 64}
    assert data["spins_signed"] == ["-3", "-2", "-1", "0", "1", "2", "3"]
    # k + r = 6 along the chain, so every member's spinspace has dimension 2^6
    assert data["algebras"] == [{"k": k, "r": 6 - k, "spinspace_dim": 64} for k in range(7)]


@pytest.mark.parametrize("argv", [
    ["chain", "1/0", "0"],
    ["chain", "0", "3/0", "--format", "json"],
])
def test_chain_zero_denominator_is_a_usage_error(capsys, argv):
    # exit 1 is kept for a counterexample; a bad rational is exit 2
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "l and l_dot must be rationals" in err


def test_qubit_deterministic(capsys):
    code1, out1, _ = run(capsys, ["qubit", "--seed", "9", "--samples", "5",
                                  "--format", "json"])
    code2, out2, _ = run(capsys, ["qubit", "--seed", "9", "--samples", "5",
                                  "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["passed"] is True


def test_spinor_subcommand(capsys):
    code, out, _ = run(capsys, ["spinor", "--seed", "4", "--samples", "10",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["max_null_defect"] == 0 and data["max_imag"] == 0


def test_twistor_explicit_point(capsys):
    code, out, _ = run(capsys, [
        "twistor", "--x", "1.4142135623730951,0,0,0", "--pi", "1,0,0,0",
        "--format", "json"])
    assert code == 0
    data = json.loads(out)
    omega = data["omega"]
    assert abs(omega[0][0]) < 1e-12 and abs(omega[0][1] - 1.0) < 1e-12
    assert abs(omega[1][0]) < 1e-12 and abs(omega[1][1]) < 1e-12
    assert data["form_signature"] == [2, 2]


def test_verify_run_is_byte_identical(capsys):
    _, out1, _ = run(capsys, ["verify", "cycles", "--seed", "5"])
    _, out2, _ = run(capsys, ["verify", "cycles", "--seed", "5"])
    assert out1 == out2
    assert "PASS" in out1
    code, out, _ = run(capsys, ["verify", "all", "--seed", "7"])
    assert code == 0
    assert out == render_report(run_all(seed=7)) + "\n"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["classify", "1", "3", "--format", "json",
                                "--output", str(target)])
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["ring"] == "H"


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cl8.cfg"
    cfg.write_text("qmax=24\nformat=text\n")
    code, out, _ = run(capsys, ["verify", "theorem3", "--config", str(cfg)])
    assert code == 0
    assert "8,8,9,9,10,11,12,12" in out
    # a flag beats the file
    code, out, _ = run(capsys, ["verify", "theorem3", "--config", str(cfg),
                                "--qmax", "8"])
    assert code == 0
    assert "0,0,0,1,1,2,3,4,4" in out
    assert "8,8,9,9,10,11,12,12" not in out


def write_config(tmp_path, text):
    cfg = tmp_path / "cl8.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_config_skips_blank_comment_and_unknown_lines(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n# order=3\n   \ncolour=blue\norder=2\n")
    assert run(capsys, ["chessboard", "--config", cfg]) == run(capsys, ["chessboard", "--order", "2"])


def test_config_first_line_of_a_key_wins(tmp_path, capsys):
    cfg = write_config(tmp_path, "format = json \nformat=text\n")
    assert run(capsys, ["clock", "--config", cfg]) == run(capsys, ["clock", "--format", "json"])


@pytest.mark.parametrize("argv, line", [
    (["classify", "1", "3"], "seed=5"),
    (["rep", "1", "3"], "r=2"),
    (["verify", "cycles"], "samples=3"),
])
def test_config_ignores_keys_the_command_lacks(tmp_path, capsys, argv, line):
    cfg = write_config(tmp_path, line + "\n")
    assert run(capsys, [*argv, "--config", cfg]) == run(capsys, argv)


@pytest.mark.parametrize("argv, key, in_file, in_flag", [
    (["classify"], "pmax", "2", "1"),
    (["classify"], "qmax", "2", "1"),
    (["chessboard"], "order", "2", "1"),
    (["qubit", "--samples", "3", "--format", "json"], "seed", "1", "2"),
    (["qubit"], "samples", "3", "2"),
    (["cycle"], "r", "2", "1"),
    (["clock"], "format", "json", "text"),
])
def test_config_value_applies_and_a_flag_beats_it(tmp_path, capsys, monkeypatch,
                                                  argv, key, in_file, in_flag):
    # record the value each command ran with: the exact sampled checks print
    # the same zero defects for every seed, so for --seed only this shows it
    ran_with = []
    real_run = cli.run

    def recording(args, produce):
        code = real_run(args, produce)
        ran_with.append(str(getattr(args, key)))
        return code

    monkeypatch.setattr(cli, "run", recording)
    cfg = write_config(tmp_path, f"{key}={in_file}\n")
    from_file = run(capsys, [*argv, "--config", cfg])
    assert from_file == run(capsys, [*argv, f"--{key}", in_file])
    both = run(capsys, [*argv, "--config", cfg, f"--{key}", in_flag])
    assert both == run(capsys, [*argv, f"--{key}", in_flag])
    assert ran_with == [in_file, in_file, in_flag, in_flag]
    assert both != from_file or key == "seed"


def test_config_output_applies_and_the_flag_beats_it(tmp_path, capsys):
    in_file, in_flag = tmp_path / "file.txt", tmp_path / "flag.txt"
    cfg = write_config(tmp_path, f"output={in_file}\n")
    assert run(capsys, ["clock", "--config", cfg]) == (0, "", "")
    assert in_file.read_text() == clock_text() + "\n"
    in_file.unlink()
    assert run(capsys, ["clock", "--config", cfg, "--output", str(in_flag)]) == (0, "", "")
    assert in_flag.read_text() == clock_text() + "\n"
    assert not in_file.exists()


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "# header\norder 2\n")
    code, out, err = run(capsys, ["chessboard", "--config", cfg])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{cfg}:2" in err


def test_unreadable_config_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, ["clock", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "cannot read config file" in err


def test_config_that_is_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "cl8.cfg"
    cfg.write_bytes(b"format=json\n\xff\n")
    res = cl8_subprocess("-m", "cl8.cli", "clock", "--config", str(cfg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "cannot read config file" in res.stderr


def test_config_through_the_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, "format=json\n")
    res = cl8_subprocess("-m", "cl8.cli", "clock", "--config", cfg)
    assert res.returncode == 0, res.stderr
    assert res.stdout == clock_json() + "\n"


@pytest.mark.parametrize("argv, line, flag", [
    (["clock"], "format=xml", "--format"),
    (["rep", "1", "2"], "format=csv", "--format"),
    (["chessboard"], "order=abc", "--order"),
    (["verify", "radon"], "seed=-1", "--seed"),
])
def test_config_values_pass_the_flag_checks(tmp_path, capsys, argv, line, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", write_config(tmp_path, line + "\n")])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


# The last stderr line of `cl8 verify nope`, as argparse printed it when the
# suite names were the parser's `choices`.
UNKNOWN_SUITE_LINE = (
    "cl8 verify: error: argument suite: invalid choice: 'nope' (choose from "
    "'block', 'chain24', 'chevalley', 'classification', 'cycles', 'even', "
    "'karoubi', 'numeric', 'phipsi', 'radon', 'reps', 'theorem3', 'all')")


def test_verify_choices_are_the_suite_registry(capsys):
    parser = build_parser()
    for name in [*SUITES, "all"]:
        assert parser.parse_args(["verify", name]).suite == name
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["verify", "nope"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == UNKNOWN_SUITE_LINE


def test_verify_all_passes_qmax_to_theorem3(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--qmax", "8"])
    assert code == 0
    assert len([l for l in out.splitlines() if "k-sequence" in l]) == 1
    assert "0 <= q <= 0" in out


def test_output_io_error_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, ["classify", "1", "3", "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_idempotent_size_is_bounded(capsys):
    code, out, err = run(capsys, ["idempotent", "0", "17"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "MAX_IDEMPOTENT_N" in err


@pytest.mark.parametrize("argv", [
    ["spinor", "--samples", "-3"],
    ["qubit", "--samples", "0"],
    ["verify", "theorem3", "--qmax", "3"],
])
def test_nothing_checked_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "PASS" not in out
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "block", "--seed", "-1"],
    ["verify", "numeric", "--seed", "-1", "--format", "json"],
    ["verify", "all", "--seed", "-1"],
    ["spinor", "--seed", "-2"],
    ["qubit", "--seed=-3", "--samples", "1"],
])
def test_negative_seed_is_refused_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --seed: must be >= 0" in err


def test_config_samples_are_validated(tmp_path, capsys):
    cfg = tmp_path / "cl8.cfg"
    cfg.write_text("samples=0\n")
    code, out, err = run(capsys, ["qubit", "--config", str(cfg)])
    assert code == 2
    assert err.startswith("error: ")


def test_twistor_rejects_non_finite_input(capsys):
    code, out, err = run(capsys, ["twistor", "--x", "nan,0,0,0", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["classify", "1", "3", "--seed", "5"],
    ["chessboard", "--samples", "3"],
    ["verify", "cycles", "--samples", "3"],
])
def test_seed_and_samples_only_on_sampled_commands(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


ROOT = Path(__file__).resolve().parents[1]


def cl8_subprocess(*args, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_exact_modules_import_without_numpy():
    res = cl8_subprocess("-c", "import sys, cl8.cli, cl8.suites, cl8.pauli; "
                               "print(sorted(m for m in sys.modules if m.startswith('numpy')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_loads_no_cl8_module():
    res = cl8_subprocess("-c", "import sys, cl8.cli; print(sorted(m for m in sys.modules "
                               "if m.startswith('cl8') or m in ('fractions', 'json')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['cl8', 'cl8.cli']"


def test_tensoriso_import_loads_no_json():
    # json serves generator_map_json alone, which imports it when it runs
    res = cl8_subprocess("-c", "import sys, cl8.tensoriso; print('json' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_table_import_loads_no_other_cl8_module():
    res = cl8_subprocess("-c", "import sys, cl8.table; print(sorted(m for m in sys.modules "
                               "if m.startswith('cl8') or m in ('fractions', 'json')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['cl8', 'cl8.table']"


CLASSIFY_MODULES = {"cl8.classify", "cl8.algebra", "cl8.linalg", "cl8.table"}
PERIODICITY_MODULES = {"cl8.periodicity", "cl8.table"}
PAULI_MODULES = {"cl8.pauli", "cl8.table"}
REPS_MODULES = {"cl8.reps", "cl8.table"}

# The cl8 modules each command loads, as the cli docstring lists them: one
# argv per subcommand, and four for verify.
COMMAND_MODULES = {
    ("classify", "1", "3"): {"cl8.table"},
    ("verify", "cycles"): {"cl8.suites", *PERIODICITY_MODULES},
    ("qubit", "--samples", "1"): PAULI_MODULES,
    ("spinor", "--samples", "1"): PAULI_MODULES,
    ("twistor",): PAULI_MODULES,
    ("verify", "numeric"): {"cl8.suites", *PAULI_MODULES},
    ("verify", "all"): {"cl8.suites", "cl8.tensoriso", "cl8.reps", "cl8.pauli",
                        *PERIODICITY_MODULES, *CLASSIFY_MODULES},
    ("idempotent", "1", "3"): CLASSIFY_MODULES,
    ("chessboard",): PERIODICITY_MODULES,
    ("clock",): PERIODICITY_MODULES,
    ("cycle",): PERIODICITY_MODULES,
    ("rep", "1", "2"): REPS_MODULES,
    ("chain", "0", "3"): REPS_MODULES,
    ("block",): REPS_MODULES,
    ("verify", "radon"): {"cl8.suites", "cl8.table"},
}


@pytest.mark.parametrize("argv", list(COMMAND_MODULES))
def test_no_command_loads_numpy(argv):
    res = cl8_subprocess("-X", "importtime", "-m", "cl8.cli", *argv)
    assert res.returncode == 0, res.stderr
    loaded = {l.split("|")[-1].strip() for l in res.stderr.splitlines()
              if l.startswith("import time:")}
    assert "numpy" not in loaded
    # each command loads only the library module it runs, and the records
    # need no dataclasses or inspect
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    modules = COMMAND_MODULES[argv]
    assert {m for m in loaded if m.startswith("cl8.")} == modules
    # the table commands and the stdlib-only numeric layer make no Fraction
    if modules <= {"cl8.pauli", "cl8.suites", *PERIODICITY_MODULES}:
        assert "fractions" not in loaded


# SHA-256 of the stdout of the commands below, in order, each followed by its
# exit code. Recorded when the sampled checks became exact: their defects
# print as ints, and of the reports only the [numeric_layer] lines changed;
# twistor kept its bytes.
FLOAT_AND_REPORT_ARGVS = [
    [cmd, *extra, "--seed", seed, "--format", fmt]
    for seed in ("0", "7") for fmt in ("text", "json")
    for cmd, *extra in (["spinor"], ["qubit"], ["verify", "numeric"], ["verify", "all"])
] + [
    ["twistor", *point, "--format", fmt]
    for point in ([], ["--x=1.5,-0.25,0.75,2", "--pi=0.3,-0.1,0.5,0.9"])
    for fmt in ("text", "json")
]
FLOAT_AND_REPORT_DIGEST = "37ac5da4193a7b0fbc24cd80cf218f641125c6354d83183a95d2ee718d1e6f8a"


def test_float_commands_and_reports_are_frozen(capsys):
    chunks = []
    for argv in FLOAT_AND_REPORT_ARGVS:
        code, out, _ = run(capsys, argv)
        chunks.append(f"{out}{code}\n")
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == FLOAT_AND_REPORT_DIGEST


# SHA-256 of every command's stdout with no optional flag (and the classify
# sweep in csv and json), each followed by its exit code. Re-recorded when
# spinor and qubit became exact; every other command kept its bytes.
DEFAULT_ARGVS = [
    ["classify"], ["classify", "--format", "csv"], ["classify", "--format", "json"],
    ["idempotent", "2", "2"], ["chessboard"], ["clock"], ["cycle"], ["verify", "theorem3"],
    ["rep", "1", "2"], ["chain", "0", "3"], ["block"], ["spinor"], ["twistor"], ["qubit"],
]
DEFAULT_DIGEST = "ffc51f443de32e821839a4aee2e16201ee2d8071e13b6aa92f737023bd911b91"


def test_defaults_are_frozen(capsys):
    chunks = []
    for argv in DEFAULT_ARGVS:
        code, out, _ = run(capsys, argv)
        chunks.append(f"{out}{code}\n")
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == DEFAULT_DIGEST


BOUND_CASES = [
    (["chain", "0", "200000", "--format", "json"], "MAX_CHAIN_SUM"),
    (["chain", "0", "513/2"], "MAX_CHAIN_SUM"),
    (["block", "--order", "5"], "MAX_BLOCK_ORDER"),
    (["block", "--order", "4", "--format", "json"], "MAX_BLOCK_ORDER"),
    (["rep", "20000", "0"], "MAX_REP_SUM"),
    (["rep", "20000", "0", "--format", "json"], "MAX_REP_SUM"),
    (["classify", "100000000", "3"], "MAX_CLASSIFY_N"),
    (["verify", "theorem3", "--qmax", "100000000"], "MAX_QMAX"),
    (["classify", "65537", "0"], "MAX_CLASSIFY_N"),
    (["chessboard", "--order", "100000000"], "MAX_BOARD_ORDER"),
    (["classify", "--pmax", "-1"], ">= 0"),
    (["classify", "--qmax", "-3", "--format", "csv"], ">= 0"),
    (["classify", "--pmax", "20000", "--qmax", "20000"], "MAX_SWEEP_CELLS"),
    (["classify", "--pmax", "512", "--qmax", "511", "--format", "json"], "MAX_SWEEP_CELLS"),
    (["spinor", "--samples", "100001"], "MAX_SAMPLES"),
    (["qubit", "--samples", "100001", "--format", "json"], "MAX_SAMPLES"),
    # exponent notation is refused before Fraction expands it
    (["chain", "1e999999999", "0"], "got l = 1e999999999"),
    (["chain", "1e10000", "0"], "got l = 1e10000"),
    (["chain", "0", "1e-1000000"], "got l_dot = 1e-1000000"),
    # omega overflows double precision
    (["twistor", "--x=1e308,1e308,1e308,0", "--pi=1e308,0,1,0", "--format", "json"],
     "overflows"),
    # a digit run over int's parse limit names that limit, not the rational form
    (["chain", "9" * 10000, "0"], "9865-digit limit of int parsing"),
    (["chain", "0" * 9999 + "1", "0"], "9865-digit limit of int parsing"),
]

# One child process runs every refusal through cl8.cli.main and prints, per
# argv, its exit code, stdout and stderr as JSON.
_REFUSALS_CHILD = """
import contextlib, io, json, sys
from cl8.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def refusals():
    argvs = [argv for argv, _ in BOUND_CASES]
    res = cl8_subprocess("-c", _REFUSALS_CHILD, json.dumps(argvs), timeout=20)
    assert res.returncode == 0, res.stderr
    return {tuple(argv): result for argv, result in zip(argvs, json.loads(res.stdout))}


@pytest.mark.parametrize("argv, bound", BOUND_CASES)
def test_chain_and_block_sizes_are_bounded(argv, bound, refusals):
    code, out, err = refusals[tuple(argv)]
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert bound in err
    assert len(err) < 200  # an echoed input is cut short


def test_classify_sweep_at_the_bound_is_accepted():
    # the check alone: a 512 x 512 sweep is not built here
    assert (511 + 1) * (511 + 1) == MAX_SWEEP_CELLS == 8 ** 6
    sweep_cells(511, 511)
    sweep_cells(0, 16384)
    # (0, MAX_CLASSIFY_N) fits the cell and corner bounds but prints 65,537
    # ranks of up to 9,865 digits: its sum of p + q is over MAX_SWEEP_N_SUM
    for pmax, qmax in [(512, 511), (-1, 0), (0, -1), (MAX_SWEEP_CELLS, 0),
                       (0, MAX_CLASSIFY_N + 1), (0, MAX_CLASSIFY_N), (0, 32768),
                       (3, 65532)]:
        with pytest.raises(ValueError):
            sweep_cells(pmax, qmax)


def test_theorem3_at_the_bound_still_runs(capsys):
    code, out, _ = run(capsys, ["verify", "theorem3", "--qmax", "1024"])
    assert code == 0
    assert out.rstrip().endswith("summary: 1/1 suites passed")


def test_rep_at_the_bound_still_runs(capsys):
    code, out, _ = run(capsys, ["rep", "512", "0", "--format", "json"])
    assert code == 0
    assert json.loads(out)["spinspace_dim"] == 1 << 512


def test_chain_at_the_bound_still_runs(capsys):
    code, out, _ = run(capsys, ["chain", "0", "256", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["members"]) == 513
    assert data["algebras"][0]["spinspace_dim"] == 1 << 512


def test_rank_digits_cover_the_largest_rank():
    # 2^m has floor(m log10 2) + 1 digits; cli writes the count out so that
    # only the commands that classify import cl8.classify
    from cl8 import cli

    assert cli._RANK_DIGITS == int(MAX_CLASSIFY_N // 2 * math.log10(2)) + 1


RANK_ARGVS = [
    ["classify", "40000", "0"],
    ["classify", "65536", "0", "--format", "json"],
    ["classify", "65535", "1", "--format", "csv"],
]

# One child process runs every rank case through cl8.cli.main and prints,
# per argv, its exit code, stdout and stderr as JSON. Before each call it
# sets Python's default digit limit again, so each case shows that cli.run
# raises the limit itself.
_RANKS_CHILD = """
import contextlib, io, json, sys
from cl8.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    sys.set_int_max_str_digits(4300)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def printed_ranks():
    res = cl8_subprocess("-c", _RANKS_CHILD, json.dumps(RANK_ARGVS), timeout=20)
    assert res.returncode == 0, res.stderr
    return {tuple(argv): result for argv, result in zip(RANK_ARGVS, json.loads(res.stdout))}


@pytest.mark.parametrize("argv", RANK_ARGVS)
def test_classify_prints_every_rank_it_accepts(argv, printed_ranks):
    # The test process keeps Python's digit limit, so the rank is checked by
    # its length and its last 20 digits, never by converting it whole.
    code, stdout, stderr = printed_ranks[tuple(argv)]
    assert code == 0, stderr
    rank = algebra_type(int(argv[1]), int(argv[2])).matrix_rank
    printed = max(re.findall(r"\d+", stdout), key=len)
    assert 10 ** (len(printed) - 1) <= rank < 10 ** len(printed)
    assert int(printed[-20:]) == rank % 10 ** 20
