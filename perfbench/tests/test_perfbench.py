"""Tests of the benchmark itself: tiny smoke runs, seeded inputs, the
oracle, failure accounting and count repeatability.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_seeded_and_counts_fixed(workload):
    a = inputs.make_items(workload, 5)
    assert inputs.digest(a) == inputs.digest(inputs.make_items(workload, 5))
    b = inputs.make_items(workload, 6)
    assert inputs.digest(a) != inputs.digest(b)
    assert len(a) == len(b) == inputs.FIXED_COUNT[workload]
    kinds = "kind" if workload != "corner_sweep" else "ring"
    assert sorted(i[kinds] for i in a) == sorted(i[kinds] for i in b)


def test_clock_keeps_probe_time_out_of_raw_time():
    clock = calib.Clock()
    time.sleep(0.25)
    clock.tick()
    time.sleep(0.05)
    clock.tick()
    assert 0.25 <= clock.raw_s < 0.28
    clock.tick(force=True)
    assert 0.3 <= clock.raw_s < 0.35 and clock.ref_s > 0


def test_oracle_agrees_with_library():
    from cl8.classify import algebra_type, radon_hurwitz
    from cl8.tensoriso import even_iso_target

    for p in range(17):
        for q in range(17):
            rec = inputs.classify_record(p, q)
            at = algebra_type(p, q)
            assert (rec["type"], rec["ring"], rec["simple"], rec["matrix_rank"]) == (
                at.type_mod8, at.ring, at.simple, at.matrix_rank)
            if p + q:
                assert inputs.even_target(p, q) == even_iso_target(p, q)
    assert [inputs.radon_hurwitz(i) for i in range(-16, 40)] == [
        radon_hurwitz(i) for i in range(-16, 40)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_smoke(workload):
    code, result, lines = run.benchmark(workload, 1, 0.1, False, tiny=True)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(inputs.make_items(workload, 1, tiny=True))
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(l.startswith("fail_ratio") and " 0 failed of " in l for l in lines)


@pytest.mark.parametrize("workload", ["cert_sweep", "cli_cold"])
def test_tiny_traced_counts_repeat(workload):
    for old in (run.OUT / "counts").glob(f"{workload}-seed2-tiny-*.json"):
        old.unlink()
    first = run.benchmark(workload, 2, 0.1, True, tiny=True)
    second = run.benchmark(workload, 2, 0.1, True, tiny=True)
    for code, result, _ in (first, second):
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == PER_LAYER
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
              for _, r, _ in (first, second)]
    assert counts[0] == counts[1] and counts[0]["tensoriso.spin24_chain.calls"] > 0


def test_changed_counts_fail_the_traced_run():
    store = run.OUT / "counts" / f"cert_sweep-seed3-tiny-{run.source_fingerprint()}.json"
    store.unlink(missing_ok=True)
    assert run.benchmark("cert_sweep", 3, 0.1, True, tiny=True)[0] == 0
    counts = json.loads(store.read_text())
    counts["algebra.mv_mul.calls"] += 1
    store.write_text(json.dumps(counts))
    code, result, lines = run.benchmark("cert_sweep", 3, 0.1, True, tiny=True)
    assert code == 1 and not result["correct"]
    assert any(l.startswith("FAIL count metrics differ") for l in lines)


def test_wrong_expected_ring_fails():
    items = inputs.make_items("corner_sweep", 1, tiny=True)
    cell = next(i for i in items if i["ring"] == "H")
    cell["ring"] = "C"
    code, result, lines = run.benchmark("corner_sweep", 1, 0.1, False, tiny=True, items=items)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1
    assert any(l.startswith("fail_ratio") and " 1 failed of " in l for l in lines)


def test_wrong_cli_expectation_fails():
    items = inputs.make_items("cli_cold", 1, tiny=True)
    call = next(i for i in items if i["argv"][0] == "rep")
    call["expect"]["degree"] += 1
    code, result, _ = run.benchmark("cli_cold", 1, 0.1, False, tiny=True, items=items)
    assert code == 1 and result["failed"] == 1


def test_short_item_list_fails():
    items = inputs.make_items("corner_sweep", 1)[:3]
    code, result, lines = run.benchmark("corner_sweep", 1, 0.1, False, items=items)
    assert code == 1 and not result["correct"]
    assert any("required" in l for l in lines)


def test_cli_checks_reject_bad_output():
    item = {"argv": ["verify", "radon"], "kind": "verify",
            "expect": {"section": "radon_hurwitz"}}
    good = "verification report\n\n[radon_hurwitz]\nPASS a\n\nsummary: 1/1 suites passed\n"
    from worker import check_cli_output

    assert check_cli_output(item, 0, good)
    assert not check_cli_output(item, 1, good)
    assert not check_cli_output(item, 0, good.replace("PASS a", "FAIL a"))
    assert not check_cli_output(item, 0, good.replace("PASS a", "note"))


def test_without_sources_exits_nonzero_without_result():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cert_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
