"""cl8 benchmark: one workload, one seed, a fixed measuring window.

Usage, from the repository root:

    python3 perfbench/run.py --workload corner_sweep --seed 1 --seconds 40 --trace 0

Workloads (inputs are made from --seed; see inputs.py):
  corner_sweep  primitive_idempotent, division_ring_of and minimal_left_ideal
                on all 55 signatures with p+q <= 9
  cert_sweep    899 isomorphism certificates and block-form samples
  cli_cold      103 sequential fresh `python -m cl8.cli` processes

Set-up times a fresh interpreter importing the workload's first cl8 module.
Then each repetition runs in a fresh worker process, so every lru_cache
starts empty; another repetition starts only while the previous one's
duration still fits in the window, and there is always at least one.

With --trace 0 the end-to-end metrics are medians over repetitions:
  wall_s        the work in the worker, first call to last check
  setup_s       import time of the start module in fresh interpreters
  peak_rss_mib  worker peak RSS; for cli_cold the largest over all calls
Both times are read at a reference machine speed (calib.py); the raw wall
time is printed beside them, with fail_ratio (failed / attempted checks)
and, for cli_cold, the raw p50 and p90 latency of a call, spawn to exit.

With --trace 1 one untraced repetition is followed by traced ones; the
per-layer metrics (spans.py) are medians over the traced repetitions, and
trace.overhead_s is traced minus untraced wall_s. Counts must repeat exactly
across the traced repetitions and across traced runs of the same code and
seed in this checkout, which keeps them under .perfbench/counts/.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics. The exit code is 0 only if every check passed; a checkout
without cl8 sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_IMPORTS = 15

sys.path.insert(0, str(HERE))

from calib import at_reference  # noqa: E402
from inputs import FIXED_COUNT, START_MODULE, WORKLOADS, digest, make_items  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not run at all; no result is printed."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def measure_setup(workload: str) -> list:
    """Import time of the start module in fresh interpreters, at the
    reference speed, after one untimed import that writes the bytecode cache."""
    code = ("import time; t = time.perf_counter(); import {0}; "
            "print(time.perf_counter() - t)").format(START_MODULE[workload])
    times = []
    for i in range(SETUP_IMPORTS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"cannot import {START_MODULE[workload]}:\n{proc.stderr}")
        if i:
            times.append(at_reference(float(proc.stdout)))
    return times


def run_worker(workload: str, items: list, trace: bool, run_id: str) -> dict:
    spans_dir = OUT / "spans" / run_id
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "1" if trace else "0",
           str(spans_dir), run_id]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), input=json.dumps(items),
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        # a crashed repetition checked nothing: every item counts as failed
        return {"crashed": True, "attempted": len(items), "failed": len(items)}
    return result


def run_reps(workload: str, items: list, seconds: float, trace: bool, tag: str) -> tuple:
    """(untraced repetitions, traced repetitions) within the window."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced_rep = trace and bool(plain)
        start = time.perf_counter()
        run_id = f"{tag}-r{len(plain) + len(traced)}"
        rep = run_worker(workload, items, traced_rep, run_id)
        last = time.perf_counter() - start
        (traced if traced_rep else plain).append(rep)
        if rep.get("crashed"):
            break
        if (not trace or traced) and time.perf_counter() + last > deadline:
            break
    return plain, traced


def end_to_end_samples(plain: list, setup: list) -> dict:
    """Per-repetition samples of each end-to-end metric; empty if every
    repetition crashed."""
    reps = [r for r in plain if not r.get("crashed")]
    if not reps:
        return {}
    return {"wall_s": [r["wall_s"] for r in reps],
            "setup_s": setup,
            "peak_rss_mib": [r["peak_rss_mib"] for r in reps]}


def source_fingerprint() -> str:
    """Hash of the cl8 sources and the benchmark, so stored counts are only
    compared between runs of the same code."""
    files = sorted((ROOT / "src" / "cl8").glob("*.py")) + sorted(HERE.glob("*.py"))
    return digest([f.read_text() for f in files])


def check_counts(workload: str, seed: int, traced: list, tiny: bool) -> list:
    """Problems with the count metrics: they must be identical across the
    traced repetitions and with an earlier traced run of the same code,
    workload and seed in this checkout."""
    from spans import counts_of

    counts = [counts_of(r["layers"]) for r in traced]
    if any(c != counts[0] for c in counts):
        return ["count metrics differ between traced repetitions"]
    size = "-tiny" if tiny else ""
    store = OUT / "counts" / f"{workload}-seed{seed}{size}-{source_fingerprint()}.json"
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts[0], sort_keys=True))
    elif json.loads(store.read_text()) != counts[0]:
        return [f"count metrics differ from the earlier traced run in {store}"]
    return []


# per-call medians of the traced cli_cold children; zero on other workloads
CLI_PER_CALL = (("import_s", "cli.import_s"), ("numpy_s", "cli.import.numpy_s"),
                ("main_self_s", "cli.main.self_s"), ("spawn_s", "cli.spawn_s"))


def per_layer(plain: list, traced: list) -> dict:
    from spans import median_metrics

    layers = median_metrics([r["layers"] for r in traced])
    calls = [c for r in traced for c in r.get("per_call", ())]
    for key, name in CLI_PER_CALL:
        layers[name] = statistics.median(c[key] for c in calls) if calls else 0.0
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return layers


def environment() -> str:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return (f"env: git {sha}, python {platform.python_version()}, numpy {numpy_version}, "
            f"nproc {os.cpu_count()}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
              items: list | None = None) -> tuple:
    """Run one workload; returns (exit code, result dict, report lines)."""
    if not (ROOT / "src" / "cl8" / "__init__.py").is_file():
        raise BenchError(f"no cl8 sources under {ROOT / 'src'}")
    if items is None:
        items = make_items(workload, seed, tiny=tiny)
    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}",
             environment(),
             f"inputs: {len(items)} items, digest {digest(items)}"]
    setup = measure_setup(workload)
    tag = f"{workload}-seed{seed}"
    plain, traced = run_reps(workload, items, seconds, trace, tag)
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and not any(r.get("crashed") for r in reps)
    if not tiny and len(items) != FIXED_COUNT[workload]:
        lines.append(f"FAIL {len(items)} items generated, {FIXED_COUNT[workload]} required")
        correct = False
    if any(r["attempted"] < len(items) for r in reps) or attempted == 0:
        lines.append("FAIL a repetition attempted fewer items than generated")
        correct = False

    samples = {"wall_s": f"{len(plain)} reps", "setup_s": f"{len(setup)} imports",
               "peak_rss_mib": f"{len(plain)} reps"}
    metrics = {}
    for name, vals in end_to_end_samples(plain, setup).items():
        q1, med, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
        lines.append(f"{name:14s} {med:12.6g} {END_TO_END_UNITS[name]:5s} "
                     f"q1 {q1:.6g} q3 {q3:.6g}  n={samples[name]}")
    raw = [r["raw_wall_s"] for r in plain if not r.get("crashed")]
    if raw:
        lines.append(f"{'raw_wall_s':14s} {statistics.median(raw):12.6g} s     "
                     f"at the speed this run saw, n={len(raw)} reps")
    calls = [lat for r in plain if not r.get("crashed") for lat in r.get("latencies", ())]
    for pct in (50, 90) if calls else ():
        lines.append(f"{f'call_p{pct}_ms':14s} {1000 * percentile(calls, pct):12.6g} ms    "
                     f"n={len(calls)} calls")
    lines.append(f"{'fail_ratio':14s} {failed / max(attempted, 1):12.6g} ratio "
                 f"{failed} failed of {attempted} attempted")
    if trace and traced and correct:
        problems = check_counts(workload, seed, traced, tiny)
        lines += [f"FAIL {p}" for p in problems]
        correct = not problems
        layers = per_layer(plain, traced)
        lines.append(f"traced reps {len(traced)}, untraced reps {len(plain)}")
        lines += [f"{name:44s} {value:.6g}" for name, value in layers.items()]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return (0 if correct else 1), result, lines


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ns_per_term_pair"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one CPU for this process and every process it starts, so the calibration
    # probes and the work they rescale run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        code, result, lines = benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
