"""One repetition of one workload, in a fresh interpreter.

Usage: python3 worker.py WORKLOAD TRACE SPANS_DIR RUN_ID < items.json

Reads the generated items on stdin, imports the workload's cl8 module,
optionally installs the span tracer, runs and checks every item, and prints
one JSON line: wall time at the reference speed (calib.py) and raw, peak
RSS, attempted and failed counts, CLI call latencies, and with tracing the
per-layer metrics. Imports are not timed.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calib import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# The checks import the cl8 names at each call, so a traced repetition calls
# the wrappers spans.install put in place.


def _check_corner(item) -> bool:
    from cl8.classify import division_ring_of, minimal_left_ideal, primitive_idempotent

    p, q = item["p"], item["q"]
    data = primitive_idempotent(p, q)
    dim, ring = division_ring_of(p, q)
    reps, ideal_dim = minimal_left_ideal(p, q)
    return (ring == item["ring"] and dim == item["dim"] and data.k == item["k"]
            and ideal_dim == len(reps) == item["ideal_dim"])


def _check_cert(item) -> bool:
    from cl8 import tensoriso

    kind, args = item["kind"], item["args"]
    if kind == "block":
        rep = tensoriso.BlockForm(*args).sample_homomorphism(item["samples"], seed=item["seed"])
        return rep["passed"] and rep["failures"] == 0 and rep["checked"] == item["samples"]
    if kind == "chain24":
        rep = tensoriso.spin24_chain()
        return rep.ok and [[l.name, l.rank] for l in rep.links if l.certified] == item["links"]
    if kind == "phipsi":
        rep = tensoriso.phi_psi_factorization(tuple(args[0]), tuple(args[1]))
        return rep.passed and rep.rank == item["rank"] and rep.case == item["case"]
    fn = {"graded": tensoriso.graded_tensor_check, "karoubi": tensoriso.karoubi_check,
          "even": tensoriso.even_iso_check, "complex": tensoriso.complex_tensor_check}[kind]
    call_args = [tuple(a) for a in args] if kind in ("graded", "karoubi") else args
    rep = fn(*call_args)
    return (rep.certified is True and list(rep.target_sig) == item["target"]
            and rep.rank == item["rank"])


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b


def check_cli_output(item, code: int, out: str) -> bool:
    """Exit code 0 and output that matches the parent's expected values."""
    if code != 0:
        return False
    kind, expect = item["kind"], item["expect"]
    lines = out.splitlines()
    if kind == "verify":
        return (f"[{expect['section']}]" in lines and lines[-1] == "summary: 1/1 suites passed"
                and any(l.startswith("PASS") for l in lines)
                and not any(l.startswith("FAIL") for l in lines))
    if kind == "text":
        return lines == expect
    if kind == "prefix":
        return lines[:len(expect)] == expect
    data = json.loads(out)
    if kind == "json":
        return data == expect
    if kind == "twistor":
        return _close(data, expect)
    if kind == "idempotent":
        gens = data.pop("generators")
        return data == expect and len(gens) == expect["k"]
    if kind == "sampled":
        defects = [v for k, v in data.items() if k.startswith("max_")]
        return (data["passed"] is True and data["checked"] == expect["checked"]
                and len(defects) == 2 and all(v < 1e-9 for v in defects))
    raise ValueError(f"unknown CLI check {kind!r}")


_NUMPY_IMPORT = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*numpy$")


def _run_cli(items, trace: bool, spans_dir: Path, run_id: str) -> dict:
    """Closed loop, one client: each call is a fresh `python -m cl8.cli`."""
    from spans import layer_metrics, load

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    latencies, failed, per_call = [], 0, []
    tables = []
    clock = Clock()
    for i, item in enumerate(items):
        if trace:
            spans_file = spans_dir / f"call{i}.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "launcher.py"),
                   str(spans_file), f"{run_id}-call{i}", *item["argv"]]
        else:
            cmd = [sys.executable, "-m", "cl8.cli", *item["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        latencies.append(time.perf_counter() - start)
        try:
            ok = check_cli_output(item, proc.returncode, proc.stdout)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            err = "\n".join(l for l in proc.stderr.splitlines() if not l.startswith("import time:"))
            print(f"FAILED call {item['argv']}: exit {proc.returncode}\n{err[-2000:]}",
                  file=sys.stderr)
        if trace and ok:
            table = load(spans_file)
            tables.append(table)
            numpy_us = [int(m.group(1)) for m in map(_NUMPY_IMPORT.search, proc.stderr.splitlines())
                        if m]
            per_call.append({
                "import_s": table["import_s"],
                "numpy_s": numpy_us[-1] / 1e6 if numpy_us else 0.0,
                "main_self_s": layer_metrics([table])["cli.main.self_s"],
                "spawn_s": latencies[-1] - table["inside_s"],
            })
        clock.tick()
    clock.tick(force=True)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = {"wall_s": clock.ref_s, "raw_wall_s": clock.raw_s, "peak_rss_mib": rss,
              "latencies": latencies, "attempted": len(items), "failed": failed}
    if trace:
        result["layers"] = layer_metrics(tables)
        result["per_call"] = per_call
    return result


def _run_inproc(workload, items, trace: bool, spans_dir: Path, run_id: str) -> dict:
    import importlib

    from inputs import START_MODULE

    importlib.import_module(START_MODULE[workload])
    tracer = None
    if trace:
        from spans import Tracer, install

        tracer = Tracer(run_id)
        install(tracer)
    check = _check_corner if workload == "corner_sweep" else _check_cert
    failed = 0
    clock = Clock()
    for item in items:
        try:
            ok = check(item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"FAILED {workload} item {json.dumps(item)}", file=sys.stderr)
        clock.tick()
    clock.tick(force=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": clock.ref_s, "raw_wall_s": clock.raw_s, "peak_rss_mib": rss,
              "attempted": len(items), "failed": failed}
    if tracer is not None:
        from spans import layer_metrics

        tracer.write(spans_dir / "spans.json")
        result["layers"] = layer_metrics([tracer.table()])
    return result


def main(argv) -> int:
    workload, trace, spans_dir, run_id = argv[0], argv[1] == "1", Path(argv[2]), argv[3]
    items = json.load(sys.stdin)
    spans_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_cold":
        result = _run_cli(items, trace, spans_dir, run_id)
    else:
        result = _run_inproc(workload, items, trace, spans_dir, run_id)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
