"""Run a set of benchmark runs, one per seed, and report each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py --workload cert_sweep --seeds 1-10
    python3 perfbench/spread.py --workload cert_sweep --seeds 11-20 \
        --against .perfbench/sets/cert_sweep-1-10.json

The spread is (q3 - q1) / median of the per-run values. With --against, the
median of this set is also compared with the median of an earlier set.
Every run's JSON result is saved under .perfbench/sets/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--against", default=None, help="saved set to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = map(int, args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}")
            return 1
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    out = ROOT / ".perfbench" / "sets" / f"{args.workload}-{args.seeds}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs))
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        line = (f"{name:14s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {spread:.3f} bound {bound}")
        if name != "setup_s" and spread > bound:
            ok = False
            line += " SPREAD OVER BOUND"
        if earlier is not None:
            before = statistics.median(r[name] for r in earlier)
            change = (med - before) / before
            if metric["better"] == "higher":
                change = -change
            line += f" vs earlier {before:.6g} ({change:+.3f})"
            if change > bound:
                ok = False
                line += " WORSE BY MORE THAN BOUND"
        print(line)
    print(f"saved {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
