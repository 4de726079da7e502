"""The benchmark harness still hooks the package: perfbench/spans.py, run as a
subprocess, wraps the names it wraps and records the spans it reads.

perfbench/tests cover the harness itself and run outside tier-1; this test
only guards the link, so that a change to the package cannot silently break
the benchmark's tracing. It reads perfbench/ and changes nothing there."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from cl8 import linalg, tensoriso
from cl8.algebra import MV, Signature

before = {"add": linalg.SpanBasis.add, "tensor_mul": tensoriso.TensorMV.__mul__}
tracer = spans.Tracer("smoke")
spans.install(tracer)
tensoriso.BlockForm(1, 2).sample_homomorphism(2)
sig = Signature(1, 1)
MV.generator(sig, 1) * MV.generator(sig, 2)
after = {"add": linalg.SpanBasis.add, "tensor_mul": tensoriso.TensorMV.__mul__}
print(json.dumps({
    "recorded": sorted({tracer.names[i] for i in tracer.name}),
    "wrapped": {k: after[k] is not before[k] and after[k].__name__ == "traced" for k in before},
}))
"""


def test_benchmark_harness_still_hooks_the_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no bytecode cache in perfbench/
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert {"tensoriso.sample_homomorphism", "algebra.mv_mul"} <= set(out["recorded"])
    assert out["wrapped"] == {"add": True, "tensor_mul": True}
