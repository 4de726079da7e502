"""In-memory span tracing around calls into the cl8 layers.

`install` wraps, from outside the program, every public function of the
nine cl8 modules (rebinding the names other modules took with `from ...
import`) plus the hot methods MV.__mul__, TensorMV.__mul__, SpanBasis.add
and BlockForm.sample_homomorphism. Each wrapped call appends one span: name,
start, end, parent span and a per-name work count. Calls made inside a
product kernel are not recorded, so blade signs stay part of the kernel's
own time. GaussianRational products are only counted.

Spans are written out once, at the end, as one JSON table per run id, and
`layer_metrics` turns any number of tables into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from time import perf_counter

LAYERS = ("algebra", "linalg", "classify", "tensoriso", "periodicity", "reps",
          "pauli", "suites", "cli")

CERTIFICATES = ("graded_tensor_check", "karoubi_check", "even_iso_check",
                "phi_psi_factorization", "complex_tensor_check", "spin24_chain",
                "sample_homomorphism")

SUITES = ("radon", "theorem3", "cycles", "chevalley", "karoubi", "even_iso",
          "phi_psi", "block", "chain24", "reps", "numeric")

KERNELS = {"algebra.mv_mul", "tensoriso.tensor_mul"}


def _term_pairs(args, result):
    a, b = args
    return len(a.terms) * len(getattr(b, "terms", (0,)))


# per-name work counts stored with each span
_WORK = {
    "algebra.mv_mul": _term_pairs,
    "tensoriso.tensor_mul": _term_pairs,
    "linalg.add": lambda args, result: int(result),
    "classify.division_ring_of": lambda args, result: args[0] + args[1],
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.gaussian_mul = 0
        self._open = -1
        self._in_kernel = False

    def wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        work = _WORK.get(label)
        kernel = label in KERNELS

        def traced(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            i = len(self.name)
            parent = self._open
            self.name.append(nid)
            self.parent.append(parent)
            self.work.append(0)
            self.end.append(0.0)
            self._open = i
            self._in_kernel = kernel
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._open = parent
                self._in_kernel = False
            if work is not None:
                self.work[i] = work(args, result)
            return result

        return traced

    def count_gaussian(self, fn):
        def counted(a, b):
            self.gaussian_mul += 1
            return fn(a, b)

        return counted

    def table(self) -> dict:
        return {"run_id": self.run_id, "names": self.names, "name": list(self.name),
                "parent": list(self.parent), "start": list(self.start),
                "end": list(self.end), "work": list(self.work),
                "gaussian_mul": self.gaussian_mul}

    def write(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.table(), **extra}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the cl8 layers in place for the rest of this process."""
    mods = {name: importlib.import_module(f"cl8.{name}") for name in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    algebra, linalg, tensoriso = mods["algebra"], mods["linalg"], mods["tensoriso"]
    algebra.MV.__mul__ = tracer.wrap("algebra.mv_mul", algebra.MV.__mul__)
    tensoriso.TensorMV.__mul__ = tracer.wrap("tensoriso.tensor_mul", tensoriso.TensorMV.__mul__)
    linalg.SpanBasis.add = tracer.wrap("linalg.add", linalg.SpanBasis.add)
    tensoriso.BlockForm.sample_homomorphism = tracer.wrap(
        "tensoriso.sample_homomorphism", tensoriso.BlockForm.sample_homomorphism)
    gr = algebra.GaussianRational
    gr.__mul__ = tracer.count_gaussian(gr.__mul__)
    gr.__rmul__ = tracer.count_gaussian(gr.__rmul__)


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _Agg:
    __slots__ = ("calls", "dur", "self", "work")

    def __init__(self):
        self.calls = 0
        self.dur = 0.0
        self.self = 0.0
        self.work = 0


def _aggregate(tables) -> tuple:
    """Per span name: calls, total duration, self time and work; plus the
    time in each layer's outermost spans, and division_ring_of time per n."""
    per_name = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    ring_by_n = {}
    for t in tables:
        names, name, parent = t["names"], t["name"], t["parent"]
        start, end, work = t["start"], t["end"], t["work"]
        layer_bit = [1 << LAYERS.index(n.split(".", 1)[0]) for n in names]
        count = len(name)
        dur = [end[i] - start[i] for i in range(count)]
        child = [0.0] * count
        outer_mask = [0] * count  # layers of the ancestors of each span
        for i in range(count):
            par = parent[i]
            if par >= 0:
                child[par] += dur[i]
                outer_mask[i] = outer_mask[par] | layer_bit[name[par]]
        for i in range(count):
            label = names[name[i]]
            agg = per_name.get(label)
            if agg is None:
                agg = per_name[label] = _Agg()
            agg.calls += 1
            agg.dur += dur[i]
            agg.self += dur[i] - child[i]
            agg.work += work[i]
            bit = layer_bit[name[i]]
            if not outer_mask[i] & bit:
                layer_s[label.split(".", 1)[0]] += dur[i]
            if label == "classify.division_ring_of":
                ring_by_n[work[i]] = ring_by_n.get(work[i], 0.0) + dur[i]
    return per_name, layer_s, ring_by_n


def layer_metrics(tables) -> dict:
    """Per-layer metrics of one traced repetition, summed over its tables."""
    per_name, layer_s, ring_by_n = _aggregate(tables)
    empty = _Agg()

    def get(label):
        return per_name.get(label, empty)

    out = {}
    mv, tm, add, expr = (get("algebra.mv_mul"), get("tensoriso.tensor_mul"),
                         get("linalg.add"), get("linalg.express"))
    out["algebra.mv_mul.calls"] = mv.calls
    out["algebra.mv_mul.term_pairs"] = mv.work
    out["algebra.mv_mul.self_s"] = mv.self
    out["algebra.mv_mul.ns_per_term_pair"] = 1e9 * mv.self / mv.work if mv.work else 0.0
    out["algebra.gaussian_mul.calls"] = sum(t["gaussian_mul"] for t in tables)
    out["linalg.add.calls"] = add.calls
    out["linalg.add.accepted"] = add.work
    out["linalg.add.accept_ratio"] = add.work / add.calls if add.calls else 0.0
    out["linalg.add.self_s"] = add.self
    out["linalg.express.calls"] = expr.calls
    out["linalg.express.self_s"] = expr.self
    for n in range(10):
        out[f"classify.division_ring_of.n{n}.s"] = ring_by_n.get(n, 0.0)
    out["classify.primitive_idempotent.s"] = get("classify.primitive_idempotent").dur
    out["classify.minimal_left_ideal.s"] = get("classify.minimal_left_ideal").dur
    out["classify.self_s"] = sum(a.self for label, a in per_name.items()
                                 if label.startswith("classify."))
    for fn in CERTIFICATES:
        agg = get(f"tensoriso.{fn}")
        out[f"tensoriso.{fn}.calls"] = agg.calls
        out[f"tensoriso.{fn}.s"] = agg.dur
    out["tensoriso.tensor_mul.calls"] = tm.calls
    out["tensoriso.tensor_mul.term_pairs"] = tm.work
    out["tensoriso.tensor_mul.self_s"] = tm.self
    for layer in ("periodicity", "reps", "pauli"):
        out[f"{layer}.s"] = layer_s[layer]
    for suite in SUITES:
        out[f"suites.{suite}.s"] = get(f"suites.{suite}_suite").dur
    out["cli.main.self_s"] = get("cli.main").self
    return out


COUNT_SUFFIXES = (".calls", ".term_pairs", ".accepted")


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def median_metrics(runs: list) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
