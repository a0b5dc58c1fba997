"""Spans around normforge's public functions, recorded from outside the program.

`Tracer.install()` replaces every public function bound in a normforge
module namespace (including names bound there by `from ... import`) and a few
hot methods with a wrapper that records a span: name, start, end and parent.
A span's self time is its duration minus the time of its child spans; self
time is summed per layer, where a layer is the module that defines the
function.  Aggregates are kept for every span; the raw spans are kept in
memory up to a cap and written out when the run ends.
"""

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

# (module, class, method) wrapped in addition to the module-level functions
HOT_METHODS = (
    ("polyq", "UniPoly", "divmod"),
    ("numberfield", "FieldElement", "__mul__"),
    ("numberfield", "FieldElement", "__rmul__"),
    ("numberfield", "FieldElement", "inverse"),
    ("multipoly", "MultiPoly", "__mul__"),
    ("multipoly", "MultiPoly", "to_json"),
)

LAYERS = ("polyq", "modp", "hensel", "zfactor", "numberfield", "finitefield", "local",
          "radical", "normeq", "cyclic", "towers", "elliptic", "kpoly", "intfunc",
          "multipoly", "compiler")


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.spans = []  # (id, name, start, end, parent id)
        self.dropped = 0
        self._stack = []  # frames: [id, name, layer, child seconds]
        self._next_id = 0
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.total_s = defaultdict(float)  # name -> inclusive seconds
        self.calls = defaultdict(int)  # name -> calls
        self.entries = defaultdict(int)  # layer -> calls from another layer
        self.edges = defaultdict(int)  # "parent>child" name pair -> calls
        self._undo = []

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, name, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[3]
                tracer.total_s[name] += dur
                tracer.calls[name] += 1
                if parent is None or parent[2] != layer:
                    tracer.entries[layer] += 1
                if parent is not None:
                    parent[3] += dur
                    tracer.edges[parent[1] + ">" + name] += 1
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((sid, name, t0, t1, parent[0] if parent else None))
                else:
                    tracer.dropped += 1

        return traced

    def install(self):
        import normforge

        wrappers = {}
        modules = [importlib.import_module(f"normforge.{m.name}")
                   for m in pkgutil.iter_modules(normforge.__path__)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("normforge."):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in HOT_METHODS:
            cls = getattr(importlib.import_module(f"normforge.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            if id(fn) not in wrappers:
                base = "__mul__" if meth == "__rmul__" else meth
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{cls_name}.{base}", layer)
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    def aggregates(self):
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "entries": dict(self.entries),
                "edges": dict(self.edges)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def merge(aggs):
    """Sum several aggregate dicts (one per traced child process)."""
    out = {k: defaultdict(float) for k in ("self_s", "total_s", "calls", "entries", "edges")}
    for agg in aggs:
        for k, table in agg.items():
            for name, v in table.items():
                out[k][name] += v
    return out


def layer_metrics(agg, rounds):
    """The per-layer metrics of BENCHMARK.json, per round of the workload."""
    self_s, total_s = agg["self_s"], agg["total_s"]
    calls, entries, edges = agg["calls"], agg["entries"], agg["edges"]

    def per(v):
        return v / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.self_s": per(self_s.get(layer, 0.0)) for layer in LAYERS}
    valuations = calls.get("numberfield.valuation", 0)
    blocks = calls.get("numberfield.local_blocks", 0)
    batteries = calls.get("normeq.integrality_battery", 0)
    out.update({
        "polyq.divmod_calls": per(calls.get("polyq.UniPoly.divmod", 0)),
        "polyq.resultant_calls": per(calls.get("polyq.resultant", 0)),
        "modp.factor_calls": per(calls.get("modp.factor_poly_mod_p", 0)),
        "hensel.lift_calls": per(entries.get("hensel", 0)),
        "numberfield.mul_calls": per(calls.get("numberfield.FieldElement.__mul__", 0)),
        "numberfield.inverse_calls": per(calls.get("numberfield.FieldElement.inverse", 0)),
        "numberfield.valuation_calls": per(valuations),
        "numberfield.rounds_per_valuation": ratio(
            edges.get("numberfield.valuation>numberfield.local_blocks", 0), valuations),
        "numberfield.block_hit_ratio": ratio(
            blocks - edges.get("numberfield.local_blocks>hensel.lift_blocks", 0), blocks),
        "finitefield.residue_tests": per(calls.get("finitefield.power_residue_test", 0)
                                         + calls.get("finitefield.power_test_in_extension", 0)),
        "normeq.analyze_calls": per(calls.get("normeq.analyze", 0)),
        "normeq.battery_analyze_per_call": ratio(
            edges.get("normeq.integrality_battery>normeq.analyze", 0), batteries),
        "cyclic.period_s": per(total_s.get("cyclic.gaussian_period_subfield", 0.0)),
        "multipoly.mul_calls": per(calls.get("multipoly.MultiPoly.__mul__", 0)),
        "multipoly.to_json_s": per(total_s.get("multipoly.MultiPoly.to_json", 0.0)),
    })
    return out
