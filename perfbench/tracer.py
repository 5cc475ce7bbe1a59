"""Outside-in span tracing of the sqenergy layers.

Every public function (named in ``__all__``) of a traced layer is wrapped
in every ``sqenergy`` module namespace that holds it, so calls made from
inside the package are traced too; ``Graph.adjacency_matrix`` is wrapped
on the class.  A call opens a span: name, start, end, parent span and the
index of the graph the workload's input iterator handed over last.  A
generator function gets one span per resume.  Spans stay in memory as
flat arrays and are written out after the timed phase.

A span's self time is its duration minus the durations of its child
spans; a layer's self time is the sum over the spans of its functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "sqenergy"
LAYERS = ("enumeration", "canon", "graphs", "spectral", "bounds", "survey", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.graph = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_graph = [-1]
        # canonical_pair calls made by enumeration, and the distinct keys they returned
        self.enum_children = 0
        self.enum_keys: set[bytes] = set()

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name, fn, on_result=None):
        nid = self._id(name)
        name_id, parent, graph, start, end = self.name_id, self.parent, self.graph, self.start, self.end
        stack, current, clock = self.stack, self.current_graph, time.perf_counter

        def open_span() -> int:
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            graph.append(current[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(i, result)
            return result

        return traced

    def _canonical_pair_result(self, i: int, result) -> None:
        p = self.parent[i]
        if p >= 0 and self.names[self.name_id[p]].startswith("enumeration."):
            self.enum_children += 1
            self.enum_keys.add(result[0])

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        pkg = PACKAGE
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg}.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    hook = self._canonical_pair_result if (layer, attr) == ("canon", "canonical_pair") else None
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, hook)
        patched = []
        modules = [m for k, m in sys.modules.items() if k == pkg or k.startswith(pkg + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        graph_cls = sys.modules[f"{pkg}.graphs"].Graph
        method = graph_cls.adjacency_matrix
        patched.append((graph_cls, "adjacency_matrix", method))
        graph_cls.adjacency_matrix = self._wrap("graphs.adjacency_matrix", method)
        try:
            yield self
        finally:
            for obj, attr, val in reversed(patched):
                setattr(obj, attr, val)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "graph": np.frombuffer(self.graph, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Calls and self seconds per span name and per layer, and the time top-level spans cover."""
        a = self.arrays()
        ids, par = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        nested = par >= 0
        child = np.bincount(par[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)  # one name per wrapped function
        calls = dict(zip(self.names, np.bincount(ids, minlength=k).tolist()))
        self_by_name = dict(zip(self.names, np.bincount(ids, weights=self_s, minlength=k).tolist()))
        per_layer_self = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self_by_name.items():
            per_layer_self[name.split(".", 1)[0]] += seconds
        return {
            "spans": int(len(dur)),
            "calls": calls,
            "self_s": self_by_name,
            "layer_self_s": per_layer_self,
            "covered_s": float(dur[~nested].sum()),
            "enum_children": self.enum_children,
            "enum_classes": len(self.enum_keys),
        }
