"""Span tracing of cijt's public functions, installed from outside the package.

Modules bind each other's functions by name (`from .scalars import
ceil_mult`), so wrapping `cijt.scalars.ceil_mult` alone would miss most
calls.  `Tracer.install` replaces the function in every cijt namespace that
holds it and `uninstall` puts the originals back.  Self time is the span
minus the time its child spans cover.  Counts and times cover every call;
the span records themselves are kept in memory for at most SPAN_CAP calls
per function and pass (scalars run about a million times a pass), and are
written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "engine", "iteration", "scalars", "normal_forms", "loop_homology", "morse")
# classes whose construction is a layer boundary: the key names the class
CLASSES = ("engine.SelectionProblem",)
SPAN_CAP = 2000


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("cijt")
        self.modules = {name: importlib.import_module("cijt." + name) for name in MODULES}
        self.originals = {}  # key -> function
        for name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.originals["%s.%s" % (name, attr)] = obj
        self._patched = []  # (namespace, attribute, original)
        self.begin_pass()

    # -- per-pass state -----------------------------------------------------

    def begin_pass(self):
        self.stats = {}  # instance id -> key -> [calls, self_s, total_s]
        self.spans = []  # (id, parent id, key, start, end, instance id)
        self.kept = defaultdict(int)
        self.found = []  # (instance id, problem, tuple) of every find_tuple return
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self.instance = None

    def set_instance(self, iid):
        self.instance = iid
        self.stats.setdefault(iid, defaultdict(lambda: [0, 0.0, 0.0]))

    def totals(self):
        """key -> [calls, self_s, total_s] summed over the pass's instances."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for per in self.stats.values():
            for key, (c, s, t) in per.items():
                acc = out[key]
                acc[0] += c
                acc[1] += s
                acc[2] += t
        return out

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                acc = tracer.stats[tracer.instance][key]
                acc[0] += 1
                acc[1] += dur - frame[1]
                acc[2] += dur
                if tracer.kept[key] < SPAN_CAP:
                    tracer.kept[key] += 1
                    tracer.spans.append((sid, parent, key, start, end, tracer.instance))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _record_find(self, args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        self.found.append((self.instance, problem, result))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {
            fn: self._wrap(key, fn, self._record_find if key == "engine.find_tuple" else None)
            for key, fn in self.originals.items()
        }
        for ns in (self.package, *self.modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for key in CLASSES:
            mod, name = key.split(".")
            cls = getattr(self.modules[mod], name)
            init = cls.__init__
            self._patched.append((cls, "__init__", init))
            cls.__init__ = self._wrap(key, init)

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched = []

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, key, start, end, iid in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": key, "start": start,
                                     "end": end, "instance": iid}) + "\n")

