"""Spans around every public function of the program, from outside it.

`Tracer.install` rebinds each public function of the layer modules to a
timing wrapper, both in its defining module and in every `tempsched`
module that imported it by name, so calls between modules are caught too.
A span records its function, its parent and its duration; a layer's self
time is its spans' durations minus the durations of their child spans.
Spans stay in memory until `write` puts them in a file.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("core", "files", "lp", "simplex", "solvers", "dynamics", "discretize", "plot", "cli")


class Span:
    __slots__ = ("layer", "func", "parent", "outermost", "start", "duration", "children")

    def __init__(self, layer, func, parent, outermost, start):
        self.layer, self.func, self.parent, self.outermost = layer, func, parent, outermost
        self.start = start
        self.duration = 0.0
        self.children = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {"lp.rows": 0, "lp.pin_rows": 0, "dynamics.breakpoints": 0,
                       "discretize.spans": 0, "files.bytes_written": 0}
        self._stack: list[Span] = []
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tempsched.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tempsched" and not mod_name.startswith("tempsched."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, fn in self._undo:
            setattr(module, name, fn)
        self._undo.clear()

    def _wrap(self, layer, name, fn):
        stack, active, spans, count = self._stack, self._active, self.spans, self._count
        func = f"{layer}.{name}"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            depth = active.get(func, 0)
            start = time.perf_counter()
            span = Span(layer, func, parent, depth == 0, start)
            spans.append(span)
            stack.append(span)
            active[func] = depth + 1
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                span.duration = time.perf_counter() - start
                stack.pop()
                active[func] = depth
                if done:
                    count(name, args, kwargs, result)
                if parent is not None:
                    # Counting time goes to no layer.
                    parent.children += time.perf_counter() - start
            return result

        return traced

    def _count(self, name, args, kwargs, result) -> None:
        c = self.counts
        if name == "build_order_lp":
            c["lp.rows"] += len(result.constraints)
            c["lp.pin_rows"] += sum(
                1 for con in result.constraints if con.relation == "==" and len(con.coeffs) == 1
            )
        elif name == "simulate":
            c["dynamics.breakpoints"] += len(result.breakpoints)
        elif name == "time_slice":
            c["discretize.spans"] += sum(len(s) for s in result.intervals.values())
        elif name in ("save_schedule", "save_instance"):
            c["files.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])

    def write(self, path) -> None:
        index = {id(s): k for k, s in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps({"id": k, "parent": parent, "func": s.func,
                                     "start_s": s.start - origin,
                                     "duration_s": s.duration}) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics as name -> (value, unit)."""
        total: dict[str, float] = {}  # outermost calls only, so recursion counts once
        calls: dict[str, int] = {}
        own: dict[str, float] = {}  # self time per function and per layer
        solves = []
        for s in self.spans:
            calls[s.func] = calls.get(s.func, 0) + 1
            if s.outermost:
                total[s.func] = total.get(s.func, 0.0) + s.duration
            for key in (s.func, s.layer):
                own[key] = own.get(key, 0.0) + s.duration - s.children
            if s.func == "simplex.solve_lp":
                solves.append(s.duration)

        def t(*funcs):
            return sum(total.get(f, 0.0) for f in funcs)

        c = self.counts
        return {
            "lp.build_s": (t("lp.build_order_lp"), "s"),
            "lp.extract_s": (t("lp.extract_schedule"), "s"),
            "lp.order_lps": (calls.get("lp.build_order_lp", 0), "count"),
            "lp.rows": (c["lp.rows"], "count"),
            "lp.pin_rows": (c["lp.pin_rows"], "count"),
            "simplex.solve_s": (t("simplex.solve_lp"), "s"),
            "simplex.solve_p50_ms": (statistics.median(solves) * 1e3 if solves else 0.0, "ms"),
            "solvers.self_s": (own.get("solvers", 0.0), "s"),
            "core.normalize_s": (t("core.normalize"), "s"),
            "core.normalize_calls": (calls.get("core.normalize", 0), "count"),
            "dynamics.simulate_s": (t("dynamics.simulate"), "s"),
            "dynamics.simulate_calls": (calls.get("dynamics.simulate", 0), "count"),
            "dynamics.check_self_s": (own.get("dynamics.check_feasibility", 0.0), "s"),
            "dynamics.breakpoints": (c["dynamics.breakpoints"], "count"),
            "discretize.slice_s": (t("discretize.time_slice"), "s"),
            "discretize.k_trials": (calls.get("discretize.time_slice", 0), "count"),
            "discretize.spans": (c["discretize.spans"], "count"),
            "discretize.auto_self_s": (own.get("discretize.discretize_auto", 0.0), "s"),
            "files.load_s": (t("files.load_instance", "files.load_schedule"), "s"),
            "files.save_s": (t("files.save_schedule", "files.save_instance"), "s"),
            "files.bytes_written": (c["files.bytes_written"], "count"),
            "plot.emit_s": (t("plot.emit_csv", "plot.emit_svg"), "s"),
            "cli.self_s": (own.get("cli", 0.0), "s"),
        }
