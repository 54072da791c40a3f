"""Spans around the public entry points of each ``repro`` layer.

:func:`install` wraps the functions and methods listed in
:data:`SPAN_POINTS` from outside the package: a module-level function is
replaced in its defining module and in every loaded ``repro`` module that
imported it by name, and a method is replaced on each class that defines
it. Nothing under ``src/`` changes. Each call through a wrapper records
one span: its name, start, duration, thread, the operation it belongs to
and its parent span (the enclosing span on the same thread). A span's
self time is its duration minus the part covered by its children.

Spans are kept in memory: totals per ``(phase, name)`` always, and the
first :data:`MAX_EVENTS` spans as Chrome trace events, which
:meth:`Tracer.write_chrome` saves at the end of a run (open the file in
Perfetto or ``chrome://tracing``).

:data:`COUNT_POINTS` are counted without a span. ``exec_equation`` runs
once per scalar element on the reference walk, where a span per call
would cost more than the call.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any

#: (span name, module, attribute). ``"Class.method"`` wraps a method on
#: every class in ``_class_families()`` that defines it.
SPAN_POINTS = (
    ("ps.lex", "repro.ps.lexer", "tokenize"),
    ("ps.parse", "repro.ps.parser", "parse_module"),
    ("ps.analyze", "repro.ps.semantics", "analyze_module"),
    ("hyperplane.transform", "repro.hyperplane.pipeline", "hyperplane_transform"),
    ("graph.build", "repro.graph.build", "build_dependency_graph"),
    ("schedule.schedule", "repro.schedule.scheduler", "schedule_module"),
    ("schedule.annotate", "repro.schedule.flowchart", "annotate_flowchart"),
    ("schedule.merge", "repro.schedule.merge", "merge_loops"),
    ("codegen.c", "repro.codegen.cgen", "generate_c"),
    ("codegen.python", "repro.codegen.pygen", "generate_python"),
    ("plan.build", "repro.plan.planner", "build_plan"),
    ("plan.lookup", "repro.serve.session", "Session.plan"),
    ("kernels.warm", "repro.runtime.kernels.cache", "KernelCache.warm"),
    ("kernels.load_library", "repro.runtime.kernels.native", "load_library"),
    ("backends.vector_span", "repro.runtime.backends.base", "ExecutionBackend.exec_vector_span"),
    ("backends.nest_kernel", "repro.runtime.backends.base", "ExecutionBackend.exec_nest_kernel"),
    ("backends.chunked_loop", "repro.runtime.backends.base", "ExecutionBackend.exec_chunked_loop"),
    ("backends.collapsed_loop", "repro.runtime.backends.base",
     "ExecutionBackend.exec_collapsed_loop"),
    ("backends.sequential_loop", "repro.runtime.backends.base",
     "ExecutionBackend.exec_sequential_loop"),
    ("backends.scan_loop", "repro.runtime.backends.base", "ExecutionBackend.exec_scan_loop"),
    ("backends.pipeline_group", "repro.runtime.backends.base",
     "ExecutionBackend.exec_pipeline_group"),
    ("backends.fission_loop", "repro.runtime.backends.base", "ExecutionBackend.exec_fission_loop"),
    ("runtime.execute", "repro.runtime.executor", "execute_module"),
    ("runtime.session_run", "repro.serve.session", "Session.run"),
    ("serve.roundtrip", "repro.serve.client", "ReproClient.run"),
    ("serve.handle", "repro.serve.daemon", "ReproDaemon._handle"),
    ("serve.encode", "repro.serve.wire", "encode_mapping"),
    ("serve.decode", "repro.serve.wire", "decode_mapping"),
)

COUNT_POINTS = (
    ("backends.exec_equation", "repro.runtime.backends.base", "ExecutionBackend.exec_equation"),
    ("serve.request", "repro.serve.client", "ReproClient.request"),
    ("serve.response", "repro.serve.daemon", "_dumps"),
)

#: Chrome events kept per run; totals keep counting past it
MAX_EVENTS = 200_000


def _class_families() -> dict[str, list[type]]:
    from repro.runtime.backends import BACKENDS
    from repro.runtime.backends.base import ExecutionBackend

    return {"ExecutionBackend": [ExecutionBackend, *BACKENDS.values()]}


class Tracer:
    """In-memory span store. ``phase`` tags every span ("setup",
    "warmup", "timed", ...); ``op`` is the id of the operation in flight
    (the benchmark is one closed-loop caller, so spans on pool threads
    belong to the one operation in flight as well)."""

    def __init__(self) -> None:
        self.enabled = True
        self.phase = "setup"
        self.op = -1
        self.t0 = time.perf_counter()
        # (phase, name) -> [calls, self seconds, inclusive seconds]
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        # (phase, name) -> summed value of a measured quantity
        self.values: dict[tuple[str, str], float] = defaultdict(float)
        self.events: list[tuple] = []
        self.libraries: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer._record(name, parent, start, dur, dur - frame[1])
            with tracer._lock:
                tracer._measure(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                with tracer._lock:
                    tracer.totals[(tracer.phase, name)][0] += 1
                    tracer._measure(name, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _record(self, name, parent, start, dur, self_dur) -> None:
        phase = self.phase
        with self._lock:
            row = self.totals[(phase, name)]
            row[0] += 1
            row[1] += self_dur
            row[2] += dur
            if parent == "serve.roundtrip" and name in ("serve.encode", "serve.decode"):
                # the client's share of the wire codec, which the
                # transport time must not include
                self.values[(phase, "serve.client_codec_s")] += dur
            if len(self.events) < MAX_EVENTS:
                self.events.append(
                    (name, parent, start, dur, threading.get_ident(), self.op, phase)
                )

    def _measure(self, name: str, args: tuple, result: Any) -> None:
        """Sizes measured at the same boundaries as the spans."""
        add = self.values
        phase = self.phase
        if name == "ps.lex":
            add[(phase, "ps.tokens")] += len(result)
        elif name == "graph.build":
            add[(phase, "graph.edges")] += len(result.edges)
        elif name == "schedule.schedule":
            add[(phase, "schedule.loops")] += len(result.loops())
        elif name == "codegen.c":
            add[(phase, "codegen.c_bytes")] += len(result)
        elif name == "kernels.load_library":
            self.libraries.add(hashlib.sha256(args[0].encode()).hexdigest())
        elif name == "serve.request":
            # the line ReproClient.request sends: compact JSON plus "\n"
            add[(phase, "serve.request_bytes")] += (
                len(json.dumps(args[1], separators=(",", ":"))) + 1
            )
        elif name == "serve.response":
            add[(phase, "serve.response_bytes")] += len(result)

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, stage: str, info: dict) -> None:
        if stage == "stop" and self.enabled:
            self.values[(self.phase, "gc.collected")] += info.get("collected", 0)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        families = _class_families()
        for points, wrapper in ((SPAN_POINTS, self.wrap), (COUNT_POINTS, self.wrap_count)):
            for name, module_name, attr in points:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    classes = families.get(cls_name) or [getattr(module, cls_name)]
                    for cls in classes:
                        if meth in cls.__dict__:
                            original = cls.__dict__[meth]
                            self._originals.append((cls, meth, original))
                            setattr(cls, meth, wrapper(name, original))
                else:
                    original = getattr(module, attr)
                    self._patch_function(original, wrapper(name, original))
        gc.callbacks.append(self._on_gc)

    def _patch_function(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._originals.append((module, key, original))
                    setattr(module, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- summaries -----------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return int(self.totals.get((phase, name), (0, 0.0, 0.0))[0])

    def self_s(self, phase: str, name: str) -> float:
        return self.totals.get((phase, name), (0, 0.0, 0.0))[1]

    def incl_s(self, phase: str, name: str) -> float:
        return self.totals.get((phase, name), (0, 0.0, 0.0))[2]

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per phase, per span: calls, self seconds, inclusive seconds."""
        out: dict[str, dict[str, dict[str, float]]] = defaultdict(dict)
        for (phase, name), (calls, self_s, incl_s) in sorted(self.totals.items()):
            out[phase][name] = {"calls": calls, "self_s": self_s, "incl_s": incl_s}
        for (phase, name), value in sorted(self.values.items()):
            out[phase].setdefault(name, {})["value"] = value
        return dict(out)

    def write_chrome(self, path: str, meta: dict) -> None:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        tids: dict[int, int] = {}
        events = []
        for name, parent, start, dur, tid, op, phase in self.events:
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "pid": 1,
                "tid": tids.setdefault(tid, len(tids)),
                "args": {"op": op, "parent": parent, "phase": phase},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)
