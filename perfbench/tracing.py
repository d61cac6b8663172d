"""Span tracing from outside the library.

The tracer wraps the public functions of each ccpforge layer at every
module binding the library calls them through, records one span per call
(name, start, end, parent, root item) and a few counters, and restores the
original functions when tracing ends.  Spans stay in memory; the runner
aggregates them per pass and may write them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _module(name):
    # ccpforge.verify is shadowed by the verify function in the package
    # namespace, so modules are always reached through importlib.
    return importlib.import_module(name)


# span name -> (defining module, function, modules that bind it by name)
LAYERS = {
    "mesh.build_polyhedron": (
        "ccpforge.mesh", "build_polyhedron",
        ("ccpforge.mesh", "ccpforge.surgery", "ccpforge.generators",
         "ccpforge.fileio")),
    "mesh.classify": ("ccpforge.mesh", "classify",
                      ("ccpforge.mesh", "ccpforge.verify")),
    "surgery.connect_sum": ("ccpforge.surgery", "connect_sum",
                            ("ccpforge.surgery",)),
    "surgery.drill": ("ccpforge.surgery", "drill", ("ccpforge.surgery",)),
    "surgery.drill_repeat": ("ccpforge.surgery", "drill_repeat",
                             ("ccpforge.surgery",)),
    "surgery.retile_pierced_face": ("ccpforge.surgery",
                                    "retile_pierced_face",
                                    ("ccpforge.surgery",)),
    "metrics.self_intersections": ("ccpforge.metrics", "self_intersections",
                                   ("ccpforge.metrics", "ccpforge.verify")),
    "metrics.defect_profile": ("ccpforge.metrics", "defect_profile",
                               ("ccpforge.metrics", "ccpforge.verify")),
    "metrics.descartes_residual": ("ccpforge.metrics", "descartes_residual",
                                   ("ccpforge.metrics", "ccpforge.verify")),
    "verify.verify": ("ccpforge.verify", "verify", ("ccpforge.verify",)),
    "fileio.save_mesh": ("ccpforge.fileio", "save_mesh",
                         ("ccpforge.fileio",)),
    "fileio.load_mesh": ("ccpforge.fileio", "load_mesh",
                         ("ccpforge.fileio",)),
    "generators.generate_family": ("ccpforge.generators", "generate_family",
                                   ("ccpforge.generators",)),
    "generators.solve_block_params": ("ccpforge.generators",
                                      "solve_block_params",
                                      ("ccpforge.generators",)),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_build(tracer, args, kwargs, result):
    tracer.counts["mesh.build_polyhedron.faces"] += result.n_faces
    tracer.counts["mesh.build_polyhedron.edges"] += result.n_edges


def _count_self_intersections(tracer, args, kwargs, result):
    f = _arg(args, kwargs, 0, "p").n_faces
    tracer.counts["metrics.self_intersections.face_pairs"] += f * (f - 1) // 2
    tracer.counts["metrics.self_intersections.witnesses"] += len(result)


def _count_saved_bytes(tracer, args, kwargs, result):
    tracer.counts["fileio.save_mesh.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path"))


def _count_loaded_bytes(tracer, args, kwargs, result):
    tracer.counts["fileio.load_mesh.bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _count_kept_drills(tracer, args, kwargs, result):
    # A successful drill_repeat keeps all k of its drills; its failed offset
    # directions are the wasted drill calls.  Every drill in the workloads
    # runs inside drill_repeat.
    tracer.counts["surgery.drill.kept"] += _arg(args, kwargs, 2, "k")


COUNTERS = {
    "mesh.build_polyhedron": _count_build,
    "metrics.self_intersections": _count_self_intersections,
    "fileio.save_mesh": _count_saved_bytes,
    "fileio.load_mesh": _count_loaded_bytes,
    "surgery.drill_repeat": _count_kept_drills,
}


class Tracer:
    """In-memory span recorder.  Each span is a list
    [name, start, end, parent index or None, root index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        # root span index -> factor that scales its tree's durations
        self.scale: dict[int, float] = {}

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        root = idx if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every layer function at each of its bindings with a
        traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for name, (home, attr, bindings) in LAYERS.items():
                traced = self.wrap(name, getattr(_module(home), attr))
                for b in bindings:
                    mod = _module(b)
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children
        (single-threaded, so children never overlap)."""
        selfs = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                selfs[s[3]] -= s[2] - s[1]
        return selfs

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, each
        duration multiplied by its root's entry in `scale`."""
        out: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            k = self.scale.get(s[4], 1.0)
            agg = out.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += k * (s[2] - s[1])
            agg["self_s"] += k * self_s
        return out
