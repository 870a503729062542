"""Span recording around the package's public functions, from outside it.

``install`` replaces each listed function, in every loaded ``involab``
module that holds it (``action`` imports ``rzk.orientability``,
``fgenus`` imports ``cover.build_cover`` and ``presentation``, the
package re-exports most names), with a wrapper that records a span:
name, start, end, parent and the job it belongs to. ``uninstall`` puts
the originals back. Inner helpers such as ``gf2.pivot`` or
``CubicalSurface.boundary`` are not wrapped; their time is self time of
the public function that called them.

A span's self time is its duration minus that of its child spans.
Garbage-collector pauses, seen through ``gc.callbacks``, count as a
child of whatever span was running, so they appear once, under ``py``;
collections outside every span are the benchmark's own and not counted.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name, counter fed from the result)
TARGETS = [
    ("cli", "main", "cli", None),
    ("scomplex", "parse_complex", "scomplex", ("scomplex.faces", lambda K: len(K.faces))),
    ("scomplex", "read_complex", "scomplex", None),
    ("scomplex", "from_facets", "scomplex", ("scomplex.faces", lambda K: len(K.faces))),
    ("scomplex", "polygon_boundary", "scomplex", None),
    ("rzk", "build", "rzk.build",
     ("rzk.cells", lambda C: sum(len(C.cells(d)) for d in range(C.dim + 1)))),
    ("rzk", "verify_closed_surface", "rzk.verify", None),
    ("rzk", "orientability", "rzk.orient", None),
    ("rzk", "genus", "rzk.genus", None),
    ("rzk", "surface_report", "rzk.report", None),
    ("action", "max_free_rank", "action.search", None),
    ("action", "is_free_subgroup", "action.free_check", None),
    ("gf2", "rref", "gf2", None),
    ("gf2", "rank", "gf2", None),
    ("gf2", "in_span", "gf2", None),
    ("gf2", "span", "gf2", None),
    ("cover", "build_cover", "cover.build", ("cover.sheets", lambda cc: cc.sheets)),
    ("cover", "presentation", "cover.presentation", None),
    ("cover", "parse_phi", "cover.parse", None),
    ("fgenus", "lambert_w", "fgenus.lambert", None),
    ("fgenus", "H", "fgenus.H", None),
    ("fgenus", "f_exact", "fgenus.f_exact", None),
    ("fgenus", "figure1_data", "fgenus.figure", None),
]


class Tracer:
    """Spans of one traced pass, kept in memory, plus their aggregates."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, float, float]] = []  # name, job, parent, start, end
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.max_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.job = -1
        # open spans: [span index, name, start, time covered by children]
        self._stack: list[list] = []
        self._gc_start = 0.0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, self.job, parent, 0.0, 0.0))
        self._stack.append([len(self.spans) - 1, name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        index, name, start, children = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, self.job, self.spans[index][2], start, end)
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if duration > self.max_s[name]:
            self.max_s[name] = duration
        if self._stack:
            self._stack[-1][3] += duration

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return  # the benchmark's own collection between jobs
        if phase == "start":
            self._gc_start = perf_counter()
            return
        duration = perf_counter() - self._gc_start
        self.self_s["py.gc"] += duration
        self.calls["py.gc"] += 1
        if self._stack:
            self._stack[-1][3] += duration


def _wrap(fn, name: str, counter, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "cover.build" and tracer.inside("fgenus.f_exact"):
            tracer.counts["fgenus.resolver_builds"] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            tracer.counts[counter[0]] += counter[1](result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target wherever a loaded involab module holds it;
    returns what ``uninstall`` needs to restore the originals."""
    holders = [mod for key, mod in sys.modules.items()
               if key == "involab" or key.startswith("involab.")]
    restore = []
    for module, attr, name, counter in TARGETS:
        original = getattr(importlib.import_module(f"involab.{module}"), attr)
        wrapper = _wrap(original, name, counter, tracer)
        for holder in holders:
            if holder.__dict__.get(attr) is original:
                setattr(holder, attr, wrapper)
                restore.append((holder, attr, original))
    gc.callbacks.append(tracer.on_gc)
    return restore


def uninstall(tracer: Tracer, restore: list[tuple[object, str, object]]) -> None:
    gc.callbacks.remove(tracer.on_gc)
    for holder, attr, original in restore:
        setattr(holder, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    return {
        "rzk.build_s": s["rzk.build"],
        "rzk.verify_s": s["rzk.verify"],
        "rzk.orient_s": s["rzk.orient"],
        "rzk.genus_s": s["rzk.genus"],
        "rzk.report_s": s["rzk.report"],
        "rzk.cells": k["rzk.cells"],
        "rzk.verify_calls": c["rzk.verify"],
        "rzk.orient_calls": c["rzk.orient"],
        "py.gc_s": s["py.gc"],
        "py.gc_collections": c["py.gc"],
        "action.search_s": s["action.search"],
        "action.search_max_s": tracer.max_s["action.search"],
        "action.free_check_s": s["action.free_check"],
        "cover.build_s": s["cover.build"],
        "cover.sheets": k["cover.sheets"],
        "cover.presentation_s": s["cover.presentation"],
        "cover.parse_s": s["cover.parse"],
        "fgenus.lambert_s": s["fgenus.lambert"],
        "fgenus.lambert_calls": c["fgenus.lambert"],
        "fgenus.H_s": s["fgenus.H"],
        "fgenus.f_exact_s": s["fgenus.f_exact"],
        "fgenus.figure_s": s["fgenus.figure"],
        "fgenus.resolver_builds": k["fgenus.resolver_builds"],
        "gf2.s": s["gf2"],
        "gf2.calls": c["gf2"],
        "scomplex.s": s["scomplex"],
        "scomplex.faces": k["scomplex.faces"],
        "cli.self_s": s["cli"],
    }
