"""In-memory span tracer that wraps the program's layer functions from outside.

Nothing in the program changes: ``Tracer.install`` replaces each traced
function or method with a timing wrapper, rebinding every module attribute
under ``paretocert`` that holds the original (``from .x import f`` copies
the name, e.g. ``paretocert.cli.socn_verdict``), and ``uninstall`` puts the
originals back.  Spans carry a parent link and the id of the request that
caused them; a span's self time is its duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def scan_counts(count: int, n: int) -> tuple[int, int]:
    """Computed operations and bytes of one ``_AffineScan.run`` (float64).

    The scan has one level per span = 1, 2, 4, ... < count; a level does
    (count - span) n x n mat-vecs plus an n-vector add, 2 n^2 flops each,
    and reads the level's matrices and two vector slices and writes one.
    The initial copy of the offsets reads and writes count * n values.
    These are counts from array sizes, not measurements: cache traffic is
    ignored.
    """
    flops = 0
    values = 2 * count * n
    span = 1
    while span < count:
        rows = count - span
        flops += rows * 2 * n * n
        values += rows * (n * n + 3 * n)
        span *= 2
    return flops, 8 * values


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, request, name, start, end)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.span_names = set()
        self.stats = defaultdict(float)  # result-derived counters
        self.request_id = None
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self._restore = []
        self._scan_cache = {}

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``after(tracer, args, kwargs, result)`` records counts."""
        tracer = self
        self.span_names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans.append((span_id, parent, tracer.request_id, name,
                                     start, end))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Count calls without a span (for functions too hot to time)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add_scan(self, count, n):
        key = (count, n)
        if key not in self._scan_cache:
            self._scan_cache[key] = scan_counts(count, n)
        flops, nbytes = self._scan_cache[key]
        self.stats["scan.runs"] += 1
        self.stats["scan.flops"] += flops
        self.stats["scan.bytes"] += nbytes

    # -- installing wrappers -----------------------------------------------

    def install(self, targets):
        """targets: (dotted path, wrapper factory) pairs; paths name a module
        attribute ("pkg.mod.func") or a method ("pkg.mod.Class.method")."""
        for path, make in targets:
            module_name, _, attr = path.rpartition(".")
            owner = None
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module_name, _, cls_name = module_name.rpartition(".")
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name)
            if owner is not None:
                original = owner.__dict__[attr]
                setattr(owner, attr, make(original))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "paretocert"
                                       or mod_name.startswith("paretocert.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path, names):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "request": request, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"request_labels": names}) + "\n")
