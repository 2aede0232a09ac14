"""Span tracing and structural counters around the euleralign layers.

Both work from outside the package: while installed they replace functions,
wherever a loaded module binds them, and class attributes with wrappers, and
they put the originals back after.

A layer is one package module.  The tracer records a span for each call of a
public function or method of a layer; the span's parent is the innermost
span open when the call began.  Spans stay in memory; ``save`` writes them
out.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "grid",
    "operators",
    "lp",
    "besov",
    "model",
    "linear",
    "simulation",
    "snapshot",
    "config",
    "cli",
)

FFT_NAMES = (
    "fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
    "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
)


def load_layers():
    """Import the package's layer modules: {layer name: module}."""
    import importlib

    return {name: importlib.import_module(f"euleralign.{name}") for name in LAYERS}


def public_callables(layers):
    """Yield (layer, qualified name, owner, attribute, raw value) for every
    public function and public method defined in a layer module."""
    for layer, mod in layers.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield layer, f"{layer}.{name}", mod, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, val in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(val, (classmethod, staticmethod)) or inspect.isfunction(val):
                        yield layer, f"{layer}.{name}.{attr}", obj, attr, val


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, replacements):
        """Replace every binding of a function in any loaded module by its
        wrapper: callers, the harness included, may hold their own binding
        (``from euleralign.lp import ...``).  ``replacements`` maps
        id(original) to (original, wrapper)."""
        import sys

        for mod in list(sys.modules.values()):
            for name, obj in list(getattr(mod, "__dict__", {}).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.set(mod, name, hit[1])

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _wrap_raw(raw, make):
    """Apply ``make`` to the function inside a (class/static)method value."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(make(raw.__func__))
    return make(raw)


class Tracer:
    """In-memory span recorder: name, start, end and parent of each span."""

    def __init__(self, layers):
        self.layers = layers
        self.names = []  # span name per name id
        self.name_layer = []  # layer index per name id
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = _Patches()

    def _wrapper(self, fn, name_id):
        stack = self._stack
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self):
        functions = {}
        for layer, qual, owner, attr, raw in public_callables(self.layers):
            name_id = len(self.names)
            self.names.append(qual)
            self.name_layer.append(LAYERS.index(layer))
            wrapped = _wrap_raw(raw, lambda f: self._wrapper(f, name_id))
            if inspect.ismodule(owner):
                functions[id(raw)] = (raw, wrapped)
            else:
                self._patches.set(owner, attr, wrapped)
        self._patches.rebind(functions)

    def uninstall(self):
        """Put the originals back and freeze the spans into NumPy arrays."""
        self._patches.undo()
        self.spans = (
            np.array(self.span_name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived quantities, valid after uninstall ----------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        _, parent, start, end = self.spans
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def _per_layer(self, weights=None):
        names = self.spans[0]
        layer_of = np.asarray(self.name_layer, dtype=np.int64)[names]
        per = np.bincount(layer_of, weights=weights, minlength=len(LAYERS))
        return {layer: per[i].item() for i, layer in enumerate(LAYERS)}

    def layer_self(self):
        """{layer: summed self time in seconds}."""
        return self._per_layer(self.self_times())

    def layer_calls(self):
        """{layer: number of spans}."""
        return self._per_layer()

    def count(self, qual, parent_qual=None):
        return len(self.durations(qual, parent_qual))

    def durations(self, qual, parent_qual=None):
        """Durations of the spans named ``qual`` (optionally: only those whose
        parent span is named ``parent_qual``)."""
        names, parent, start, end = self.spans
        sel = names == self.names.index(qual)
        if parent_qual is not None:
            parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
            sel &= parent_name == self.names.index(parent_qual)
        return (end - start)[sel]

    def children_time(self, parent_qual, quals):
        """Total duration of the direct children named in ``quals`` of all
        spans named ``parent_qual``."""
        return float(sum(np.sum(self.durations(q, parent_qual)) for q in quals))

    def root_time(self):
        """Time covered by spans that have no parent span."""
        _, parent, start, end = self.spans
        root = parent < 0
        return float(np.sum(end[root] - start[root]))

    def save(self, path):
        names, parent, start, end = self.spans
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_layer=np.asarray(self.name_layer, dtype=np.int32),
            span_name=names,
            parent=parent,
            start=start,
            end=end,
        )


class Counters:
    """Exact counts of FFT calls, SpectralField constructions and
    Grid.wavenumbers calls while the context is active."""

    def __init__(self, layers):
        self.layers = layers
        self.fft = 0
        self.fields = 0
        self.wavenumbers = 0
        self._inside = set()
        self._patches = _Patches()

    def _counting(self, fn, attr):
        def counted(*args, **kwargs):
            # numpy.fft's n-dimensional transforms call its 1D ones: count
            # only the outermost call of each kind
            if attr in self._inside:
                return fn(*args, **kwargs)
            setattr(self, attr, getattr(self, attr) + 1)
            self._inside.add(attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self._inside.discard(attr)

        return functools.update_wrapper(counted, fn)

    def __enter__(self):
        import numpy.fft
        import scipy.fft

        functions = {}
        for fft_mod in (numpy.fft, scipy.fft):
            for name in FFT_NAMES:
                fn = getattr(fft_mod, name, None)
                if fn is not None and id(fn) not in functions:
                    functions[id(fn)] = (fn, self._counting(fn, "fft"))
        self._patches.rebind(functions)
        grid_mod = self.layers["grid"]
        field_cls, grid_cls = grid_mod.SpectralField, grid_mod.Grid
        self._patches.set(
            field_cls, "__post_init__", self._counting(vars(field_cls)["__post_init__"], "fields")
        )
        self._patches.set(
            grid_cls, "wavenumbers", self._counting(vars(grid_cls)["wavenumbers"], "wavenumbers")
        )
        return self

    def __exit__(self, *exc):
        self._patches.undo()
