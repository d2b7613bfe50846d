"""Outside-in span tracer for the knotpoints package.

`Tracer.install()` wraps every public function and every public method of
each package module (a layer) and rebinds each wrapped name in every
knotpoints module that holds it, so a call made through a name imported
elsewhere (`bmgame` imports `n_set_enclosure` by name) is still seen.
Private helpers, closures, properties and dunder methods are not wrapped:
their time counts toward the public caller.

Spans are aggregated as they close, so memory does not grow with the number
of calls: per key it keeps the call count and the self time (the span's
duration minus the time its child spans cover), and per (parent, child) pair
the call count.  Summing self times over every span telescopes to the time
covered by top-level spans, so layer self times plus the time spent outside
any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("intervalsets", "realfn", "nsets", "bump", "indexcomb", "bmgame", "cli")
PACKAGE = "knotpoints"


def _set_sizes(args) -> int:
    """Components (intervals or points) in the set arguments of one call."""
    n = 0
    for a in args:
        iv = getattr(a, "intervals", None)
        if isinstance(iv, tuple):
            n += len(iv)
            continue
        pts = getattr(a, "points", None)
        if isinstance(pts, tuple):
            n += len(pts)
    return n


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()
        self.components_in = 0
        self.top_s = 0.0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn, count_sets: bool):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            if count_sets:
                self.components_in += _set_sizes(args)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[key] += dt - frame[1]
                self.calls[key] += 1
                self.edges[(parent, key)] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt

        return traced

    def _setattr(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            count_sets = layer == "intervalsets"
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj, count_sets)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{name}", obj, count_sets)
        # rebind every module-level name that holds a wrapped function,
        # in the defining module and in every module that imported it
        holders = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._setattr(mod, name, w)

    def _wrap_class(self, prefix: str, cls, count_sets: bool) -> None:
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("_"):
                continue
            key = f"{prefix}.{name}"
            if isinstance(attr, staticmethod):
                self._setattr(cls, name, staticmethod(self._wrap(key, attr.__func__, count_sets)))
            elif isinstance(attr, classmethod):
                self._setattr(cls, name, classmethod(self._wrap(key, attr.__func__, count_sets)))
            elif inspect.isfunction(attr):
                self._setattr(cls, name, self._wrap(key, attr, count_sets))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, t in self.self_s.items():
            out[key.split(".", 1)[0]] += t
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for key, n in self.calls.items():
            out[key.split(".", 1)[0]] += n
        return out

    def self_of(self, *keys: str) -> float:
        """Summed self time of the named keys; a key ending in '.' is a prefix."""
        total = 0.0
        for key, t in self.self_s.items():
            if any(key.startswith(k) if k.endswith(".") else key == k for k in keys):
                total += t
        return total

    def span_table(self) -> dict:
        return {
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "edges": sorted(
                ([p or "", c, n] for (p, c), n in self.edges.items()), key=lambda e: (e[0], e[1])
            ),
        }
