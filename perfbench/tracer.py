"""Layer spans for the benchmark, recorded from outside the package.

``Tracer.install()`` replaces every module-level binding of each traced
gordian function with a wrapper that records a span: layer name, parent
span, start, end and a few counters read from the call's arguments and
result.  A function imported into several modules (``fingerprint`` is
bound in five) is replaced in all of them, because a call goes through
whichever binding the calling module holds.  ``uninstall()`` puts the
originals back.

A layer's self time is its spans' duration minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (defining module, function, counters read after the call)
LAYERS = {
    "realize": ("gordian.codes", "realize_dt", None),
    "simplify": (
        "gordian.moves",
        "simplify_global",
        lambda args, out: {"crossings_in": args[0].n, "crossings_out": out.n},
    ),
    "scramble": (
        "gordian.moves",
        "backtrack_randomize",
        lambda args, out: {"crossings_out": out.n},
    ),
    "vogel": (
        "gordian.braid",
        "vogel_braid",
        lambda args, out: {"letters": len(out), "strands": out.strands},
    ),
    "seifert": (
        "gordian.invariants",
        "seifert_matrix",
        lambda args, out: {"dim": len(out)},
    ),
    "bracket": (
        "gordian.invariants",
        "kauffman_bracket",
        lambda args, out: {"crossings": args[0].n},
    ),
    "alexander": ("gordian.invariants", "alexander", None),
    "signature": ("gordian.invariants", "signature", None),
    "fingerprint": ("gordian.invariants", "fingerprint", None),
    "identify": ("gordian.identify", "identify", None),
    "table": ("gordian.identify", "build_table", None),
    "certify": ("gordian.certify", "check_certificate", None),
}

# Functions that are counted, not timed: a span around each move would
# move the simplifier's own time into a child.  The count goes to the
# innermost open span of the named layer.
COUNTED = {
    ("gordian.moves", "apply_move"): ("simplify", "moves"),
}


class Span:
    __slots__ = ("layer", "parent", "phase", "start", "end", "child_s", "counts")

    def __init__(self, layer: str, parent: "Span | None", phase: str):
        self.layer = layer
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gordian_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gordian" or name.startswith("gordian."))
    ]


def _originals() -> dict[tuple[str, str], object]:
    out = {}
    for module, func, _ in LAYERS.values():
        out[(module, func)] = getattr(importlib.import_module(module), func)
    for module, func in COUNTED:
        out[(module, func)] = getattr(importlib.import_module(module), func)
    return out


def _bindings(value_ids: set[int]):
    """Every (module, attribute, value) whose value is one of ``value_ids``."""
    for mod in _gordian_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in value_ids:
                yield mod, attr, value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[Span] = []
        self._originals = _originals()
        self._patched: list[tuple[object, str, object]] = []

    # -- wiring ------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, (module, func, probe) in LAYERS.items():
            orig = self._originals[(module, func)]
            wrappers[id(orig)] = self._span_wrapper(layer, orig, probe)
        for (module, func), (layer, counter) in COUNTED.items():
            orig = self._originals[(module, func)]
            wrappers[id(orig)] = self._count_wrapper(layer, counter, orig)
        for mod, attr, value in list(_bindings(set(wrappers))):
            setattr(mod, attr, wrappers[id(value)])
            self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched = []

    def unwrapped(self) -> list[str]:
        """Bindings in ``gordian.*`` that still hold an original function.

        Module-level containers (dicts, lists, tuples) are searched too, so
        a dispatch table holding a traced function is reported.
        """
        ids = {id(v) for v in self._originals.values()}
        found = [f"{mod.__name__}.{attr}" for mod, attr, _ in _bindings(ids)]
        for mod in _gordian_modules():
            for attr, value in vars(mod).items():
                if isinstance(value, dict):
                    items = value.values()
                elif isinstance(value, (list, tuple)):
                    items = value
                else:
                    continue
                if any(id(v) in ids for v in items):
                    found.append(f"{mod.__name__}.{attr}[...]")
        return found

    def _span_wrapper(self, layer, fn, probe):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None, self.phase)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if probe is not None:
                span.counts.update(probe(args, out))
            return out

        return wrapper

    def _count_wrapper(self, layer, counter, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for span in reversed(stack):
                if span.layer == layer:
                    span.counts[counter] = span.counts.get(counter, 0) + 1
                    break
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_stats(self, phase: str) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_s, inclusive s, and each counter's sum and max.

        Inclusive time counts only outermost spans of a layer, so a layer
        that calls itself is not counted twice.
        """
        stats: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.phase != phase:
                continue
            st = stats.setdefault(span.layer, {"calls": 0, "self_s": 0.0, "s": 0.0})
            st["calls"] += 1
            st["self_s"] += span.duration - span.child_s
            outer = span.parent
            while outer is not None and outer.layer != span.layer:
                outer = outer.parent
            if outer is None:
                st["s"] += span.duration
            for key, value in span.counts.items():
                st[key + "_sum"] = st.get(key + "_sum", 0) + value
                st[key + "_max"] = max(st.get(key + "_max", value), value)
        return stats
