"""Per-layer spans recorded from outside the library.

Every public module-level function of a layer module is replaced by a
wrapper, in every ``bratteli`` namespace that holds it (the package, the
defining module, and any module that imported it by name), so nested time
lands in the layer that owns the function.  A call into a layer from outside
it opens a span (name, start, end, parent); a call from inside the same
layer passes straight through, though its result still feeds the layer's
counters.  A span's self time is its duration minus the
time its child spans cover.

Time spent in closures or methods that a layer returns is charged to the
layer that calls them: only module-level functions are wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("extension", "orders", "diagram", "measure", "spectral", "finite_stationary", "cli")

# Spans kept for the spans file; self times are accumulated whatever the cap.
MAX_SPANS = 200_000


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


class LayerStats:
    def __init__(self):
        self.calls = 0  # spans: entries into the layer from outside it
        self.self_s = 0.0
        self.terms_used = 0
        self.undetermined = 0
        self.operand_bits_max = 0
        self.steps = 0
        self.depth_max = 0
        self.rows = 0
        self.output_bytes = 0


class _Span:
    __slots__ = ("layer", "start", "parent", "child_s", "index")

    def __init__(self, layer, start, parent, index):
        self.layer, self.start, self.parent, self.index = layer, start, parent, index
        self.child_s = 0.0  # time covered by child spans


class Tracer:
    """Installs wrappers on the ``bratteli`` layer modules and records spans."""

    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.dropped_spans = 0
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen: dict[int, object] = {}  # results counted in this query, kept alive so ids stay unique

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"bratteli.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bratteli" or modname.startswith("bratteli.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def begin_query(self) -> None:
        self._seen.clear()

    # -- spans -------------------------------------------------------------
    def _wrap(self, layer, qualname, fn):
        stack = self._stack
        stats = self.stats[layer]
        observe = getattr(self, f"_observe_{layer}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(qualname, args, result)
                return result
            parent = stack[-1] if stack else None
            parent_index = parent.index if parent else -1
            if len(self.spans) < MAX_SPANS:  # the slot is taken at open, so parents precede children
                index = len(self.spans)
                self.spans.append((qualname, 0.0, 0.0, parent_index))
            else:
                index = -1
                self.dropped_spans += 1
            span = _Span(layer, time.perf_counter(), parent, index)
            stats.calls += 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - span.start
                stats.self_s += dur - span.child_s
                if parent is not None:
                    parent.child_s += dur
                if index >= 0:
                    self.spans[index] = (qualname, span.start, end, parent_index)
            if observe is not None:
                observe(qualname, args, result)
            return result

        return wrapper

    # -- per-layer counters taken from arguments and results ---------------
    def _first_time(self, obj) -> bool:
        """False when a nested wrapper already counted this very object."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def _observe_extension(self, qualname, args, result):
        if type(result).__name__ != "ConvergenceResult" or not self._first_time(result):
            return
        st = self.stats["extension"]
        st.terms_used += result.terms_used
        st.undetermined += result.status == "undetermined"
        for val in (result.partial_sum, result.tail_bound, result.exact_value):
            st.operand_bits_max = max(st.operand_bits_max, _bits(val))

    def _observe_orders(self, qualname, args, result):
        if qualname == "orders.successor":
            st = self.stats["orders"]
            st.steps += 1
            st.depth_max = max(st.depth_max, len(args[2].edges))

    def _observe_diagram(self, qualname, args, result):
        st = self.stats["diagram"]
        if qualname == "diagram.heights":
            st.operand_bits_max = max(st.operand_bits_max, max(map(_bits, result.values.values()), default=0))
        elif qualname == "diagram.telescope":
            top = max((c for lvl in result.levels for _, _, c in lvl), default=0)
            st.operand_bits_max = max(st.operand_bits_max, _bits(top))

    def _observe_measure(self, qualname, args, result):
        if qualname == "measure.check_tail_invariance":
            self.stats["measure"].rows += result.checked_rows

    def _observe_spectral(self, qualname, args, result):
        if qualname == "spectral.verify_eigenpair":
            self.stats["spectral"].rows += len(result.residuals)

    def add_cli_output(self, nbytes: int) -> None:
        self.stats["cli"].output_bytes += nbytes

    # -- report ------------------------------------------------------------
    def per_query(self, queries: int) -> dict[str, float]:
        """Per-layer metrics, normalized per traced query where they are sums."""
        q = max(queries, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            st = self.stats[layer]
            out[f"{layer}.calls"] = st.calls / q
            out[f"{layer}.self_ms"] = st.self_s * 1e3 / q
        ex, od, dg = self.stats["extension"], self.stats["orders"], self.stats["diagram"]
        out["extension.terms_used"] = ex.terms_used / q
        out["extension.operand_bits_max"] = ex.operand_bits_max
        out["extension.undetermined"] = ex.undetermined / q
        out["orders.steps"] = od.steps / q
        out["orders.step_us"] = od.self_s * 1e6 / od.steps if od.steps else 0.0
        out["orders.depth_max"] = od.depth_max
        out["diagram.operand_bits_max"] = dg.operand_bits_max
        out["measure.rows_checked"] = self.stats["measure"].rows / q
        out["spectral.rows_verified"] = self.stats["spectral"].rows / q
        out["cli.output_bytes"] = self.stats["cli"].output_bytes / q
        return out
