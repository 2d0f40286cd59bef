"""Per-layer host-time spans recorded at the program's public boundaries.

The traced run wraps every public method of every public class in each
layer package (``repro.<layer>``; a class is public when a module of the
package lists it in ``__all__``).  Each call becomes a span with a name,
start, end and parent.  Generator methods are timed per resume, because
most of the data path is ``yield from``: every ``send``/``throw`` into the
generator opens a span that closes when the generator yields again.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Self time is accumulated as spans close, so memory
stays flat however long the run; only the first ``KEEP`` spans are also
kept whole, to be written out as a Chrome trace when the run ends.  Work
that the simulator resumes directly (a CPU engine loop, a thread body the
benchmark wrote) lands in the nearest enclosing span, which is usually
``Simulator.run``; time inside no span at all is reported as unattributed.

Nothing here is imported by the program: the wrappers are installed on
the classes for the duration of a ``with Spans(...)`` block and removed
again on exit.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: Spans kept whole for the Chrome trace; the rest only add to the totals.
KEEP = 50_000

#: The layers, by package name under ``repro``.
LAYERS = (
    "sim",
    "model",
    "hw",
    "cab",
    "runtime",
    "protocols",
    "hub",
    "host",
    "buf",
    "cluster",
    "faults",
    "telemetry",
)


def public_classes(layer: str) -> List[type]:
    """Every class a module of ``repro.<layer>`` exports, defined in the layer."""
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
        modules.append(importlib.import_module(info.name))
    found: Dict[str, type] = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if (
                inspect.isclass(obj)
                and (obj.__module__ + ".").startswith(f"repro.{layer}.")
                and not issubclass(obj, BaseException)
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return [found[key] for key in sorted(found)]


class Spans:
    """Records spans around the layers' public methods while active."""

    def __init__(self):
        #: layer -> accumulated self time (ns)
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: "layer:Class.method" -> accumulated self time (ns)
        self.self_ns_by_name: Dict[str, int] = {}
        #: time covered by top-level spans (ns)
        self.covered_ns = 0
        self.count = 0
        #: (span id, name, start_ns, end_ns, parent id or -1)
        self.kept: List[Tuple[int, str, int, int, int]] = []
        # open spans: [layer, name, start, child_ns, span id]
        self._stack: list = []
        self._patched: list = []

    # -- recording ------------------------------------------------------------

    def _begin(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, perf_counter_ns(), 0, self.count])
        self.count += 1

    def _end(self) -> None:
        end = perf_counter_ns()
        layer, name, start, child, span_id = self._stack.pop()
        duration = end - start
        own = duration - child
        self.self_ns[layer] += own
        self.self_ns_by_name[name] = self.self_ns_by_name.get(name, 0) + own
        stack = self._stack
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][4]
        else:
            self.covered_ns += duration
            parent = -1
        if span_id < KEEP:
            # Spans close child-first; write_chrome sorts them by id.
            self.kept.append((span_id, name, start, end, parent))

    def reset_totals(self) -> None:
        """Zero the accumulated self times (between measured rounds)."""
        for layer in self.self_ns:
            self.self_ns[layer] = 0
        self.self_ns_by_name.clear()
        self.covered_ns = 0

    # -- wrapping ---------------------------------------------------------------

    def _wrap_function(self, layer: str, name: str, fn):
        begin, end = self._begin, self._end
        if inspect.isgeneratorfunction(fn):
            resumes = self._resumes

            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                outer = resumes(inner, layer, name)
                outer.__name__ = inner.__name__
                outer.__qualname__ = inner.__qualname__
                return outer

            wrapper = traced_generator
        else:

            def traced_call(*args, **kwargs):
                begin(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end()

            wrapper = traced_call
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _resumes(self, inner, layer: str, name: str):
        """Drive ``inner``, one span per resume, forwarding send/throw/close."""
        begin, end = self._begin, self._end
        value = None
        error = None
        while True:
            begin(layer, name)
            try:
                item = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                end()
                return stop.value
            except BaseException:
                end()
                raise
            end()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the inner generator
                error, value = exc, None

    def __enter__(self) -> "Spans":
        for layer in LAYERS:
            for cls in public_classes(layer):
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    label = f"{layer}:{cls.__qualname__}.{attr}"
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(
                            self._wrap_function(layer, label, raw.__func__)
                        )
                    elif isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self._wrap_function(layer, label, raw.__func__)
                        )
                    elif inspect.isfunction(raw):
                        wrapped = self._wrap_function(layer, label, raw)
                    else:
                        continue  # properties, constants, nested classes
                    self._patched.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, attr, raw in reversed(self._patched):
            setattr(cls, attr, raw)
        self._patched.clear()

    # -- output -----------------------------------------------------------------

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` method spans with the most self time, largest first."""
        ranked = sorted(self.self_ns_by_name.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def write_chrome(self, path) -> int:
        """Write the kept spans as Chrome-trace JSON; returns the span count.

        Each span is a complete ("X") event; ``args`` carries its id and
        its parent's id (-1 for a top-level span).
        """
        spans = sorted(self.kept)
        origin = spans[0][2] if spans else 0
        events = [
            {
                "name": name,
                "cat": name.split(":", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
        return len(events)
