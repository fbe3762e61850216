"""Outside-in tracer: times curvebounds' layers from the benchmark's
files, without touching the package's source.

``install`` rebinds, in every layer module, each public function the
module defines or imports from another layer (``replay.sqrt_rational``,
``bounds.delta_eta``, ``cli.build_system``, ...), and wraps the methods
of ``QuadNumber`` and ``DivisorClass`` in place.  Each call of a wrapper
appends a span (function, parent span, start, end) to an in-memory list;
``flush`` turns the list into per-function call counts, self times and
inclusive times.  A span's layer is the module that defines the
function; ``Fraction`` arithmetic, stdlib calls and private helpers are
charged to the layer that calls them.  The benchmark's own calls open
root spans with ``span``, in the ``bench`` layer.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager

LAYERS = ("scalar", "blowup", "seshadri", "bounds", "replay", "catalog", "cli")
ROOT_LAYER = "bench"
PACKAGE = "curvebounds"
TRACED_CLASSES = (("scalar", "QuadNumber"), ("blowup", "DivisorClass"))
_UNWRAPPED_METHODS = {"__setattr__", "__delattr__", "__getattribute__"}
# prefix of the stderr line on which the desk shim reports its totals
TRACE_MARK = "perfbench-trace "


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children.  A span is (function id, parent index or -1,
    start, end); a child always follows its parent in the list."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, _, start, end) in enumerate(spans)]


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.functions: list[tuple[str, str]] = []    # id -> (layer, name)
        self.totals: dict[int, list] = {}             # id -> [calls, self, incl]
        self.checked = 0    # region_empty's own count of points checked
        self._ids: dict[tuple[str, str], int] = {}
        self._wrappers: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def function_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.functions)
            self.functions.append(key)
        return self._ids[key]

    def wrap(self, fn, layer: str, name: str):
        fid = self.function_id(layer, name)
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, parent, start, end)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, layer: str = ROOT_LAYER):
        fid = self.function_id(layer, name)
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans[index] = (fid, parent, start, end)

    def flush(self) -> None:
        """Fold the recorded spans into the totals and drop them."""
        for span, own in zip(self.spans, self_times(self.spans)):
            fid, _, start, end = span
            total = self.totals.setdefault(fid, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += own
            total[2] += end - start
        self.spans.clear()

    # -- installing the wrappers -----------------------------------------

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrapper_for(self, fn, layer: str, name: str):
        if id(fn) not in self._wrappers:
            wrapper = self.wrap(fn, layer, name)
            if name == "region_empty":
                wrapper = self._counting_checked(wrapper)
            self._wrappers[id(fn)] = wrapper
        return self._wrappers[id(fn)]

    def _counting_checked(self, wrapper):
        def region_empty(*args, **kwargs):
            outcome = wrapper(*args, **kwargs)
            self.checked += outcome.checked
            return outcome
        return region_empty

    def install(self, modules: dict) -> None:
        """Wrap the layers in ``modules`` (layer name -> module object)."""
        for layer, cls_name in TRACED_CLASSES:
            if layer not in modules:
                continue
            cls = getattr(modules[layer], cls_name)
            for name, fn in list(vars(cls).items()):
                if isinstance(fn, types.FunctionType) and name not in _UNWRAPPED_METHODS:
                    self._rebind(cls, name, self._wrapper_for(
                        fn, layer, f"{cls_name}.{name}"))
        for module in modules.values():
            for name, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__.startswith(PACKAGE + ".")):
                    layer = fn.__module__.rsplit(".", 1)[1]
                    if layer in LAYERS:
                        self._rebind(module, name, self._wrapper_for(
                            fn, layer, fn.__qualname__))
        if "cli" in modules:
            self._time_parse_args(modules["cli"])

    def _time_parse_args(self, cli) -> None:
        """argparse's parse_args runs inside cli.main; give it a span by
        wrapping it on each parser that build_parser returns."""
        build = cli.build_parser

        def build_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self.wrap(parser.parse_args, "cli",
                                          "ArgumentParser.parse_args")
            return parser

        self._rebind(cli, "build_parser", build_parser)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading the totals ------------------------------------------------

    def summary(self) -> dict:
        """Totals by "layer:name": [calls, self seconds, inclusive seconds]."""
        return {f"{layer}:{name}": list(self.totals[fid])
                for fid, (layer, name) in enumerate(self.functions)
                if fid in self.totals}


def layer_modules(package) -> dict:
    """The imported layer modules of the curvebounds package."""
    return {layer: getattr(package, layer) for layer in LAYERS
            if hasattr(package, layer)}
