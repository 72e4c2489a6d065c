"""Outside-in span tracer: wraps a program's public entry points from here.

Nothing in ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
each target callable (a method on its class, or a module-level function in
every loaded module that imported it by name) with a wrapper that keeps a
span stack, so each span knows its parent and a bucket's *self* time is its
spans' duration minus the time their child spans cover.
:meth:`Tracer.uninstall` puts every original object back.

Counting only happens between :meth:`start` and :meth:`stop`, so wrappers
can be installed before a system is constructed (bound methods captured at
construction time must already be the wrapped ones) without construction
work leaking into the run's numbers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``owner`` is a dotted module path, ``attr`` a function name or
    ``Class.method`` inside it.  ``bucket`` is the ``layer`` or
    ``layer.part`` the span is accounted to.  ``root`` marks spans that
    start a recorded tree (query- and sync-rooted) when span recording is
    on.  ``count_true`` also counts calls that returned ``True``;
    ``gauge`` reads an integer off the first argument before and after the
    call and accumulates the difference (how ``Simulator.run_until`` reports
    events fired without wrapping every event).
    """

    bucket: str
    owner: str
    attr: str
    root: bool = False
    count_true: bool = False
    gauge: Callable[[Any], int] | None = None

    @property
    def name(self) -> str:
        """``module:attr`` — the span name."""
        return f"{self.owner}:{self.attr}"

    def resolve(self) -> tuple[Any, str, Callable]:
        """``(holder, attribute name, original callable)``; raises if gone."""
        holder: Any = importlib.import_module(self.owner)
        *path, leaf = self.attr.split(".")
        for part in path:
            holder = getattr(holder, part)
        if path:
            # patch the class that defines the method, so every subclass
            # inheriting it (not just the named one) runs the wrapper
            holder = next(klass for klass in holder.__mro__ if leaf in klass.__dict__)
            original = holder.__dict__[leaf]
        else:
            original = getattr(holder, leaf)
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise TypeError(f"{self.name} is not a plain function or method")
        return holder, leaf, original


class Tracer:
    """Per-bucket call counts and self times over a span stack."""

    def __init__(self, record_spans: bool = False) -> None:
        self.record_spans = record_spans
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.true_returns: dict[str, int] = {}
        self.gauges: dict[str, int] = {}
        #: recorded spans: (id, parent id or None, bucket, name, start ns, end ns)
        self.spans: list[tuple[int, int | None, str, str, int, int]] = []
        #: open spans, innermost last: [child ns so far, span id or None]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []
        self._t0 = 0
        self._t1 = 0

    # -- lifecycle ----------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; module-level functions in every importer too."""
        for target in targets:
            holder, leaf, original = target.resolve()
            wrapper = self._wrap(target, original)
            if isinstance(holder, type):
                self._patch(holder, leaf, original, wrapper)
                continue
            # ``from module import fn`` binds the function object in the
            # importer's namespace: patch every loaded module holding it.
            for module in list(sys.modules.values()):
                if module is not None and getattr(module, "__dict__", {}).get(leaf) is original:
                    self._patch(module, leaf, original, wrapper)
        for bucket in {target.bucket for target in targets}:
            self.calls.setdefault(bucket, 0)
            self.self_ns.setdefault(bucket, 0)

    def _patch(self, holder: Any, leaf: str, original: Any, wrapper: Any) -> None:
        self._patched.append((holder, leaf, original))
        setattr(holder, leaf, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patched:
            holder, leaf, original = self._patched.pop()
            setattr(holder, leaf, original)

    def start(self) -> None:
        """Begin counting (the timed region starts here)."""
        self._t0 = time.perf_counter_ns()
        self.active = True

    def stop(self) -> None:
        """Stop counting."""
        self.active = False
        self._t1 = time.perf_counter_ns()

    # -- results ------------------------------------------------------------

    @property
    def traced_wall_s(self) -> float:
        """Seconds between :meth:`start` and :meth:`stop`."""
        return (self._t1 - self._t0) / 1e9

    def self_s(self, *buckets: str) -> float:
        """Summed self seconds of *buckets*."""
        return sum(self.self_ns[bucket] for bucket in buckets) / 1e9

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of *layer*: its own bucket plus its ``layer.part`` ones."""
        return self.self_s(
            *(b for b in self.self_ns if b == layer or b.startswith(layer + "."))
        )

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as out:
            for span_id, parent, bucket, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": bucket,
                            "name": name,
                            "start_ns": start - self._t0,
                            "end_ns": end - self._t0,
                        }
                    )
                    + "\n"
                )

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        bucket = target.bucket
        name = target.name
        root = target.root
        count_true = target.count_true
        gauge = target.gauge
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_id = None
            if tracer.record_spans and (root or (stack and stack[-1][1] is not None)):
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0, span_id]
            before = gauge(args[0]) if gauge is not None else 0
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if count_true and result is True:
                    tracer.true_returns[bucket] = tracer.true_returns.get(bucket, 0) + 1
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[bucket] += 1
                self_ns[bucket] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if gauge is not None:
                    tracer.gauges[bucket] = (
                        tracer.gauges.get(bucket, 0) + gauge(args[0]) - before
                    )
                if span_id is not None:
                    parent = stack[-1][1] if stack else None
                    tracer.spans.append((span_id, parent, bucket, name, start, end))

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper
