"""In-memory span recorder that wraps a package's functions from outside.

A span is ``[name, start, end, parent, op]``: the wrapped function's name,
``time.perf_counter`` readings around the call, the index of the enclosing
span (-1 for none) and the id of the operation it belongs to.  Spans stay
in a list until the caller writes them out.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        # per op id: counter name -> number, or -> set for distinct counts
        self.counts: dict[int, dict] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def record_op(self, op: int):
        """Record one operation as a root span named ``op``."""
        self.op = op
        self.counts.setdefault(op, {})
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def tally(self, key: str, value: float = 1) -> None:
        counts = self.counts[self.op]
        counts[key] = counts.get(key, 0) + value

    def distinct(self, key: str, item) -> None:
        self.counts[self.op].setdefault(key, set()).add(item)

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as span ``name``.

        ``on_return(recorder, arguments, result)`` reads counters from the
        call's bound arguments and its result, outside the span.
        """
        sig = inspect.signature(fn) if on_return else None

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()


@contextmanager
def patched(recorder: Recorder, package: str, targets: dict):
    """Route calls to ``targets`` through ``recorder`` while in the block.

    ``targets`` maps ``"module.function"`` (relative to ``package``) to an
    ``on_return`` counter or None.  Every attribute of every loaded module
    of ``package`` that holds the function is replaced, so calls through
    ``from .m import f`` bindings are recorded too.
    """
    modules = [m for n, m in list(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    swaps = []
    try:
        for qual, on_return in targets.items():
            mod, _, attr = qual.rpartition(".")
            fn = getattr(sys.modules[f"{package}.{mod}"], attr)
            traced = recorder.wrap(qual, fn, on_return)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        swaps.append((m, key, fn))
                        setattr(m, key, traced)
        yield
    finally:
        for m, key, fn in reversed(swaps):
            setattr(m, key, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out
