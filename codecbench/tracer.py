"""Span tracing of the codec's layers from outside the package.

`Tracer.install` replaces module (or class) attributes with timing
wrappers and `Tracer.remove` puts the originals back.  A wrapper records
a span only while an op is open (`Tracer.op`), so calls made by the
benchmark's own checks never show up.  Spans stay in memory as
``[name, start_ns, end_ns, parent, op, error]`` rows; `parent` and `op`
are indices into the same list.  The codec runs single-threaded in the
traced ops, so spans nest strictly and a span's self time is its
duration minus its children's.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

_MARK = "_codecbench_traced"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Per-span notes (counts recorded at the layer boundary), by index.
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, owner, attr: str, name: str, note=None) -> None:
        """Wrap `owner.attr` in a span called `name`.

        `note(args, kwargs, result)` may return a dict of counts to keep
        with the span; it runs after the span has closed.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, name, note))
        else:
            patched = self._wrap(raw, name, note)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def remove(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            row = [name, clock(), 0, stack[-1], stack[0], None]
            spans.append(row)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                row[5] = type(exc).__name__
                raise
            finally:
                row[2] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- ops ------------------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark op; yields the span index."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        idx = len(self.spans)
        row = [f"op.{kind}", time.perf_counter_ns(), 0, None, idx, None]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield idx
        except BaseException as exc:
            row[5] = type(exc).__name__
            raise
        finally:
            row[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- analysis -------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of every span: duration minus its children's."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out


def leftover_wrappers(modules) -> list[str]:
    """Attributes of `modules` (and their classes) that are still wrapped."""
    found = []
    for mod in modules:
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in list(vars(owner).items()):
                target = value.__func__ if isinstance(value, classmethod) else value
                if getattr(target, _MARK, False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
