"""Span self-time accounting around calls into live serving objects.

The benchmark measures each layer from outside the program: it replaces
public methods of the objects a run builds (``router.submit``,
``engine.search``, ...) with thin wrappers for the duration of a traced
round and restores them afterwards. Nothing inside ``src/`` is traced.

A span is one wrapped call. Spans nest per thread, so a span's *self
time* is its duration minus the durations of the spans it directly
encloses; summing self times over every span therefore never counts an
interval twice within one thread.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Patches:
    """Instance-attribute overrides, undone in reverse order.

    Setting an attribute on an instance shadows the class method for
    every later lookup through that instance (including the program's
    own ``self.method(...)`` calls); restoring deletes the override or
    puts back an instance attribute that was there before.
    """

    _ABSENT = object()

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        previous = obj.__dict__.get(attr, self._ABSENT)
        self._undo.append((obj, attr, previous))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            obj, attr, previous = self._undo.pop()
            if previous is self._ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)


class Tracer:
    """Self time and call count per span name, kept per thread.

    ``clock`` is injectable so the accounting can be checked on a fake
    clock. Totals live in one dict per thread (no lock on the hot path)
    and are merged by :meth:`self_seconds` / :meth:`calls`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._threads: list[tuple[dict, dict]] = []
        self._lock = threading.Lock()

    def _state(self) -> tuple[list, dict, dict]:
        """The calling thread's ``(open span child times, self seconds,
        calls)``, created on first use."""
        try:
            return self._local.state
        except AttributeError:
            state = ([], defaultdict(float), defaultdict(int))
            self._local.state = state
            with self._lock:
                self._threads.append(state[1:])
            return state

    def begin(self) -> float:
        """Open a span on the calling thread; returns its start time."""
        self._state()[0].append(0.0)
        return self.clock()

    def end(self, name: str, start: float) -> float:
        """Close the innermost span as ``name``; returns its end time."""
        end = self.clock()
        frames, self_s, calls = self._state()
        duration = end - start
        self_s[name] += duration - frames.pop()
        calls[name] += 1
        if frames:
            frames[-1] += duration
        return end

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` recorded as a span ``name``. ``on_exit(args, result,
        start, end, nested)`` runs after the span closes, outside it;
        ``nested`` tells whether another span enclosed the call."""
        clock, state = self.clock, self._state

        def traced(*args, **kwargs):
            frames, self_s, calls = state()
            nested = bool(frames)
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[name] += duration - frames.pop()
                calls[name] += 1
                if frames:
                    frames[-1] += duration
            if on_exit is not None:
                on_exit(args, result, start, end, nested)
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        with self._lock:
            for self_s, _ in self._threads:
                for name, value in self_s.items():
                    totals[name] += value
        return dict(totals)

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        with self._lock:
            for _, calls in self._threads:
                for name, value in calls.items():
                    totals[name] += value
        return dict(totals)
