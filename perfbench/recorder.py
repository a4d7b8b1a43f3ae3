"""Timing, operation accounting and tracing for the benchmark's calls.

Every call the benchmark makes into netcoh goes through :meth:`Recorder.call`,
which adds its wall and CPU time to the current round.  Checks run outside
those calls, so a round's time is the program's time to every answer and
nothing of the benchmark's own reference work.  With tracing on, each call
and each operation also leaves a span (name, start, end, parent span and
counts) in memory; the spans are written out when the run ends.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from contextlib import contextmanager


class Mismatch(Exception):
    """A program output disagrees with its reference or a required property."""


class FaultSeen(Exception):
    """A check failed in exactly the way a known program fault makes it fail.

    Raised only after the operation's other checks have passed, and only when
    the failure matches the fault's signature on its known inputs."""

    def __init__(self, fault: str, what: str):
        super().__init__(what)
        self.fault = fault


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def expect_close(value: float, ref: float, rtol: float, what: str) -> None:
    err = abs(value - ref) / abs(ref)
    expect(err <= rtol, f"{what}: {value!r} vs reference {ref!r} (relative {err:.2e} > {rtol:g})")


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.unexpected: list[str] = []

    def call(self, layer: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Run one netcoh call, timed; ``layer`` names its span."""
        span = self._start(layer, attrs) if self.tracing else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.cpu += time.process_time() - c0
            self.wall += t1 - t0
            if span is not None:
                self._end(span, t0, t1)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A parent span for the calls made inside it (no-op untraced)."""
        if not self.tracing:
            yield
            return
        span = self._start(name, attrs)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(span, t0, time.perf_counter())

    @contextmanager
    def op(self, name: str, fault: str | None = None):
        """One checked operation.  ``fault`` names the known program fault
        that makes it fail: only a :class:`FaultSeen` of that fault counts as
        it, and any other failure marks the run incorrect."""
        self.attempted += 1
        try:
            with self.span(name, {"fault": fault} if fault else None):
                yield
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            if isinstance(exc, FaultSeen) and exc.fault == fault:
                self.faults[(fault, name, _first_line(exc))] += 1
            else:
                self.unexpected.append(f"{name}: {exc!r}\n{traceback.format_exc()}")

    def _start(self, name: str, attrs: dict | None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name, "attrs": attrs or {}})
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, span: int, t0: float, t1: float) -> None:
        self._open.pop()
        self.spans[span]["start"] = t0 - self.origin
        self.spans[span]["end"] = t1 - self.origin

    def absorb(self, other: "Recorder") -> None:
        """Add another recorder's counts (its spans are kept by the caller)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.faults.update(other.faults)
        self.unexpected.extend(other.unexpected)


def _first_line(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text.splitlines()[0][:160]
