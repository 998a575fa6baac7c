"""Timing and tracing from outside the library.

Clock times work in wall and in reference seconds. A Tracer replaces chosen
library functions, in every privsvm module namespace that holds them, with
wrappers that record nested spans in memory; nothing is patched outside
`Tracer.installed()`, so untraced ops run the library as is. The rest is the
arithmetic over spans and samples.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0


def self_times(spans) -> dict:
    """Total self time in ns per span name: each span's duration minus the
    durations of its direct children. Spans nest, so children never overlap."""
    child_ns = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns)
    totals = {}
    for s in spans:
        own = (s.end_ns - s.start_ns) - child_ns.get(s.id, 0)
        totals[s.name] = totals.get(s.name, 0) + own
    return totals


def tail_percentile(count: int, beyond: int = 10) -> int | None:
    """Highest whole percentile p with at least `beyond` of `count` samples
    above it (count * (1 - p/100) >= beyond), or None when that percentile
    would not lie above the median."""
    if count <= 0:
        return None
    p = 100 * (count - beyond) // count
    return p if p > 50 else None


class Clock:
    """Times work in wall seconds and in reference seconds.

    The machines this runs on share cores with other tenants, and one op can
    take twice as long from one minute to the next. The clock therefore
    measures the machine's speed alongside the work: a fixed calibration
    loop shaped like the library's hot loops runs in full before and after
    each timed piece, and one part of it runs every SAMPLE_S seconds during
    the piece, from a timer signal. The handler's time is excluded from the
    piece's wall time. Reference seconds are wall seconds times CAL_PART_S
    over the mean time of one calibration part across those samples.
    """

    CAL_PART_S = 0.008  # about one part on an idle core of the reference box
    FULL_PARTS = 8
    SAMPLE_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._cols = rng.random((64, 1000))
        self._za = rng.random((self.FULL_PARTS, 300))
        self._zb = rng.random((1000, 300))
        self._samples: list[float] = []
        self._paused = 0.0
        self._sampling = False
        self._last = self.calibrate(self.FULL_PARTS)

    def calibrate(self, parts: int) -> float:
        """Seconds per part of: scalar updates driven from Python, each with
        a vector axpy (a dual solver sweep), and cos/mean of one row against
        a 1000 x 300 block (a row of the random-feature Gram, which also
        works the caches)."""
        import numpy as np

        cols, za, zb = self._cols, self._za, self._zb
        q = np.zeros(1000)
        start = time.perf_counter()
        for i in range(1500 * parts):
            g = 1.0 - q[i % 1000]
            q += (g * 1e-4) * cols[i % 64]
        for i in range(parts):
            np.mean(np.cos(za[i][None, :] - zb), axis=1)
        return (time.perf_counter() - start) / parts

    def _on_timer(self, signum, frame):
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        self._samples.append(self.calibrate(1))
        self._paused += time.perf_counter() - start
        self._sampling = False

    def start(self, sample: bool = True) -> None:
        """Begin timing; `sample` enables calibration during the work."""
        self._samples, self._paused = [], 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall, reference) seconds since start()."""
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = elapsed - self._paused
        before, self._last = self._last, self.calibrate(self.FULL_PARTS)
        cals = [before, self._last, *self._samples]
        return wall, wall * self.CAL_PART_S * len(cals) / sum(cals)


class Tracer:
    """Nested span recorder plus per-span counters.

    `targets` maps a span name to (module name, function name, counter); the
    counter, if given, is called as counter(tracer, span, args, result) after
    the function returns. A target whose function no longer exists is skipped.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict = {}
        self.stack: list[Span] = []  # open spans, outermost first

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter_ns())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self.stack.pop()
            if counter is not None:
                counter(self, span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "privsvm"):
        """Patch every `package` module attribute bound to a target function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        patched = []
        try:
            for name, (module_name, func_name, counter) in self.targets.items():
                module = sys.modules.get(f"{package}.{module_name}")
                original = getattr(module, func_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)
