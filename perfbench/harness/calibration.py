"""Drift calibration: a fixed pure-Python loop timed while the work runs.

On a small shared host the speed of a vCPU drifts by tens of percent
within a minute, and CPU time drifts with wall time, so neither pinning
nor CPU-time accounting removes it.  Every timed metric is therefore
reported twice: raw, and normalized as ``raw * REFERENCE_MS / calib``.

``calib`` is the loop's expected time during the interval being
normalized (a retraining row, a block of requests, a set-up): the
median of samples taken *inside* that interval, on the thread doing the
work and between its steps, divided by ``1 - steal``,
where ``steal`` is the share of non-idle CPU time the hypervisor took
over the same samples (``/proc/stat``).  Both parts are needed: the
hypervisor deschedules a vCPU for whole slices, and a 2 ms sample
usually fits between two slices, so sample times alone see the CPU's
speed but not the slices that stretch the work.

A sample only measures the CPU when nothing else of the program ran
during it.  :meth:`Calibrator.sample` drops (and counts) a sample during
which another thread of this process used CPU (``process_time`` advanced
more than ``thread_time``) or a watched process (the server and its pool
workers) advanced its ``/proc/<pid>/stat`` CPU ticks.  Without the guard
a program change that adds background work would slow the loop and so
flatter every normalized metric.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Iterations of one calibration sample (about 2 ms on a 2-vCPU Xeon VM).
LOOP_ITERATIONS = 20_000
#: The fixed constant ``C`` of the normalization: the calibration time,
#: in ms, that normalized values are expressed against (about the median
#: sample time on a 2-vCPU Xeon VM when the benchmark was written).
REFERENCE_MS = 2.0
#: Share of a sample's wall time other threads may use before it is dropped.
OTHER_CPU_SHARE = 0.10
#: A phase fails when more than this share of its samples was dropped...
MAX_DROPPED_SHARE = 0.5
#: ...or when fewer samples than this were kept.
MIN_SAMPLES = 5
#: Samples a window needs to be normalized on its own.
MIN_WINDOW = 5


class CalibrationError(RuntimeError):
    """Too few clean calibration samples to normalize a phase."""


def calibration_loop() -> None:
    """The fixed work whose duration tracks the current CPU speed.

    Interpreter arithmetic only.  On a 2-vCPU VM, per-row retraining time
    varied with this loop's time at an elasticity of 1.1 (r = 0.92 over
    65 rows).  A pseudo-random walk over a dict larger than the private
    caches varied only half as much as the work did (elasticity 2.1), so
    a loop with such a walk in it under-corrects the drift.
    """
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003


def process_ticks(pids: Iterable[int]) -> Optional[int]:
    """Summed utime+stime clock ticks of ``pids`` (``None`` if one vanished)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            return None
        # Fields after the command name start at field 3 (state), so
        # utime (14) and stime (15) sit at offsets 11 and 12.
        total += int(fields[11]) + int(fields[12])
    return total


def cpu_ticks() -> Tuple[int, int]:
    """(steal, non-idle) clock ticks of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", "rb") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields) - fields[3] - fields[4]


def _steal_share(first: Tuple[int, int], last: Tuple[int, int]) -> float:
    (steal0, busy0), (steal1, busy1) = first, last
    return (steal1 - steal0) / (busy1 - busy0) if busy1 > busy0 else 0.0


class Calibrator:
    """Guarded calibration samples for one measured phase."""

    def __init__(self, watch: Callable[[], List[int]] = list) -> None:
        self._watch = watch
        #: Context each sample runs in: a tracer's ``span`` puts samples in
        #: spans of their own, so no layer's self time counts them.
        self.span: Callable = lambda name: nullcontext()
        self._own = threading.local()
        self._lock = threading.Lock()
        self.samples_ms: List[float] = []
        self.dropped = 0
        self.seconds_spent = 0.0
        self._last = 0.0
        self._first_ticks: Optional[Tuple[int, int]] = None
        self._last_ticks: Optional[Tuple[int, int]] = None
        self._window: List[Tuple[float, Tuple[int, int]]] = []

    def sample(self) -> bool:
        """Take one sample on the calling thread; False when the guard dropped it."""
        started = time.perf_counter()
        try:
            with self.span("calibration"):
                return self._sample()
        finally:
            self._own.seconds = self.own_seconds() + time.perf_counter() - started

    def own_seconds(self) -> float:
        """Seconds the calling thread has spent taking samples."""
        return getattr(self._own, "seconds", 0.0)

    def mark(self) -> Tuple[float, float]:
        """Start timing work that may take samples inside it (see :meth:`elapsed`)."""
        return time.perf_counter(), self.own_seconds()

    def elapsed(self, mark: Tuple[float, float]) -> float:
        """Wall seconds on this thread since ``mark``, less the samples taken in them."""
        started, sampled = mark
        return time.perf_counter() - started - (self.own_seconds() - sampled)

    def _sample(self) -> bool:
        pids = self._watch()
        ticks_before = process_ticks(pids) if pids else None
        cpu0, own0, wall0 = time.process_time(), time.thread_time(), time.perf_counter()
        calibration_loop()
        wall1, own1, cpu1 = time.perf_counter(), time.thread_time(), time.process_time()
        ticks_after = process_ticks(pids) if pids else None
        wall = wall1 - wall0
        other_cpu = (cpu1 - cpu0) - (own1 - own0)
        with self._lock:
            self._last_ticks = cpu_ticks()
            self._first_ticks = self._first_ticks or self._last_ticks
            self.seconds_spent += wall
            self._last = wall1
            if other_cpu > OTHER_CPU_SHARE * wall or ticks_before != ticks_after:
                self.dropped += 1
                return False
            self.samples_ms.append(wall * 1000.0)
            self._window.append((wall * 1000.0, self._last_ticks))
            return True

    def sample_if_due(self, interval: float = 0.05) -> None:
        """Sample between operations, at most once per ``interval`` seconds."""
        if time.perf_counter() - self._last >= interval:
            self.sample()

    def burst(self, count: int = 6) -> None:
        """Several back-to-back samples (at the edges of a set-up)."""
        for _ in range(count):
            self.sample()

    @contextmanager
    def between_calls(self, owner, attribute: str, interval: float = 0.05):
        """Sample before calls of ``owner.attribute`` while the block runs.

        Cuts a long operation into short ones for calibration: the
        sample runs on the calling thread, between two steps of the work,
        on the CPU the work runs on.  Time the work with :meth:`mark` and
        :meth:`elapsed` so the samples do not count as work.
        """
        original = owner.__dict__[attribute]
        calibrator = self

        def calibrated(*args, **kwargs):
            calibrator.sample_if_due(interval)
            return original(*args, **kwargs)

        setattr(owner, attribute, calibrated)
        try:
            yield self
        finally:
            setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------------
    @property
    def calib_ms(self) -> float:
        return statistics.median(self.samples_ms) / (1.0 - self.steal_share())

    def check(self, phase: str) -> None:
        kept = len(self.samples_ms)
        if kept < MIN_SAMPLES or self.dropped > MAX_DROPPED_SHARE * (kept + self.dropped):
            raise CalibrationError(
                f"{phase}: {kept} clean calibration samples, {self.dropped} dropped"
            )

    def time_scale(self) -> float:
        """Multiply a duration by this to normalize it (``C / calib``)."""
        return REFERENCE_MS / self.calib_ms

    def start_window(self) -> None:
        """Forget the samples so far: the next window starts now."""
        with self._lock:
            self._window = []

    def window_scale(self) -> float:
        """``C / calib`` over the samples since the previous call, then reset.

        Normalizes one stretch of work (a row, a block of requests) by the
        samples taken inside it, so drift within a run is followed too.
        A window with fewer than MIN_WINDOW samples borrows the phase's.
        """
        with self._lock:
            window, self._window = self._window, []
        if len(window) < MIN_WINDOW:
            return self.time_scale()
        steal = _steal_share(window[0][1], window[-1][1])
        return REFERENCE_MS * (1.0 - steal) / statistics.median(ms for ms, _ in window)

    def steal_share(self) -> float:
        """Share of non-idle CPU time the hypervisor took, first to last sample."""
        if self._first_ticks is None:
            return 0.0
        return _steal_share(self._first_ticks, self._last_ticks)

    def summary(self) -> Dict[str, float]:
        values = sorted(self.samples_ms)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
        median = statistics.median(values)
        return {
            "calib_ms": round(self.calib_ms, 4),
            "median_ms": round(median, 4),
            "q1_ms": round(q1, 4),
            "q3_ms": round(q3, 4),
            "spread": round((q3 - q1) / median, 4),
            "kept": len(values),
            "steal_share": round(self.steal_share(), 4),
            "dropped": self.dropped,
            "seconds_spent": round(self.seconds_spent, 3),
        }


def measure_setups(calibrator: Calibrator, count: int, setup: Callable[[], Tuple[object, float]],
                   release: Callable[[object], None] = lambda result: None):
    """Run ``setup`` ``count`` times, each normalized by a window of its own.

    ``setup()`` returns ``(result, seconds)``; ``release`` disposes of
    every result but the last, which is returned with the raw and the
    normalized seconds of each set-up.  Each window holds a burst of
    samples on either side of the set-up, plus whatever the set-up takes
    inside it, and the steal share over the whole window.  Every set-up
    starts from an empty collector: otherwise the garbage of earlier work
    (the released set-up, the inputs) decides in which set-up a full
    collection of the whole heap falls.
    """
    result, raw, normalized = None, [], []
    for index in range(count):
        if index:
            release(result)
        gc.collect()
        calibrator.start_window()
        calibrator.burst()
        result, seconds = setup()
        calibrator.burst()
        raw.append(seconds)
        normalized.append(seconds * calibrator.window_scale())
    return result, raw, normalized
