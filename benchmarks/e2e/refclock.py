"""Reference-host clock: wall time corrected for the host's speed drift.

The reference sandbox is a shared 2-core VM whose effective speed moves by
+-25 % over tens of seconds and by more in sub-second bursts (the same
pure-Python kernel takes 0.056-0.094 s with an idle load average).  A raw
wall-clock metric therefore has a run-to-run spread of ~20 % - twice the
10 % regression bound it is supposed to resolve.

:class:`RefClock` removes that noise at its source.  A fixed *calibration
kernel* (a quarter of a millisecond of interpreter work, no GC-tracked
allocation) is timed every :data:`TICK_EVERY` input tuples, from inside
the benchmark's own feed generators.  The running mean of the last
:data:`SMOOTH` kernel times, divided by :data:`KERNEL_REF_S`, is the
current *speed factor* ``f`` (1.0 = the reference host, 1.3 = this host is
currently 30 % slower).  Virtual time advances at ``dt / f`` and stands
still while the kernel itself runs, so every duration read off the clock is
"seconds on a host on which the kernel takes exactly KERNEL_REF_S", and the
kernel's own cost never lands in a measurement.

Everything the benchmark times - replay seconds, delivery latencies, the
open-loop schedule itself, CPU seconds, set-up - is expressed on this
clock.  A change to ``src/`` cannot move the kernel, so a real speed-up or
slow-down of the system shows in full; only the host's own drift cancels.
Raw wall-clock values are reported next to the normalised ones.
"""

from __future__ import annotations

from array import array
from time import perf_counter

__all__ = ["KERNEL_REF_S", "SMOOTH", "TICK_EVERY", "RefClock"]

#: Kernel time on the reference host (seconds).  Roughly the median on
#: the baseline host (see BASELINE.json), so ``f`` averages ~1 there.
KERNEL_REF_S = 220e-6
#: Kernel samples in the running mean that defines the current factor.
SMOOTH = 8
#: The feeds tick the clock once per this many input tuples.
TICK_EVERY = 256

_KEYS = ["term%d" % i for i in range(512)]
_SMALL = {key: i for i, key in enumerate(_KEYS)}
_LARGE_MOD = 1000003
_LARGE = {i * 7919 % _LARGE_MOD: i for i in range(300_000)}


def _kernel() -> float:
    """Fixed interpreter work, half compute-bound and half memory-bound.

    The host's slow-downs do not hit all code alike: a cache-resident
    arithmetic loop swings by more than the system under test, random
    probes into a table far larger than the caches by less.  Of the
    kernels tried (integer loop, tuple allocation, 8 MB / 32 MB array
    walks), this equal blend of string/float/dict work and pseudo-random
    probes into a 300 k-entry dict tracked the replay best on every
    workload: the per-pass spread of normalised replay time fell from
    22-24 % to 3-5 % (README.md, "Host-speed normalisation").

    It allocates nothing the collector tracks (str, float and int only), so
    it never triggers - and never absorbs - a garbage collection that
    belongs to the system under test.
    """
    small_get = _SMALL.get
    small = _SMALL
    keys = _KEYS
    acc = 0.0
    for i in range(300):
        key = keys[(i * 7) & 511]
        acc += small_get(key, 0) * 0.5
        if "%s:%d" % (key, i) in small:
            acc += 1.0
    large_get = _LARGE.get
    probe = 12345
    for i in range(250):
        probe = (probe * 1103515245 + 12345) & 0x7FFFFFFF
        hit = large_get(probe % _LARGE_MOD)
        if hit is not None:
            acc += hit
    return acc


class RefClock:
    """Virtual clock in reference-host seconds (see the module docstring)."""

    def __init__(self) -> None:
        self._ring = [0.0] * SMOOTH
        self._ring_sum = 0.0
        self._ticks = 0
        self._kernel_s = 0.0
        self._t = perf_counter()
        self._v = 0.0
        self._f = 1.0
        # Anchor history, so raw stamps taken between ticks (the sink
        # callback's) can be converted after the fact: virtual time is
        # piecewise linear in raw time, one piece per tick.
        self._anchor_t = array("d")
        self._anchor_v = array("d")
        self._anchor_f = array("d")
        for _ in range(SMOOTH):
            self.tick()

    def tick(self) -> None:
        """Time one kernel run and re-anchor the clock on the new factor."""
        started = perf_counter()
        _kernel()
        ended = perf_counter()
        took = ended - started
        self._v += (started - self._t) / self._f
        self._t = ended
        slot = self._ticks % SMOOTH
        self._ring_sum += took - self._ring[slot]
        self._ring[slot] = took
        self._ticks += 1
        self._kernel_s += took
        filled = self._ticks if self._ticks < SMOOTH else SMOOTH
        self._f = self._ring_sum / filled / KERNEL_REF_S
        self._anchor_t.append(ended)
        self._anchor_v.append(self._v)
        self._anchor_f.append(self._f)

    def now(self) -> float:
        """Current virtual time (seconds since the clock was created)."""
        return self._v + (perf_counter() - self._t) / self._f

    def anchor(self) -> tuple:
        """``(raw t, virtual v, factor)`` of the latest tick."""
        return self._t, self._v, self._f

    def mark(self) -> tuple:
        """A point on both clocks: ``(virtual s, raw s, kernel s so far)``."""
        raw = perf_counter()
        return self._v + (raw - self._t) / self._f, raw, self._kernel_s

    @staticmethod
    def elapsed(start: tuple, end: tuple) -> tuple:
        """``(virtual s, raw s)`` between two marks, kernel time excluded."""
        return end[0] - start[0], (end[1] - start[1]) - (end[2] - start[2])

    @staticmethod
    def scale_cpu(cpu_s: float, start: tuple, end: tuple) -> float:
        """CPU seconds of ``[start, end]`` on the reference host.

        The kernel's own CPU is taken out first; the rest is scaled by the
        interval's virtual/raw ratio (its mean speed factor).
        """
        virtual, raw = RefClock.elapsed(start, end)
        net = cpu_s - (end[2] - start[2])
        return net * virtual / raw if raw > 0 else net

    def to_virtual(self, stamps: array) -> array:
        """Convert ascending raw ``perf_counter`` stamps to virtual time."""
        anchor_t, anchor_v, anchor_f = self._anchor_t, self._anchor_v, self._anchor_f
        last = len(anchor_t) - 1
        out = array("d")
        index = 0
        for stamp in stamps:
            while index < last and anchor_t[index + 1] <= stamp:
                index += 1
            out.append(anchor_v[index] + (stamp - anchor_t[index]) / anchor_f[index])
        return out
