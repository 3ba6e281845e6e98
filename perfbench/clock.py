"""Times scaled to a reference CPU speed.

The machines this benchmark runs on are shared: the speed one process
gets can change by 1.7x for a minute at a time.  Raw times then say more
about the neighbours than about the program.  So the benchmark keeps
running a fixed calibration kernel -- the benchmark's own code, never
the program's, so no change to the program can move it -- and scales
every time it measures by ``REFERENCE_S / kernel time``.  The kernel is
timed once between every two operations, and an operation's kernel time
is the median of the two samples before it and the two after it, so a
change of speed is seen from both sides.  Reported times are what the
measurement would have read on a machine where the kernel takes
:data:`REFERENCE_S`.  The kernel runs between operations, in
whatever cache state the last one left: on the machine this was tuned
on, that cold kernel tracked the program's slowdowns far better than a
warmed-up one (which misses the slowdowns that come from neighbours
crowding the shared caches).  The price is that a change which makes
the program touch much more memory also slows the kernel a little,
and so hides a small part of its own cost.

The kernel does what the program's evaluator does most: calls small
closures per row, builds tuples and counts them in a dict.  That kind
of work slows down in step with the program's operations (on the
machine this was tuned on, raw operation times moved 1.9x while their
ratio to the kernel moved a few percent).  Waits that are not CPU work
(``fsync``) get the same scaling.
"""

from __future__ import annotations

import random
import statistics
import time

#: Kernel time of the reference machine.
REFERENCE_S = 0.002

#: A timed stretch's factor uses the ``WINDOW // 2`` kernel samples on
#: either side of it.
WINDOW = 4

_rng = random.Random(20040314)
_ROWS = [(i, _rng.randrange(1_000_000), _rng.randrange(50)) for i in range(2500)]
_rng.shuffle(_ROWS)


def _compile(threshold: int):
    column = lambda row: row[1]  # noqa: E731
    constant = lambda row: threshold  # noqa: E731

    def less(row) -> bool:
        return column(row) < constant(row)

    return less


_PREDICATE = _compile(500_000)


def kernel() -> int:
    """The calibration work (about 2 ms on the reference machine)."""
    counts: dict = {}
    predicate = _PREDICATE
    for row in _ROWS:
        if predicate(row):
            key = (row[0], row[2])
            counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts))


class Clock:
    """Keeps every kernel sample of a run, in order, and gives the
    factors that scale measured times to the reference speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's position."""
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def around(self, position: int) -> float:
        """The scale for a time taken between samples ``position`` and
        ``position + 1``: from the median of the ``WINDOW // 2`` samples
        on either side of it."""
        half = WINDOW // 2
        near = self.samples[max(position - half + 1, 0) : position + half + 1]
        return REFERENCE_S / statistics.median(near)


class Stopwatch:
    """Times one-off work (a set-up, a recovery) in segments.

    The work calls :meth:`split` between its steps; each split takes a
    kernel sample, so every segment is scaled by the speed measured on
    both sides of it rather than by one factor taken before the start
    (the speed can change within a second).
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._segments: list[tuple[float, int]] = []
        for _ in range(WINDOW // 2):  # the samples before the first segment
            self._position = clock.sample()
        self._start = time.perf_counter()

    def split(self) -> None:
        """End the current segment and start the next one."""
        self._segments.append((time.perf_counter() - self._start, self._position))
        self._position = self.clock.sample()
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the last segment; returns the raw and the scaled total."""
        self.split()
        self.clock.sample()  # the second sample after the last segment
        raw = sum(elapsed for elapsed, _ in self._segments)
        scaled = sum(
            elapsed * self.clock.around(position) for elapsed, position in self._segments
        )
        return raw, scaled
