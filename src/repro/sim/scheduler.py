"""Deterministic discrete-event scheduler with a virtual clock.

The :class:`Simulator` is the execution substrate for the whole library:
node kernels, the message fabric, timers, DSM protocol engines and thread
drivers all schedule callbacks here. Virtual time is a float number of
seconds; two runs with identical inputs produce identical schedules, which
the test suite relies on.

Ordering guarantees (both backends):

* callbacks fire in non-decreasing virtual time;
* callbacks scheduled for the same instant fire in scheduling order
  (FIFO), which keeps traces deterministic without relying on object
  identity or hash order.

Two backends implement that contract:

* :class:`Simulator` — a single binary heap with lazy cancellation and
  amortised compaction. The reference: bit-identical to the seed
  behaviour, and the default.
* :class:`WheelSimulator` — a hierarchical timing wheel (calendar
  queue): near-future callbacks hash into per-tick buckets drained in
  tick order, each bucket a tiny heap, so the common push/pop touches a
  handful of entries instead of a log of the whole schedule. Entries
  past the wheel horizon *spill* to an overflow heap (far-future
  retransmit/watchdog timers live there) and *migrate* onto the wheel
  when the near window drains to them. Entry lists and bucket lists are
  recycled through free pools (slab allocation) so a steady-state
  workload stops allocating.

Both backends order strictly by ``(when, seq)`` with a shared sequence
counter, so a run executes the same callbacks in the same order at the
same virtual times on either one — :func:`make_simulator` picks by name
and the differential tests in ``tests/test_wheel_scheduler.py`` hold the
two to identical traces.
"""

from __future__ import annotations

import heapq
import itertools
from math import floor
from typing import Any, Callable

from repro.errors import SimulationError

SCHEDULER_HEAP = "heap"
SCHEDULER_WHEEL = "wheel"
SCHEDULER_NAMES = (SCHEDULER_HEAP, SCHEDULER_WHEEL)


class Handle:
    """Cancellation handle returned by :meth:`Simulator.call_at`.

    A plain ``__slots__`` class (not a dataclass): the simulator creates
    one per scheduled callback, which makes construction cost part of
    the hot path.
    """

    __slots__ = ("when", "seq", "_entry", "_sim")

    def __init__(self, when: float, seq: int, entry: list,
                 sim: "Simulator | None" = None) -> None:
        self.when = when
        self.seq = seq
        self._entry = entry
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent.

        Nulls out the callback *and its arguments* so a cancelled entry
        pins no closures or payloads while it waits to be popped (a
        retransmit timer's cancelled entry used to keep its whole message
        alive until its virtual deadline drained past).

        Both backends clear an entry's callback slot when it fires, so a
        cancel after the callback ran is a no-op. The wheel also recycles
        entry lists; the sequence-number guard makes a stale handle's
        ``cancel`` a no-op instead of cancelling whatever callback now
        occupies the slot.
        """
        entry = self._entry
        if entry[1] != self.seq or entry[3] is None:
            return
        entry[3] = None
        entry[2] = ()
        if self._sim is not None:
            self._sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        entry = self._entry
        return entry[1] != self.seq or entry[3] is None

    def __repr__(self) -> str:  # pragma: no cover - diagnostic only
        state = "cancelled" if self.cancelled else "pending"
        return f"Handle(when={self.when!r}, seq={self.seq}, {state})"


class Simulator:
    """A deterministic discrete-event loop over virtual time.

    Parameters
    ----------
    start:
        Initial virtual time (seconds). Defaults to ``0.0``.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_after(1.5, fired.append, "a")
    >>> _ = sim.call_after(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    backend = SCHEDULER_HEAP

    #: below this queue size compaction is pointless (the rebuild costs
    #: more than lazily skipping the handful of dead entries)
    COMPACT_MIN = 64

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[list] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._scheduled = 0
        self._cancelled = 0
        self._cancels_total = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) callbacks."""
        return len(self._queue) - self._cancelled

    @property
    def compactions(self) -> int:
        """Times the queue was rebuilt to purge cancelled entries."""
        return self._compactions

    def stats(self) -> dict[str, Any]:
        """Scheduler internals, one uniform schema for both backends.

        ``wheel_spills`` / ``wheel_migrations`` / ``overflow_pending``
        are identically zero on the heap backend; benches can aggregate
        the dict without caring which backend is configured.
        """
        return {
            "backend": self.backend,
            "pending": self.pending,
            "scheduled": self._scheduled,
            "executed": self._events_processed,
            "cancellations": self._cancels_total,
            "compactions": self._compactions,
            "wheel_spills": 0,
            "wheel_migrations": 0,
            "overflow_pending": 0,
        }

    def _note_cancel(self) -> None:
        """A handle was cancelled; compact once dead entries dominate.

        Lazy cancellation leaves the entry in the heap, which is fine
        while live work drains past it — but a workload that schedules
        and cancels far into the future (per-send retransmit timers were
        the worst offender) can grow the heap without bound. Rebuilding
        once the dead fraction passes one half keeps total compaction
        work O(1) amortised per cancellation.
        """
        self._cancelled += 1
        self._cancels_total += 1
        if (len(self._queue) > self.COMPACT_MIN
                and self._cancelled * 2 > len(self._queue)):
            self._queue = [e for e in self._queue if e[3] is not None]
            heapq.heapify(self._queue)
            self._cancelled = 0
            self._compactions += 1

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at virtual time ``when``.

        ``when`` must not be in the past. Returns a :class:`Handle` that can
        cancel the callback before it fires.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r}; virtual time is already {self._now!r}"
            )
        self._scheduled += 1
        entry = [float(when), next(self._seq), args, fn]
        heapq.heappush(self._queue, entry)
        return Handle(entry[0], entry[1], entry, self)

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at the current instant, after queued work."""
        return self.call_at(self._now, fn, *args)

    def step(self) -> bool:
        """Run the single next callback. Returns False when queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            when, _seq, args, fn = entry
            if fn is None:
                self._cancelled -= 1
                continue
            entry[3] = None  # fired: a late Handle.cancel() is a no-op
            self._now = when
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run callbacks until the queue drains.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this bound; the clock is
            then advanced exactly to ``until``.
        max_events:
            Safety valve — raise :class:`SimulationError` after this many
            callbacks, which catches accidental livelock in tests.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            processed = 0
            while True:
                when = self._next_time()
                if when is None:
                    break
                if until is not None and when > until:
                    self._now = float(until)
                    return
                if not self.step():
                    break
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events} (livelock?)"
                    )
            if until is not None and self._now < until:
                self._now = float(until)
        finally:
            self._running = False

    def _next_time(self) -> float | None:
        """Virtual time of the next live callback, or None."""
        while self._queue and self._queue[0][3] is None:
            heapq.heappop(self._queue)
            self._cancelled -= 1
        if not self._queue:
            return None
        return self._queue[0][0]

    def peek_next(self) -> float | None:
        """Virtual time of the next live callback without running it.

        The sharded runner's quiescent skip-ahead uses this: when no
        cross-shard traffic is in flight, every shard's earliest
        pending time bounds how far the window counter may jump while
        staying conservative. Works on both backends (each overrides
        :meth:`_next_time`); cancelled entries are lazily purged, so
        repeated peeks are cheap.
        """
        return self._next_time()


class WheelSimulator(Simulator):
    """Timing-wheel / calendar-queue scheduler backend.

    Near-future callbacks go into per-tick buckets (``floor(when/tick)``)
    drained in tick order; each bucket is a small heap ordered by the
    same ``(when, seq)`` key as the reference heap, so the global
    execution order is identical. Callbacks at or past the horizon —
    ``slots`` ticks ahead of the earliest pending work — spill to an
    overflow heap and migrate onto the wheel when the near window drains
    down to them.

    Parameters
    ----------
    start:
        Initial virtual time (seconds).
    tick:
        Bucket width in virtual seconds. Callbacks within one tick share
        a bucket; pick it near the workload's natural event spacing.
    slots:
        Width of the near window in ticks; ``slots * tick`` virtual
        seconds ahead of the window base is the overflow horizon.
    """

    backend = SCHEDULER_WHEEL

    #: bound on the recycled entry/bucket pools (slab caches)
    POOL_MAX = 2048

    def __init__(self, start: float = 0.0, tick: float = 1e-3,
                 slots: int = 4096) -> None:
        super().__init__(start)
        if tick <= 0:
            raise SimulationError(f"wheel tick must be positive, got {tick!r}")
        if slots < 2:
            raise SimulationError(f"wheel needs >= 2 slots, got {slots!r}")
        self._tick = float(tick)
        self._slots = int(slots)
        #: tick index -> heap of entries within that tick
        self._buckets: dict[int, list[list]] = {}
        #: heap of tick indices that currently have a bucket
        self._tick_heap: list[int] = []
        #: entries at/past the horizon, ordered like the reference heap
        self._overflow: list[list] = []
        #: absolute virtual time of the overflow boundary
        self._horizon = (floor(self._now / self._tick)
                         + self._slots) * self._tick
        #: entries currently on the wheel (live + cancelled)
        self._size = 0
        self._spills = 0
        self._migrations = 0
        #: slab pools: spent 4-slot entry lists / emptied bucket lists
        self._entry_pool: list[list] = []
        self._bucket_pool: list[list] = []

    # -- observability --------------------------------------------------

    @property
    def pending(self) -> int:
        return self._size + len(self._overflow) - self._cancelled

    def stats(self) -> dict[str, Any]:
        data = super().stats()
        data["wheel_spills"] = self._spills
        data["wheel_migrations"] = self._migrations
        data["overflow_pending"] = len(self._overflow)
        data["wheel_buckets"] = len(self._buckets)
        return data

    # -- scheduling ------------------------------------------------------

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Handle:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when!r}; virtual time is already {self._now!r}"
            )
        self._scheduled += 1
        when = float(when)
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = next(self._seq)
            entry[2] = args
            entry[3] = fn
        else:
            entry = [when, next(self._seq), args, fn]
        if when >= self._horizon:
            heapq.heappush(self._overflow, entry)
            self._spills += 1
        else:
            key = floor(when / self._tick)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._bucket_pool.pop() if self._bucket_pool else []
                self._buckets[key] = bucket
                heapq.heappush(self._tick_heap, key)
            heapq.heappush(bucket, entry)
            self._size += 1
        return Handle(when, entry[1], entry, self)

    def _recycle(self, entry: list) -> None:
        """Return a spent entry list to the slab pool.

        The sequence number is left in place until the slot is reused:
        a stale :class:`Handle` checks it and no-ops.
        """
        entry[2] = ()
        entry[3] = None
        pool = self._entry_pool
        if len(pool) < self.POOL_MAX:
            pool.append(entry)

    def _retire_bucket(self, key: int, bucket: list) -> None:
        """Drop an emptied bucket; keep the list for reuse."""
        del self._buckets[key]
        heapq.heappop(self._tick_heap)
        if len(self._bucket_pool) < self.POOL_MAX:
            self._bucket_pool.append(bucket)

    def _advance_horizon(self) -> None:
        """The wheel drained to the overflow heap: move the window.

        Re-bases the near window at the earliest overflow entry and
        migrates everything now inside it onto the wheel. Guaranteed to
        make progress: the new horizon sits ``slots`` ticks past the
        earliest entry.
        """
        base = floor(self._overflow[0][0] / self._tick)
        self._horizon = (base + self._slots) * self._tick
        overflow = self._overflow
        while overflow and overflow[0][0] < self._horizon:
            entry = heapq.heappop(overflow)
            if entry[3] is None:
                self._cancelled -= 1
                self._recycle(entry)
                continue
            key = floor(entry[0] / self._tick)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._bucket_pool.pop() if self._bucket_pool else []
                self._buckets[key] = bucket
                heapq.heappush(self._tick_heap, key)
            heapq.heappush(bucket, entry)
            self._size += 1
            self._migrations += 1

    def _pop_entry(self) -> list | None:
        """Remove and return the globally-next entry (live or dead)."""
        tick_heap = self._tick_heap
        while True:
            if tick_heap:
                key = tick_heap[0]
                bucket = self._buckets[key]
                entry = heapq.heappop(bucket)
                if not bucket:
                    self._retire_bucket(key, bucket)
                self._size -= 1
                return entry
            if self._overflow:
                # All wheel entries precede the horizon; all overflow
                # entries are at or past it — safe to re-base now.
                self._advance_horizon()
                continue
            return None

    def step(self) -> bool:
        while True:
            entry = self._pop_entry()
            if entry is None:
                return False
            fn = entry[3]
            if fn is None:
                self._cancelled -= 1
                self._recycle(entry)
                continue
            args = entry[2]
            self._now = entry[0]
            self._events_processed += 1
            self._recycle(entry)
            fn(*args)
            return True

    def _next_time(self) -> float | None:
        while True:
            if self._tick_heap:
                key = self._tick_heap[0]
                bucket = self._buckets[key]
                entry = bucket[0]
                if entry[3] is not None:
                    return entry[0]
                heapq.heappop(bucket)
                if not bucket:
                    self._retire_bucket(key, bucket)
                self._size -= 1
                self._cancelled -= 1
                self._recycle(entry)
                continue
            overflow = self._overflow
            if overflow:
                if overflow[0][3] is None:
                    self._recycle(heapq.heappop(overflow))
                    self._cancelled -= 1
                    continue
                self._advance_horizon()
                continue
            return None

    def _note_cancel(self) -> None:
        """Lazy cancel with a whole-structure sweep once dead dominates."""
        self._cancelled += 1
        self._cancels_total += 1
        total = self._size + len(self._overflow)
        if total <= self.COMPACT_MIN or self._cancelled * 2 <= total:
            return
        for key in list(self._buckets):
            bucket = [e for e in self._buckets[key] if e[3] is not None]
            if bucket:
                heapq.heapify(bucket)
                self._buckets[key] = bucket
            else:
                del self._buckets[key]
        self._tick_heap = sorted(self._buckets)
        self._overflow = [e for e in self._overflow if e[3] is not None]
        heapq.heapify(self._overflow)
        self._size = sum(len(b) for b in self._buckets.values())
        self._cancelled = 0
        self._compactions += 1


def make_simulator(scheduler: str = SCHEDULER_HEAP,
                   start: float = 0.0) -> Simulator:
    """Build a scheduler backend by name (``"heap"`` or ``"wheel"``).

    The wheel gets its default geometry (1 ms ticks, 4096 slots).
    """
    if scheduler == SCHEDULER_HEAP:
        return Simulator(start)
    if scheduler == SCHEDULER_WHEEL:
        return WheelSimulator(start)
    raise SimulationError(
        f"unknown scheduler backend {scheduler!r}; "
        f"choose from {SCHEDULER_NAMES}")
