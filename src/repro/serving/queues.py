"""Per-model request queues with deadlines: FIFO and earliest-deadline-first.

The serving frontend holds one bounded queue per deployed model.  A queue
stores :class:`QueueEntry` wrappers (the request, its absolute deadline,
when it was enqueued, optionally its host samples); the discipline decides
*pop order only* — admission bounds length, the coalescer decides *when*
to pop, and the deadline timer is always anchored at the oldest enqueue
time regardless of discipline.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulerError
from repro.workloads.requests import InferenceRequest

__all__ = ["QueueEntry", "RequestQueue", "FIFOQueue", "EDFQueue", "make_queue"]


@dataclass(frozen=True, slots=True)
class QueueEntry:
    """One queued request plus its serving-side bookkeeping."""

    request: InferenceRequest
    enqueued_s: float
    seq: int                      # frontend-global submission order
    x: "np.ndarray | None" = field(default=None, compare=False)
    degraded: bool = False        # routed via the degrade (shed-to-cheap) path

    @property
    def deadline_s(self) -> "float | None":
        """Absolute completion deadline (None = best effort)."""
        return self.request.deadline_s

    @property
    def batch(self) -> int:
        """Samples in this request."""
        return self.request.batch

    def slack_s(self, now: float) -> float:
        """Seconds until the deadline (inf without one; negative if past)."""
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - now


class RequestQueue:
    """Bounded per-model queue; subclasses fix the pop discipline.

    Besides the pop order, a discipline answers :meth:`oldest_enqueued_s`
    — the coalescer reads it on every arrival and timer arm, so it must
    not walk the queue.
    """

    discipline = "abstract"

    def __init__(self, model: str, capacity: "int | None" = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.model = model
        self.capacity = capacity
        # O(1) load accounting: length and samples are read on every
        # arrival and routing probe, so neither may walk the queue.
        self._total_samples = 0
        self._n = 0

    # -- discipline hooks (subclass responsibility) ------------------------

    def _append(self, entry: QueueEntry) -> None:
        raise NotImplementedError

    def _popleft(self) -> QueueEntry:
        raise NotImplementedError

    def _peek(self) -> QueueEntry:
        raise NotImplementedError

    def _remove(self, request_id: str) -> "QueueEntry | None":
        raise NotImplementedError

    def __iter__(self):
        raise NotImplementedError

    def oldest_enqueued_s(self) -> "float | None":
        """Earliest enqueue time among waiting entries (None if empty).

        This anchors the coalescer's max-wait timer: even under EDF pop
        order, no request may wait longer than max_wait.
        """
        raise NotImplementedError

    # -- shared API --------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def full(self) -> bool:
        """Whether another push would exceed capacity."""
        return self.capacity is not None and self._n >= self.capacity

    def push(self, entry: QueueEntry) -> None:
        """Enqueue; raises :class:`SchedulerError` when at capacity.

        Admission control checks :attr:`full` *before* pushing — a raise
        here means the frontend wiring is wrong, not that load is high.
        """
        if self.full:
            raise SchedulerError(
                f"queue for {self.model!r} is at capacity ({self.capacity})"
            )
        self._append(entry)
        self._n += 1
        self._total_samples += entry.batch

    def pop(self) -> QueueEntry:
        """Dequeue the next entry under this queue's discipline."""
        if not self._n:
            raise SchedulerError(f"queue for {self.model!r} is empty")
        entry = self._popleft()
        self._n -= 1
        self._total_samples -= entry.batch
        return entry

    def peek(self) -> QueueEntry:
        """The entry :meth:`pop` would return, without removing it."""
        if not self._n:
            raise SchedulerError(f"queue for {self.model!r} is empty")
        return self._peek()

    def remove(self, request_id: str) -> "QueueEntry | None":
        """Remove one entry out of discipline order (None when absent).

        The rescue path for timeouts and device dropouts: a request that
        is still *queued* can be pulled back and retried elsewhere without
        any risk of double execution.  O(n) per call — fault handling is
        rare by construction, so the hot push/pop counters stay O(1) and
        pay nothing for this capability.
        """
        entry = self._remove(request_id)
        if entry is None:
            return None
        self._n -= 1
        self._total_samples -= entry.batch
        return entry

    @property
    def total_samples(self) -> int:
        """Samples summed over all queued requests (O(1) counter)."""
        return self._total_samples


class FIFOQueue(RequestQueue):
    """Arrival-order queue — the throughput-friendly default.

    :meth:`oldest_enqueued_s` is O(1) from a monotonic min-deque over the
    entries: a push first drops every tail entry enqueued later than it
    (none of them can be the oldest while it waits), a pop drops the
    head when it *is* the popped entry, and the rare out-of-order
    :meth:`remove` rebuilds the deque in O(n).  Exact for any push order
    and for duplicate request ids, since entries are matched by identity.
    """

    discipline = "fifo"

    def __init__(self, model: str, capacity: "int | None" = None):
        super().__init__(model, capacity)
        self._entries: deque[QueueEntry] = deque()
        self._oldest: deque[QueueEntry] = deque()

    def _append(self, entry: QueueEntry) -> None:
        self._entries.append(entry)
        self._track_oldest(entry)

    def _track_oldest(self, entry: QueueEntry) -> None:
        oldest = self._oldest
        enqueued = entry.enqueued_s
        while oldest and oldest[-1].enqueued_s > enqueued:
            oldest.pop()
        oldest.append(entry)

    def _popleft(self) -> QueueEntry:
        entry = self._entries.popleft()
        if self._oldest[0] is entry:
            self._oldest.popleft()
        return entry

    def _peek(self) -> QueueEntry:
        return self._entries[0]

    def _remove(self, request_id: str) -> "QueueEntry | None":
        entries = self._entries
        for i, entry in enumerate(entries):
            if entry.request.request_id == request_id:
                del entries[i]
                self._oldest.clear()
                for kept in entries:
                    self._track_oldest(kept)
                return entry
        return None

    def __iter__(self):
        return iter(self._entries)

    def oldest_enqueued_s(self) -> "float | None":
        oldest = self._oldest
        return oldest[0].enqueued_s if oldest else None


class EDFQueue(RequestQueue):
    """Earliest-deadline-first queue; deadline-less entries rank last.

    Ties (equal deadlines, and all best-effort traffic) break by
    submission order, so EDF over a deadline-free stream degrades to FIFO.
    Pop order is not arrival order, so :meth:`oldest_enqueued_s` reads a
    lazy arrival heap: pops and removals mark their (enqueued_s, seq) key
    removed, and the heap top is cleaned on read (amortized O(1)).
    """

    discipline = "edf"

    def __init__(self, model: str, capacity: "int | None" = None):
        super().__init__(model, capacity)
        self._heap: list[tuple[float, int, QueueEntry]] = []
        self._sorted_view: "list[tuple[float, int, QueueEntry]] | None" = None
        self._arrival_heap: "list[tuple[float, int]]" = []
        self._arrival_removed: "dict[tuple[float, int], int]" = {}

    @staticmethod
    def _key(entry: QueueEntry) -> tuple[float, int]:
        deadline = entry.deadline_s if entry.deadline_s is not None else float("inf")
        return (deadline, entry.seq)

    def _forget_arrival(self, entry: QueueEntry) -> None:
        key = (entry.enqueued_s, entry.seq)
        removed = self._arrival_removed
        removed[key] = removed.get(key, 0) + 1

    def _append(self, entry: QueueEntry) -> None:
        heapq.heappush(self._heap, (*self._key(entry), entry))
        heapq.heappush(self._arrival_heap, (entry.enqueued_s, entry.seq))
        self._sorted_view = None

    def _popleft(self) -> QueueEntry:
        self._sorted_view = None
        entry = heapq.heappop(self._heap)[2]
        self._forget_arrival(entry)
        return entry

    def _peek(self) -> QueueEntry:
        return self._heap[0][2]

    def _remove(self, request_id: str) -> "QueueEntry | None":
        heap = self._heap
        for i, (_, _, entry) in enumerate(heap):
            if entry.request.request_id == request_id:
                heap[i] = heap[-1]
                heap.pop()
                if i < len(heap):
                    heapq.heapify(heap)
                self._sorted_view = None
                self._forget_arrival(entry)
                return entry
        return None

    def __iter__(self):
        # Deadline-order traversal over a sorted view that is computed once
        # and reused until the next push/pop (iterating a heap copy used to
        # cost a full sort per call, on every stats read).
        if self._sorted_view is None:
            self._sorted_view = sorted(self._heap, key=lambda t: t[:2])
        return (entry for _, _, entry in self._sorted_view)

    def oldest_enqueued_s(self) -> "float | None":
        if not self._heap:
            return None
        heap, removed = self._arrival_heap, self._arrival_removed
        while heap:
            count = removed.get(heap[0], 0)
            if not count:
                break
            if count == 1:
                del removed[heap[0]]
            else:
                removed[heap[0]] = count - 1
            heapq.heappop(heap)
        return heap[0][0]


_DISCIPLINES = {"fifo": FIFOQueue, "edf": EDFQueue}


def make_queue(
    discipline: str, model: str, capacity: "int | None" = None
) -> RequestQueue:
    """Build a queue by discipline name ('fifo' | 'edf')."""
    try:
        cls = _DISCIPLINES[discipline]
    except KeyError:
        known = ", ".join(sorted(_DISCIPLINES))
        raise ValueError(
            f"unknown queue discipline {discipline!r}; known: {known}"
        ) from None
    return cls(model, capacity)
