"""Cooperative query deadlines.

SPARQL evaluation is a tree of Python loops — index scans, nested-loop
probes, filter passes, path frontiers.  A runaway query (the paper's
EQ11 five-hop path query is the canonical example) can otherwise hold a
server worker for minutes.  :class:`Deadline` gives those loops a
cheap, cooperative abort: each iteration calls :meth:`Deadline.tick`,
which decrements a counter and only consults the clock every
``stride`` calls, so the per-row cost is one decrement and compare —
and when no deadline is configured the evaluator skips the calls
entirely (the ``if deadline is not None`` fast path).

With the default stride of 256, a query stops within 256 loop
iterations of its deadline.  An iteration is *not* always
microseconds, though: in the batched joins
(:func:`repro.sparql.physical._join_batches`) one iteration is one
*left row*, which emits its whole fan-out — ``len(right)`` output rows
in a cartesian product — so 256 iterations can be hundreds of
thousands of rows.  Those loops therefore also call
:meth:`Deadline.check` at every batch flush, which bounds the
overshoot by one batch plus one left row's fan-out and keeps a runaway
query inside the "2x the configured timeout" bound the server
promises.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.sparql.errors import QueryTimeout

#: Loop iterations between clock reads.
DEFAULT_STRIDE = 256


class Deadline:
    """A wall-clock budget checked cooperatively from evaluation loops."""

    __slots__ = ("timeout", "started_at", "expires_at", "stride", "_countdown")

    def __init__(self, timeout: float, stride: int = DEFAULT_STRIDE):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.started_at = time.monotonic()
        self.expires_at = self.started_at + timeout
        self.stride = stride
        self._countdown = stride

    def tick(self) -> None:
        """Called once per loop iteration; raises :class:`QueryTimeout`
        at most ``stride`` iterations after the deadline passes."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.stride
            self.check()

    def check(self) -> None:
        """Consult the clock immediately (operator boundaries)."""
        now = time.monotonic()
        if now >= self.expires_at:
            raise QueryTimeout(self.timeout, now - self.started_at)

    def remaining(self) -> float:
        """Seconds left (<= 0 when expired) — used for lock waits."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self) -> str:
        return (
            f"Deadline(timeout={self.timeout!r}, "
            f"remaining={self.remaining():.3f})"
        )


def deadline_for(timeout: Optional[float]) -> Optional[Deadline]:
    """``None``-propagating constructor (no timeout -> no deadline)."""
    return None if timeout is None else Deadline(timeout)
