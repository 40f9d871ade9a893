"""Stripe primitives for the partitioned :class:`~repro.core.runtime.Site`.

PR 3's obiflow audit left every object-table access serialized under one
global reentrant ``Site._lock`` — the single hot lock the ROADMAP names
as the scalability ceiling.  This module holds the pieces the striped
runtime is built from, kept separate so the analyzer, the runtime, and
the benchmarks share one vocabulary:

* :func:`stripe_of` — the deterministic oid → stripe routing function;
* :class:`StripeLock` — a reentrant per-stripe lock that counts
  contention (acquire waits, reentrancy depth) for telemetry;
* :func:`snapshot_read` — the declaration marker for lock-free read
  paths.  obiflow keys on it: a declared snapshot read may read striped
  tables and guarded fields without their locks (OBI203/OBI207 exempt
  the reads) but must not mutate guarded state, transitively (OBI209).

Only the object tables are striped.  A site's counters are one
:class:`~repro.util.counters.Counters` instance per kind.

Striping is node-local: nothing here crosses the wire, so striped and
un-striped sites interoperate unchanged.
"""

from __future__ import annotations

import contextlib
import threading
import zlib
from typing import Callable, TypeVar

#: Default stripe count for new sites.  Power of two near the thread
#: counts the contention benchmark sweeps; override per site or per
#: world (``World(..., stripes=N)``).
DEFAULT_STRIPES = 16

#: Shared no-op context for snapshot reads; ``nullcontext`` keeps no
#: per-use state, so one instance serves every thread.
NULL_GUARD = contextlib.nullcontext()

_F = TypeVar("_F", bound=Callable)


def stripe_of(oid: str, stripes: int) -> int:
    """Deterministic stripe index for an obi id.

    ``zlib.crc32`` rather than ``hash()``: the builtin string hash is
    salted per process, and stripe routing must agree across threads,
    runs, and recorded telemetry (the property tests pin exact routes).
    """
    return zlib.crc32(oid.encode("utf-8")) % stripes


def snapshot_read(func: _F) -> _F:
    """Declare a method a lock-free snapshot read.

    A snapshot read may look at stripe-partitioned tables and guarded
    fields without taking their locks — safe for single-key ``get``-style
    probes, where the interpreter's atomic dict operations give a
    point-in-time answer and the caller tolerates racing with writers
    (a fault that misses re-checks under the lock it takes next).

    The declaration is load-bearing for obiflow: OBI203/OBI207 stop
    flagging the unlocked *reads*, and OBI209 enforces the other half of
    the contract — no path out of a declared snapshot read may mutate
    guarded state.
    """
    func.__obiwan_snapshot_read__ = True
    return func


class StripeLock:
    """One stripe's reentrant lock, with contention accounting.

    ``acquire`` first tries the non-blocking fast path; only a refused
    attempt counts as a *wait* before falling back to a blocking
    acquire.  ``max_depth`` records the deepest reentrancy seen.  Both
    counters are monitoring-grade: ``waits`` increments outside the lock
    (there is nothing else to hold), so a burst of simultaneous blockers
    may undercount by a few — telemetry, not bookkeeping.
    """

    __slots__ = ("_inner", "waits", "depth", "max_depth")

    def __init__(self) -> None:
        self._inner = threading.RLock()
        #: Acquires that found the lock held by another thread.
        self.waits = 0
        #: Current reentrancy depth of the owning thread.
        self.depth = 0
        #: Deepest reentrancy observed.
        self.max_depth = 0

    def acquire(self) -> None:
        if not self._inner.acquire(blocking=False):
            self.waits += 1
            self._inner.acquire()
        self.depth += 1
        if self.depth > self.max_depth:
            self.max_depth = self.depth

    def release(self) -> None:
        self.depth -= 1
        self._inner.release()

    def __enter__(self) -> "StripeLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StripeLock(waits={self.waits}, max_depth={self.max_depth})"
