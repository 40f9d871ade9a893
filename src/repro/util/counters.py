"""One counter type for every site, network and loop metric.

The paper backs its claim that OBIWAN "minimize[s] bandwidth and
connection time" with counted traffic and faults.  Each of those counts
lives in a :class:`Counters` subclass: a dataclass whose public fields
are the metrics, guarded by one lock and read and written through four
methods, so a new metric is one field declaration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple


class _Schema(NamedTuple):
    #: Every public field, in declaration order (the snapshot keys).
    names: tuple[str, ...]
    #: The names :meth:`Counters.add` accepts.
    counters: frozenset[str]
    #: The names :meth:`Counters.set` accepts.
    gauges: frozenset[str]
    #: Counter name → the default :meth:`Counters.reset` restores.
    zeros: dict[str, object]

    @classmethod
    def of(cls, counters_cls: type) -> "_Schema":
        public = [f for f in fields(counters_cls) if not f.name.startswith("_")]
        gauges = frozenset(counters_cls.GAUGES)
        return cls(
            names=tuple(f.name for f in public),
            counters=frozenset(f.name for f in public if f.name not in gauges),
            gauges=gauges,
            zeros={f.name: f.default for f in public if f.name not in gauges},
        )


def _unknown(owner: object, method: str, given: dict, allowed: frozenset[str]) -> TypeError:
    unknown = ", ".join(sorted(given.keys() - allowed))
    return TypeError(f"{type(owner).__name__}.{method}() got unknown name(s): {unknown}")


@dataclass
class Counters:
    """Named counters and gauges behind one lock.

    A subclass is a ``@dataclass`` that declares its public fields with
    zero defaults and lists its gauges in :attr:`GAUGES`.  Counters
    accumulate through :meth:`add`; gauges are point-in-time values
    written by :meth:`set` and kept across :meth:`reset`.  Fault,
    dispatcher and loop threads all report, so every write takes the
    lock: a bare ``+= 1`` loses counts across a read-modify-write.
    Reading one attribute is fine for monitoring; :meth:`snapshot` gives
    a mutually-consistent reading.  Fields named ``_…`` are private
    state, not metrics.
    """

    #: Field names that are gauges rather than counters.
    GAUGES: ClassVar[frozenset[str]] = frozenset()

    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    #: The subclass's field layout, derived once on first construction.
    _schema: ClassVar[_Schema]

    def __post_init__(self) -> None:
        cls = type(self)
        if "_schema" not in cls.__dict__:
            cls._schema = _Schema.of(cls)

    def add(self, **deltas: float) -> None:
        """Atomically bump any subset of the counters.

        Every name is checked before anything changes, so a misspelled
        counter raises ``TypeError`` and nothing is half-applied.
        """
        allowed = self._schema.counters
        if not deltas.keys() <= allowed:
            raise _unknown(self, "add", deltas, allowed)
        with self._lock:
            values = self.__dict__
            for name, delta in deltas.items():
                values[name] += delta

    def set(self, **gauges: object) -> None:
        """Atomically set any subset of the gauges (checked like :meth:`add`)."""
        allowed = self._schema.gauges
        if not gauges.keys() <= allowed:
            raise _unknown(self, "set", gauges, allowed)
        with self._lock:
            self.__dict__.update(gauges)

    def snapshot(self) -> dict[str, object]:
        """A mutually-consistent reading of every counter and gauge."""
        names = self._schema.names
        with self._lock:
            values = self.__dict__
            return {name: values[name] for name in names}

    def reset(self) -> dict[str, object]:
        """Zero the counters (gauges keep their values); returns the prior
        reading.  Snapshot-then-zero is atomic, so no increment can fall
        between the two."""
        schema = self._schema
        with self._lock:
            values = self.__dict__
            before = {name: values[name] for name in schema.names}
            values.update(schema.zeros)
        return before
