"""Traffic accounting.

The paper argues OBIWAN "attempts to minimize bandwidth and connection
time"; the benchmark harness substantiates that by reading these counters
— messages, bytes and modelled transfer seconds, per direction and per
site pair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.util.counters import Counters


@dataclass
class LinkStats(Counters):
    """Counters for one ordered site pair (src → dst)."""

    messages: int = 0
    bytes: int = 0
    transfer_seconds: float = 0.0
    drops: int = 0
    rejected_disconnected: int = 0


@dataclass
class NetworkStats:
    """Aggregated traffic counters for a whole network."""

    per_link: dict[tuple[str, str], LinkStats] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def link(self, src: str, dst: str) -> LinkStats:
        with self._lock:
            stats = self.per_link.get((src, dst))
            if stats is None:
                stats = self.per_link[(src, dst)] = LinkStats()
            return stats

    def record(self, src: str, dst: str, size: int, seconds: float) -> None:
        self.link(src, dst).add(messages=1, bytes=size, transfer_seconds=seconds)

    def record_drop(self, src: str, dst: str) -> None:
        self.link(src, dst).add(drops=1)

    def record_rejected(self, src: str, dst: str) -> None:
        self.link(src, dst).add(rejected_disconnected=1)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        with self._lock:
            return sum(s.messages for s in self.per_link.values())

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(s.bytes for s in self.per_link.values())

    @property
    def total_transfer_seconds(self) -> float:
        with self._lock:
            return sum(s.transfer_seconds for s in self.per_link.values())

    def bytes_between(self, a: str, b: str) -> int:
        """Bytes moved in either direction between two sites."""
        with self._lock:
            forward = self.per_link.get((a, b))
            backward = self.per_link.get((b, a))
        return (forward.bytes if forward else 0) + (backward.bytes if backward else 0)

    def reset(self) -> None:
        with self._lock:
            self.per_link.clear()
