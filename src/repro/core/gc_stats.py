"""Proxy-out garbage-collection accounting.

The paper relies on the JVM collector: after ``updateMember`` splices the
replica in, "BProxyOut is no longer reachable in S1 and will be reclaimed
by the garbage collector of the underlying virtual machine".  Python's
collector plays the same role here; this module keeps weak references to
resolved proxies so tests and benchmarks can *observe* that reclamation
actually happens.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, field

from repro.util.counters import Counters


@dataclass
class GcStats(Counters):
    """Counters and weak tracking for one site's proxy-outs."""

    proxies_created: int = 0
    faults_resolved: int = 0
    _resolved_refs: list[weakref.ref] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def track_resolved(self, proxy: object) -> None:
        """Count a resolved fault and start watching its spliced-out proxy
        for collection."""
        self.add(faults_resolved=1)
        self._resolved_refs.append(weakref.ref(proxy))

    @property
    def resolved_alive(self) -> int:
        """Resolved proxies still reachable from somewhere."""
        return sum(1 for ref in self._resolved_refs if ref() is not None)

    @property
    def resolved_collected(self) -> int:
        """Resolved proxies the collector has already reclaimed."""
        return sum(1 for ref in self._resolved_refs if ref() is None)

    def force_collect(self) -> int:
        """Run a full collection and return how many tracked proxies died."""
        before = self.resolved_collected
        gc.collect()
        return self.resolved_collected - before

    def __repr__(self) -> str:
        return (
            f"GcStats(created={self.proxies_created}, resolved={self.faults_resolved}, "
            f"alive={self.resolved_alive}, collected={self.resolved_collected})"
        )
