"""Counter semantics under concurrency: the ``Counters`` contract, and the
``NetworkStats`` pair table built on it.

The fault path exists because resolution is concurrent, so its own
bookkeeping must be exact under the same concurrency: N threads adding
must never lose a count, and snapshot/reset must be atomic with respect
to adders (no increment may vanish between the snapshot and the zeroing).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import fields

import pytest

from repro.core.gc_stats import GcStats
from repro.core.runtime import FaultPathStats
from repro.core.telemetry import FeedStats, SerialPathStats, SyncPathStats
from repro.simnet.reactor import ReactorStats
from repro.simnet.stats import LinkStats, NetworkStats
from repro.util.counters import Counters

THREADS = 8
PER_THREAD = 300

COUNTER_TYPES = [
    FaultPathStats,
    SyncPathStats,
    SerialPathStats,
    FeedStats,
    ReactorStats,
    LinkStats,
    GcStats,
]


def _hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait()
        worker()

    pool = [threading.Thread(target=run) for _ in range(threads)]
    # A short switch interval makes a lost read-modify-write likely.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)


def _counter_names(cls):
    return [f.name for f in fields(cls) if not f.name.startswith("_") and f.name not in cls.GAUGES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_counters_subclass_is_covered():
    assert set(_subclasses(Counters)) == set(COUNTER_TYPES)


@pytest.mark.parametrize("cls", COUNTER_TYPES, ids=lambda cls: cls.__name__)
class TestCountersContract:
    def test_zero_defaults(self, cls):
        stats = cls()
        stats.add()
        snap = stats.snapshot()
        assert list(snap) == [f.name for f in fields(cls) if not f.name.startswith("_")]
        assert all(snap[name] == 0 for name in _counter_names(cls))

    def test_concurrent_adds_are_exact(self, cls):
        stats = cls()
        names = _counter_names(cls)

        def worker():
            for _ in range(PER_THREAD):
                stats.add(**{name: 1 for name in names})

        _hammer(worker)
        snap = stats.snapshot()
        assert all(snap[name] == THREADS * PER_THREAD for name in names)

    def test_reset_returns_prior_reading_and_zeroes(self, cls):
        stats = cls()
        names = _counter_names(cls)
        stats.add(**{name: i + 1 for i, name in enumerate(names)})
        before = stats.reset()
        assert [before[name] for name in names] == list(range(1, len(names) + 1))
        assert all(stats.snapshot()[name] == 0 for name in names)

    def test_unknown_name_raises_and_changes_nothing(self, cls):
        stats = cls()
        first = _counter_names(cls)[0]
        with pytest.raises(TypeError, match="no_such_counter"):
            stats.add(**{first: 1, "no_such_counter": 1})
        with pytest.raises(TypeError, match=first):
            stats.set(**{first: 5})
        assert stats.snapshot() == cls().snapshot()


@pytest.mark.parametrize(
    "cls", [cls for cls in COUNTER_TYPES if cls.GAUGES], ids=lambda cls: cls.__name__
)
def test_gauges_survive_reset(cls):
    stats = cls()
    gauges = {name: "g" if isinstance(getattr(stats, name), str) else 7 for name in cls.GAUGES}
    stats.set(**gauges)
    stats.add(**{name: 1 for name in _counter_names(cls)})
    stats.reset()
    snap = stats.snapshot()
    assert {name: snap[name] for name in cls.GAUGES} == gauges
    assert all(snap[name] == 0 for name in _counter_names(cls))
    with pytest.raises(TypeError):
        stats.add(**{next(iter(cls.GAUGES)): 1})


class TestFaultPathStats:
    def test_add_defaults_to_zero(self):
        stats = FaultPathStats()
        stats.add()
        assert stats.snapshot() == {
            "demands_batched": 0,
            "prefetch_hits": 0,
            "coalesced_faults": 0,
        }

    def test_add_bumps_selected_counters(self):
        stats = FaultPathStats()
        stats.add(demands_batched=1, prefetch_hits=3)
        stats.add(coalesced_faults=2)
        assert stats.demands_batched == 1
        assert stats.prefetch_hits == 3
        assert stats.coalesced_faults == 2

    def test_concurrent_adds_are_exact(self):
        stats = FaultPathStats()

        def worker():
            for _ in range(PER_THREAD):
                stats.add(demands_batched=1, prefetch_hits=2, coalesced_faults=1)

        _hammer(worker)
        assert stats.snapshot() == {
            "demands_batched": THREADS * PER_THREAD,
            "prefetch_hits": 2 * THREADS * PER_THREAD,
            "coalesced_faults": THREADS * PER_THREAD,
        }

    def test_reset_returns_prior_values_and_zeroes(self):
        stats = FaultPathStats()
        stats.add(demands_batched=5, prefetch_hits=7)
        before = stats.reset()
        assert before == {
            "demands_batched": 5,
            "prefetch_hits": 7,
            "coalesced_faults": 0,
        }
        assert stats.snapshot() == {
            "demands_batched": 0,
            "prefetch_hits": 0,
            "coalesced_faults": 0,
        }

    def test_no_increment_lost_across_concurrent_resets(self):
        """adders + resetters in parallel: every add lands either in a
        reset's returned snapshot or in the final residue — never both,
        never neither."""
        stats = FaultPathStats()
        harvested = []
        harvested_lock = threading.Lock()

        def adder():
            for _ in range(PER_THREAD):
                stats.add(demands_batched=1)

        def resetter():
            for _ in range(PER_THREAD // 3):
                before = stats.reset()
                with harvested_lock:
                    harvested.append(before["demands_batched"])

        barrier = threading.Barrier(THREADS + 2)
        threads = [
            *(threading.Thread(target=lambda: (barrier.wait(), adder())) for _ in range(THREADS)),
            *(threading.Thread(target=lambda: (barrier.wait(), resetter())) for _ in range(2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = sum(harvested) + stats.snapshot()["demands_batched"]
        assert total == THREADS * PER_THREAD

    def test_snapshot_is_mutually_consistent(self):
        """add() bumps two counters atomically; a snapshot must never see
        one moved without the other."""
        stats = FaultPathStats()
        stop = threading.Event()
        torn = []

        def adder():
            while not stop.is_set():
                stats.add(demands_batched=1, prefetch_hits=1)

        def reader():
            for _ in range(2000):
                snap = stats.snapshot()
                if snap["demands_batched"] != snap["prefetch_hits"]:
                    torn.append(snap)
            stop.set()

        threads = [threading.Thread(target=adder) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert torn == []


class TestNetworkStats:
    def test_concurrent_records_are_exact(self):
        stats = NetworkStats()

        def worker():
            for _ in range(PER_THREAD):
                stats.record("a", "b", 10, 0.5)
                stats.record("b", "a", 3, 0.25)
                stats.record_drop("a", "b")
                stats.record_rejected("a", "b")

        _hammer(worker)
        total = THREADS * PER_THREAD
        assert stats.total_messages == 2 * total
        assert stats.total_bytes == 13 * total
        assert stats.total_transfer_seconds == 0.75 * total
        assert stats.bytes_between("a", "b") == 13 * total
        link = stats.link("a", "b")
        assert (link.drops, link.rejected_disconnected) == (total, total)
