"""Tests for proxy-out garbage-collection accounting."""

import gc

from repro.core.gc_stats import GcStats
from repro.core.interfaces import Incremental
from tests.models import chain_indices, make_chain


class TestGcStats:
    def test_counters_start_at_zero(self):
        stats = GcStats()
        assert stats.proxies_created == 0
        assert stats.faults_resolved == 0
        assert stats.resolved_alive == 0
        assert stats.resolved_collected == 0

    def test_tracking_lifecycle(self):
        stats = GcStats()

        class Probe:
            pass

        probe = Probe()
        stats.add(proxies_created=1)
        stats.track_resolved(probe)
        assert stats.proxies_created == 1
        assert stats.resolved_alive == 1
        del probe
        gc.collect()
        assert stats.resolved_collected == 1
        assert stats.resolved_alive == 0

    def test_force_collect_returns_delta(self):
        stats = GcStats()

        class Probe:
            pass

        probe = Probe()
        stats.track_resolved(probe)
        del probe
        assert stats.force_collect() >= 0
        assert stats.resolved_collected == 1


class TestEndToEndReclamation:
    def test_all_spliced_proxies_die_after_traversal(self, zsites):
        """Paper Section 2.2 step 6: spliced proxies become garbage."""
        provider, consumer = zsites
        provider.export(make_chain(30), name="chain")
        head = consumer.replicate("chain", mode=Incremental(5))
        assert chain_indices(head) == list(range(30))
        resolved = consumer.gc_stats.faults_resolved
        assert resolved == 5  # 30 objects / 5 per fetch − initial fetch
        consumer.gc_stats.force_collect()
        assert consumer.gc_stats.resolved_collected == resolved
        assert consumer.gc_stats.resolved_alive == 0

    def test_application_held_proxy_stays_alive(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(3), name="chain")
        head = consumer.replicate("chain")
        kept = head.next  # application keeps the proxy
        kept.get_index()
        consumer.gc_stats.force_collect()
        assert consumer.gc_stats.resolved_alive == 1
        del kept
        consumer.gc_stats.force_collect()
        assert consumer.gc_stats.resolved_alive == 0

    def test_repr_is_informative(self):
        stats = GcStats()
        text = repr(stats)
        assert "created=0" in text and "resolved=0" in text
