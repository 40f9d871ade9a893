"""Tests for reconnection reconciliation."""

import pytest

from repro.core.meta import obi_id_of
from repro.mobility.reconcile import (
    ReconcileAction,
    Reconciler,
    keep_local,
    keep_master,
)
from repro.util.errors import ConsistencyError


@pytest.fixture
def tracked(mobile):
    world, office, node, master = mobile
    replica = node.hoard("counter")  # MobileNode tracks on hoard
    return world, office, node, master, replica


class TestClassification:
    def test_up_to_date(self, tracked):
        _w, _office, node, _master, _replica = tracked
        report = node.reconciler.reconcile()
        assert report.count(ReconcileAction.UP_TO_DATE) == 1

    def test_dirty_local_pushes(self, tracked):
        _w, _office, node, master, replica = tracked
        replica.increment(4)
        assert node.reconciler.is_dirty(replica)
        report = node.reconciler.reconcile()
        assert report.count(ReconcileAction.PUSHED) == 1
        assert master.value == 4
        assert not node.reconciler.is_dirty(replica)

    def test_master_moved_pulls(self, tracked):
        _w, office, node, master, replica = tracked
        master.value = 8
        office.touch(master)
        report = node.reconciler.reconcile()
        assert report.count(ReconcileAction.PULLED) == 1
        assert replica.read() == 8

    def test_both_changed_is_conflict(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(1)
        master.value = 50
        office.touch(master)
        report = node.reconciler.reconcile()
        assert report.conflicts != []
        # Nothing was moved either way without a resolver.
        assert master.value == 50
        assert replica.read() == 1


class TestResolvers:
    def test_keep_local_overwrites_master(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(1)
        master.value = 50
        office.touch(master)
        report = node.reconciler.reconcile(on_conflict=keep_local)
        assert report.count(ReconcileAction.PUSHED) == 1
        assert master.value == 1

    def test_keep_master_discards_local(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(1)
        master.value = 50
        office.touch(master)
        report = node.reconciler.reconcile(on_conflict=keep_master)
        assert report.count(ReconcileAction.PULLED) == 1
        assert replica.read() == 50

    def test_custom_merge_resolver(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(3)
        master.value = 10
        office.touch(master)

        def merge(site, rep):
            local = rep.read()
            site.refresh(rep)
            rep.value = rep.value + local
            site.put_back(rep)
            return ReconcileAction.PUSHED

        node.reconciler.reconcile(on_conflict=merge)
        assert master.value == 13


class TestBaselines:
    def test_untracked_replica_is_never_dirty(self, mobile):
        _w, _office, node, _master = mobile
        reconciler = Reconciler(node.site)
        replica = node.site.replicate("counter")
        replica.increment(9)
        # A second reconciler with no baseline for it:
        fresh = Reconciler(node.site)
        assert not fresh.is_dirty(replica)

    def test_refresh_resets_baseline(self, tracked):
        _w, office, node, master, replica = tracked
        master.value = 2
        office.touch(master)
        node.site.refresh(replica)
        assert not node.reconciler.is_dirty(replica)

    def test_report_repr_and_counts(self, tracked):
        _w, _office, node, _master, replica = tracked
        replica.increment()
        report = node.reconciler.reconcile()
        assert "pushed=1" in repr(report)


class TestEndToEndScenario:
    def test_full_offline_cycle(self, mobile):
        """hoard → disconnect → edit both sides → reconnect → resolve."""
        _w, office, node, master = mobile
        replica = node.hoard("counter")
        node.go_offline(voluntary=True)
        replica.increment(5)
        master.value = 100
        office.touch(master)
        report = node.go_online()
        assert report is not None
        assert report.conflicts != []
        final = node.reconciler.reconcile(on_conflict=keep_local)
        assert master.value == 5

    def test_offline_edit_to_a_non_root_member_is_pushed(self, mobile):
        """Every replica in a hoarded graph gets a baseline, not only the
        root: an offline edit to the second node of a chain reaches its
        master on reconnect."""
        _w, office, node, _master = mobile
        head = node.hoard("chain")
        second = head.get_next()
        node.go_offline(voluntary=True)
        second.set_index(99)
        report = node.go_online()
        assert report is not None
        assert report.count(ReconcileAction.PUSHED) == 1
        assert report.count(ReconcileAction.UP_TO_DATE) == 4
        assert office.master_object_for(obi_id_of(second)).index == 99
