"""Failover: election, promotion, epoch fencing, partition convergence.

The scenarios follow the runbook in ``docs/HA.md``: a primary dies (or
is partitioned away) under write load, the highest-serial follower is
promoted, the survivors re-point, and every frame the deposed primary
still pushes is rejected by epoch — no acknowledged write is lost and
no split-brain write is applied.
"""

import pytest

from repro.core.meta import obi_id_of
from repro.core.packages import FeedSnapshotRequest
from repro.util.errors import FeedError, StaleEpochError
from repro.feed import elect_new_primary, fail_over, request_promotion
from tests.feed.conftest import mirror_of
from tests.models import Box


def group_state(sites, oid):
    """value of ``oid``'s object at each site, for convergence asserts."""
    return {site.name: site.master_object_for(oid).get() for site in sites}


class TestElection:
    def test_highest_applied_serial_wins(self, group):
        world, primary, f1, f2, box = group
        world.network.partition({"P"}, {"F2"})
        box.set(2)
        primary.site.touch(box)  # only F1 applies this serial
        assert f1.last_applied_serial > f2.last_applied_serial
        assert elect_new_primary([f1, f2]) is f1
        assert elect_new_primary([f2, f1]) is f1  # order-independent

    def test_serial_ties_break_on_site_name(self, group):
        _world, _primary, f1, f2, _box = group
        assert f1.last_applied_serial == f2.last_applied_serial
        assert elect_new_primary([f2, f1]) is f1

    def test_zero_followers_is_typed(self):
        with pytest.raises(FeedError, match="zero followers"):
            elect_new_primary([])


class TestPromotion:
    def test_fail_over_resumes_writes_with_no_acked_loss(self, group):
        world, primary, f1, f2, box = group
        oid = obi_id_of(box)
        # A write acknowledged by the group before the primary dies...
        box.set(2)
        primary.site.touch(box)
        primary.detach()  # the primary crashes
        reply = fail_over([f1, f2], reason="primary crashed")
        assert reply.site_id == "F1" and reply.epoch == 2
        # ...survived the failover at the new primary,
        new_master = f1.site.master_object_for(oid)
        assert new_master.get() == 2
        # and writes resume immediately, fanning out to the survivor.
        new_master.set(3)
        f1.site.touch(new_master)
        assert mirror_of(f2, box).get() == 3
        assert f1.site.feed_stats.snapshot()["role"] == "primary"
        assert f1.site.feed_stats.snapshot()["promotions"] == 1

    def test_promotion_rebinds_the_primaries_names(self, group):
        _world, primary, f1, f2, box = group
        primary.detach()
        fail_over([f1, f2])
        ref = f2.site.naming.lookup("box")
        assert ref.site_id == "F1"

    def test_promotion_continues_the_serial_numbering(self, group):
        _world, primary, f1, f2, box = group
        box.set(2)
        primary.site.touch(box)
        head = primary.site.change_log.latest_serial
        primary.detach()
        fail_over([f1, f2])
        new_master = f1.site.master_object_for(obi_id_of(box))
        new_master.set(3)
        f1.site.touch(new_master)
        assert f1.site.change_log.latest_serial == head + 1
        assert f2.last_applied_serial == head + 1

    def test_request_promotion_over_rmi(self, group):
        _world, primary, f1, f2, _box = group
        primary.detach()
        reply = request_promotion(f2.site, "F1", epoch=2, reason="operator")
        assert reply.site_id == "F1" and reply.epoch == 2
        assert f1.site.feed_stats.snapshot()["role"] == "primary"

    def test_stale_promotion_request_is_refused(self, group):
        _world, primary, f1, f2, _box = group
        primary.detach()
        fail_over([f1, f2])  # the group is already at epoch 2
        with pytest.raises(StaleEpochError):
            request_promotion(f1.site, "F2", epoch=2)

    def test_promoting_a_site_with_no_feed_role_is_refused(self, group):
        world, _primary, _f1, _f2, _box = group
        world.create_site("BARE")
        operator = world.sites["F1"]
        with pytest.raises(FeedError, match="no feed role"):
            request_promotion(operator, "BARE", epoch=9)


class TestEpochFencing:
    def test_deposed_primary_frames_are_rejected_and_it_demotes(self, group):
        world, primary, f1, f2, box = group
        oid = obi_id_of(box)
        # The group fails over while the old primary is partitioned away
        # — it never saw the promotion and still believes it leads.
        world.network.partition({"P"}, {"F1", "F2"})
        box.set(2)
        primary.site.touch(box)  # pushes fail; both followers stall
        fail_over([f1, f2], reason="P unreachable")
        new_master = f1.site.master_object_for(oid)
        new_master.set(30)
        f1.site.touch(new_master)
        assert mirror_of(f2, box).get() == 30
        # The partition heals and the deposed primary pushes again.
        world.network.connectivity.heal()
        primary._subscribers["F2"].stalled = False  # it still lists F2
        box.set(99)
        primary.site.touch(box)
        # The stale frame was rejected, not applied...
        assert mirror_of(f2, box).get() == 30
        assert f2.site.feed_stats.snapshot()["stale_epoch_rejects"] >= 1
        # ...and the rejection's epoch demoted the old primary.
        assert not primary.active
        assert primary.site.feed_stats.snapshot()["role"] == "demoted"

    def test_stale_snapshot_is_rejected_before_any_apply(self, group):
        _world, primary, f1, _f2, box = group
        snapshot = primary.handle_snapshot(FeedSnapshotRequest(site_id="F1"))
        f1._adopt_epoch(snapshot.epoch + 1)  # the group moved on
        before = mirror_of(f1, box).get()
        with pytest.raises(StaleEpochError):
            f1._apply_snapshot(snapshot)
        assert mirror_of(f1, box).get() == before


class TestPartitionConvergence:
    def test_partition_heal_converges_all_sites_with_zero_lag(self, group):
        world, primary, f1, f2, box = group
        oid = obi_id_of(box)
        world.network.partition({"P", "F2"}, {"F1"})
        for value in (2, 3, 4):
            box.set(value)
            primary.site.touch(box)
        assert mirror_of(f2, box).get() == 4
        assert mirror_of(f1, box).get() == 1  # stalled behind the partition
        world.network.connectivity.heal()
        f1.start("P")  # reconnect from our cursor
        assert group_state(
            [primary.site, f1.site, f2.site], oid
        ) == {"P": 4, "F1": 4, "F2": 4}
        for follower in (f1, f2):
            assert follower.site.feed_stats.snapshot()["lag_serials"] == 0
        assert f1.site.feed_stats.snapshot()["catch_up_events"] >= 1
