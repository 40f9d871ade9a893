"""Role mechanics: subscribe, push, catch-up, bootstrap, write-through.

The group fixture is a primary ``P`` with followers ``F1``/``F2`` on the
deterministic loopback world; every test drives real RMI traffic through
the exported feed service, not role objects called directly.
"""

import pytest

from repro.core.meta import obi_id_of
from repro.core.packages import FeedSubscribeRequest
from repro.core.runtime import World
from repro.core.telemetry import snapshot
from repro.core.versions import ChangeLog
from repro.util.errors import FeedError
from tests.feed.conftest import mirror_of
from tests.models import Box

pytestmark = []


class TestSubscribe:
    def test_join_mirrors_every_existing_master(self, group):
        _world, primary, f1, _f2, box = group
        mirror = mirror_of(f1, box)
        assert mirror is not None and mirror is not box
        assert mirror.get() == 1
        assert f1.last_applied_serial == primary.site.change_log.latest_serial

    def test_masters_exported_before_the_feed_are_seeded(self, group):
        # The fixture's Box predates FeedPrimary: its journal entry was
        # seeded at role creation, which is exactly what the join above
        # replayed.  A second pre-feed master must arrive the same way.
        world, primary, _f1, _f2, _box = group
        extra = Box("pre-feed")
        primary.site.export(extra, name="extra")
        late = world.create_site("F3").feed_follow("P")
        assert mirror_of(late, extra).get() == "pre-feed"

    def test_follower_refuses_to_serve_subscriptions(self, group):
        _world, _primary, f1, _f2, _box = group
        with pytest.raises(FeedError, match="follower"):
            f1.handle_subscribe(FeedSubscribeRequest(site_id="X", last_serial=0))

    def test_following_a_site_with_no_feed_role_is_refused(self, zero_world):
        zero_world.create_site("BARE")  # exports the feed service, no role
        joiner = zero_world.create_site("F1")
        with pytest.raises(FeedError, match="no feed role"):
            joiner.feed_follow("BARE")

    def test_roleless_subscriber_is_stalled_not_poisonous(self, group):
        # An operator subscribes a site with no follower role; its first
        # push fails with the site's FeedError and stalls it, and the
        # healthy followers keep receiving frames.
        world, primary, f1, f2, box = group
        world.create_site("BARE")
        primary.handle_subscribe(FeedSubscribeRequest(site_id="BARE", last_serial=0))
        box.set(2)
        primary.site.touch(box)
        assert mirror_of(f1, box).get() == 2
        assert mirror_of(f2, box).get() == 2
        assert "BARE" not in primary.subscriber_serials()
        assert primary.site.feed_stats.snapshot()["push_failures"] >= 1
        box.set(3)
        primary.site.touch(box)
        assert mirror_of(f1, box).get() == 3


class TestPush:
    def test_touch_propagates_to_every_follower(self, group):
        _world, primary, f1, f2, box = group
        box.set(2)
        primary.site.touch(box)
        assert mirror_of(f1, box).get() == 2
        assert mirror_of(f2, box).get() == 2
        assert f1.site.feed_stats.snapshot()["lag_serials"] == 0

    def test_new_masters_flow_through_the_feed(self, group):
        _world, primary, f1, _f2, _box = group
        late = Box("late")
        primary.site.export(late, name="late")
        primary.site.touch(late)
        assert mirror_of(f1, late).get() == "late"

    def test_stale_frames_are_deduped_by_version(self, group):
        _world, primary, f1, _f2, box = group
        box.set(2)
        primary.site.touch(box)
        applied_before = f1.site.feed_stats.snapshot()["frames_applied"]
        # Re-subscribing replays the journal tail; every frame loses to
        # the version-monotonic guard, so nothing is re-applied.
        f1.start("P")
        assert mirror_of(f1, box).get() == 2
        assert f1.site.feed_stats.snapshot()["frames_applied"] == applied_before

    def test_unreachable_follower_is_stalled_on_the_reactor(self):
        # On the reactor a push to a disconnected follower fails inside
        # invoke_async itself, before any frame leaves; the primary must
        # stall that follower, not raise out of the write.
        with World.reactor() as world:
            world.create_site("NS")
            primary_site = world.create_site("P")
            box = Box(1)
            primary_site.export(box, name="box")
            primary = primary_site.feed_primary()
            f1 = world.create_site("F1").feed_follow("P")
            f2 = world.create_site("F2").feed_follow("P")
            box.set(2)
            primary_site.touch(box)
            assert mirror_of(f2, box).get() == 2  # the push waits for acks
            world.network.disconnect("F2")
            box.set(3)
            primary_site.touch(box)
            assert mirror_of(f1, box).get() == 3
            assert "F2" not in primary.subscriber_serials()


class TestCatchUpAndBootstrap:
    def test_reconnect_catches_up_from_cursor(self, group):
        world, primary, f1, _f2, box = group
        world.network.partition({"P"}, {"F1"})
        box.set(10)
        primary.site.touch(box)  # F1's push fails; it is stalled
        assert mirror_of(f1, box).get() == 1
        world.network.connectivity.heal()
        f1.start("P")
        assert mirror_of(f1, box).get() == 10
        assert f1.site.feed_stats.snapshot()["lag_serials"] == 0

    def test_retention_gap_downgrades_to_snapshot_bootstrap(self, zero_world):
        primary_site = zero_world.create_site("P")
        primary_site.change_log = ChangeLog(journal_retention=4)
        box = Box(0)
        primary_site.export(box, name="box")
        primary = primary_site.feed_primary()
        for value in range(1, 11):
            box.set(value)
            primary_site.touch(box)
        late = zero_world.create_site("F1").feed_follow("P")
        assert mirror_of(late, box).get() == 10
        assert late.site.feed_stats.snapshot()["snapshot_bootstraps"] == 1
        assert primary_site.feed_stats.snapshot()["snapshots_served"] == 1

    def test_live_join_does_not_disturb_the_write_path(self, group):
        # Writes land immediately before and after a third follower
        # joins mid-stream: nothing quiesces, nobody regresses.
        world, primary, f1, f2, box = group
        box.set(2)
        primary.site.touch(box)
        f3 = world.create_site("F3").feed_follow("P")
        box.set(3)
        primary.site.touch(box)
        for follower in (f1, f2, f3):
            assert mirror_of(follower, box).get() == 3
            assert follower.site.feed_stats.snapshot()["lag_serials"] == 0


class TestWriteThrough:
    def test_put_through_lands_at_primary_and_peers(self, group):
        _world, primary, f1, f2, box = group
        mirror = mirror_of(f1, box)
        mirror.set(42)
        versions = f1.put_through(mirror)
        assert box.get() == 42  # landed at the primary
        assert mirror_of(f2, box).get() == 42  # fanned out to peers
        oid = obi_id_of(box)
        assert versions[oid] == primary.site.master_version(box)
        # The ack condition: our own mirror caught up to the put version.
        assert f1.site.master_version(mirror) >= versions[oid]

    def test_put_through_without_provider_is_typed(self, group):
        _world, _primary, f1, _f2, _box = group
        stranger = Box("unseen")
        with pytest.raises(FeedError, match="write-through target"):
            f1.put_through(stranger)


class TestTelemetry:
    def test_feed_line_renders_role_epoch_and_lag(self, group):
        _world, primary, f1, _f2, box = group
        box.set(2)
        primary.site.touch(box)
        primary_text = snapshot(primary.site).render()
        follower_text = snapshot(f1.site).render()
        assert "feed    : role primary" in primary_text
        assert "role follower" in follower_text
        assert "lag 0 serials" in follower_text
