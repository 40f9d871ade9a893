"""The exported feed service: one well-known object per site.

Like the name server, the feed service lives under a well-known object
id so peers can construct a :class:`~repro.rmi.refs.RemoteRef` to it
from a site id alone — no directory round trip.  The service itself is
a thin dispatcher: every verb routes to whatever role
(:class:`~repro.feed.primary.FeedPrimary` /
:class:`~repro.feed.follower.FeedFollower`) is currently attached to the
site, so a failover promotion swaps behaviour without re-exporting
anything or invalidating subscriber-held refs.

Every site exports the service when it is created.  A site with no role
attached answers each verb with a :class:`~repro.util.errors.FeedError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rmi.refs import RemoteRef
from repro.util.errors import FeedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packages import (
        FeedAck,
        FeedBatch,
        FeedSnapshotReply,
        FeedSnapshotRequest,
        FeedSubscribeReply,
        FeedSubscribeRequest,
        PromoteReply,
        PromoteRequest,
    )
    from repro.core.runtime import Site

#: Well-known export id of every site's feed service.
FEED_OBJECT_ID = "obj:feed"

#: Interface name the service is exported under.
FEED_INTERFACE = "IFeed"

#: The feed control surface, for stub construction.
FEED_METHODS = ("feed_subscribe", "feed_events", "feed_snapshot", "promote")


def feed_ref(site_id: str) -> RemoteRef:
    """A ref to ``site_id``'s feed service (exported or not)."""
    return RemoteRef(site_id=site_id, object_id=FEED_OBJECT_ID, interface=FEED_INTERFACE)


class FeedService:
    """Verb dispatcher exported under :data:`FEED_OBJECT_ID`."""

    def __init__(self, site: "Site"):
        self._site = site

    def _role(self):
        role = self._site.feed_role
        if role is None:
            raise FeedError(
                f"site {self._site.name!r} has no feed role attached; "
                "create one with feed_primary() or feed_follow()"
            )
        return role

    # The four wire verbs ------------------------------------------------
    def feed_subscribe(self, request: "FeedSubscribeRequest") -> "FeedSubscribeReply":
        return self._role().handle_subscribe(request)

    def feed_events(self, batch: "FeedBatch") -> "FeedAck":
        return self._role().handle_events(batch)

    def feed_snapshot(self, request: "FeedSnapshotRequest") -> "FeedSnapshotReply":
        return self._role().handle_snapshot(request)

    def promote(self, request: "PromoteRequest") -> "PromoteReply":
        return self._role().handle_promote(request)

