"""Per-site telemetry snapshots.

Operators of a middleware need to see what a site is doing: how many
masters and replicas it holds, how many faults it has taken, how much
traffic it has generated and where the simulated time went.  A
:class:`TelemetrySnapshot` captures that in one immutable record, and
``render()`` prints it the way the examples do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.simnet.reactor import ReactorStats
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


@dataclass
class SyncPathStats(Counters):
    """Counters for the delta synchronization path (PR 4).

    Application threads and dispatcher threads both sync replicas, so
    increments go through :meth:`add` under the lock.
    """

    #: Write-backs that shipped only changed fields.
    puts_delta: int = 0
    #: Write-backs that shipped full state (delta off, whole-object
    #: fallback, or a ``NEED_FULL`` downgrade retry).
    puts_full: int = 0
    #: Write-backs skipped entirely because the replica was clean.
    puts_noop: int = 0
    #: Refreshes served from the master's change log as field deltas.
    refreshes_delta: int = 0
    #: Refreshes that re-fetched full state.
    refreshes_full: int = 0
    #: Estimated full-state bytes that delta syncs avoided shipping.
    delta_bytes_saved: int = 0
    #: Delta attempts the peer answered with ``NEED_FULL`` (or whose
    #: merged state failed the fingerprint check locally).
    need_full_downgrades: int = 0


@dataclass
class SerialPathStats(Counters):
    """Counters for the serializer (obicodec, PR 7).

    Frames are encoded/decoded on application *and* dispatcher threads,
    so increments go through :meth:`add` under the lock.  Time is real
    nanoseconds (:func:`repro.util.clock.perf_ns`), not simulated
    cost-model time: the point is to see what the serializer itself
    costs.
    """

    #: Objects encoded through a compiled OBJECT_SCHEMA codec.
    encodes_fast: int = 0
    #: Objects that fell back to the reflective OBJECT path while the
    #: compiled path was enabled (no codec, or shape drift).
    encodes_reflective: int = 0
    #: Objects decoded through a compiled codec.
    decodes_fast: int = 0
    #: Whole frames encoded / decoded by stats-carrying codecs.
    frames_encoded: int = 0
    frames_decoded: int = 0
    #: Wall nanoseconds spent inside encode() / decode().
    encode_ns: int = 0
    decode_ns: int = 0


@dataclass
class FeedStats(Counters):
    """Counters and gauges for the change-feed layer (obifeed, PR 10).

    Feed frames are pushed from whatever thread recorded the change and
    applied on dispatcher threads.  The gauges (``role``/``epoch``/
    ``lag_serials``) are written by :meth:`set`, not accumulated.
    """

    GAUGES = frozenset({"role", "epoch", "lag_serials"})

    #: ``"none"``, ``"primary"``, ``"follower"`` or ``"demoted"``.
    role: str = "none"
    #: The failover epoch this site last saw (0 = never in a feed group).
    epoch: int = 0
    #: Journal serials the follower still trails the primary by, as of
    #: the last batch received (0 when caught up, or for primaries).
    lag_serials: int = 0
    #: Frames pushed to followers (primary side, per subscriber).
    frames_pushed: int = 0
    #: Frames applied to the local tables (follower side).
    frames_applied: int = 0
    #: Frames rejected because they carried a stale epoch.
    stale_epoch_rejects: int = 0
    #: Journal events replayed during reconnect catch-up.
    catch_up_events: int = 0
    #: Full snapshots served to bootstrapping followers (primary side).
    snapshots_served: int = 0
    #: Full-snapshot bootstraps performed (follower side).
    snapshot_bootstraps: int = 0
    #: Times this site was promoted to primary.
    promotions: int = 0
    #: Writes proxied through to the primary (follower side).
    write_throughs: int = 0
    #: Pushes that failed to reach a subscriber (marked stalled).
    push_failures: int = 0


@dataclass(frozen=True, slots=True)
class TelemetrySnapshot:
    """One site's state at a point in (simulated) time."""

    site: str
    clock_s: float
    masters: int
    replicas: int
    cluster_members: int
    individually_updatable: int
    pending_proxies: int
    exported_objects: int
    proxies_created: int
    faults_resolved: int
    proxies_collected: int
    bytes_sent: int
    bytes_received: int
    messages_sent: int
    messages_received: int
    #: Fault fast-path counters (see ``repro.core.runtime.FaultPathStats``).
    demands_batched: int
    prefetch_hits: int
    coalesced_faults: int
    #: Delta-sync counters (see :class:`SyncPathStats`).
    puts_delta: int
    puts_full: int
    puts_noop: int
    refreshes_delta: int
    refreshes_full: int
    delta_bytes_saved: int
    need_full_downgrades: int
    #: Causal-tracing collector state (obitrace, PR 5); zeros while the
    #: site has never traced.
    tracing_enabled: bool
    spans_recorded: int
    spans_dropped: int
    span_high_water: int
    #: Stripe-lock contention (PR 6): stripe count, blocking acquires,
    #: deepest reentrancy seen across the site's stripe locks.
    stripe_count: int
    stripe_acquire_waits: int
    stripe_max_depth: int
    #: Serializer fast-path counters (obicodec, PR 7); see
    #: :class:`SerialPathStats`.
    serial_fast_encodes: int
    serial_reflective_encodes: int
    serial_fast_decodes: int
    serial_encode_ns: int
    serial_decode_ns: int
    #: Change-feed role counters (obifeed, PR 10); see :class:`FeedStats`.
    feed_role: str
    feed_epoch: int
    feed_lag_serials: int
    feed_frames_pushed: int
    feed_frames_applied: int
    feed_stale_epoch_rejects: int
    feed_catch_up_events: int
    feed_snapshot_bootstraps: int
    feed_promotions: int
    feed_write_throughs: int
    feed_push_failures: int
    #: Reactor-transport gauges (obireactor, PR 9); zeros on every other
    #: transport.  Network-wide, not per-site: one loop serves the world.
    reactor_connections_open: int
    reactor_connections_high_water: int
    reactor_frames_pipelined: int
    reactor_in_flight_high_water: int
    reactor_loop_lag_max_ms: float

    def render(self) -> str:
        return (
            f"site {self.site} @ t={self.clock_s:.3f}s\n"
            f"  objects : {self.masters} masters, {self.replicas} replicas "
            f"({self.individually_updatable} updatable, "
            f"{self.cluster_members} cluster members), "
            f"{self.pending_proxies} pending proxies\n"
            f"  faults  : {self.faults_resolved} resolved of "
            f"{self.proxies_created} proxies created; "
            f"{self.proxies_collected} collected\n"
            f"  fastpath: {self.demands_batched} batched demands, "
            f"{self.prefetch_hits} prefetch hits, "
            f"{self.coalesced_faults} coalesced faults\n"
            f"  deltasync: {self.puts_delta} delta / {self.puts_full} full / "
            f"{self.puts_noop} no-op puts, "
            f"{self.refreshes_delta} delta / {self.refreshes_full} full refreshes, "
            f"{self.need_full_downgrades} NEED_FULL downgrades, "
            f"~{self.delta_bytes_saved} B saved\n"
            f"  stripes : {self.stripe_count} stripes, "
            f"{self.stripe_acquire_waits} acquire waits, "
            f"max depth {self.stripe_max_depth}\n"
            f"  serial  : {self.serial_fast_encodes} fast / "
            f"{self.serial_reflective_encodes} reflective encodes, "
            f"{self.serial_fast_decodes} fast decodes, "
            f"{self.serial_encode_ns} ns encoding, "
            f"{self.serial_decode_ns} ns decoding\n"
            f"  feed    : role {self.feed_role}, epoch {self.feed_epoch}, "
            f"lag {self.feed_lag_serials} serials, "
            f"{self.feed_frames_pushed} pushed / {self.feed_frames_applied} applied, "
            f"{self.feed_catch_up_events} catch-up events, "
            f"{self.feed_snapshot_bootstraps} snapshot bootstraps, "
            f"{self.feed_stale_epoch_rejects} stale-epoch rejects, "
            f"{self.feed_promotions} promotions, "
            f"{self.feed_write_throughs} write-throughs, "
            f"{self.feed_push_failures} push failures\n"
            f"  reactor : {self.reactor_connections_open} connections held "
            f"(high water {self.reactor_connections_high_water}), "
            f"{self.reactor_frames_pipelined} frames pipelined, "
            f"in-flight depth {self.reactor_in_flight_high_water}, "
            f"loop lag max {self.reactor_loop_lag_max_ms:.2f} ms\n"
            f"  tracing : {'on' if self.tracing_enabled else 'off'}, "
            f"{self.spans_recorded} spans recorded, "
            f"{self.spans_dropped} dropped, "
            f"high water {self.span_high_water}\n"
            f"  traffic : sent {self.messages_sent} msgs / {self.bytes_sent} B, "
            f"received {self.messages_received} msgs / {self.bytes_received} B"
        )


def snapshot(site: "Site") -> TelemetrySnapshot:
    """Capture a site's telemetry right now."""
    replicas = list(site.iter_replicas())
    cluster_members = sum(1 for r in replicas if r.cluster_root is not None)

    bytes_sent = messages_sent = bytes_received = messages_received = 0
    for (src, dst), link in site.world.network.stats.per_link.items():
        if src == site.name:
            bytes_sent += link.bytes
            messages_sent += link.messages
        if dst == site.name:
            bytes_received += link.bytes
            messages_received += link.messages

    reactor_stats = getattr(site.world.network, "reactor_stats", None) or ReactorStats()
    reactor = reactor_stats.snapshot()
    fault = site.fault_stats.snapshot()
    sync = site.sync_stats.snapshot()
    serial = site.serial_stats.snapshot()
    feed = site.feed_stats.snapshot()
    stripe_metrics = site.stripe_metrics()
    collector = getattr(site.tracer, "collector", None)
    span_stats = (
        collector.stats()
        if collector is not None
        else {"recorded": 0, "dropped": 0, "high_water": 0}
    )

    return TelemetrySnapshot(
        site=site.name,
        clock_s=site.clock.now(),
        masters=site.master_count(),
        replicas=len(replicas),
        cluster_members=cluster_members,
        individually_updatable=sum(1 for r in replicas if r.provider is not None),
        pending_proxies=site.pending_proxy_count(),
        exported_objects=len(site.endpoint.objects),
        proxies_created=site.gc_stats.proxies_created,
        faults_resolved=site.gc_stats.faults_resolved,
        proxies_collected=site.gc_stats.resolved_collected,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        messages_sent=messages_sent,
        messages_received=messages_received,
        demands_batched=fault["demands_batched"],
        prefetch_hits=fault["prefetch_hits"],
        coalesced_faults=fault["coalesced_faults"],
        puts_delta=sync["puts_delta"],
        puts_full=sync["puts_full"],
        puts_noop=sync["puts_noop"],
        refreshes_delta=sync["refreshes_delta"],
        refreshes_full=sync["refreshes_full"],
        delta_bytes_saved=sync["delta_bytes_saved"],
        need_full_downgrades=sync["need_full_downgrades"],
        tracing_enabled=site.tracer.enabled,
        spans_recorded=span_stats["recorded"],
        spans_dropped=span_stats["dropped"],
        span_high_water=span_stats["high_water"],
        stripe_count=stripe_metrics["stripes"],
        stripe_acquire_waits=stripe_metrics["acquire_waits"],
        stripe_max_depth=stripe_metrics["max_depth"],
        serial_fast_encodes=serial["encodes_fast"],
        serial_reflective_encodes=serial["encodes_reflective"],
        serial_fast_decodes=serial["decodes_fast"],
        serial_encode_ns=serial["encode_ns"],
        serial_decode_ns=serial["decode_ns"],
        feed_role=str(feed["role"]),
        feed_epoch=int(feed["epoch"]),
        feed_lag_serials=int(feed["lag_serials"]),
        feed_frames_pushed=int(feed["frames_pushed"]),
        feed_frames_applied=int(feed["frames_applied"]),
        feed_stale_epoch_rejects=int(feed["stale_epoch_rejects"]),
        feed_catch_up_events=int(feed["catch_up_events"]),
        feed_snapshot_bootstraps=int(feed["snapshot_bootstraps"]),
        feed_promotions=int(feed["promotions"]),
        feed_write_throughs=int(feed["write_throughs"]),
        feed_push_failures=int(feed["push_failures"]),
        reactor_connections_open=int(reactor["connections_open"]),
        reactor_connections_high_water=int(reactor["connections_high_water"]),
        reactor_frames_pipelined=int(reactor["frames_pipelined"]),
        reactor_in_flight_high_water=int(reactor["in_flight_high_water"]),
        reactor_loop_lag_max_ms=reactor["loop_lag_max_s"] * 1000.0,
    )
