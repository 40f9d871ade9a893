"""Tests for site telemetry snapshots."""

import re

from repro.core import meta
from repro.core.interfaces import Cluster, Incremental
from repro.core.runtime import World
from repro.core.telemetry import snapshot
from repro.util import ids
from tests.models import Box, make_chain


def test_empty_site_snapshot(zsites):
    provider, _consumer = zsites
    snap = snapshot(provider)
    assert snap.site == "S2"
    assert snap.masters == 0
    assert snap.replicas == 0
    # S2 hosts the name server (first site of the fixture world) and,
    # like every site, its feed service.
    assert snap.exported_objects == 2


def test_counts_after_replication(zsites):
    provider, consumer = zsites
    provider.export(make_chain(6), name="chain")
    head = consumer.replicate("chain", mode=Incremental(2))

    provider_snap = snapshot(provider)
    assert provider_snap.masters >= 2  # head + frontier got providers

    consumer_snap = snapshot(consumer)
    assert consumer_snap.replicas == 2
    assert consumer_snap.individually_updatable == 2
    assert consumer_snap.pending_proxies == 1
    assert consumer_snap.bytes_sent > 0
    assert consumer_snap.bytes_received > consumer_snap.bytes_sent  # payloads


def test_cluster_membership_counted(zsites):
    provider, consumer = zsites
    provider.export(make_chain(8), name="chain")
    consumer.replicate("chain", mode=Cluster(size=4))
    snap = snapshot(consumer)
    assert snap.replicas == 4
    assert snap.cluster_members == 3
    assert snap.individually_updatable == 1


def test_fault_counters(zsites):
    provider, consumer = zsites
    provider.export(make_chain(6), name="chain")
    head = consumer.replicate("chain", mode=Incremental(2))
    head.get_next().get_next().get_index()  # one fault (brings 2,3 + proxy 4)
    snap = snapshot(consumer)
    assert snap.proxies_created == 2
    assert snap.faults_resolved == 1
    assert snap.pending_proxies == 1


def test_render_is_human_readable(zsites):
    provider, consumer = zsites
    provider.export(Box("v"), name="box")
    consumer.replicate("box")
    text = snapshot(consumer).render()
    assert "site S1" in text
    assert "replicas" in text
    assert "traffic" in text


def test_stripes_line_in_render(zsites):
    provider, consumer = zsites
    provider.export(Box("v"), name="box")
    consumer.replicate("box")
    snap = snapshot(consumer)
    assert snap.stripe_count == consumer.stripe_count
    text = snap.render()
    assert f"stripes : {consumer.stripe_count} stripes" in text
    assert "acquire waits" in text
    assert "max depth" in text
    # The stripes line slots in without disturbing the deltasync line
    # existing consumers parse.
    assert "deltasync" in text


def test_tracing_line_off_by_default(zsites):
    _provider, consumer = zsites
    snap = snapshot(consumer)
    assert snap.tracing_enabled is False
    assert snap.spans_recorded == 0
    assert "tracing : off" in snap.render()


def test_tracing_counters_when_enabled(zsites):
    provider, consumer = zsites
    collector = consumer.enable_tracing()
    provider.export(Box("v"), name="box")
    consumer.replicate("box")

    snap = snapshot(consumer)
    stats = collector.stats()
    assert snap.tracing_enabled is True
    assert snap.spans_recorded == stats["recorded"] > 0
    assert snap.spans_dropped == 0
    assert snap.span_high_water == stats["high_water"]
    text = snap.render()
    assert "tracing : on" in text
    assert f"{stats['recorded']} spans recorded" in text


# Every telemetry line for a fixed loopback scenario: one replicate (with
# read-ahead), one fault, one put-back and one feed write, rendered for the
# feed primary, its follower and the consumer.  Only the wall-clock
# serializer nanoseconds are masked; every other figure is deterministic
# once the id generators restart, so any change to a counter, a gauge or
# the render format shows up here.
GOLDEN_RENDER = """\
site P @ t=0.024s
  objects : 5 masters, 0 replicas (0 updatable, 0 cluster members), 0 pending proxies
  faults  : 0 resolved of 0 proxies created; 0 collected
  fastpath: 0 batched demands, 0 prefetch hits, 0 coalesced faults
  deltasync: 0 delta / 0 full / 0 no-op puts, 0 delta / 0 full refreshes, 0 NEED_FULL downgrades, ~0 B saved
  stripes : 16 stripes, 0 acquire waits, max depth 1
  serial  : 0 fast / 5 reflective encodes, 0 fast decodes, <ns> ns encoding, <ns> ns decoding
  feed    : role primary, epoch 1, lag 0 serials, 2 pushed / 0 applied, 2 catch-up events, 0 snapshot bootstraps, 0 stale-epoch rejects, 0 promotions, 0 write-throughs, 0 push failures
  reactor : 0 connections held (high water 0), 0 frames pipelined, in-flight depth 0, loop lag max 0.00 ms
  tracing : off, 0 spans recorded, 0 dropped, high water 0
  traffic : sent 7 msgs / 2838 B, received 7 msgs / 1223 B
site F @ t=0.024s
  objects : 2 masters, 0 replicas (0 updatable, 0 cluster members), 1 pending proxies
  faults  : 0 resolved of 1 proxies created; 0 collected
  fastpath: 0 batched demands, 0 prefetch hits, 0 coalesced faults
  deltasync: 0 delta / 0 full / 0 no-op puts, 0 delta / 0 full refreshes, 0 NEED_FULL downgrades, ~0 B saved
  stripes : 16 stripes, 0 acquire waits, max depth 1
  serial  : 0 fast / 0 reflective encodes, 0 fast decodes, <ns> ns encoding, <ns> ns decoding
  feed    : role follower, epoch 1, lag 0 serials, 0 pushed / 4 applied, 2 catch-up events, 0 snapshot bootstraps, 0 stale-epoch rejects, 0 promotions, 0 write-throughs, 0 push failures
  reactor : 0 connections held (high water 0), 0 frames pipelined, in-flight depth 0, loop lag max 0.00 ms
  tracing : off, 0 spans recorded, 0 dropped, high water 0
  traffic : sent 3 msgs / 407 B, received 3 msgs / 1445 B
site C @ t=0.024s
  objects : 0 masters, 3 replicas (3 updatable, 0 cluster members), 1 pending proxies
  faults  : 1 resolved of 2 proxies created; 1 collected
  fastpath: 1 batched demands, 1 prefetch hits, 0 coalesced faults
  deltasync: 0 delta / 1 full / 0 no-op puts, 0 delta / 0 full refreshes, 0 NEED_FULL downgrades, ~0 B saved
  stripes : 16 stripes, 0 acquire waits, max depth 1
  serial  : 0 fast / 0 reflective encodes, 0 fast decodes, <ns> ns encoding, <ns> ns decoding
  feed    : role none, epoch 0, lag 0 serials, 0 pushed / 0 applied, 0 catch-up events, 0 snapshot bootstraps, 0 stale-epoch rejects, 0 promotions, 0 write-throughs, 0 push failures
  reactor : 0 connections held (high water 0), 0 frames pipelined, in-flight depth 0, loop lag max 0.00 ms
  tracing : off, 0 spans recorded, 0 dropped, high water 0
  traffic : sent 4 msgs / 816 B, received 4 msgs / 1393 B
"""


def test_render_golden(monkeypatch):
    for name in ("_site_ids", "_object_ids", "_request_ids", "_trace_ids", "_span_ids"):
        monkeypatch.setattr(ids, name, ids.IdGenerator(getattr(ids, name).prefix))
    monkeypatch.setattr(meta, "_obi_ids", ids.IdGenerator(meta._obi_ids.prefix))
    with World.loopback() as world:
        provider = world.create_site("P")
        follower = world.create_site("F")
        consumer = world.create_site("C")
        for site in (provider, follower, consumer):
            site.compiled_codec = True
        provider.export(make_chain(6), name="chain")
        box = Box(1)
        provider.export(box, name="box")
        provider.feed_primary()
        follower.feed_follow("P")
        head = consumer.replicate("chain", mode=Incremental(1, prefetch=2))
        head.get_next().get_next().get_index()
        head.set_index(10)
        consumer.put_back(head)
        box.set(2)
        provider.touch(box)
        text = "\n".join(
            re.sub(r"\d+ ns ", "<ns> ns ", snapshot(site).render())
            for site in (provider, follower, consumer)
        )
    assert text + "\n" == GOLDEN_RENDER
