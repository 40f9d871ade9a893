"""obicodec knob tests (PR 7).

The ``compiled_codec`` site knob rides the :class:`ReplicationMode` wire
tuple the way ``prefetch`` does: the consumer announces it can decode
``OBJECT_SCHEMA`` frames, and the provider uses the fast path only when
both ends opted in.
"""

import pytest

from repro.core.interfaces import Incremental, ReplicationMode, _mode_state
from repro.core.meta import obi_id_of
from tests.models import Box, Counter


@pytest.fixture
def csites(zero_world):
    """(provider, consumer) with the compiled codec enabled on both sides."""
    provider = zero_world.create_site("S2")
    consumer = zero_world.create_site("S1")
    provider.compiled_codec = True
    consumer.compiled_codec = True
    return provider, consumer


def _serial(site) -> dict:
    return site.serial_stats.snapshot()


# ----------------------------------------------------------------------
# mode wire format
# ----------------------------------------------------------------------
class TestModeWire:
    def test_default_mode_stays_a_3_tuple(self):
        assert _mode_state(Incremental(1)) == (1, 0, False)

    def test_codec_mode_travels_as_5_tuple(self):
        mode = ReplicationMode(chunk=2, codec=1)
        assert _mode_state(mode) == (2, 0, False, 0, 1)

    def test_codec_survives_demand_scope_widening(self):
        mode = ReplicationMode(chunk=1, prefetch=8, codec=1)
        assert mode.demand_scope().codec == 1

    def test_outgoing_mode_stamps_and_strips(self, csites):
        provider, consumer = csites
        assert consumer.outgoing_mode(Incremental(1)).codec == 1
        consumer.compiled_codec = False
        assert consumer.outgoing_mode(ReplicationMode(chunk=1, codec=1)).codec == 0


# ----------------------------------------------------------------------
# get / replicate / refresh
# ----------------------------------------------------------------------
class TestGetDirection:
    def test_replicate_uses_fast_path_when_both_opt_in(self, csites):
        provider, consumer = csites
        provider.export(Counter(41), name="counter")
        replica = consumer.replicate("counter")
        assert replica.read() == 41
        assert _serial(provider)["encodes_fast"] >= 1
        assert _serial(consumer)["decodes_fast"] >= 1

    def test_replica_state_matches_reflective_replica(self, zero_world):
        provider = zero_world.create_site("S2")
        fast = zero_world.create_site("S1")
        slow = zero_world.create_site("S3")
        provider.compiled_codec = True
        fast.compiled_codec = True
        master = Counter(7)
        provider.export(master, name="counter")
        via_fast = fast.replicate("counter")
        via_slow = slow.replicate("counter")
        assert vars(via_fast) == vars(via_slow) == vars(master)
        assert list(vars(via_fast)) == list(vars(via_slow))

    def test_consumer_without_knob_gets_reflective_frames(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        provider.compiled_codec = True  # provider is willing...
        provider.export(Counter(1), name="counter")
        replica = consumer.replicate("counter")  # ...consumer never asks
        assert replica.read() == 1
        assert _serial(provider)["encodes_fast"] == 0
        assert _serial(consumer)["decodes_fast"] == 0

    def test_provider_without_knob_stays_reflective(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        consumer.compiled_codec = True  # consumer asks...
        provider.export(Counter(1), name="counter")
        replica = consumer.replicate("counter")  # ...provider declines
        assert replica.read() == 1
        assert _serial(provider)["encodes_fast"] == 0

    def test_non_schema_class_falls_back_per_object(self, csites):
        provider, consumer = csites
        provider.export(Box("not-a-scalar-schema"), name="box")
        replica = consumer.replicate("box")
        assert replica.get() == "not-a-scalar-schema"
        assert _serial(provider)["encodes_fast"] == 0
        assert _serial(provider)["encodes_reflective"] >= 1

    def test_refresh_rides_the_fast_path(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        master.value = 5
        provider.touch(master, fields=("value",))
        before = _serial(consumer)["decodes_fast"]
        consumer.refresh(replica)
        assert replica.read() == 5
        assert _serial(consumer)["decodes_fast"] > before


# ----------------------------------------------------------------------
# put direction
# ----------------------------------------------------------------------
class TestPutDirection:
    def test_put_back_ships_a_compiled_entry(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        replica.increment(9)
        before = _serial(consumer)["encodes_fast"]
        consumer.put_back(replica)
        assert master.read() == 10
        assert _serial(consumer)["encodes_fast"] > before
        assert _serial(provider)["decodes_fast"] >= 1

    def test_put_back_preserves_master_identity(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        oid = obi_id_of(master)
        replica = consumer.replicate("counter")
        replica.increment()
        consumer.put_back(replica)
        assert obi_id_of(master) == oid

    def test_drifted_replica_falls_back_reflectively(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        replica.value = "stringly"  # schema drift: entry stays reflective
        consumer.put_back(replica)
        assert master.value == "stringly"

    def test_works_alongside_delta_sync(self, csites):
        provider, consumer = csites
        provider.delta_sync = True
        consumer.delta_sync = True
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        replica.increment(4)
        consumer.put_back(replica)
        assert master.read() == 5
        assert consumer.sync_stats.puts_delta + consumer.sync_stats.puts_full == 1

    def test_remote_put_errors_propagate(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")

        oid = obi_id_of(master)
        ref = provider._provider_refs[provider._stripe_of(oid)][oid]
        table = provider.endpoint.objects
        inner = table.get(ref.object_id)

        class BrokenPut:
            def __getattr__(self, name):
                return getattr(inner, name)

            def put(self, package):
                raise RuntimeError("disk on fire")

        table._objects[ref.object_id] = BrokenPut()
        replica.increment()
        with pytest.raises(Exception, match="disk on fire"):
            consumer.put_back(replica)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestCodecTelemetry:
    def test_snapshot_carries_serial_counters(self, csites):
        from repro.core.telemetry import snapshot

        provider, consumer = csites
        provider.export(Counter(1), name="counter")
        consumer.replicate("counter")
        shot = snapshot(provider)
        assert shot.serial_fast_encodes >= 1
        assert "serial" in shot.render()
