"""Frame-level guarantees of the ``compiled_codec`` knob (PR 8).

``OBJECT_SCHEMA`` (0x10) frames cross the wire only where both ends
opted in: providers emit compiled frames only to consumers that
announced ``codec=1``, and a consumer with the knob off never ships one.
These tests watch the actual payload bytes crossing each proxy-in to
prove it.
"""

from repro.core.meta import obi_id_of
from repro.serial import tags
from tests.models import Counter


def _proxy_in(provider, master):
    oid = obi_id_of(master)
    ref = provider._provider_refs[provider._stripe_of(oid)][oid]
    return provider.endpoint.objects, ref.object_id


class RecordingProxyIn:
    """Wraps a proxy-in, recording the first byte of every payload that
    crosses it in either direction."""

    def __init__(self, inner):
        self._inner = inner
        self.sent_tags: list[int] = []
        self.received_tags: list[int] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get(self, mode=None):
        package = self._inner.get(mode)
        if package.payload:
            self.sent_tags.append(package.payload[0])
        return package

    def demand(self, mode=None):
        package = self._inner.demand(mode)
        if package.payload:
            self.sent_tags.append(package.payload[0])
        return package

    def put(self, package):
        for entry in package.entries:
            if entry.payload:
                self.received_tags.append(entry.payload[0])
        return self._inner.put(package)


class TestGetDirection:
    def test_pre_codec_consumer_never_receives_0x10(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        provider.compiled_codec = True  # provider is eager...
        master = Counter(3)
        provider.export(master, name="counter")
        table, object_id = _proxy_in(provider, master)
        recorder = RecordingProxyIn(table.get(object_id))
        table._objects[object_id] = recorder

        replica = consumer.replicate("counter")  # ...consumer never asked
        master.value = 9
        provider.touch(master, fields=("value",))
        consumer.refresh(replica)

        assert recorder.sent_tags  # frames did cross
        assert tags.OBJECT_SCHEMA not in recorder.sent_tags
        assert replica.read() == 9

    def test_codec_consumer_does_receive_0x10(self, zero_world):
        # Control: the recorder sees compiled frames when both ends opt in,
        # so the negative assertion above is not vacuous.
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        provider.compiled_codec = True
        consumer.compiled_codec = True
        master = Counter(3)
        provider.export(master, name="counter")
        table, object_id = _proxy_in(provider, master)
        recorder = RecordingProxyIn(table.get(object_id))
        table._objects[object_id] = recorder

        replica = consumer.replicate("counter")
        assert replica.read() == 3
        assert tags.OBJECT_SCHEMA in recorder.sent_tags


class TestPutDirection:
    def test_knobless_consumer_never_ships_0x10(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        provider.compiled_codec = True
        master = Counter(0)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")

        table, object_id = _proxy_in(provider, master)
        recorder = RecordingProxyIn(table.get(object_id))
        table._objects[object_id] = recorder

        replica.increment()
        consumer.put_back(replica)
        assert master.read() == 1
        assert recorder.received_tags
        assert tags.OBJECT_SCHEMA not in recorder.received_tags
